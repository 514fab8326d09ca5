import hashlib
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_t

import oracles
from oracles import (
    finite_difference_grad,
    gplvm,
    gplvm_log_likelihood_dense,
    latent_marginal,
    nystrom_log_likelihood_dense,
    potential_and_grad,
    se_covariance_dense,
    set_partitions,
    student_t_predictive_log,
)
from waferspr import cli, iwmm, validation
from waferspr.acfilter import ac_filter
from waferspr.errors import EmptyInputError, NumericalError
from waferspr.iwmm import (
    GwHyper,
    KernelParams,
    LatentState,
    McmcConfig,
    PointSet,
    crp_log_prior,
    gibbs_sweep,
    hmc_latent_step,
    iwmm_fit,
    nystrom_landmarks,
)
from waferspr.iwmm import (
    _cluster_members,
    _gplvm_ll,
    _marginal_and_grad,
    _nystrom_field,
)
from waferspr.synthgen import family_specs, generate, twelve_wafer_corpus
from waferspr.validation import adjusted_rand_index, evaluation_report

RNG = np.random.default_rng(20240811)


# -- GPLVM likelihood and gradient ---------------------------------------

def _energy_and_field(S, Z, kern):
    """The program's exact log p(S|Z) and Nyström field at Z, as a fresh
    chain state of S holds them."""
    return _unclustered_state(S, Z, kern).gplvm_ll_field()


def _unclustered_state(S, Z, kern):
    """A chain state of S at Z with every point in one cluster, under the
    default prior."""
    return LatentState(S, Z, np.ones(len(S), dtype=np.int64), kern, GwHyper())


def test_single_point_likelihood_closed_form():
    S, Z = np.array([[0.0, 0.0]]), np.array([[0.7, -0.2]])
    kern = KernelParams(1.0, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for val, grad in (gplvm(S, Z, kern), _energy_and_field(S, Z, kern)):
            assert val == pytest.approx(-math.log(2 * math.pi), abs=1e-12)
            assert (grad == 0.0).all()


def test_zero_outputs_leave_only_determinant_terms():
    Z = RNG.standard_normal((5, 2))
    kern = KernelParams(1.4, 0.9, 1e-6)
    K = se_covariance_dense(Z, kern)
    expected = -5 * math.log(2 * math.pi) - np.linalg.slogdet(K)[1]
    for got, _ in (gplvm(np.zeros((5, 2)), Z, kern), _energy_and_field(np.zeros((5, 2)), Z, kern)):
        assert got == pytest.approx(expected, rel=1e-12)


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelParams(signal_variance=0.0)
    with pytest.raises(ValueError):
        KernelParams(jitter=-1e-9)


def test_gradient_matches_finite_differences():
    for trial in range(6):
        n = int(RNG.integers(2, 8))
        S = RNG.standard_normal((n, 2))
        Z = RNG.standard_normal((n, 2))
        kern = KernelParams(
            signal_variance=float(RNG.uniform(0.5, 2.0)),
            length_scale=float(RNG.uniform(0.6, 1.8)),
            jitter=1e-6,
        )
        _, analytic = gplvm(S, Z, kern)
        numeric = finite_difference_grad(lambda Zp: gplvm(S, Zp, kern)[0], Z)
        rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
        assert rel.max() < 1e-4


def test_gradient_finite_for_coincident_points():
    Z = np.zeros((4, 2))
    S = RNG.standard_normal((4, 2))
    for _, g in (gplvm(S, Z, KernelParams(jitter=1e-6)),
                 _energy_and_field(S, Z, KernelParams(jitter=1e-6))):
        assert np.isfinite(g).all()


# The oracle's likelihood and gradient come from one computation, which
# returns neither when either is not finite; the program's exact
# likelihood and its field each check their own result.
@pytest.mark.parametrize("part", [0, 1], ids=["gplvm_log_likelihood", "gplvm_grad"])
@pytest.mark.parametrize("S,Z", [
    (np.zeros((3, 2)), [[1e200, 0.0], [0.0, 0.0], [1.0, 1.0]]),  # NaN in the covariance
    (np.zeros((3, 2)), [[np.nan, 0.0], [0.0, 0.0], [1.0, 1.0]]),
    ([[np.inf, 0.0], [0.0, 0.0], [1.0, 1.0]], np.zeros((3, 2))),
])
def test_non_finite_likelihood_or_gradient_is_numerical_error(part, S, Z):
    S, Z, kern = np.asarray(S, dtype=float), np.asarray(Z, dtype=float), KernelParams()
    program = [_gplvm_ll, _nystrom_field][part]
    # LAPACK factors a covariance holding NaN without an error
    with np.errstate(all="ignore"):
        state = _unclustered_state(S, Z, kern)
        with pytest.raises(NumericalError, match="not finite"):
            gplvm(S, Z, kern)[part]
        with pytest.raises(NumericalError,
                           match=["GPLVM likelihood", "GPLVM field"][part] + " is not finite"):
            program(state, Z)
        with pytest.raises(NumericalError, match="not finite"):
            _energy_and_field(S, Z, kern)


def test_gradient_antisymmetric_for_symmetric_pair():
    Z = np.array([[1.0, 0.5], [-1.0, -0.5]])
    S = np.array([[2.0, 1.0], [-2.0, -1.0]])
    _, g = gplvm(S, Z, KernelParams())
    assert np.allclose(g[0], -g[1], atol=1e-10)


def test_likelihood_matches_dense_oracle():
    rng = np.random.default_rng(606)
    for trial in range(40):
        n = int(rng.integers(1, 13))
        S = rng.standard_normal((n, 2)) * rng.uniform(0.3, 3.0)
        Z = rng.standard_normal((n, 2)) * rng.uniform(0.5, 2.0)
        kern = KernelParams(
            signal_variance=float(rng.uniform(0.3, 3.0)),
            length_scale=float(rng.uniform(0.4, 2.0)),
            jitter=float(rng.choice([1e-4, 1e-2, 0.3])),
        )
        want = gplvm_log_likelihood_dense(S, Z, kern)
        assert gplvm(S, Z, kern)[0] == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert _energy_and_field(S, Z, kern)[0] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        gplvm(np.zeros((3, 2)), np.zeros((2, 2)), KernelParams())


# -- GPLVM at the sizes the fits use ---------------------------------------

# 64 is the largest block the triangular inverse hands to dtrtri: these
# sizes reach one leaf, one even and one odd split, and deeper recursion.
FIT_SIZES = [1, 2, 63, 64, 65, 129, 200, 401]
# "default" keeps an ill-conditioned kernel under test: l = 1, jitter 1e-6.
KERNELS = {"pipeline": KernelParams(), "default": KernelParams(1.0, 1.0, 1e-6),
           "short": KernelParams(1.3, 0.8, 1e-3)}


def _fit_like_inputs(n, seed):
    """n distinct grid chips standardized as iwmm_fit does, and latent
    coordinates scattered around them."""
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(3 * n))
    cells = rng.choice(side * side, size=n, replace=False)
    S = np.stack([cells // side, cells % side], axis=1).astype(float)
    sd = S.std(axis=0)
    S = (S - S.mean(axis=0)) / np.where(sd == 0, 1.0, sd)
    return S, S + 0.1 * rng.standard_normal((n, 2))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n", FIT_SIZES)
def test_likelihood_matches_dense_oracle_at_fit_sizes(n, kernel):
    S, Z = _fit_like_inputs(n, seed=n)
    kern = KERNELS[kernel]
    want = gplvm_log_likelihood_dense(S, Z, kern)
    assert gplvm(S, Z, kern)[0] == pytest.approx(want, rel=1e-9, abs=1e-9)


# The "default" kernel's covariance of fit-like points has a condition
# number near 1e7, which leaves central differences too few digits.
@pytest.mark.parametrize("kernel", ["pipeline", "short"])
@pytest.mark.parametrize("n", FIT_SIZES)
def test_gradient_matches_central_differences_at_fit_sizes(n, kernel):
    S, Z = _fit_like_inputs(n, seed=1000 + n)
    kern = KERNELS[kernel]
    _, grad = gplvm(S, Z, kern)
    rng = np.random.default_rng(n)
    h = 1e-5
    for _ in range(3):
        V = rng.standard_normal(Z.shape)
        V /= np.linalg.norm(V)
        numeric = (gplvm(S, Z + h * V, kern)[0] - gplvm(S, Z - h * V, kern)[0]) / (2 * h)
        assert float(np.sum(grad * V)) == pytest.approx(numeric, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("n", FIT_SIZES)
def test_triangular_inverse_matches_numpy(n):
    rng = np.random.default_rng(n)
    L = np.tril(rng.uniform(-1.0, 1.0, (n, n)) / n, -1) + np.diag(rng.uniform(0.5, 2.0, n))
    work = np.asfortranarray(L + np.triu(np.full((n, n), 7.0), 1))
    inv = oracles.tri_inv_lower(work)
    want = np.linalg.inv(L)
    assert np.abs(np.tril(inv) - want).max() <= 1e-12 * np.abs(want).max()
    # the strict upper triangle is left as it was
    assert (np.triu(inv, 1) == np.triu(np.full((n, n), 7.0), 1)).all()


@pytest.mark.parametrize("n,zero_at", [(1, 0), (64, 63), (65, 0), (129, 64), (401, 400)])
def test_singular_factor_raises(n, zero_at):
    L = np.asfortranarray(np.eye(n))
    L[zero_at, zero_at] = 0.0
    with pytest.raises(NumericalError):
        oracles.tri_inv_lower(L)


# -- the exact energy and the Nyström field ----------------------------------

@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n", FIT_SIZES)
def test_exact_energy_matches_dense_oracle_at_fit_sizes(n, kernel):
    S, Z = _fit_like_inputs(n, seed=2000 + n)
    kern = KERNELS[kernel]
    got, _ = _energy_and_field(S, Z, kern)
    assert got == pytest.approx(gplvm_log_likelihood_dense(S, Z, kern), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kernel", ["pipeline", "short"])
@pytest.mark.parametrize("m", ["3", "n"])
@pytest.mark.parametrize("n", [5, 20, 40])
def test_field_is_the_gradient_of_the_nystrom_likelihood(n, m, kernel, monkeypatch):
    # The field is exact for the likelihood it approximates with: a
    # gradient, so the leapfrog steps follow a conservative force.
    monkeypatch.setattr(iwmm, "NYSTROM_LANDMARKS", 3 if m == "3" else n)
    S, Z = _fit_like_inputs(n, seed=5000 + n)
    kern, landmarks = KERNELS[kernel], nystrom_landmarks(S)
    field = _nystrom_field(_unclustered_state(S, Z, kern), Z)
    numeric = finite_difference_grad(
        lambda Zp: nystrom_log_likelihood_dense(S, Zp, kern, landmarks), Z, eps=1e-5)
    assert np.linalg.norm(field - numeric) <= 1e-6 * np.linalg.norm(numeric)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 40, 63, 64])
def test_field_with_every_point_a_landmark_matches_the_exact_gradient(n):
    # Only Kmm's 1e-6 regularization separates the two: relative to the
    # pipeline kernel's jitter 0.01 that is about 1e-4 of K^-1.
    for seed in range(3):
        S, Z = _fit_like_inputs(n, seed=3000 + 10 * n + seed)
        ll, grad = gplvm(S, Z, KernelParams())
        energy, field = _energy_and_field(S, Z, KernelParams())
        assert energy == pytest.approx(ll, rel=1e-10)
        assert np.linalg.norm(field - grad) <= 1e-4 * np.linalg.norm(grad)


def test_field_at_fit_sizes_is_close_to_the_exact_gradient():
    errors = []
    for n in (300, 377, 401):
        for seed in range(3):
            S, Z = _fit_like_inputs(n, seed=4000 + n + seed)
            _, grad = gplvm(S, Z, KernelParams())
            _, field = _energy_and_field(S, Z, KernelParams())
            errors.append(np.linalg.norm(field - grad) / np.linalg.norm(grad))
    assert np.median(errors) < 5e-3


@pytest.mark.parametrize("Z", ["coincident", "scattered"])
def test_jitter_zero_field_is_finite_or_a_counted_error(Z, monkeypatch):
    monkeypatch.setattr(iwmm, "NYSTROM_LANDMARKS", 8)
    rng = np.random.default_rng(21)
    S, Zs = _fit_like_inputs(50, seed=21)
    Z = np.zeros_like(S) if Z == "coincident" else Zs
    state = _unclustered_state(S, Z, KernelParams(jitter=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(10):
            hmc_latent_step(state, 0.05, rng)
            try:
                field = _energy_and_field(S, state.Z + 0.1 * rng.standard_normal(S.shape),
                                          state.kernel)[1]
            except NumericalError:
                continue
            assert np.isfinite(field).all()
    ll, field = state.gplvm_ll_field()
    assert math.isfinite(ll) and np.isfinite(field).all()


def test_landmarks_by_farthest_point_traversal(monkeypatch):
    many = RNG.standard_normal((200, 2))
    chosen = nystrom_landmarks(many)
    assert len(chosen) == iwmm.NYSTROM_LANDMARKS
    assert chosen.tolist() == sorted(set(chosen.tolist()))
    S = np.array([[0.0, 0.0], [4.0, 0.0], [-4.0, 0.0], [0.0, 3.0], [0.0, -3.0], [4.0, 0.0]])
    # Point 0 is nearest the mean.  Points 1, 2 and 5 are farthest from
    # it and 1 is the lowest index; then 2, then 3 and 4 tie at 3 from the
    # chosen set.  Point 5 duplicates point 1: it comes last, and once.
    for m, want in [(1, [0]), (2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2, 3]),
                    (6, [0, 1, 2, 3, 4, 5]), (10, [0, 1, 2, 3, 4, 5])]:
        monkeypatch.setattr(iwmm, "NYSTROM_LANDMARKS", m)
        assert nystrom_landmarks(S).tolist() == want
    monkeypatch.setattr(iwmm, "NYSTROM_LANDMARKS", 3)
    assert nystrom_landmarks(S[[5, 4, 3, 2, 1, 0]]).tolist() == [0, 3, 5]
    assert nystrom_landmarks(np.zeros((4, 2))).tolist() == [0, 1, 2]


def test_fit_keeps_the_landmarks_of_the_standardized_points(monkeypatch):
    # The leapfrog map is reversible only while the field's landmarks
    # stay put: every transition of a fit must see the landmarks of the
    # standardized points it started from, whatever Z has become.
    coords = np.random.default_rng(8).standard_normal((100, 2)) * [3.0, 1.0] + 5.0
    want = nystrom_landmarks((coords - coords.mean(axis=0)) / coords.std(axis=0))
    step = iwmm.hmc_latent_step
    seen = []

    def recording_step(state, *args):
        seen.append(state.landmarks.copy())
        accepted = step(state, *args)
        seen.append(state.landmarks.copy())
        return accepted

    monkeypatch.setattr(iwmm, "hmc_latent_step", recording_step)
    res = iwmm_fit(PointSet(coords), mcmc=McmcConfig(iters=20, burn_in=10), seed=4)
    assert len(seen) == 40 and res.hmc_acceptance_rate > 0
    assert not np.array_equal(nystrom_landmarks(np.asarray(res.latent_coords)), want)
    for landmarks in seen:
        assert landmarks.tolist() == want.tolist()


# -- numerical event counters ----------------------------------------------

def test_coincident_points_without_jitter_escalate():
    res = iwmm_fit(PointSet(np.zeros((5, 2))), k0=KernelParams(jitter=0.0),
                   mcmc=McmcConfig(iters=6, burn_in=2), seed=0)
    assert res.jitter_escalations > 0
    assert res.k_hat == 1


def test_escalated_energy_is_the_density_of_the_next_jitter():
    # At jitter 0 the covariance of coincident points is the all-ones
    # matrix, which is singular; the second step of the ladder adds
    # 100 * 1e-10 to its diagonal.  K + 1e-8 I has condition number 5e8,
    # so two solves of it agree to about 1e-8 (7e-9 over 300 seeds of S);
    # a wrong step would move the log-determinant alone by 18.
    S = np.random.default_rng(8).standard_normal((5, 2))
    Z = np.zeros((5, 2))
    state = _unclustered_state(S, Z, KernelParams(jitter=0.0))
    got = _gplvm_ll(state, Z)
    assert state.jitter_escalations == 1
    want = gplvm_log_likelihood_dense(S, Z, KernelParams(jitter=1e-8))
    assert got == pytest.approx(want, rel=1e-7)


def test_gplvm_work_holds_one_square_array():
    S = RNG.standard_normal((100, 2))
    state = _unclustered_state(S, S, KernelParams())
    assert len(state.landmarks) == 64
    square = [a for a in vars(state).values()
              if isinstance(a, np.ndarray) and a.shape == (100, 100)]
    assert len(square) == 1


def test_absurd_step_size_counts_numerical_rejections():
    state, S = _toy_state(seed=6)
    rng = np.random.default_rng(17)
    Z0 = state.Z.copy()
    with np.errstate(all="ignore"):
        accepted = [hmc_latent_step(state, 1e200, rng) for _ in range(4)]
    assert accepted == [False] * 4
    assert state.hmc_numerical_rejections == 4
    assert np.array_equal(state.Z, Z0)


def test_numerical_error_in_trajectory_is_counted(monkeypatch):
    state, S = _toy_state(seed=6)
    state.gplvm_ll_field()  # the start point is fine; every step of a trajectory fails

    def failing(*args, **kwargs):
        raise NumericalError("landmark covariance Cholesky failed")

    monkeypatch.setattr(iwmm, "_nystrom_field", failing)
    rng = np.random.default_rng(3)
    assert not hmc_latent_step(state, 0.01, rng)
    assert state.hmc_numerical_rejections == 1


# -- latent Gaussian-Wishart marginal ------------------------------------

def test_marginal_empty_is_zero():
    assert latent_marginal(np.zeros((0, 2)), np.zeros(0, dtype=int), GwHyper())[0] == 0.0


def test_single_point_at_prior_mode():
    h = GwHyper(m=np.array([0.4, -1.1]), p=1.0, R=np.eye(2), r=3.0)
    val, _ = latent_marginal(np.array([[0.4, -1.1]]), np.array([1]), h)
    assert val == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_marginal_label_permutation_invariant():
    Z = RNG.standard_normal((8, 2))
    A = np.array([1, 1, 2, 3, 2, 1, 3, 2])
    h = GwHyper()
    relabeled = np.array({1: 3, 2: 1, 3: 2}[a] for a in A.tolist())
    relabeled = np.array([{1: 3, 2: 1, 3: 2}[a] for a in A.tolist()])
    assert latent_marginal(Z, A, h)[0] == pytest.approx(
        latent_marginal(Z, relabeled, h)[0], rel=1e-13
    )


def test_predictive_equals_marginal_ratio():
    h = GwHyper(m=np.array([0.2, 0.1]), p=1.7, R=np.array([[2.0, 0.3], [0.3, 1.1]]), r=4.2)
    Z = RNG.standard_normal((6, 2))
    A = np.array([1, 1, 2, 1, 2, 2])
    z_new = np.array([0.4, -0.9])
    for target in (1, 2, 3):  # 3 = brand-new cluster
        Zp = np.vstack([Z, z_new])
        Ap = np.append(A, target)
        ratio = latent_marginal(Zp, Ap, h)[0] - latent_marginal(Z, A, h)[0]
        if target == 3:
            pred = student_t_predictive_log(z_new, 0, np.zeros(2), np.zeros((2, 2)), h)
        else:
            Zk = Z[A == target]
            pred = student_t_predictive_log(
                z_new, Zk.shape[0], Zk.sum(axis=0), Zk.T @ Zk, h
            )
        assert pred == pytest.approx(ratio, abs=1e-10)


def test_predictive_matches_scipy_student_t():
    h = GwHyper(m=np.array([-0.3, 0.8]), p=2.2, R=np.array([[1.5, -0.2], [-0.2, 0.9]]), r=5.0)
    Z = RNG.standard_normal((7, 2)) * 0.8
    Zk = Z[:4]
    n_k = 4
    p_k = h.p + n_k
    r_k = h.r + n_k
    m_k = (h.p * h.m + Zk.sum(axis=0)) / p_k
    Rk = h.R + Zk.T @ Zk + h.p * np.outer(h.m, h.m) - p_k * np.outer(m_k, m_k)
    dof = r_k - 1
    shape = Rk * (p_k + 1) / (p_k * dof)
    for z in (np.array([0.0, 0.0]), np.array([1.2, -0.7])):
        ours = student_t_predictive_log(z, n_k, Zk.sum(axis=0), Zk.T @ Zk, h)
        reference = multivariate_t.logpdf(z, loc=m_k, shape=shape, df=dof)
        assert ours == pytest.approx(reference, abs=1e-10)


def test_marginal_gradient_matches_finite_differences():
    h = GwHyper(m=np.array([0.1, -0.2]), p=1.3, R=np.array([[1.2, 0.1], [0.1, 0.8]]), r=4.0)
    Z = RNG.standard_normal((6, 2))
    A = np.array([1, 2, 1, 2, 1, 2])
    _, grad = _marginal_and_grad(Z, _cluster_members(A), h)
    numeric = finite_difference_grad(lambda Zp: latent_marginal(Zp, A, h)[0], Z)
    assert np.abs(grad - numeric).max() < 1e-6


def _random_prior(rng, alpha):
    """A Gaussian-Wishart prior with every parameter drawn, so that the
    association order of each product shows in the last bit, and with R
    symmetric only to np.allclose, so R's two off-diagonal entries are
    read apart."""
    L = np.tril(rng.uniform(-1.0, 1.0, (2, 2))) + np.diag(rng.uniform(0.3, 1.5, 2))
    R = L @ L.T
    R[1, 0] *= 1.0 + 1e-12
    return GwHyper(m=rng.uniform(-1.0, 1.0, 2), p=rng.uniform(0.2, 4.0), R=R,
                   r=rng.uniform(1.5, 8.0), alpha=alpha)


def _random_labels(rng, n, clusters, singletons):
    """Labels 1..K of n points: `singletons` one-point clusters first, the
    rest drawn from `clusters` labels."""
    raw = rng.integers(0, clusters, size=n)
    raw[:singletons] = clusters + np.arange(min(singletons, n))
    return np.unique(raw, return_inverse=True)[1].astype(np.int64) + 1


def _latent_case(seed, n, clusters, singletons, alpha, random_prior):
    """(rng, Z, A, h) of a bit-identity case."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 2)) * rng.uniform(0.1, 5.0) + rng.uniform(-3.0, 3.0)
    A = _random_labels(rng, n, clusters, singletons)
    h = _random_prior(rng, alpha) if random_prior else GwHyper(alpha=alpha)
    return rng, Z, A, h


LATENT_CASES = dict(
    n=st.integers(1, 80),
    clusters=st.integers(1, 6),
    singletons=st.integers(0, 4),
    alpha=st.sampled_from([1e-3, 0.3, 5.0]),
    random_prior=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@given(**LATENT_CASES)
@settings(max_examples=60, deadline=None)
def test_marginal_bit_identical_to_numpy_oracle(n, clusters, singletons, alpha, random_prior,
                                               seed):
    _, Z, A, h = _latent_case(seed, n, clusters, singletons, alpha, random_prior)
    want, want_grad = oracles.marginal_and_grad(Z, A, h)
    value, grad = _marginal_and_grad(Z, _cluster_members(A), h)
    assert value == want
    assert np.array_equal(grad, want_grad)
    state = _state(Z, A, h)
    assert state.marginal_log() == oracles.marginal_log_from_sums(state._sums, h)


@given(sweeps=st.integers(1, 3), **LATENT_CASES)
@settings(max_examples=60, deadline=None)
def test_gibbs_sweep_bit_identical_to_per_point_oracle(n, clusters, singletons, alpha,
                                                       random_prior, seed, sweeps):
    _, Z, A, h = _latent_case(seed, n, clusters, singletons, alpha, random_prior)
    state, oracle_state = _state(Z, A, h), _state(Z, A)
    rng_state, rng_oracle = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    for _ in range(sweeps):
        gibbs_sweep(state, rng_state)
        for i in range(n):
            oracles.gibbs_assignment_step(oracle_state, i, h, rng_oracle)
        assert state.A.tolist() == oracle_state.A.tolist()
        assert state._sums == oracle_state._sums
        assert rng_state.bit_generator.state == rng_oracle.bit_generator.state


class _Uniforms:
    """An rng whose `random(size)` returns the given draws."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, size):
        assert size == len(self.draws)
        return np.array(self.draws)


@given(**LATENT_CASES)
@settings(max_examples=60, deadline=None)
def test_gibbs_sweep_weights_bit_identical_at_decision_boundaries(n, clusters, singletons,
                                                                 alpha, random_prior, seed):
    # Each draw lands exactly on a boundary between two of the oracle's
    # cumulative weights, so a weight that differs in its last bit can
    # change the sweep's choice.
    rng, Z, A, h = _latent_case(seed, n, clusters, singletons, alpha, random_prior)
    state, oracle_state = _state(Z, A, h), _state(Z, A)
    draws = []
    for i in range(n):
        oracles.remove_point(oracle_state, i)
        logs = oracles.gibbs_conditional_logs(oracle_state, i, h)
        boundary = int(rng.integers(0, len(logs)))
        u = oracles.gibbs_boundary_uniform(logs, boundary)
        draws.append(rng.random() if u is None else u)
        oracles.assign_point(oracle_state, i, oracles.gibbs_choice(logs, draws[-1]) + 1)
    gibbs_sweep(state, _Uniforms(draws))
    assert state.A.tolist() == oracle_state.A.tolist()
    assert state._sums == oracle_state._sums


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_rejected(bad):
    for field in ("signal_variance", "length_scale", "jitter"):
        with pytest.raises(ValueError, match="finite"):
            KernelParams(**{field: bad})
    for field in ("p", "r", "alpha"):
        with pytest.raises(ValueError, match="finite"):
            GwHyper(**{field: bad})
    with pytest.raises(ValueError, match="finite"):
        GwHyper(m=np.array([0.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        GwHyper(R=np.array([[bad, 0.0], [0.0, 1.0]]))


def test_real_parameters_refuse_bools_and_non_numbers():
    # signal_variance=True and alpha=True were stored as bools and used as
    # 1.0; jitter="0" and p=None ended in a TypeError.
    for cls, names in ((KernelParams, ("signal_variance", "length_scale", "jitter")),
                       (GwHyper, ("p", "r", "alpha"))):
        for name in names:
            for value in (True, np.True_, "1", None):
                with pytest.raises(ValueError, match=f"^{name} must be finite and real"):
                    cls(**{name: value})
    kern = KernelParams(1, np.float32(1.5), Fraction(1, 100))
    assert kern == KernelParams()
    assert {type(getattr(kern, name)) for name in ("signal_variance", "length_scale",
                                                   "jitter")} == {float}
    h = GwHyper(p=1, r=np.int64(3), alpha=Fraction(3, 10))
    assert (h.p, h.r, h.alpha) == (1.0, 3.0, 0.3)
    assert {type(h.p), type(h.r), type(h.alpha)} == {float}


def test_hyper_validation():
    with pytest.raises(ValueError):
        GwHyper(r=1.0)
    with pytest.raises(ValueError):
        GwHyper(R=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD
    with pytest.raises(ValueError):
        GwHyper(alpha=0.0)


# -- CRP prior -----------------------------------------------------------

def test_crp_single_point():
    assert crp_log_prior([1], 0.37) == 0.0


def test_crp_two_points_same_cluster():
    assert crp_log_prior([1, 1], 1.0) == pytest.approx(math.log(0.5))


@pytest.mark.parametrize("n,alpha", [(3, 1.0), (4, 0.5), (5, 2.0), (6, 1.0)])
def test_crp_normalizes_over_partitions(n, alpha):
    total = sum(math.exp(crp_log_prior(p, alpha)) for p in set_partitions(n))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_crp_label_invariance():
    assert crp_log_prior([1, 2, 1, 3], 0.8) == crp_log_prior([3, 1, 3, 2], 0.8)


# -- cluster bookkeeping and Gibbs ----------------------------------------

def _state(Z, A, h=GwHyper()):
    return LatentState(Z, Z, A, KernelParams(), h)


def test_incremental_stats_match_scratch_recompute():
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((20, 2))
    A = rng.integers(1, 4, size=20)
    A = np.array([1, 2, 3] + list(A[3:]))  # ensure all labels present
    state = _state(Z, A)
    gibbs_sweep(state, rng)
    reference = _state(state.Z, state.A.copy())
    for got, want in zip(state._sums, reference._sums):
        assert got[0] == want[0]
        assert np.allclose(got[1:], want[1:], atol=1e-9)


def _gibbs_sums_drift(Z, alpha, sweeps, rng):
    """Worst drift of the running cluster sums after `sweeps` Gibbs sweeps
    without an HMC move, relative to the sums of |terms| they add up."""
    state = _state(Z, np.ones(Z.shape[0], dtype=int), GwHyper(alpha=alpha))
    for _ in range(sweeps):
        gibbs_sweep(state, rng)
    drifted = np.array(state._sums)
    state.refresh()
    fresh = np.array(state._sums)
    scale = np.array(_state(np.abs(Z), state.A)._sums)
    assert np.array_equal(drifted[:, 0], fresh[:, 0])
    return float(np.max(np.abs(drifted - fresh)[:, 1:] / scale[:, 1:]))


@given(
    n=st.integers(2, 100),
    sweeps=st.integers(1, 150),
    alpha=st.sampled_from([0.3, 1.0, 5.0]),
    spread=st.floats(0.05, 10.0),
    offset=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_gibbs_running_sums_do_not_drift(n, sweeps, alpha, spread, offset, seed):
    # The sums are rebuilt only when HMC accepts; a run of rejections must
    # not let them wander from a fresh rebuild.
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 2)) * spread + offset
    assert _gibbs_sums_drift(Z, alpha, sweeps, rng) <= 1e-9


def test_gibbs_single_point_forms_cluster_one():
    rng = np.random.default_rng(0)
    state = _state(np.array([[0.3, 0.4]]), np.array([1]))
    for _ in range(5):
        gibbs_sweep(state, rng)
        assert state.A.tolist() == [1]
    assert state.K == 1


def test_gibbs_tiny_alpha_joins_existing_cluster():
    rng = np.random.default_rng(1)
    Z = np.vstack([np.zeros((8, 2)), [[0.01, 0.01]]])
    A = np.array([1] * 8 + [1])
    state = _state(Z, A, GwHyper(alpha=1e-12))
    for _ in range(50):
        gibbs_sweep(state, rng)
        assert state.A.tolist() == [1] * 9


def test_gibbs_labels_stay_contiguous():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((12, 2)) * 2.0
    state = _state(Z, np.ones(12, dtype=int), GwHyper(alpha=2.0))
    for sweep in range(30):
        gibbs_sweep(state, rng)
        labels = sorted(set(state.A.tolist()))
        assert labels == list(range(1, len(labels) + 1))
        assert all(s[0] >= 1 for s in state._sums)


def test_gibbs_fixed_z_posterior_small_tv():
    # n = 4 quick check (the n = 5 version is an acceptance criterion)
    rng = np.random.default_rng(7)
    Z = np.array([[0.0, 0.0], [0.1, 0.1], [2.0, 2.0], [2.1, 1.9]])
    h = GwHyper(alpha=1.0)
    exact = {}
    for part in set_partitions(4):
        logw = latent_marginal(Z, np.array(part), h)[0] + crp_log_prior(part, h.alpha)
        exact[part] = logw
    mx = max(exact.values())
    total = sum(math.exp(v - mx) for v in exact.values())
    exact = {k: math.exp(v - mx) / total for k, v in exact.items()}

    state = _state(Z, np.ones(4, dtype=int), h)
    counts = {}
    sweeps = 40578
    for sweep in range(sweeps + 500):
        gibbs_sweep(state, rng)
        if sweep >= 500:
            key = tuple(_canonical(state.A))
            counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(
        abs(exact.get(k, 0.0) - counts.get(k, 0) / sweeps)
        for k in set(exact) | set(counts)
    )
    assert tv < 0.03


def _canonical(A):
    mapping = {}
    out = []
    for a in A.tolist():
        if a not in mapping:
            mapping[a] = len(mapping) + 1
        out.append(mapping[a])
    return out


# -- HMC -------------------------------------------------------------------

def _toy_state(n=6, seed=4):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 2))
    A = np.array([1, 2] * (n // 2))
    S = rng.standard_normal((n, 2))
    return LatentState(S, Z, A, KernelParams(), GwHyper()), S


def test_hmc_zero_step_size_accepts_identity():
    state, S = _toy_state()
    Z0 = state.Z.copy()
    rng = np.random.default_rng(9)
    accepted = hmc_latent_step(state, 0.0, rng)
    assert accepted
    assert np.array_equal(state.Z, Z0)


def test_hmc_energy_conservation_small_steps():
    state, S = _toy_state()
    # moderate noise level keeps the GP curvature bounded, so the
    # second-order leapfrog error is actually visible at eps = 1e-3
    state.kernel = KernelParams(jitter=5e-2)
    h = GwHyper()
    rng = np.random.default_rng(11)
    eps = 1e-3
    for _ in range(5):
        p = rng.standard_normal(state.Z.shape)
        U0, g = potential_and_grad(S, state.Z, state.kernel, state.A, h)
        H0 = U0 + 0.5 * np.sum(p * p)
        Z = state.Z.copy()
        pp = p - 0.5 * eps * g
        for step in range(10):
            Z = Z + eps * pp
            U1, g1 = potential_and_grad(S, Z, state.kernel, state.A, h)
            pp = pp - (eps if step < 9 else 0.5 * eps) * g1
        H1 = U1 + 0.5 * np.sum(pp * pp)
        assert abs(H1 - H0) < 1e-3


def test_leapfrog_reversibility():
    state, S = _toy_state(seed=5)
    h = GwHyper()
    rng = np.random.default_rng(13)
    eps, L = 0.01, 8
    p0 = rng.standard_normal(state.Z.shape)
    Z0 = state.Z.copy()

    def leapfrog(Z, p):
        _, g = potential_and_grad(S, Z, state.kernel, state.A, h)
        p = p - 0.5 * eps * g
        for step in range(L):
            Z = Z + eps * p
            _, g = potential_and_grad(S, Z, state.kernel, state.A, h)
            p = p - (eps if step < L - 1 else 0.5 * eps) * g
        return Z, p

    Z1, p1 = leapfrog(Z0, p0)
    Z2, p2 = leapfrog(Z1, -p1)
    assert np.abs(Z2 - Z0).max() < 1e-8
    assert np.abs(-p2 - p0).max() < 1e-8


def test_transition_forms_one_covariance_and_steps_on_the_field(monkeypatch):
    # The leapfrog steps read only the field; the n x n covariance is
    # formed once, by the exact energy at the end point.
    state, S = _toy_state(seed=6)
    state.gplvm_ll_field()  # the start point's energy and field are cached
    calls = Counter()

    def counting(name):
        inner = getattr(iwmm, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in ("_gplvm_ll", "_nystrom_field"):
        monkeypatch.setattr(iwmm, name, counting(name))
    monkeypatch.setattr(iwmm, "LEAPFROG_STEPS", 7)
    hmc_latent_step(state, 0.01, np.random.default_rng(5))
    assert calls == {"_gplvm_ll": 1, "_nystrom_field": 7}


def test_hmc_updates_state_only_on_accept():
    state, S = _toy_state(seed=6)
    rng = np.random.default_rng(17)
    Z0 = state.Z.copy()
    accepted = hmc_latent_step(state, 50.0, rng)  # absurd step
    assert not accepted
    assert np.array_equal(state.Z, Z0)


def test_nystrom_leapfrog_is_reversible(monkeypatch):
    # The field depends on the position alone, so the leapfrog map it
    # drives is reversible even where it is far from the exact gradient
    # (8 landmarks of 40 points).
    monkeypatch.setattr(iwmm, "NYSTROM_LANDMARKS", 8)
    S, Z0 = _fit_like_inputs(40, seed=40)
    kern, h = KernelParams(), GwHyper()
    A = np.array([1, 2] * 20)
    members = _cluster_members(A)
    state = LatentState(S, Z0, A, kern, h)
    eps, steps = 0.002, 8

    def force(Z):
        return _nystrom_field(state, Z) + _marginal_and_grad(Z, members, h)[1]

    def leapfrog(Z, p):
        p = p + 0.5 * eps * force(Z)
        for step in range(steps):
            Z = Z + eps * p
            p = p + (eps if step < steps - 1 else 0.5 * eps) * force(Z)
        return Z, p

    p0 = np.random.default_rng(41).standard_normal(Z0.shape)
    Z1, p1 = leapfrog(Z0, p0)
    assert np.abs(Z1 - Z0).max() > 1e-3
    Z2, p2 = leapfrog(Z1, -p1)
    assert np.abs(Z2 - Z0).max() < 1e-8
    assert np.abs(-p2 - p0).max() < 1e-8


# The Geweke test's model: five points, a noisier kernel than the
# pipeline's and a prior with light enough tails that every test
# function has a variance, so the successive-conditional chain mixes
# within its budget.
GEWEKE_KERNEL = KernelParams(jitter=0.05)
GEWEKE_HYPER = GwHyper(R=3.5 * np.eye(2), r=10.0, alpha=1.0)


def _gp_draw(Z, rng):
    """S drawn from the GP given Z."""
    K = se_covariance_dense(Z, GEWEKE_KERNEL)
    return np.linalg.cholesky(K) @ rng.standard_normal((Z.shape[0], 2))


def _prior_draw(n, rng):
    """(A, Z, S) drawn from the model: A from the CRP, each cluster's
    Gaussian from the Gaussian-Wishart prior (its precision Wishart with
    scale R^-1 and r degrees of freedom, its mean normal with precision
    p times that), Z from the clusters and S from the GP."""
    h = GEWEKE_HYPER
    counts = []
    A = np.empty(n, dtype=np.int64)
    for i in range(n):
        weights = np.cumsum(counts + [h.alpha])
        k = int(np.searchsorted(weights, rng.random() * weights[-1], side="right"))
        if k == len(counts):
            counts.append(0)
        counts[k] += 1
        A[i] = k + 1
    Z = np.empty((n, 2))
    root = np.linalg.cholesky(np.linalg.inv(h.R))
    for k, size in enumerate(counts, 1):
        X = rng.standard_normal((int(h.r), 2)) @ root.T
        cov_root = np.linalg.cholesky(np.linalg.inv(X.T @ X))
        mean = h.m + cov_root @ rng.standard_normal(2) / math.sqrt(h.p)
        Z[A == k] = mean + rng.standard_normal((size, 2)) @ cov_root.T
    return A, Z, _gp_draw(Z, rng)


def _geweke_functions(A, Z, S):
    """K, mean |z|^2, mean s^2 and the mean covariance of two distinct
    points, which reads the spread of Z on the kernel's scale."""
    n = Z.shape[0]
    K = se_covariance_dense(Z, GEWEKE_KERNEL)
    return (len(set(A.tolist())), float(np.mean(np.sum(Z * Z, axis=1))), float(np.mean(S * S)),
            float((K.sum() - np.trace(K)) / (n * (n - 1))))


def test_geweke_joint_distribution(monkeypatch):
    # Geweke, "Getting It Right: Joint Distribution Tests of Posterior
    # Simulators", JASA 2004.  Draws of (A, Z, S) from the model itself
    # must match, in every test function's mean, the draws of a chain
    # that alternates a Gibbs sweep, one HMC transition at a fixed step
    # size and a fresh S from the GP given Z: each step leaves the joint
    # distribution invariant.  The HMC steps run on 3 landmarks of 5
    # points, so the field is far from the exact gradient and only the
    # Metropolis test on the exact energy keeps the target.
    # The landmarks are those of the current S, which the HMC transition
    # holds fixed; landmarks of Z would change along the chain.
    monkeypatch.setattr(iwmm, "NYSTROM_LANDMARKS", 3)
    n, draws, batches = 5, 10000, 50
    rng = np.random.default_rng(2004)
    marginal = np.array([_geweke_functions(*_prior_draw(n, rng)) for _ in range(draws)])
    A, Z, S = _prior_draw(n, rng)
    chain = []
    for _ in range(draws):
        state = LatentState(S, Z, A, GEWEKE_KERNEL, GEWEKE_HYPER)
        gibbs_sweep(state, rng)
        hmc_latent_step(state, 0.1, rng)
        A, Z = state.A, state.Z
        S = _gp_draw(Z, rng)
        chain.append(_geweke_functions(A, Z, S))
    chain = np.array(chain)
    batch_means = chain.reshape(batches, -1, chain.shape[1]).mean(axis=1)
    z = (marginal.mean(axis=0) - chain.mean(axis=0)) / np.sqrt(
        marginal.var(axis=0) / draws + batch_means.var(axis=0, ddof=1) / batches)
    assert np.abs(z).max() < 4.0, z


# -- end-to-end fits -------------------------------------------------------

def test_fit_single_point():
    for seed in (0, 1, 2):
        res = iwmm_fit(
            PointSet(np.array([[5.0, 7.0]])),
            mcmc=McmcConfig(iters=8, burn_in=2),
            seed=seed,
        )
        assert res.k_hat == 1
        assert res.assignments == (1,)


def test_fit_rejects_empty():
    with pytest.raises(EmptyInputError):
        PointSet(np.zeros((0, 2)))


def test_fit_seed_is_a_whole_number():
    # seed=None ran an unseeded fit from OS entropy, True ran seed 1 and
    # 1.5 ended in a TypeError.
    pts = PointSet([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    mcmc = McmcConfig(iters=6, burn_in=2)
    for seed in (None, True, np.True_, 1.5, "1", math.nan):
        with pytest.raises(ValueError, match="^seed must be a whole number"):
            iwmm_fit(pts, mcmc=mcmc, seed=seed)
    want = iwmm_fit(pts, mcmc=mcmc, seed=3)
    for seed in (np.int64(3), 3.0):
        got = iwmm_fit(pts, mcmc=mcmc, seed=seed)
        assert got.trace == want.trace
        assert np.array_equal(got.latent_coords, want.latent_coords)


def test_fit_deterministic_per_seed():
    pts = PointSet(RNG.standard_normal((15, 2)))
    a = iwmm_fit(pts, mcmc=McmcConfig(iters=20, burn_in=10), seed=3)
    b = iwmm_fit(pts, mcmc=McmcConfig(iters=20, burn_in=10), seed=3)
    assert a.assignments == b.assignments
    assert a.trace == b.trace
    assert np.array_equal(a.latent_coords, b.latent_coords)


def test_fits_pinned():
    """SHA-256 of every deterministic IwmmResult field of seeded short fits
    to the AC-kept chips of corpus wafers w00 and w07, seeds 0 and 1, with
    OpenBLAS on one thread.  The fits' floats depend on the BLAS and libm
    builds, so the digest guards a refactor on one machine rather than
    the arithmetic everywhere."""
    corpus = twelve_wafer_corpus()
    digest = hashlib.sha256()
    for idx in (0, 7):
        wmap = corpus[idx][1].map
        points = PointSet(np.array(cli.filtered_points(wmap, ac_filter(wmap)), dtype=float))
        for seed in (0, 1):
            res = iwmm_fit(points, mcmc=McmcConfig(iters=30, burn_in=10), seed=seed)
            digest.update(repr((res.assignments, res.k_hat, res.trace, res.hmc_acceptance_rate,
                                res.jitter_escalations, res.hmc_numerical_rejections,
                                res.step_size, res.step_size_path)).encode())
            digest.update(np.ascontiguousarray(res.latent_coords).tobytes())
    assert digest.hexdigest() == (
        "f9d6be8c218af31586a7181bcdf0c53025d7b9a4f95085e367407cfea62a530d")


# A seeded fit to the AC-kept chips of corpus wafer w07 through the Python
# API, by a caller that pins no BLAS threads; it prints the fit's digest.
_UNPINNED_FIT = """
import hashlib
import numpy as np
from waferspr import cli
from waferspr.acfilter import ac_filter
from waferspr.iwmm import McmcConfig, PointSet, iwmm_fit
from waferspr.synthgen import twelve_wafer_corpus

wmap = twelve_wafer_corpus()[7][1].map
points = PointSet(np.array(cli.filtered_points(wmap, ac_filter(wmap)), dtype=float))
res = iwmm_fit(points, mcmc=McmcConfig(iters=30, burn_in=10), seed=0)
digest = hashlib.sha256(repr((res.assignments, res.trace, res.step_size_path)).encode())
digest.update(np.ascontiguousarray(res.latent_coords).tobytes())
print(digest.hexdigest())
"""


def test_fit_does_not_depend_on_the_callers_openblas_threads():
    """The same seeded fit, run in two fresh processes under
    OPENBLAS_NUM_THREADS=1 and =2 with no pin by the caller, gives the
    same bytes, since the fit sets OpenBLAS to one thread itself.  On a
    machine with one core OpenBLAS runs one thread either way, so there
    the test passes with or without that pin."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", _UNPINNED_FIT], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_fit_trace_finite_and_labels_contiguous():
    pts = PointSet(RNG.standard_normal((12, 2)) * 3)
    res = iwmm_fit(pts, mcmc=McmcConfig(iters=30, burn_in=10), seed=5)
    assert all(math.isfinite(j) for _, j in res.trace)
    labels = sorted(set(res.assignments))
    assert labels == list(range(1, res.k_hat + 1))
    assert len(res.trace) == 30
    # the GPLVM's two parts are timed within the HMC transitions
    seconds = res.wall_seconds
    assert seconds["gplvm_ll"] > 0 and seconds["gplvm_field"] > 0
    assert seconds["gplvm_ll"] + seconds["gplvm_field"] <= seconds["hmc"]


def test_fit_reports_the_step_size_path_through_burn_in():
    pts = PointSet(np.random.default_rng(25).standard_normal((8, 2)))
    res = iwmm_fit(pts, mcmc=McmcConfig(iters=61, burn_in=60), seed=1)
    assert [it for it, _ in res.step_size_path] == [25, 50, 60]
    assert res.step_size_path[-1][1] == res.step_size
    # After 25 iterations the step has grown on a accepts and shrunk on
    # 25 - a rejects, with no clipping yet.
    step = res.step_size_path[0][1]
    assert any(math.isclose(step, iwmm.INITIAL_STEP_SIZE * 1.07**a * 0.87**(25 - a))
               for a in range(26))
    assert iwmm_fit(pts, mcmc=McmcConfig(iters=3, burn_in=0), seed=1).step_size_path == ()


def test_fit_two_blobs_quick():
    rng = np.random.default_rng(42)
    pts = np.vstack([
        rng.normal((0, 0), 1.0, (30, 2)),
        rng.normal((10, 0), 1.0, (30, 2)),
    ])
    truth = [1] * 30 + [2] * 30
    res = iwmm_fit(PointSet(pts), mcmc=McmcConfig(iters=120, burn_in=60), seed=0)
    assert res.k_hat == 2
    assert adjusted_rand_index(truth, list(res.assignments)) > 0.95


def test_seeded_fit_and_report_do_not_depend_on_float_summation(monkeypatch):
    # Since Python 3.12 the builtin sum adds floats with compensated
    # summation; math.fsum stands in for it here.  A seeded fit and its
    # report keep the bytes of plain left-to-right addition under either.
    sw = generate(24, 24, family_specs("two_zone"), 0.05, 0)
    kept = sw.map.with_overlay(ac_filter(sw.map).labels).defective_coords()
    points = np.array(kept, dtype=float)
    truth = [int(sw.truth_labels[r * 24 + c]) for r, c in kept]

    def fit_and_report():
        iwmm._crp_normalizer.cache_clear()
        res = iwmm_fit(PointSet(points), mcmc=McmcConfig(iters=40, burn_in=20), seed=0)
        report = evaluation_report(points, list(res.assignments), truth)
        return repr((res.assignments, res.trace, res.latent_coords.tobytes(), report.to_dict()))

    want = fit_and_report()
    monkeypatch.setattr(iwmm, "sum", math.fsum, raising=False)
    monkeypatch.setattr(validation, "sum", math.fsum, raising=False)
    try:
        assert fit_and_report() == want
    finally:
        monkeypatch.undo()
        iwmm._crp_normalizer.cache_clear()


def test_component_init():
    from waferspr.iwmm import _component_init

    coords = np.array([[0, 0], [0, 1], [1, 1], [5, 5], [5, 6], [9, 0]], dtype=float)
    labels = _component_init(coords)
    assert labels.tolist() == [1, 1, 1, 2, 2, 3]
    # components are numbered in input order of their first point
    labels = _component_init(coords[[5, 3, 2, 4, 0, 1]])
    assert labels.tolist() == [1, 2, 3, 2, 3, 3]


def test_mcmc_config_validation():
    for iters, burn_in in ((10, 10), (10, 11), (10, -1), (0, 0)):
        with pytest.raises(ValueError, match="^need iters > burn_in >= 0"):
            McmcConfig(iters=iters, burn_in=burn_in)
    # Both are counts: iters=10.0 and NaN ended in a TypeError, burn_in=2.5
    # ran a fractional burn-in and iters=True one iteration.
    for name, value in (("iters", 10.5), ("iters", math.nan), ("iters", math.inf),
                        ("iters", True), ("iters", "10"), ("burn_in", 2.5),
                        ("burn_in", np.True_), ("burn_in", None)):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            McmcConfig(**{"iters": 10, "burn_in": 2, name: value})
    mcmc = McmcConfig(iters=10.0, burn_in=np.int64(4))
    assert (mcmc.iters, mcmc.burn_in) == (10, 4)
    assert (type(mcmc.iters), type(mcmc.burn_in)) == (int, int)
    assert iwmm_fit(PointSet([[0.0, 0.0], [1.0, 0.0]]), mcmc=mcmc).hmc_accepted <= 10
