"""Infinite warped mixture model for 2-D point sets.

A Gaussian-process latent variable model warps latent coordinates Z into
the observed coordinates S, and a Dirichlet-process Gaussian mixture with
a Gaussian-Wishart prior clusters the points in latent space.  Inference
alternates collapsed Gibbs sampling of the assignments (the per-cluster
Gaussian parameters are integrated out, leaving multivariate Student-t
predictives) with one hybrid Monte Carlo transition over Z per sweep.

Observed coordinates are standardized internally (zero mean, unit
variance per axis) so the default kernel and prior scales are sensible
across wafer sizes; assignments are unaffected by this affine change.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, product
from operator import add

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack
from scipy.sparse.csgraph import connected_components

from .errors import EmptyInputError, InternalError, NumericalError
from .validation import canonical_labels
from .wafer import real_number, whole_number

_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class PointSet:
    """n observed 2-D coordinates, one row per point."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 1:
            raise EmptyInputError("PointSet needs an (n, 2) array with n >= 1")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel: signal_variance * exp(-|dz|^2 / (2 l^2)),
    plus `jitter` on the diagonal.  By default a noisy GP (jitter 0.01),
    which lets the warp deform enough to contract curved patterns."""

    signal_variance: float = 1.0
    length_scale: float = 1.5
    jitter: float = 0.01

    def __post_init__(self):
        for name in ("signal_variance", "length_scale", "jitter"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if self.signal_variance <= 0 or self.length_scale <= 0:
            raise ValueError("signal_variance and length_scale must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")


@dataclass(frozen=True, eq=False)
class GwHyper:
    """Gaussian-Wishart prior (mean m, relative precision p, scale R,
    degrees of freedom r) plus the DP concentration alpha.  The default
    scale R = 2 I is a wide cluster-scale prior, which discourages
    fragmenting arcs."""

    m: np.ndarray = field(default_factory=lambda: np.zeros(2))
    p: float = 1.0
    R: np.ndarray = field(default_factory=lambda: 2.0 * np.eye(2))
    r: float = 3.0
    alpha: float = 0.3

    def __post_init__(self):
        for name in ("p", "r", "alpha"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        m = np.asarray(self.m, dtype=float).reshape(2)
        R = np.asarray(self.R, dtype=float).reshape(2, 2)
        if not (np.isfinite(m).all() and np.isfinite(R).all()):
            raise ValueError("Gaussian-Wishart hyperparameters must be finite")
        if not np.allclose(R, R.T):
            raise ValueError("R must be symmetric")
        if np.linalg.det(R) <= 0 or R[0, 0] <= 0:
            raise ValueError("R must be positive definite")
        if self.r <= 1:
            raise ValueError("degrees of freedom r must exceed 1 for 2-D data")
        if self.p <= 0 or self.alpha <= 0:
            raise ValueError("p and alpha must be positive")
        m = m.copy(); m.flags.writeable = False
        R = R.copy(); R.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "R", R)


# HMC step size at the first iteration; burn-in adapts it from there.
INITIAL_STEP_SIZE = 0.01

# Burn-in iterations between two entries of a fit's step_size_path.
STEP_SIZE_PATH_EVERY = 25

# Most iterations that move only the warp before assignments are resampled.
WARP_WARMUP = 40

# Leapfrog steps of an HMC transition.
LEAPFROG_STEPS = 5


@dataclass(frozen=True)
class McmcConfig:
    """MCMC schedule.  The HMC step size starts at INITIAL_STEP_SIZE and
    is tuned multiplicatively during burn-in (up on accept, down on
    reject), then frozen; adaptation is deterministic given the seed."""

    iters: int = 300
    burn_in: int = 150

    def __post_init__(self):
        for name in ("iters", "burn_in"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if self.iters <= self.burn_in or self.burn_in < 0:
            raise ValueError("need iters > burn_in >= 0")

    @property
    def gibbs_start(self) -> int:
        """Initial iterations without assignment resampling, so the warp
        can reshape the latent space around the initial partition first:
        WARP_WARMUP, or half the burn-in when that is fewer."""
        return min(WARP_WARMUP, self.burn_in // 2)


@dataclass(frozen=True, eq=False)
class IwmmResult:
    """A fit's kept state and its deterministic counters:
    `hmc_accepted` counts the accepted HMC transitions,
    `jitter_escalations` the times the covariance Cholesky needed more
    jitter, `hmc_numerical_rejections` the HMC proposals rejected
    because their energy could not be computed (see hmc_latent_step), and
    `step_size` is the HMC step size that burn-in left, frozen after it;
    `step_size_path` holds (iteration, step size) pairs, the step size
    after every STEP_SIZE_PATH_EVERY-th burn-in iteration and after the
    last one.
    `wall_seconds`, the one field that is not deterministic, holds the
    wall-clock seconds of the Gibbs sweeps ("gibbs"), the HMC
    transitions ("hmc") and the whole fit ("fit"), and, within "hmc",
    those of the exact GPLVM log-likelihood ("gplvm_ll", see _gplvm_ll)
    and of its Nyström field ("gplvm_field", see _nystrom_field).  A
    transition calls the first once and the second LEAPFROG_STEPS times,
    and the fit's first transition calls each once more to fill the
    state's cache, so these counts give a fit's seconds per call."""

    assignments: tuple
    k_hat: int
    latent_coords: np.ndarray
    trace: tuple
    hmc_accepted: int
    jitter_escalations: int
    hmc_numerical_rejections: int
    step_size: float
    step_size_path: tuple = ()
    wall_seconds: dict = field(default_factory=dict)

    @property
    def hmc_acceptance_rate(self) -> float:
        """The share of iterations whose HMC transition was accepted."""
        return self.hmc_accepted / len(self.trace)


# ---------------------------------------------------------------------
# GPLVM warp likelihood
# ---------------------------------------------------------------------

def _se_kernel(Z, Y, kern, out):
    """signal_variance * exp(-|z_i - y_j|^2 / (2 l^2)) for the rows z_i
    of Z and y_j of Y, written into `out`."""
    K = np.add.outer(np.sum(Z * Z, axis=1), np.sum(Y * Y, axis=1), out=out)
    K = _blas.dgemm(-2.0, Z, Y, beta=1.0, c=K, trans_b=1, overwrite_c=1)
    np.maximum(K, 0.0, out=K)
    K *= -0.5 / kern.length_scale**2
    np.exp(K, out=K)
    if kern.signal_variance != 1.0:
        K *= kern.signal_variance
    return K


def _gplvm_ll(state, Z):
    """log p(S | Z, kernel) for a 2-output GP at the position Z of
    `state`'s chain (its S and kernel), -n log(2 pi) - log|K|
    - 0.5 tr(S^T K^-1 S): one Cholesky factorization and one solve.

    The kernel's covariance K of Z is written into state.factor and
    factored there in place (Fortran order, so LAPACK needs no copy).
    When K is not positive definite it is formed again from Z with more
    diagonal jitter, steps of 100 and 10000 times the state's noise
    floor, each escalation counted in state.jitter_escalations.
    NumericalError when K cannot be factored or the value is not finite.
    """
    start = time.perf_counter()
    S, kern, n = state.S, state.kernel, len(state.S)
    for extra in (0.0, state.noise_floor * 100.0, state.noise_floor * 10000.0):
        K = _se_kernel(Z, Z, kern, state.factor)
        K.flat[:: n + 1] += kern.jitter
        if extra:
            state.jitter_escalations += 1
            K.flat[:: n + 1] += extra
        c, info = _lapack.dpotrf(K, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            break
    else:
        raise NumericalError("covariance Cholesky failed after jitter escalation")
    logdet = 2.0 * float(np.log(np.diag(c)).sum())
    KinvS, _ = _lapack.dpotrs(c, S, lower=1)
    ll = -n * _LOG_2PI - logdet - 0.5 * float(np.sum(S * KinvS))
    # LAPACK factors a covariance holding NaN without an error, so a
    # non-finite Z or S shows only here.
    if not math.isfinite(ll):
        raise NumericalError("GPLVM likelihood is not finite")
    state.seconds["gplvm_ll"] += time.perf_counter() - start
    return ll


# Most landmarks of the Nyström field that drives the HMC trajectories.
# The squared-exponential covariance of a standardized point set has low
# effective rank: over ten states of a 377-point corpus fit, 64 landmarks
# leave the field within 2.3e-2 of the exact gradient (median 1.0e-2),
# where 32 leave it within 0.14 (median 4.7e-2).
NYSTROM_LANDMARKS = 64


def nystrom_landmarks(S) -> np.ndarray:
    """The sorted indices of min(n, NYSTROM_LANDMARKS) points of S, chosen
    by farthest-point traversal: first the point nearest the mean, then
    each time the point farthest from those chosen, ties to the lowest
    index."""
    S = np.asarray(S, dtype=float)
    nearest = np.full(S.shape[0], np.inf)  # squared distance to the chosen set
    chosen = []
    i = int(np.argmin(np.sum((S - S.mean(axis=0)) ** 2, axis=1)))
    for _ in range(min(S.shape[0], NYSTROM_LANDMARKS)):
        chosen.append(i)
        np.minimum(nearest, np.sum((S - S[i]) ** 2, axis=1), out=nearest)
        nearest[i] = -1.0
        i = int(np.argmax(nearest))
    return np.sort(np.array(chosen, dtype=np.intp))


def _nystrom_field(state, Z):
    """The gradient with respect to Z of the Nyström log-likelihood
    log N(S | 0, Knm Kmm^-1 Kmn + s^2 I), the subset-of-regressors (DTC)
    approximation of log p(S | Z) (Quiñonero-Candela & Rasmussen, JMLR
    2005), in O(n m^2) for m landmarks and with no n x n array.

    S, the kernel and the landmarks are `state`'s, and Z is any position.
    Knm is the noise-free SE covariance of Z with Z[landmarks], Kmm its
    landmark rows plus 1e-6 signal_variance I, and s^2 the state's noise
    floor.  With Lm = chol(Kmm), Phi = Knm Lm^-T,
    A = s^2 I + Phi^T Phi = Lc Lc^T, w = A^-1 Phi^T S and
    alpha = (S - Phi w) / s^2, the log-likelihood's derivatives are
    dL/dKnm = (alpha w^T - 2 Phi A^-1) Lm^-1 and
    dL/dKmm = Lm^-T (A^-1 Phi^T Phi - w w^T / 2) Lm^-1.  In the whitened
    B = Phi Lc^-T, c = B^T S and R = (Lm Lc)^-1 = Lc^-1 Lm^-1 they read
    (alpha c^T - 2 B) R and R^T Y R, Y = Lc^T Lc - s^2 I - c c^T / 2.
    Every factor comes from the whitened Phi, whose A is well
    conditioned: inverting Kmm and s^2 Kmm + Kmn Knm directly put the
    field 1-7% off at fitted states.  Kmm is Knm's landmark rows, so
    dL/dKmm adds onto those rows, and the sum chains through the SE
    kernel of each pair.  The field depends on Z alone, as a leapfrog
    step needs (see hmc_latent_step).  NumericalError when a
    factorization fails or the field is not finite.
    """
    start = time.perf_counter()
    S, kern, landmarks = state.S, state.kernel, state.landmarks
    m = len(landmarks)
    s2 = state.noise_floor
    ZI = state.ZI
    ZI[:, :2] = Z
    ZL1 = ZI[landmarks]  # [Z[landmarks] | 1]
    ZL = ZL1[:, :2]
    Knm = _se_kernel(Z, ZL, kern, state.Knm)
    Kmm = Knm[landmarks]
    Kmm.flat[:: m + 1] += 1e-6 * kern.signal_variance
    # Lm_inv enters a dtrmm below as a full matrix, so the upper triangle
    # that dtrtri leaves in place must be zero.  The other two factors
    # are read only as lower triangles.
    Lm, info = _lapack.dpotrf(Kmm, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NumericalError("landmark covariance Cholesky failed")
    # The m x m triangular inverses are cheap, and a product with one
    # runs at about twice the speed of a triangular solve of n rows.
    Lm_inv, _ = _lapack.dtrtri(Lm, lower=1, overwrite_c=1)
    Phi = _blas.dtrmm(1.0, Lm_inv, Knm, side=1, lower=1, trans_a=1)
    A = _blas.dsyrk(1.0, Phi, trans=1, lower=1)
    A.flat[:: m + 1] += s2
    Lc, info = _lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericalError("Nyström inner Cholesky failed")
    Lc_inv, _ = _lapack.dtrtri(Lc, lower=1)
    B = _blas.dtrmm(1.0, Lc_inv, Phi, side=1, lower=1, trans_a=1, overwrite_b=1)
    R = _blas.dtrmm(1.0, Lc_inv, Lm_inv, lower=1, overwrite_b=1)
    c = B.T @ S
    alpha = (S - B @ c) / s2
    E = _blas.dgemm(1.0, alpha, c, beta=-2.0, c=B, trans_b=1, overwrite_c=1)
    Y, _ = _lapack.dlauum(Lc, lower=1, overwrite_c=1)  # lower triangle of Lc^T Lc
    Y -= 0.5 * (c @ c.T)
    Y.flat[:: m + 1] -= s2
    E[landmarks] += _blas.dsymm(1.0, Y, R, lower=1).T
    M = _blas.dtrmm(1.0, R, E, side=1, lower=1, overwrite_b=1)
    M *= Knm
    MZ = M @ ZL1  # [M @ Z[landmarks] | row sums of M]
    MtZ = M.T @ ZI  # [M^T @ Z | column sums of M]
    grad = MZ[:, :2] - Z * MZ[:, 2:]
    grad[landmarks] += MtZ[:, :2] - ZL * MtZ[:, 2:]
    grad *= kern.length_scale**-2
    if not np.isfinite(grad).all():
        raise NumericalError("GPLVM field is not finite")
    state.seconds["gplvm_field"] += time.perf_counter() - start
    return grad


# ---------------------------------------------------------------------
# Latent-space mixture: Gaussian-Wishart marginals and the CRP prior
# ---------------------------------------------------------------------

def crp_log_prior(A, alpha: float) -> float:
    """log p(A | alpha) = log [ alpha^K prod_k (n_k - 1)! / prod_i (alpha + i) ]."""
    A = np.asarray(A)
    n = A.shape[0]
    if n == 0:
        return 0.0
    _, counts = np.unique(A, return_counts=True)
    out = len(counts) * math.log(alpha)
    # Sums of floats here, in _crp_normalizer and in gibbs_sweep add left
    # to right: since Python 3.12 the builtin sum compensates, which would
    # make seeded fits depend on the interpreter.
    out += functools.reduce(add, (math.lgamma(int(c)) for c in counts), 0.0)
    out -= _crp_normalizer(n, alpha)
    return out


@functools.lru_cache(maxsize=64)
def _crp_normalizer(n: int, alpha: float) -> float:
    """sum_i log(alpha + i) over i < n, which a fit's every iteration shares."""
    return functools.reduce(add, (math.log(alpha + i) for i in range(n)), 0.0)


def _prior_scalars(h: GwHyper):
    """h as Python floats, with the parts of each cluster's log marginal
    that only the prior sets: (p, r, m, R row-major, log p,
    r/2 log det R, lgamma(r/2), lgamma((r - 1)/2))."""
    (m0x, m0y), (R00, R01), (R10, R11) = h.m.tolist(), *h.R.tolist()
    detR = R00 * R11 - R01 * R10
    return (h.p, h.r, m0x, m0y, R00, R01, R10, R11, math.log(h.p),
            0.5 * h.r * math.log(detR),
            *(math.lgamma(0.5 * (h.r + 1 - j)) for j in (1, 2)))


def _cluster_posterior(n_k, sx, sy, s00, s01, s10, s11, prior):
    """One cluster's log Gaussian-Wishart marginal and posterior
    (term, r_k, m_k, R_k row-major, det R_k), from its point count, its
    coordinate sums and its scatter sums sum z z^T, in Python floats.

    Each entry is formed in the order and association numpy's elementwise
    R + S + p m m^T - p_k m_k m_k^T takes, and the two off-diagonal
    entries are kept apart, so the term is the same float whether the
    sums come from numpy reductions or from the Gibbs running sums.
    """
    p, r, m0x, m0y, R00, R01, R10, R11, log_p, prior_logdet, lg1, lg2 = prior
    p_k = p + n_k
    r_k = r + n_k
    mx = (p * m0x + sx) / p_k
    my = (p * m0y + sy) / p_k
    a = R00 + s00 + p * (m0x * m0x) - p_k * (mx * mx)
    b = R01 + s01 + p * (m0x * m0y) - p_k * (mx * my)
    c = R10 + s10 + p * (m0y * m0x) - p_k * (my * mx)
    d = R11 + s11 + p * (m0y * m0y) - p_k * (my * my)
    det = a * d - b * c
    if det <= 0:
        raise NumericalError("posterior scale matrix is not positive definite")
    out = -n_k * _LOG_PI
    out += log_p - math.log(p_k)
    out += prior_logdet - 0.5 * r_k * math.log(det)
    for j, prior_lgamma in ((1, lg1), (2, lg2)):
        out += math.lgamma(0.5 * (r_k + 1 - j)) - prior_lgamma
    return out, r_k, mx, my, a, b, c, d, det


def _cluster_members(A):
    """The point indices of each cluster of the assignments A, in label
    order."""
    return [np.flatnonzero(A == label) for label in np.unique(A)]


def _marginal_and_grad(Z, members, h: GwHyper):
    """log p(Z | A, R, m, r, p), the product over clusters of the marginal
    obtained by integrating out each cluster's Gaussian parameters, and
    its gradient w.r.t. Z, for the clusters whose point indices are
    `members` (see _cluster_members).

    d/dz_i log p(Z|A) = -r_k R_k^-1 (z_i - m_k) for i in cluster k.
    """
    prior = _prior_scalars(h)
    total = 0.0
    grad = np.zeros_like(Z)
    for idx in members:
        Zk = Z.take(idx, axis=0)
        (sx, sy), ((s00, s01), (s10, s11)) = Zk.sum(axis=0).tolist(), (Zk.T @ Zk).tolist()
        term, r_k, mx, my, a, b, c, d, det = _cluster_posterior(
            idx.shape[0], sx, sy, s00, s01, s10, s11, prior)
        total += term
        Rk_inv = np.array([[d / det, -b / det], [-c / det, a / det]])
        grad[idx] = -r_k * (Zk - np.array([mx, my])) @ Rk_inv.T
    return total, grad


# ---------------------------------------------------------------------
# MCMC state
# ---------------------------------------------------------------------

class LatentState:
    """One chain's MCMC state: its fixed observations S, kernel, prior h,
    landmarks and noise floor; its moving latent coordinates, assignments
    and cluster sums; and the GPLVM's buffers (see _gplvm_ll and
    _nystrom_field) with the count of jitter escalations made in them and
    the wall-clock seconds of the calls of each that returned (`seconds`).

    Cluster labels stay contiguous 1..K with every cluster nonempty; sums
    are plain floats so the Gibbs inner loop avoids array overhead.
    """

    def __init__(self, S, Z, A, kernel: KernelParams, h: GwHyper):
        self.S = np.array(S, dtype=float)
        self.S.flags.writeable = False
        self.Z = np.array(Z, dtype=float)
        self.A = np.array(A, dtype=np.int64)
        self.kernel = kernel
        self.h = h
        if self.S.shape != self.Z.shape or self.Z.shape[0] != self.A.shape[0]:
            raise ValueError("S, Z and A sizes differ")
        # The Nyström field's landmarks, those of S.  They stay fixed for
        # the whole chain: landmarks re-chosen from the current Z would make
        # the field, and so the leapfrog map, irreversible.
        self.landmarks = nystrom_landmarks(self.S)
        # Freshly allocated n x n temporaries go back to the OS when freed
        # and are page-faulted in again on the next call; at a few hundred
        # points that costs about as much as the Cholesky factorization.
        # The buffers are in Fortran order, so BLAS and LAPACK write into
        # them in place.
        n, m = len(self.Z), len(self.landmarks)
        self.factor = np.empty((n, n), order="F")  # the covariance, factored in place
        self.Knm = np.empty((n, m), order="F")  # the landmark columns
        self.ZI = np.ones((n, 3), order="F")  # [Z | 1]
        # The diagonal noise a covariance factorization starts from.
        self.noise_floor = kernel.jitter if kernel.jitter > 0 else 1e-10
        self.jitter_escalations = 0
        self.seconds = {"gplvm_ll": 0.0, "gplvm_field": 0.0}
        self.hmc_numerical_rejections = 0
        self._sums = []
        self._gplvm = None  # (exact ll, Nyström field) of the GPLVM at the current Z
        self.refresh()

    def gplvm_ll_field(self):
        """The exact GPLVM log-likelihood and the Nyström field at the
        current Z, computed once per Z."""
        if self._gplvm is None:
            self._gplvm = (_gplvm_ll(self, self.Z), _nystrom_field(self, self.Z))
        return self._gplvm

    @property
    def K(self) -> int:
        return len(self._sums)

    def refresh(self):
        """Rebuild cluster sums from scratch (labels must be 1..K)."""
        labels = sorted(set(self.A.tolist()))
        if labels != list(range(1, len(labels) + 1)):
            raise InternalError(f"labels not contiguous 1..K: {labels}")
        sums = []
        for k in labels:
            Zk = self.Z[self.A == k]
            sums.append([
                Zk.shape[0],
                float(Zk[:, 0].sum()), float(Zk[:, 1].sum()),
                float(np.dot(Zk[:, 0], Zk[:, 0])),
                float(np.dot(Zk[:, 0], Zk[:, 1])),
                float(np.dot(Zk[:, 1], Zk[:, 1])),
            ])
        self._sums = sums

    def marginal_log(self) -> float:
        """log p(Z | A, ...) of the current state, as _marginal_and_grad
        gives it, from the cluster sums."""
        prior = _prior_scalars(self.h)
        total = 0.0
        for n, sx, sy, sxx, sxy, syy in self._sums:
            total += _cluster_posterior(n, sx, sy, sxx, sxy, sxy, syy, prior)[0]
        return total


def gibbs_sweep(state: LatentState, rng):
    """Resample the assignment of each point, in order, from its
    collapsed conditional.

    Weights, under the state's prior h: n_k^{-i} * t-predictive(z_i |
    cluster k) for existing clusters, alpha * t-predictive(z_i | h) for a
    new one.  The
    t-predictive of Gaussian-Wishart parameters (p, r, m, R) has
    nu = r - 1 degrees of freedom, location m and scale
    R (p + 1) / (p nu).

    The sweep draws its uniforms in one call, which yields the same
    stream as one draw per point, and works on Python lists and floats.
    It keeps each cluster's point-independent terms and recomputes them
    only when a point leaves or joins the cluster; the terms that depend
    only on a cluster's size are kept per size.
    """
    h = state.h
    Z = state.Z.tolist()
    A = state.A.tolist()
    sums = state._sums
    uniforms = rng.random(len(A)).tolist()
    p0, r0 = h.p, h.r
    (m0x, m0y), (R00, R01, _, R11) = h.m.tolist(), h.R.ravel().tolist()
    pm0x, pm0y = p0 * m0x, p0 * m0y
    c00, c01, c11 = pm0x * m0x, pm0x * m0y, pm0y * m0y
    log, log1p, exp = math.log, math.log1p, math.exp
    by_size = {}

    def size_terms(n, log_weight):
        """The terms of a cluster of n points that depend on n alone: its
        log weight, p_k, nu, factor, (nu + 2)/2, lgamma((nu + 2)/2)
        - lgamma(nu/2) - log nu - log pi, and 2 log factor."""
        p_k = p0 + n
        nu = r0 + n - 1.0  # positive: GwHyper holds r > 1
        factor = (p_k + 1.0) / (p_k * nu)
        lead = math.lgamma(0.5 * (nu + 2.0)) - math.lgamma(0.5 * nu) - log(nu) - _LOG_PI
        return log_weight, p_k, nu, factor, 0.5 * (nu + 2.0), lead, 2.0 * log(factor)

    def predictive(terms, mx, my, ra, rb, rd):
        """A cluster's point-independent terms, in the order its log
        density reads them: log weight, m, the quadratic form's
        coefficients and its divisors det R and factor, nu, (nu + 2)/2
        and the constant lead - (log det R + 2 log factor)/2."""
        log_weight, _, nu, factor, half, lead, two_log_factor = terms
        det = ra * rd - rb * rb
        if det <= 0:
            raise NumericalError("invalid Student-t parameters")
        return (log_weight, mx, my, rd, 2.0 * rb, ra, det, factor, nu, half,
                lead - 0.5 * (log(det) + two_log_factor))

    def cluster_predictive(s):
        # The posterior scale associates as R + S + (p0 m0) m0 - (p_k m_k) m_k
        # here and as R + S + p0 (m0 m0) - p_k (m_k m_k) in
        # _cluster_posterior: the two can differ in the last bit, and each
        # order is kept so that seeded fits keep their bytes.
        n, sx, sy, sxx, sxy, syy = s
        terms = by_size.get(n)
        if terms is None:
            terms = by_size[n] = size_terms(n, log(n))
        p_k = terms[1]
        mx = (pm0x + sx) / p_k
        my = (pm0y + sy) / p_k
        return predictive(terms, mx, my,
                          R00 + sxx + c00 - p_k * mx * mx,
                          R01 + sxy + c01 - p_k * mx * my,
                          R11 + syy + c11 - p_k * my * my)

    # One entry per cluster, then the new cluster's; `stale` is the
    # cluster the last point joined, whose entry is out of date.
    preds = [cluster_predictive(s) for s in sums]
    preds.append(predictive(size_terms(0, log(h.alpha)), m0x, m0y, R00, R01, R11))
    stale = -1
    for i, u in enumerate(uniforms):
        zx, zy = Z[i]
        k = A[i] - 1
        s = sums[k]
        s[0] -= 1
        s[1] -= zx
        s[2] -= zy
        s[3] -= zx * zx
        s[4] -= zx * zy
        s[5] -= zy * zy
        if s[0]:
            preds[k] = cluster_predictive(s)
            if stale == k:
                stale = -1
        else:
            del sums[k], preds[k]
            A = [a - 1 if a > k + 1 else a for a in A]
            if stale == k:
                stale = -1
            elif stale > k:
                stale -= 1
        if stale >= 0:
            preds[stale] = cluster_predictive(sums[stale])
        logs = []
        for log_weight, mx, my, rd, rb2, ra, det, factor, nu, half, const in preds:
            dx = zx - mx
            dy = zy - my
            quad = (rd * dx * dx - rb2 * dx * dy + ra * dy * dy) / det / factor
            logs.append(log_weight + (const - half * log1p(quad / nu)))
        top = max(logs)
        # The choice is the first cumulative weight above u times the total.
        cumulative = list(accumulate([exp(v - top) for v in logs]))
        u *= cumulative[-1]
        choice = min(bisect_right(cumulative, u), len(sums))
        if choice == len(sums):
            sums.append([0, 0.0, 0.0, 0.0, 0.0, 0.0])
            preds.insert(choice, None)
        s = sums[choice]
        s[0] += 1
        s[1] += zx
        s[2] += zy
        s[3] += zx * zx
        s[4] += zx * zy
        s[5] += zy * zy
        A[i] = choice + 1
        stale = choice
    state.A[:] = A


def hmc_latent_step(state: LatentState, eps: float, rng) -> bool:
    """One hybrid Monte Carlo transition of Z targeting
    log p(S|Z, kernel) + log p(Z|A, h) under the state's kernel and prior
    h, with LEAPFROG_STEPS leapfrog steps of size `eps`.  Returns True on
    acceptance.

    The steps follow the gradient of the GPLVM term's Nyström
    approximation (see _nystrom_field) plus the exact gradient of the
    latent marginal, as in surrogate HMC (Rasmussen, "Gaussian processes
    to speed up hybrid Monte Carlo for expensive Bayesian integrals",
    2003).  For any field that depends on the position alone the
    leapfrog map is reversible and preserves volume, so a Metropolis
    test on the exact energy at the trajectory's two ends keeps the
    target exact (Neal, "MCMC using Hamiltonian dynamics", 2011): the
    field changes only how often proposals are accepted.  The exact
    log p(S|Z), and with it the transition's one n x n covariance, is
    computed once, at the end point, and the state caches it with the
    field there.

    A proposal whose energy cannot be computed (a NumericalError, or a
    non-finite value) is rejected and counted in the state's
    `hmc_numerical_rejections`."""
    momentum = rng.standard_normal(state.Z.shape)
    u = rng.random()
    members, h = _cluster_members(state.A), state.h  # A is fixed along the trajectory
    try:
        ll0, gll0 = state.gplvm_ll_field()
        marg0, gmarg0 = _marginal_and_grad(state.Z, members, h)
        U0 = -(ll0 + marg0)
        Z = state.Z.copy()
        p = momentum + 0.5 * eps * (gll0 + gmarg0)
        for _ in range(LEAPFROG_STEPS - 1):
            Z = Z + eps * p
            field = _nystrom_field(state, Z)
            p = p + eps * (field + _marginal_and_grad(Z, members, h)[1])
        Z = Z + eps * p
        ll1, gll1 = _gplvm_ll(state, Z), _nystrom_field(state, Z)
        marg1, gmarg1 = _marginal_and_grad(Z, members, h)
        U1 = -(ll1 + marg1)
        p = p + 0.5 * eps * (gll1 + gmarg1)
    except NumericalError:
        state.hmc_numerical_rejections += 1
        return False
    H0 = U0 + 0.5 * float(np.sum(momentum * momentum))
    H1 = U1 + 0.5 * float(np.sum(p * p))
    if not math.isfinite(H1):
        state.hmc_numerical_rejections += 1
        return False
    log_u = math.log(u) if u > 0 else -math.inf
    if log_u < H0 - H1:
        state.Z, state._gplvm = Z, (ll1, gll1)
        state.refresh()
        return True
    return False


def _component_init(coords) -> np.ndarray:
    """Initial assignments from Chebyshev-adjacency connected components.

    Points within Chebyshev distance 1.01 are linked, so integer grid
    coordinates group into king-move components; continuous point clouds
    degrade gracefully (near-duplicates share a cluster).
    """
    near = (np.abs(coords[:, None, 0] - coords[None, :, 0]) <= 1.01) & (
        np.abs(coords[:, None, 1] - coords[None, :, 1]) <= 1.01
    )
    _, labels = connected_components(near, directed=False)
    return labels.astype(np.int64) + 1


def _one_blas_thread():
    """Run the OpenBLAS libraries loaded in this process on one thread; by
    default OpenBLAS adds a busy-waiting helper thread per core, and 2
    fitting processes on 2 cores took 4 times as long as one.  Without
    /proc (macOS) it does nothing."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in product(("", "scipy_"), ("", "64_")):
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def iwmm_fit(
    S: PointSet,
    h: GwHyper = GwHyper(),
    k0: KernelParams = KernelParams(),
    mcmc: McmcConfig = McmcConfig(),
    seed: int = 0,
) -> IwmmResult:
    """Fit the warped mixture by alternating Gibbs sweeps and HMC moves.

    Deterministic given `seed`, a whole number (ValueError otherwise):
    first the fit sets every OpenBLAS library loaded in the process to one
    thread, for the whole process, since on more threads OpenBLAS moves
    the last bits of the GPLVM's sums and with them the chain.  The
    assignments start from the Chebyshev-adjacency connected components
    of the points (natural for grid point sets coming out of a spatial
    filter).  The reported assignments come from the kept iteration
    (after burn-in) with the highest joint log density p(S|Z) p(Z|A) p(A).
    """
    start = time.perf_counter()
    seed = whole_number("seed", seed)
    _one_blas_thread()
    sd = S.coords.std(axis=0)
    Sstd = (S.coords - S.coords.mean(axis=0)) / np.where(sd == 0, 1.0, sd)
    state = LatentState(Sstd, Sstd, _component_init(S.coords), k0, h)
    rng = np.random.default_rng(seed)

    trace = []
    best_joint = -math.inf
    best_A = state.A.copy()
    best_Z = state.Z.copy()
    accepted = 0
    step_size = INITIAL_STEP_SIZE
    step_size_path = []
    gibbs_s = hmc_s = 0.0
    for it in range(1, mcmc.iters + 1):
        t0 = time.perf_counter()
        if it > mcmc.gibbs_start:
            gibbs_sweep(state, rng)
        t1 = time.perf_counter()
        ok = hmc_latent_step(state, step_size, rng)
        gibbs_s += t1 - t0
        hmc_s += time.perf_counter() - t1
        if ok:
            accepted += 1
        if it <= mcmc.burn_in:
            step_size = min(1.0, max(1e-6, step_size * (1.07 if ok else 0.87)))
            if it % STEP_SIZE_PATH_EVERY == 0 or it == mcmc.burn_in:
                step_size_path.append((it, step_size))
        joint = (
            state.gplvm_ll_field()[0]
            + state.marginal_log()
            + crp_log_prior(state.A, h.alpha)
        )
        trace.append((state.K, joint))
        if it > mcmc.burn_in and joint > best_joint:
            best_joint = joint
            best_A = state.A.copy()
            best_Z = state.Z.copy()

    assignments = canonical_labels(best_A)
    return IwmmResult(
        assignments=assignments,
        k_hat=len(set(assignments)),
        latent_coords=best_Z,
        trace=tuple(trace),
        hmc_accepted=accepted,
        jitter_escalations=state.jitter_escalations,
        hmc_numerical_rejections=state.hmc_numerical_rejections,
        step_size=step_size,
        step_size_path=tuple(step_size_path),
        wall_seconds={"gibbs": gibbs_s, "hmc": hmc_s, **state.seconds,
                      "fit": time.perf_counter() - start},
    )
