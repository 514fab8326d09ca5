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

import functools
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack
from scipy.sparse.csgraph import connected_components

from .errors import EmptyInputError, InternalError, NumericalError
from .validation import canonical_labels

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
        if not all(map(math.isfinite, (self.signal_variance, self.length_scale, self.jitter))):
            raise ValueError("kernel parameters must be finite")
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
        m = np.asarray(self.m, dtype=float).reshape(2)
        R = np.asarray(self.R, dtype=float).reshape(2, 2)
        scalars = (self.p, self.r, self.alpha)
        if not (np.isfinite(m).all() and np.isfinite(R).all() and all(map(math.isfinite, scalars))):
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

# Most iterations that move only the warp before assignments are resampled.
WARP_WARMUP = 40


@dataclass(frozen=True)
class McmcConfig:
    """MCMC schedule.  The HMC step size starts at INITIAL_STEP_SIZE and
    is tuned multiplicatively during burn-in (up on accept, down on
    reject), then frozen; adaptation is deterministic given the seed."""

    iters: int = 300
    burn_in: int = 150
    leapfrog_steps: int = 5

    def __post_init__(self):
        if self.iters <= self.burn_in or self.burn_in < 0:
            raise ValueError("need iters > burn_in >= 0")
        if self.leapfrog_steps < 1:
            raise ValueError("need leapfrog_steps >= 1")

    @property
    def gibbs_start(self) -> int:
        """Initial iterations without assignment resampling, so the warp
        can reshape the latent space around the initial partition first:
        WARP_WARMUP, or half the burn-in when that is fewer."""
        return min(WARP_WARMUP, self.burn_in // 2)


@dataclass(frozen=True, eq=False)
class IwmmResult:
    """A fit's kept state and its deterministic counters:
    `jitter_escalations` counts the times the covariance Cholesky needed
    more jitter, `hmc_numerical_rejections` the HMC proposals rejected
    because their energy could not be computed (see hmc_latent_step).
    `wall_seconds`, the one field that is not deterministic, holds the
    wall-clock seconds of the Gibbs sweeps ("gibbs"), the HMC
    transitions ("hmc") and the whole fit ("fit")."""

    assignments: tuple
    k_hat: int
    latent_coords: np.ndarray
    trace: tuple
    hmc_acceptance_rate: float
    jitter_escalations: int
    hmc_numerical_rejections: int
    wall_seconds: dict = field(default_factory=dict)


# ---------------------------------------------------------------------
# GPLVM warp likelihood
# ---------------------------------------------------------------------

class _GplvmWork:
    """Reusable n x n buffers for the GPLVM likelihood and gradient, and
    the count of Cholesky jitter escalations made with them.

    Freshly allocated n x n temporaries go back to the OS when freed and
    are page-faulted in again on the next call; at a few hundred points
    that costs about as much as the Cholesky factorization.  The buffers
    are in Fortran order, so BLAS and LAPACK write into them in place.
    """

    def __init__(self, n: int):
        self.n = n
        self.K = np.empty((n, n), order="F")
        self.factor = np.empty((n, n), order="F")  # factored and inverted in place
        self.ZI = np.ones((n, 3), order="F")  # [Z | 1]
        self.jitter_escalations = 0


def _se_covariance(Z, kern, work):
    """The KernelParams covariance of Z, written into work.K."""
    sq = np.sum(Z * Z, axis=1)
    K = np.add.outer(sq, sq, out=work.K)
    K = _blas.dgemm(-2.0, Z, Z, beta=1.0, c=K, trans_b=1, overwrite_c=1)
    np.maximum(K, 0.0, out=K)
    K *= -0.5 / kern.length_scale**2
    np.exp(K, out=K)
    if kern.signal_variance != 1.0:
        K *= kern.signal_variance
    K.flat[:: work.n + 1] += kern.jitter
    return K


def _chol_lower(K, jitter, work):
    """Lower Cholesky factor with deterministic jitter escalation, each
    escalation counted in work.jitter_escalations.

    The factor is written into work.factor (Fortran order, so LAPACK
    factors it in place) with its strict upper triangle zeroed.
    """
    base = jitter if jitter > 0 else 1e-10
    n = K.shape[0]
    A = work.factor
    for extra in (0.0, base * 100.0, base * 10000.0):
        A[...] = K
        if extra:
            work.jitter_escalations += 1
            A.flat[:: n + 1] += extra
        c, info = _lapack.dpotrf(A, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return c
    raise NumericalError("covariance Cholesky failed after jitter escalation")


# Largest block _tri_inv_lower hands to LAPACK's dtrtri, which runs at a
# fraction of the speed of the BLAS-3 products the larger blocks use.
_TRI_INV_LEAF = 64


def _tri_inv_lower(L):
    """Inverse of the lower-triangular Fortran-ordered L, written over L
    and returned; its strict upper triangle is left as it was.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: the diagonal
    blocks recurse down to dtrtri on at most _TRI_INV_LEAF rows, and the
    off-diagonal block takes two dtrmm calls.  NumericalError when L is
    singular.
    """
    n = L.shape[0]
    if n <= _TRI_INV_LEAF:
        inv, info = _lapack.dtrtri(L, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError("covariance inversion failed")
        return inv
    h = n // 2
    A_inv = _tri_inv_lower(np.asfortranarray(L[:h, :h]))
    C_inv = _tri_inv_lower(np.asfortranarray(L[h:, h:]))
    B = _blas.dtrmm(-1.0, C_inv, L[h:, :h], lower=1)
    L[h:, :h] = _blas.dtrmm(1.0, A_inv, B, side=1, lower=1, overwrite_b=1)
    L[:h, :h] = A_inv
    L[h:, h:] = C_inv
    return L


def _gplvm_ll_and_grad(S, Z, kern, work: _GplvmWork):
    """log p(S | Z, kernel) for a 2-output GP,
    -n log(2 pi) - log|K| - 0.5 tr(S^T K^-1 S), and its analytic gradient
    with respect to Z, from one factorization; `work` holds the n x n
    buffers.  NumericalError when the covariance cannot be factored or
    either result is not finite."""
    S = np.asarray(S, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n = S.shape[0]
    if Z.shape != (n, 2):
        raise ValueError(f"Z shape {Z.shape} does not match S ({n}, 2)")
    K = _se_covariance(Z, kern, work)
    c = _chol_lower(K, kern.jitter, work)
    logdet = 2.0 * float(np.log(np.diag(c)).sum())
    # K^-1 = L^-T L^-1, as dpotri forms it; from here on only the lower
    # triangles of K^-1 and of W are formed and read.
    inv, _ = _lapack.dlauum(_tri_inv_lower(c), lower=1, overwrite_c=1)
    KinvS = _blas.dsymm(1.0, inv, S, lower=1)
    ll = -n * _LOG_2PI - logdet - 0.5 * float(np.sum(S * KinvS))
    # dL/dK = 0.5 K^-1 S S^T K^-1 - K^-1, then chain through the SE kernel
    W = _blas.dsyrk(0.5, KinvS, beta=-1.0, c=inv, lower=1, overwrite_c=1)
    W *= K  # diagonal contributes nothing: the (z_l - z_j) factor is 0
    ZI = work.ZI
    ZI[:, :2] = Z
    WZI = _blas.dsymm(1.0, W, ZI, lower=1)  # [W @ Z | row sums of W]
    grad = -(2.0 / kern.length_scale**2) * (Z * WZI[:, 2:] - WZI[:, :2])
    # LAPACK factors a covariance holding NaN without an error, so a
    # non-finite Z or S shows only here.
    if not (math.isfinite(ll) and np.isfinite(grad).all()):
        raise NumericalError("GPLVM likelihood or gradient is not finite")
    return ll, grad


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
    """Mutable MCMC state: latent coordinates, assignments, cluster sums.

    Cluster labels stay contiguous 1..K with every cluster nonempty; sums
    are plain floats so the Gibbs inner loop avoids array overhead.
    """

    def __init__(self, Z, A, kernel: KernelParams):
        self.Z = np.array(Z, dtype=float)
        self.A = np.array(A, dtype=np.int64)
        self.kernel = kernel
        if self.Z.shape[0] != self.A.shape[0]:
            raise ValueError("Z and A lengths differ")
        self._sums = []
        self._gplvm = None  # (ll, grad) of the GPLVM at the current Z
        self._gplvm_work = _GplvmWork(self.Z.shape[0])
        self.hmc_numerical_rejections = 0
        self.refresh()

    def set_Z(self, Z, gplvm):
        """Move to Z, whose GPLVM (ll, grad) is `gplvm`."""
        self.Z = Z
        self._gplvm = gplvm
        self.refresh()

    def gplvm_ll_grad(self, S):
        """GPLVM likelihood and gradient at the current Z, computed once per Z."""
        if self._gplvm is None:
            self._gplvm = _gplvm_ll_and_grad(S, self.Z, self.kernel, self._gplvm_work)
        return self._gplvm

    @property
    def K(self) -> int:
        return len(self._sums)

    @property
    def jitter_escalations(self) -> int:
        """Cholesky jitter escalations made by this state's GPLVM calls."""
        return self._gplvm_work.jitter_escalations

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

    def marginal_log(self, h: GwHyper) -> float:
        """log p(Z | A, ...) of the current state, as _marginal_and_grad
        gives it, from the cluster sums."""
        prior = _prior_scalars(h)
        total = 0.0
        for n, sx, sy, sxx, sxy, syy in self._sums:
            total += _cluster_posterior(n, sx, sy, sxx, sxy, sxy, syy, prior)[0]
        return total


def gibbs_sweep(state: LatentState, h: GwHyper, rng):
    """Resample the assignment of each point, in order, from its
    collapsed conditional.

    Weights: n_k^{-i} * t-predictive(z_i | cluster k) for existing
    clusters, alpha * t-predictive(z_i | prior) for a new one.  The
    t-predictive of Gaussian-Wishart parameters (p, r, m, R) has
    nu = r - 1 degrees of freedom, location m and scale
    R (p + 1) / (p nu).

    The sweep draws its uniforms in one call, which yields the same
    stream as one draw per point, and works on Python lists and floats.
    It keeps each cluster's point-independent terms and recomputes them
    only when a point leaves or joins the cluster; the terms that depend
    only on a cluster's size are kept per size.
    """
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
        nu = r0 + n - 1.0
        if nu <= 0:
            raise NumericalError("invalid Student-t parameters")
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


def hmc_latent_step(state: LatentState, S, h: GwHyper, eps: float, leapfrog_steps: int,
                    rng) -> bool:
    """One hybrid Monte Carlo transition of Z targeting
    log p(S|Z, kernel) + log p(Z|A, ...), with `leapfrog_steps` leapfrog
    steps of size `eps`.  Returns True on acceptance.  A proposal whose
    energy cannot be computed (a NumericalError, or a non-finite value)
    is rejected and counted in the state's `hmc_numerical_rejections`."""
    momentum = rng.standard_normal(state.Z.shape)
    u = rng.random()
    members = _cluster_members(state.A)  # A is fixed along the trajectory
    try:
        ll0, gll0 = state.gplvm_ll_grad(S)
        marg0, gmarg0 = _marginal_and_grad(state.Z, members, h)
        U0 = -(ll0 + marg0)
        g0 = -(gll0 + gmarg0)
        Z = state.Z.copy()
        p = momentum - 0.5 * eps * g0
        for step in range(leapfrog_steps):
            Z = Z + eps * p
            ll1, gll1 = _gplvm_ll_and_grad(S, Z, state.kernel, state._gplvm_work)
            marg1, gmarg1 = _marginal_and_grad(Z, members, h)
            U1 = -(ll1 + marg1)
            g1 = -(gll1 + gmarg1)
            if step < leapfrog_steps - 1:
                p = p - eps * g1
            else:
                p = p - 0.5 * eps * g1
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
        state.set_Z(Z, (ll1, gll1))
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


def iwmm_fit(
    S: PointSet,
    h: GwHyper = GwHyper(),
    k0: KernelParams = KernelParams(),
    mcmc: McmcConfig = McmcConfig(),
    seed: int = 0,
) -> IwmmResult:
    """Fit the warped mixture by alternating Gibbs sweeps and HMC moves.

    Deterministic given `seed`.  The assignments start from the
    Chebyshev-adjacency connected components of the points (natural for
    grid point sets coming out of a spatial filter).  The reported
    assignments come from the kept iteration (after burn-in) with the
    highest joint log density p(S|Z) p(Z|A) p(A).
    """
    start = time.perf_counter()
    coords = S.coords

    mu = coords.mean(axis=0)
    sd = coords.std(axis=0)
    sd = np.where(sd == 0, 1.0, sd)
    Sstd = (coords - mu) / sd

    state = LatentState(Sstd.copy(), _component_init(coords), k0)
    rng = np.random.default_rng(seed)

    trace = []
    best_joint = -math.inf
    best_A = state.A.copy()
    best_Z = state.Z.copy()
    accepted = 0
    step_size = INITIAL_STEP_SIZE
    gibbs_s = hmc_s = 0.0
    for it in range(1, mcmc.iters + 1):
        t0 = time.perf_counter()
        if it > mcmc.gibbs_start:
            gibbs_sweep(state, h, rng)
        t1 = time.perf_counter()
        ok = hmc_latent_step(state, Sstd, h, step_size, mcmc.leapfrog_steps, rng)
        gibbs_s += t1 - t0
        hmc_s += time.perf_counter() - t1
        if ok:
            accepted += 1
        if it <= mcmc.burn_in:
            step_size = min(1.0, max(1e-6, step_size * (1.07 if ok else 0.87)))
        joint = (
            state.gplvm_ll_grad(Sstd)[0]
            + state.marginal_log(h)
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
        hmc_acceptance_rate=accepted / mcmc.iters,
        jitter_escalations=state.jitter_escalations,
        hmc_numerical_rejections=state.hmc_numerical_rejections,
        wall_seconds={"gibbs": gibbs_s, "hmc": hmc_s, "fit": time.perf_counter() - start},
    )
