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

import math
from dataclasses import dataclass, field

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
    plus `jitter` on the diagonal."""

    signal_variance: float = 1.0
    length_scale: float = 1.0
    jitter: float = 1e-6

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
    degrees of freedom r) plus the DP concentration alpha."""

    m: np.ndarray = field(default_factory=lambda: np.zeros(2))
    p: float = 1.0
    R: np.ndarray = field(default_factory=lambda: np.eye(2))
    r: float = 3.0
    alpha: float = 1.0

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


@dataclass(frozen=True)
class McmcConfig:
    """MCMC schedule.  The HMC step size starts at INITIAL_STEP_SIZE and
    is tuned multiplicatively during burn-in (up on accept, down on
    reject), then frozen; adaptation is deterministic given the seed.

    `gibbs_start` delays assignment resampling for that many initial
    iterations so the warp can reshape the latent space around the
    initial partition first; 0 keeps the plain alternating schedule."""

    iters: int = 1000
    burn_in: int = 500
    leapfrog_steps: int = 10
    gibbs_start: int = 0

    def __post_init__(self):
        if self.iters <= self.burn_in or self.burn_in < 0:
            raise ValueError("need iters > burn_in >= 0")
        if self.leapfrog_steps < 1:
            raise ValueError("need leapfrog_steps >= 1")
        if not 0 <= self.gibbs_start < self.iters:
            raise ValueError("need 0 <= gibbs_start < iters")


@dataclass(frozen=True, eq=False)
class IwmmResult:
    """A fit's kept state and its deterministic counters:
    `jitter_escalations` counts the times the covariance Cholesky needed
    more jitter, `hmc_numerical_rejections` the HMC proposals rejected
    because their energy could not be computed (see hmc_latent_step)."""

    assignments: tuple
    k_hat: int
    latent_coords: np.ndarray
    trace: tuple
    hmc_acceptance_rate: float
    jitter_escalations: int
    hmc_numerical_rejections: int


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


def gplvm_log_likelihood(S, Z, kern: KernelParams) -> float:
    """log p(S | Z, kernel) for a 2-output GP:
    -n log(2 pi) - log|K| - 0.5 tr(S^T K^-1 S).  NumericalError when the
    covariance cannot be factored or the value is not finite."""
    return _gplvm_ll_and_grad(S, Z, kern)[0]


def gplvm_grad(S, Z, kern: KernelParams) -> np.ndarray:
    """Analytic gradient of gplvm_log_likelihood with respect to Z; raises
    as gplvm_log_likelihood does."""
    return _gplvm_ll_and_grad(S, Z, kern)[1]


def _gplvm_ll_and_grad(S, Z, kern, work=None):
    """(gplvm_log_likelihood, gplvm_grad) from one factorization; `work`
    holds the n x n buffers, fresh ones when it is None.  NumericalError
    when either is not finite."""
    S = np.asarray(S, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n = S.shape[0]
    if Z.shape != (n, 2):
        raise ValueError(f"Z shape {Z.shape} does not match S ({n}, 2)")
    if work is None:
        work = _GplvmWork(n)
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
    out += float(sum(math.lgamma(int(c)) for c in counts))
    out -= float(sum(math.log(alpha + i) for i in range(n)))
    return out


def _gw_posterior(n_k, sum_z, szz, h: GwHyper):
    """Gaussian-Wishart posterior (p_k, r_k, m_k, R_k) of a cluster with n_k
    points, coordinate sum sum_z and scatter sum szz = sum z z^T."""
    p_k = h.p + n_k
    r_k = h.r + n_k
    m_k = (h.p * h.m + sum_z) / p_k
    R_k = h.R + szz + h.p * np.outer(h.m, h.m) - p_k * np.outer(m_k, m_k)
    return p_k, r_k, m_k, R_k


def _cluster_term(n_k, posterior, h: GwHyper) -> float:
    """Log Gaussian-Wishart marginal of one cluster's latent coordinates,
    from the cluster's _gw_posterior."""
    p_k, r_k, _, Rk = posterior
    det = Rk[0, 0] * Rk[1, 1] - Rk[0, 1] * Rk[1, 0]
    detR = h.R[0, 0] * h.R[1, 1] - h.R[0, 1] * h.R[1, 0]
    if det <= 0:
        raise NumericalError("posterior scale matrix is not positive definite")
    out = -n_k * _LOG_PI
    out += math.log(h.p) - math.log(p_k)
    out += 0.5 * h.r * math.log(detR) - 0.5 * r_k * math.log(det)
    for j in (1, 2):
        out += math.lgamma(0.5 * (r_k + 1 - j)) - math.lgamma(0.5 * (h.r + 1 - j))
    return out


def latent_marginal_log(Z, A, h: GwHyper) -> float:
    """log p(Z | A, R, m, r, p): product over clusters of the marginal
    obtained by integrating out each cluster's Gaussian parameters."""
    return _marginal_and_grad(Z, A, h)[0]


def _marginal_and_grad(Z, A, h: GwHyper):
    """latent_marginal_log and its gradient w.r.t. Z.

    d/dz_i log p(Z|A) = -r_k R_k^-1 (z_i - m_k) for i in cluster k.
    """
    Z = np.asarray(Z, dtype=float)
    A = np.asarray(A)
    if Z.shape[0] != A.shape[0]:
        raise ValueError("Z and A lengths differ")
    total = 0.0
    grad = np.zeros_like(Z)
    for label in np.unique(A):
        mask = A == label
        Zk = Z[mask]
        n_k = Zk.shape[0]
        posterior = _gw_posterior(n_k, Zk.sum(axis=0), Zk.T @ Zk, h)
        total += _cluster_term(n_k, posterior, h)
        _, r_k, m_k, Rk = posterior
        det = Rk[0, 0] * Rk[1, 1] - Rk[0, 1] * Rk[1, 0]
        Rk_inv = np.array([[Rk[1, 1], -Rk[0, 1]], [-Rk[1, 0], Rk[0, 0]]]) / det
        grad[mask] = -r_k * (Z[mask] - m_k) @ Rk_inv.T
    return total, grad


def _t2_logpdf(zx, zy, mx, my, p_post, r_post, ra, rb, rd):
    """2-D multivariate Student-t from Gaussian-Wishart (prior or posterior)
    parameters: df = r_post - 1, location m, scale R (p_post+1)/(p_post df)."""
    nu = r_post - 1.0
    det = ra * rd - rb * rb
    if det <= 0 or nu <= 0:
        raise NumericalError("invalid Student-t parameters")
    factor = (p_post + 1.0) / (p_post * nu)
    dx = zx - mx
    dy = zy - my
    quad = (rd * dx * dx - 2.0 * rb * dx * dy + ra * dy * dy) / det / factor
    return (
        math.lgamma(0.5 * (nu + 2.0))
        - math.lgamma(0.5 * nu)
        - math.log(nu)
        - _LOG_PI
        - 0.5 * (math.log(det) + 2.0 * math.log(factor))
        - 0.5 * (nu + 2.0) * math.log1p(quad / nu)
    )


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

    def remove_point(self, i):
        k = int(self.A[i])
        if k == 0:
            raise InternalError("point already removed")
        zx = float(self.Z[i, 0])
        zy = float(self.Z[i, 1])
        s = self._sums[k - 1]
        s[0] -= 1
        s[1] -= zx
        s[2] -= zy
        s[3] -= zx * zx
        s[4] -= zx * zy
        s[5] -= zy * zy
        self.A[i] = 0
        if s[0] == 0:
            del self._sums[k - 1]
            self.A[self.A > k] -= 1

    def assign_point(self, i, k):
        if not (1 <= k <= self.K + 1):
            raise InternalError(f"assignment label {k} out of range")
        if k == self.K + 1:
            self._sums.append([0, 0.0, 0.0, 0.0, 0.0, 0.0])
        zx = float(self.Z[i, 0])
        zy = float(self.Z[i, 1])
        s = self._sums[k - 1]
        s[0] += 1
        s[1] += zx
        s[2] += zy
        s[3] += zx * zx
        s[4] += zx * zy
        s[5] += zy * zy
        self.A[i] = k

    def marginal_log(self, h: GwHyper) -> float:
        """latent_marginal_log of the current state, from the cluster sums."""
        total = 0.0
        for n, sx, sy, sxx, sxy, syy in self._sums:
            szz = np.array([[sxx, sxy], [sxy, syy]])
            total += _cluster_term(n, _gw_posterior(n, np.array([sx, sy]), szz, h), h)
        return total


def gibbs_assignment_step(state: LatentState, i: int, h: GwHyper, rng) -> int:
    """Resample assignment a_i from its collapsed conditional.

    Weights: n_k^{-i} * t-predictive(z_i | cluster k) for existing
    clusters, alpha * t-predictive(z_i | prior) for a new one.
    """
    state.remove_point(i)
    zx = float(state.Z[i, 0])
    zy = float(state.Z[i, 1])
    p0, r0 = h.p, h.r
    m0x, m0y = float(h.m[0]), float(h.m[1])
    R00, R01, R11 = float(h.R[0, 0]), float(h.R[0, 1]), float(h.R[1, 1])
    logs = []
    for k in range(1, state.K + 1):
        # _gw_posterior in scalars: this runs once per point and cluster in
        # every sweep, where numpy's per-call overhead would dominate.
        n, sx, sy, sxx, sxy, syy = state._sums[k - 1]
        p_k = p0 + n
        r_k = r0 + n
        mkx = (p0 * m0x + sx) / p_k
        mky = (p0 * m0y + sy) / p_k
        ra = R00 + sxx + p0 * m0x * m0x - p_k * mkx * mkx
        rb = R01 + sxy + p0 * m0x * m0y - p_k * mkx * mky
        rd = R11 + syy + p0 * m0y * m0y - p_k * mky * mky
        logs.append(math.log(n) + _t2_logpdf(zx, zy, mkx, mky, p_k, r_k, ra, rb, rd))
    logs.append(
        math.log(h.alpha) + _t2_logpdf(zx, zy, m0x, m0y, p0, r0, R00, R01, R11)
    )
    mx = max(logs)
    weights = [math.exp(v - mx) for v in logs]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    choice = len(weights) - 1
    for idx, w in enumerate(weights):
        acc += w
        if u < acc:
            choice = idx
            break
    k_new = choice + 1
    state.assign_point(i, k_new)
    return k_new


def hmc_latent_step(state: LatentState, S, h: GwHyper, eps: float, leapfrog_steps: int,
                    rng) -> bool:
    """One hybrid Monte Carlo transition of Z targeting
    log p(S|Z, kernel) + log p(Z|A, ...), with `leapfrog_steps` leapfrog
    steps of size `eps`.  Returns True on acceptance.  A proposal whose
    energy cannot be computed (a NumericalError, or a non-finite value)
    is rejected and counted in the state's `hmc_numerical_rejections`."""
    momentum = rng.standard_normal(state.Z.shape)
    u = rng.random()
    try:
        ll0, gll0 = state.gplvm_ll_grad(S)
        marg0, gmarg0 = _marginal_and_grad(state.Z, state.A, h)
        U0 = -(ll0 + marg0)
        g0 = -(gll0 + gmarg0)
        Z = state.Z.copy()
        p = momentum - 0.5 * eps * g0
        for step in range(leapfrog_steps):
            Z = Z + eps * p
            ll1, gll1 = _gplvm_ll_and_grad(S, Z, state.kernel, state._gplvm_work)
            marg1, gmarg1 = _marginal_and_grad(Z, state.A, h)
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
    init: str = "single",
) -> IwmmResult:
    """Fit the warped mixture by alternating Gibbs sweeps and HMC moves.

    Deterministic given `seed`.  The reported assignments come from the
    kept iteration (after burn-in) with the highest joint log density
    p(S|Z) p(Z|A) p(A).

    init: "single" starts all points in one cluster; "components" starts
    from Chebyshev-adjacency connected components (natural for grid point
    sets coming out of a spatial filter).
    """
    coords = S.coords

    mu = coords.mean(axis=0)
    sd = coords.std(axis=0)
    sd = np.where(sd == 0, 1.0, sd)
    Sstd = (coords - mu) / sd

    if init == "components":
        A0 = _component_init(coords)
    elif init == "single":
        A0 = np.ones(S.n, dtype=np.int64)
    else:
        raise ValueError(f"unknown init {init!r}")
    state = LatentState(Sstd.copy(), A0, k0)
    rng = np.random.default_rng(seed)

    trace = []
    best_joint = -math.inf
    best_A = state.A.copy()
    best_Z = state.Z.copy()
    accepted = 0
    step_size = INITIAL_STEP_SIZE
    for it in range(1, mcmc.iters + 1):
        if it > mcmc.gibbs_start:
            for i in range(S.n):
                gibbs_assignment_step(state, i, h, rng)
        ok = hmc_latent_step(state, Sstd, h, step_size, mcmc.leapfrog_steps, rng)
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
    )
