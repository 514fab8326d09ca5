"""Cluster validity indices, ground-truth reconstruction, and the
Wilcoxon signed-rank test.

Internal indices (CH, GDI) score a clustering from geometry alone;
external indices (RI, ARI, NMI) compare a predicted partition against a
reference one.  Degenerate cases raise UndefinedIndex with a reason
instead of returning NaN, and `evaluation_report` converts those into
typed nulls so reports stay machine-checkable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import reduce
from operator import add

import numpy as np
from scipy import ndimage

from .errors import DimensionError, UndefinedIndex, UndefinedTest
from .wafer import CellState, WaferMap

NMI_NORMALIZERS = ("paper", "joint", "sqrt", "max", "min")


def _as_labels(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise DimensionError("labels must be one-dimensional")
    return arr


def canonical_labels(labels) -> tuple:
    """Relabel clusters 1..K in order of first appearance."""
    mapping = {}
    out = []
    for v in _as_labels(labels).tolist():
        if v not in mapping:
            mapping[v] = len(mapping) + 1
        out.append(mapping[v])
    return tuple(out)


def partitions_identical(a, b) -> bool:
    return canonical_labels(a) == canonical_labels(b)


# ---------------------------------------------------------------------
# Internal indices
# ---------------------------------------------------------------------

def _grouped(points, labels):
    pts = np.asarray(points, dtype=float)
    labels = _as_labels(labels)
    if pts.shape[0] != labels.shape[0]:
        raise DimensionError("points and labels lengths differ")
    return [(pts[labels == k]) for k in np.unique(labels)]


def ch_index(points, labels) -> float:
    """Calinski-Harabasz: ((n-K)/(K-1)) * between / within dispersion."""
    groups = _grouped(points, labels)
    n = sum(g.shape[0] for g in groups)
    K = len(groups)
    if K < 2:
        raise UndefinedIndex("CH requires >= 2 clusters")
    grand = np.vstack(groups).mean(axis=0)
    # Added left to right: since Python 3.12 the builtin sum compensates
    # float sums, which would make seeded reports depend on the interpreter.
    between = reduce(add, (g.shape[0] * float(np.sum((g.mean(axis=0) - grand) ** 2))
                           for g in groups), 0.0)
    within = reduce(add, (float(np.sum((g - g.mean(axis=0)) ** 2)) for g in groups), 0.0)
    if within == 0:
        raise UndefinedIndex("zero within-cluster dispersion")
    return (n - K) / (K - 1) * between / within


def gdi_index(points, labels) -> float:
    """Generalized Dunn index: min pairwise centroid-spread separation
    over max intra-cluster diameter."""
    groups = _grouped(points, labels)
    K = len(groups)
    if K < 2:
        raise UndefinedIndex("GDI requires >= 2 clusters")
    spreads = [float(np.sum(np.linalg.norm(g - g.mean(axis=0), axis=1))) for g in groups]
    diameter = max((float(np.sqrt(((g[:, None] - g) ** 2).sum(-1)).max())
                    for g in groups if g.shape[0] >= 2), default=0.0)
    if diameter == 0:
        raise UndefinedIndex("zero max diameter")
    num = min(
        (spreads[a] + spreads[b]) / (groups[a].shape[0] + groups[b].shape[0])
        for a in range(K)
        for b in range(a + 1, K)
    )
    return num / diameter


# ---------------------------------------------------------------------
# External indices
# ---------------------------------------------------------------------

def contingency_table(a, b):
    """n_ij counts plus row/column marginals for two equal-length labelings."""
    a = _as_labels(a)
    b = _as_labels(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionError("partitions have different lengths")
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return table


def pair_counts(a, b):
    """(gamma, beta, tau, zeta): pairs same/same, diff/diff, same/diff,
    diff/same across the two partitions, from the contingency table."""
    table = contingency_table(a, b)
    n = int(table.sum())
    tot = n * (n - 1) // 2
    same_both = int((table * (table - 1) // 2).sum())
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    same_a = int((rows * (rows - 1) // 2).sum())
    same_b = int((cols * (cols - 1) // 2).sum())
    gamma = same_both
    tau = same_a - same_both
    zeta = same_b - same_both
    beta = tot - gamma - tau - zeta
    return gamma, beta, tau, zeta


def rand_index(a, b) -> float:
    """(gamma + beta) / C(n, 2)."""
    a = _as_labels(a)
    if a.shape[0] < 2:
        raise UndefinedIndex("RI needs n >= 2")
    gamma, beta, tau, zeta = pair_counts(a, b)
    total = gamma + beta + tau + zeta
    return (gamma + beta) / total


def adjusted_rand_index(a, b) -> float:
    """Chance-adjusted Rand index in pair-count form.

    Equals the Hubert-Arabie contingency-table formula; 1 iff the
    partitions are identical.
    """
    a = _as_labels(a)
    if a.shape[0] < 2:
        raise UndefinedIndex("ARI needs n >= 2")
    gamma, beta, tau, zeta = pair_counts(a, b)
    total = gamma + beta + tau + zeta
    expected = (gamma + tau) * (gamma + zeta) + (beta + tau) * (beta + zeta)
    denom = total * total - expected
    if denom == 0:
        if partitions_identical(a, b):
            return 1.0
        raise UndefinedIndex("ARI denominator degenerate")
    return (total * (gamma + beta) - expected) / denom


def nmi_index(a, b, normalizer: str = "paper") -> float:
    """Normalized mutual information I(A, B) / H.

    normalizer:
      * "paper": H = -sum_ij (n_ij/n) log(n_ij / colsum_j), the
        conditional-entropy-style form printed in the source formula
        (default).  Note this variant is not bounded by 1.
      * "joint", "sqrt", "max", "min": the usual normalizations.

    If H = 0, returns 1 for identical partitions, else raises
    UndefinedIndex("zero normalizer").
    """
    if normalizer not in NMI_NORMALIZERS:
        raise ValueError(f"unknown normalizer {normalizer!r}")
    a = _as_labels(a)
    if a.shape[0] < 2:
        raise UndefinedIndex("NMI needs n >= 2")
    table = contingency_table(a, b).astype(float)
    n = table.sum()
    p = table / n
    pr = p.sum(axis=1)
    pc = p.sum(axis=0)
    nz = p > 0
    # independent partitions sum to a rounding error, as low as -1.6e-16
    info = max(0.0, float(np.sum(p[nz] * np.log(p[nz] / np.outer(pr, pc)[nz]))))

    def entropy(q):
        # a one-cluster side sums to a rounding error, as low as -2.2e-16
        q = q[q > 0]
        return max(0.0, float(-np.sum(q * np.log(q))))

    if normalizer == "paper":
        hn = float(-np.sum(p[nz] * np.log(p[nz] / np.broadcast_to(pc, p.shape)[nz])))
    elif normalizer == "joint":
        hn = entropy(p.ravel())
    elif normalizer == "sqrt":
        hn = math.sqrt(entropy(pr) * entropy(pc))
    elif normalizer == "max":
        hn = max(entropy(pr), entropy(pc))
    else:
        hn = min(entropy(pr), entropy(pc))

    if hn <= 1e-15:
        if partitions_identical(a, b):
            return 1.0
        raise UndefinedIndex("zero normalizer")
    return info / hn


# ---------------------------------------------------------------------
# Ground-truth reconstruction
# ---------------------------------------------------------------------

def reconstruct_ground_truth(wmap: WaferMap) -> WaferMap:
    """One-pass 3x3 windowed smoothing of the raw map.

    A pixel is defective in the output iff at least 4 of the 9 cells in
    its 3x3 window (out-of-grid and out-of-mask count as 0) are defective
    in the input, i.e. the uniform-weight window mean is >= 4/9.  The
    mask is preserved.
    """
    grid = wmap.grid()
    # A window counts at most 9 defects, so uint8 holds every count.
    defect = (grid == CellState.DEFECTIVE.value).view(np.uint8)
    window = ndimage.correlate(defect, np.ones((3, 3), dtype=np.uint8), mode="constant")
    # FUNCTIONAL + 1 is DEFECTIVE.
    out = np.add(window >= 4, CellState.FUNCTIONAL.value, dtype=np.int8)
    out[grid == CellState.OUTSIDE.value] = CellState.OUTSIDE.value
    return WaferMap(wmap.rows, wmap.cols, out.ravel())


# ---------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # W+ = sum of ranks of positive differences
    p_two_sided: float
    n_nonzero: int
    exact: bool


def _midranks(values):
    """1-based ranks of `values`, tied values sharing the mean of their ranks.

    NaNs tie with nothing, each taking a rank of its own after the numbers."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True,
                                 equal_nan=False)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


EXACT_WILCOXON_LIMIT = 15


def wilcoxon_signed_rank(diffs) -> WilcoxonResult:
    """Two-sided signed-rank test with midrank ties.

    Zero differences are dropped.  Exact p (2 * min tail probability over
    the 2^n equiprobable sign assignments, capped at 1) for up to
    EXACT_WILCOXON_LIMIT nonzero differences, else a normal approximation
    with tie correction and continuity correction.
    """
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = d.shape[0]
    if n == 0:
        raise UndefinedTest("all differences are zero")
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= EXACT_WILCOXON_LIMIT:
        # distribution of 2*W+ over all sign assignments (integer support):
        # counts[s] sign assignments give 2*W+ = s
        r2 = np.rint(2 * ranks).astype(np.int64)
        counts = np.zeros(int(r2.sum()) + 1, dtype=np.int64)
        counts[0] = 1
        for r in r2:
            counts[r:] = counts[r:] + counts[:-r]
        w2 = int(round(2 * w_plus))
        total = 2**n
        p_le = int(counts[: w2 + 1].sum()) / total
        p_ge = int(counts[w2:].sum()) / total
        p = min(1.0, 2.0 * min(p_le, p_ge))
        return WilcoxonResult(w_plus, p, n, exact=True)

    mean = n * (n + 1) / 4.0
    # tie correction on the variance
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        raise UndefinedTest("zero variance (all ranks tied away)")
    delta = w_plus - mean
    corr = 0.5 if delta > 0 else (-0.5 if delta < 0 else 0.0)
    z = (delta - corr) / math.sqrt(var)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(w_plus, p, n, exact=False)


# ---------------------------------------------------------------------
# Evaluation reports
# ---------------------------------------------------------------------

@dataclass
class EvaluationReport:
    """Internal + external indices with typed nulls for degenerate cases."""

    ch: float | None = None
    gdi: float | None = None
    ri: float | None = None
    ari: float | None = None
    nmi: float | None = None
    nmi_sqrt: float | None = None
    n_points: int = 0
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def evaluation_report(points, predicted, truth, nmi_normalizer="paper") -> EvaluationReport:
    """Compute all indices, recording a reason string per undefined index.

    `nmi_sqrt` is always reported alongside the configured NMI variant
    for cross-library comparison.
    """
    report = EvaluationReport(n_points=len(predicted))

    def attempt(name, fn):
        try:
            setattr(report, name, fn())
        except UndefinedIndex as exc:
            report.flags[name] = exc.reason

    attempt("ch", lambda: ch_index(points, predicted))
    attempt("gdi", lambda: gdi_index(points, predicted))
    attempt("ri", lambda: rand_index(truth, predicted))
    attempt("ari", lambda: adjusted_rand_index(truth, predicted))
    attempt("nmi", lambda: nmi_index(truth, predicted, nmi_normalizer))
    attempt("nmi_sqrt", lambda: nmi_index(truth, predicted, "sqrt"))
    return report
