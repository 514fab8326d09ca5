"""Adjacency-clustering spatial filter via exact minimum cut.

The binary labeling objective

    sum_i w_i x_i  +  sum_{[i,j]} u * |x_i - x_j|

with w_i = +w_mag for functional chips (d_i = 0) and w_i = -w_mag for
defective chips (d_i = 1) is minimized exactly by one s-t minimum cut:
every undirected grid edge becomes two antiparallel arcs of capacity u,
each functional chip gets an arc to the sink of capacity w_mag, each
defective chip an arc from the source of capacity w_mag, and the chips
labeled 1 are the minimum-cut source side.

All costs are exact rationals; capacities are scaled by the LCM of the
denominators before solving, so optimality is exact rather than
tolerance-based.  Costs whose scaled capacities exceed the solver's int32
range, which bounds w_mag and 2u (a grid arc's largest residual), raise
ConfigError; they are never rounded.  Every solve is certified by strong
duality: the cut's capacity, counted in integers from the labels, must
equal the max-flow value, or ac_filter raises InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np
from scipy.sparse import csr_array

from .errors import ConfigError, DimensionError, InternalError
from .flow import INT32_MAX, FlowNetwork, max_flow_min_cut
from .wafer import GRAPH_CACHE_SIZE, AdjacencyGraph, Neighborhood, WaferMap, build_graph


def as_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, str, or float.

    Floats go through their shortest decimal repr, so 0.4 becomes 2/5
    rather than the binary expansion of 0.4.  A malformed value, a zero
    denominator ("1/0") or a str that is not ASCII or holds a '_' (which
    Fraction() alone reads: "1_0", the digits of other scripts) raises
    ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = str(value)
    elif isinstance(value, str) and not (value.isascii() and "_" not in value):
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


@dataclass(frozen=True)
class AcConfig:
    """Filter costs: one separation cost u for all edges, |w_i| = w_mag."""

    u: Fraction = Fraction(1, 2)
    w_mag: Fraction = Fraction(1)
    nb: Neighborhood = Neighborhood.KING

    def __post_init__(self):
        object.__setattr__(self, "u", as_fraction(self.u))
        object.__setattr__(self, "w_mag", as_fraction(self.w_mag))
        if self.u < 0:
            raise ValueError("separation cost u must be nonnegative")
        if self.w_mag <= 0:
            raise ValueError("deviation magnitude w_mag must be positive")


@dataclass(frozen=True, eq=False)
class FilterResult:
    """Per-node binary labels x plus the exact objective they achieve.

    `labels` is a read-only bool mask over the in-mask chips in node-id
    (row-major) order, True where a chip is kept.  `counters` holds
    (name, count) pairs of what the filter's solver did.
    """

    labels: np.ndarray
    objective_value: Fraction
    approx: bool = False
    counters: tuple = ()

    @property
    def kept_count(self) -> int:
        return int(np.count_nonzero(self.labels))


def ac_objective(wmap: WaferMap, cfg: AcConfig, labels) -> Fraction:
    """Exact rational objective of a labeling; the recomputation check."""
    return _objective(cfg, *_label_counts(wmap, cfg.nb, wmap.defect_bits(), labels))


def _objective(cfg: AcConfig, kept_functional: int, kept_defective: int,
               cut_edges: int) -> Fraction:
    return cfg.w_mag * (kept_functional - kept_defective) + cfg.u * cut_edges


def _label_counts(wmap: WaferMap, nb: Neighborhood, d: np.ndarray, labels) -> tuple[int, int, int]:
    """Kept functional chips, kept defective chips and grid edges whose
    ends differ, under a labeling."""
    labels = np.asarray(labels)
    if labels.shape != d.shape:
        raise DimensionError(f"labels length {labels.size} != node count {d.size}")
    kept = labels == 1
    inside = wmap.in_mask()
    grid = np.zeros(inside.shape, dtype=bool)
    grid[inside] = kept
    # Each grid edge once, from its lower end: the forward half of the
    # symmetric `sorted(nb.offsets)`, each as two shifted views of the grid.
    rows, cols = grid.shape
    cut_edges = 0
    for dr, dc in sorted(nb.offsets)[len(nb.offsets) // 2:]:
        here = np.s_[:rows - dr, max(0, -dc):cols - max(0, dc)]
        there = np.s_[dr:, max(0, dc):cols - max(0, -dc)]
        cut_edges += int(np.count_nonzero(
            (grid[here] != grid[there]) & inside[here] & inside[there]))
    return int(np.sum(kept & (d == 0))), int(np.sum(kept & (d == 1))), cut_edges


def ac_filter(wmap: WaferMap, cfg: AcConfig | None = None) -> FilterResult:
    """Globally optimal binary labeling of the wafer under the AC objective.

    Deterministic: ties between minimum cuts are broken by residual
    reachability from the source (the inclusion-minimal source set).
    """
    if cfg is None:
        cfg = AcConfig()
    graph = build_graph(wmap, cfg.nb)
    n = graph.node_count

    scale = lcm(cfg.u.denominator, cfg.w_mag.denominator)
    u_int = int(cfg.u * scale)
    w_int = int(cfg.w_mag * scale)
    # A grid edge's two arcs each carry u, so a residual reaches 2u.
    if max(2 * u_int, w_int) > INT32_MAX:
        raise ConfigError(
            f"u={cfg.u} and w_mag={cfg.w_mag} scale to integer capacities "
            f"{u_int} and {w_int}; 2u and w_mag must stay within the exact "
            f"solver's limit {INT32_MAX}"
        )

    # The capacity matrix of the network, in the structure FlowNetwork
    # requires: the source is node 0, the sink node 1 and chip i node i + 2.
    # Each grid edge becomes two antiparallel arcs of capacity u; a
    # defective chip (w_i < 0) gets an arc from the source, a functional
    # one an arc to the sink, both of capacity w_mag.  The chip rows come
    # from the mask's cached layout; this wafer sets their terminal slots,
    # the capacities, the source row (the source arcs) and the sink row
    # (the zero reverses of the sink arcs).
    chip_indices, chip_indptr = _chip_rows(graph)
    d = wmap.defect_bits()
    defective = d == 1
    from_s = np.flatnonzero(defective)
    indices = np.concatenate([from_s + 2, np.flatnonzero(~defective) + 2, chip_indices],
                             dtype=np.int32)
    # A chip row's first entry is the zero reverse of its source arc
    # (column 0) or its sink arc (column 1); every other one is a grid arc.
    terminal = n + chip_indptr[:-1]
    indices[terminal] = 1 - d
    data = np.full(indices.size, u_int, dtype=np.int32)
    data[:from_s.size] = w_int
    data[from_s.size:n] = 0
    data[terminal] = np.where(defective, 0, w_int)
    indptr = np.concatenate([np.array([0, from_s.size], dtype=np.int32), n + chip_indptr])
    capacity = csr_array((data, indices, indptr), shape=(n + 2, n + 2))
    cut = max_flow_min_cut(FlowNetwork(capacity, 0, 1))

    labels = cut.source_side[2:]
    kept_functional, kept_defective, cut_edges = _label_counts(wmap, cfg.nb, d, labels)
    dropped_defective = from_s.size - kept_defective
    # Strong duality: the cut's capacity, counted from the labels (the
    # sink arcs of kept functional chips, the source arcs of dropped
    # defective ones, one u per cut grid edge), equals the flow value.
    if u_int * cut_edges + w_int * (kept_functional + dropped_defective) != cut.max_flow_value:
        raise InternalError(
            f"the cut's capacity under u={cfg.u}, w_mag={cfg.w_mag} differs from the "
            f"max-flow value {cut.max_flow_value}: the network is not the AC objective's"
        )
    return FilterResult(
        labels=labels,
        objective_value=_objective(cfg, kept_functional, kept_defective, cut_edges),
        counters=(("max_flow_value", cut.max_flow_value), ("cut_edges", cut_edges),
                  ("kept_functional", kept_functional),
                  ("dropped_defective", dropped_defective)),
    )


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _chip_rows(graph: AdjacencyGraph) -> tuple[np.ndarray, np.ndarray]:
    """The part of the AC capacity matrix that depends only on the mask.

    Row i of the matrix is chip i's, node i + 2: one terminal slot, whose
    column (s = 0 or t = 1) and capacity each wafer sets, then its
    neighbours.  At u = 0 the grid arcs are explicit zeros, which the
    residual reads as closed.  All ids ascend along a row, since s and t
    precede every chip.  Returns read-only arrays: the chip rows' int32
    column indices (the terminal slots hold s) and their n + 1 int32 row
    starts, so row i's terminal slot is at its start.  The layouts of the
    GRAPH_CACHE_SIZE (8) most recently used graphs are kept, with the
    graphs: at most 4 * (deg + 1) + 4 bytes per chip, 40 for king, plus
    the graph's 64, so 8 * 104 bytes per in-mask cell of the largest mask
    used (14.6 MB for 150x150 wafers) beyond the graph cache's own bound.
    """
    n = graph.node_count
    # s = 0 in the terminal slots; a missing neighbour (-1) reads t = 1.
    row = np.column_stack([np.full(n, -2), graph.neighbours]) + 2
    present = row != 1
    indices = row[present].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
    for array in (indices, indptr):
        array.flags.writeable = False
    return indices, indptr
