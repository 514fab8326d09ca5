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
range raise ConfigError; they are never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import ConfigError, DimensionError, EmptyWaferError
from .flow import FlowNetwork, max_flow_min_cut
from .wafer import AdjacencyGraph, Neighborhood, WaferMap, build_graph


def as_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, str, or float.

    Floats go through their shortest decimal repr, so 0.4 becomes 2/5
    rather than the binary expansion of 0.4.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


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


@dataclass(frozen=True)
class FilterResult:
    """Per-node binary labels x plus the exact objective they achieve."""

    labels: tuple
    objective_value: Fraction
    kept_count: int
    approx: bool = False


def ac_objective(wmap: WaferMap, cfg: AcConfig, labels) -> Fraction:
    """Exact rational objective of a labeling; the recomputation check."""
    return _objective(build_graph(wmap, cfg.nb), wmap.defect_bits(), cfg, labels)


def _objective(graph: AdjacencyGraph, d: np.ndarray, cfg: AcConfig, labels) -> Fraction:
    labels = np.asarray(labels)
    if labels.shape != (graph.node_count,):
        raise DimensionError(
            f"labels length {labels.size} != node count {graph.node_count}"
        )
    kept = labels == 1
    n_kept_functional = int(np.sum(kept & (d == 0)))
    n_kept_defective = int(np.sum(kept & (d == 1)))
    deviation = cfg.w_mag * (n_kept_functional - n_kept_defective)
    i, j = graph.edges.T
    cross = int(np.count_nonzero(labels[i] != labels[j]))
    return deviation + cfg.u * cross


def ac_filter(wmap: WaferMap, cfg: AcConfig | None = None) -> FilterResult:
    """Globally optimal binary labeling of the wafer under the AC objective.

    Deterministic: ties between minimum cuts are broken by residual
    reachability from the source (the inclusion-minimal source set).
    """
    if cfg is None:
        cfg = AcConfig()
    graph = build_graph(wmap, cfg.nb)
    n = graph.node_count
    if n == 0:
        raise EmptyWaferError("wafer has no in-mask cells")

    scale = lcm(cfg.u.denominator, cfg.w_mag.denominator)
    u_int = int(cfg.u * scale)
    w_int = int(cfg.w_mag * scale)

    s, t = n, n + 1
    edges = graph.edges if u_int > 0 else graph.edges[:0]
    d = wmap.defect_bits()
    defective = d == 1
    chips = np.arange(n)
    # Each grid edge becomes two antiparallel arcs of capacity u; a defective
    # chip (w_i < 0) gets an arc from the source, a functional one an arc
    # to the sink, both of capacity w_mag.
    tails = np.concatenate([edges[:, 0], edges[:, 1], np.full(int(defective.sum()), s),
                            chips[~defective]])
    heads = np.concatenate([edges[:, 1], edges[:, 0], chips[defective],
                            np.full(int((~defective).sum()), t)])
    # An object or float array here means a capacity beyond int64, which
    # FlowNetwork rejects.
    caps = np.repeat(np.array([u_int, w_int]), [2 * len(edges), n])
    try:
        cut = max_flow_min_cut(FlowNetwork(n + 2, np.column_stack([tails, heads, caps]), s, t))
    except ValueError as exc:
        raise ConfigError(
            f"u={cfg.u} and w_mag={cfg.w_mag} scale to integer capacities "
            f"{u_int} and {w_int}, beyond what the exact solver accepts: {exc}"
        ) from exc

    labels = np.zeros(n + 2, dtype=np.int8)
    labels[list(cut.source_set)] = 1
    labels = labels[:n]
    return FilterResult(
        labels=tuple(labels.tolist()),
        objective_value=_objective(graph, d, cfg, labels),
        kept_count=int(labels.sum()),
    )


def filtered_points(wmap: WaferMap, result: FilterResult) -> list[tuple[int, int]]:
    """(row, col) of every kept chip, in row-major order."""
    coords = wmap.in_mask_coords()
    if len(result.labels) != len(coords):
        raise DimensionError("filter result does not match this wafer")
    return [rc for rc, x in zip(coords, result.labels) if x == 1]
