"""Connected path filtering baseline.

CPF keeps a defective chip iff it lies on a simple path of adjacent
defective chips at least M chips long; functional chips are never
relabeled.  Deciding "lies on a simple path of length >= M" is NP-hard in
general, so components of at most EXACT_COMPONENT_LIMIT nodes are solved
exactly by exhaustive two-arm DFS, and larger components fall back to
whole-component retention by longest-path search within a node budget,
with component size >= M as the last resort (marked approximate).  The
two readings agree on line/scratch components, whose longest simple path
equals their size.

The search runs on Python int bitmasks: bit k of a component's masks
stands for its k-th chip in ascending id order, the order a search visits
them in.  It recurses through module-level functions, since a closure
calling itself would hold the masks in a reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .acfilter import FilterResult
from .wafer import CellState, Neighborhood, WaferMap, build_graph, components, whole_number

EXACT_COMPONENT_LIMIT = 24
SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class CpfConfig:
    m_threshold: int = 5
    nb: Neighborhood = Neighborhood.KING

    def __post_init__(self):
        m = whole_number("m_threshold", self.m_threshold)
        if m < 1:
            raise ValueError(f"m_threshold must be >= 1, got {m}")
        object.__setattr__(self, "m_threshold", m)


class _BudgetExceeded(Exception):
    pass


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        """Take one search step; raises _BudgetExceeded once none is left."""
        self.left -= 1
        if self.left < 0:
            raise _BudgetExceeded


def _enough(nbr, tail, used, k):
    """Whether at least k chips are reachable from chip `tail` outside mask `used`."""
    free = ~used
    reach = todo = nbr[tail] & free
    while todo and reach.bit_count() < k:
        low = todo & -todo
        todo ^= low
        new = nbr[low.bit_length() - 1] & free & ~reach
        reach |= new
        todo |= new
    return reach.bit_count() >= k


def _extend(nbr, tail, used, missing, budget):
    """The chips of a simple path that extends the path `used`, ending at
    `tail`, by `missing` more chips, as a mask, or 0: depth-first, pruned
    where even every chip reachable from the tail would not be enough."""
    if missing <= 0:
        return used
    budget.spend()
    free = nbr[tail] & ~used
    if missing == 1:
        # any unused neighbour of the tail ends the path; the search below
        # would take the first one and return without spending budget
        return used | (free & -free) if free else 0
    if not _enough(nbr, tail, used, missing):
        return 0
    while free:
        low = free & -free
        free ^= low
        found = _extend(nbr, low.bit_length() - 1, used | low, missing - 1, budget)
        if found:
            return found
    return 0


def _path_through(nbr, root, last, used, missing, budget):
    """The chips of some simple path through chip `root` with `missing`
    more chips than the left arm `used`, a path from `root` to `last`, as
    a mask, or 0.  Grows left arms depth-first, exhaustively, and for each
    one searches for a right arm from `root` among the remaining chips."""
    found = _extend(nbr, root, used, missing, budget)
    if found:
        return found
    budget.spend()
    free = nbr[last] & ~used
    while free:
        low = free & -free
        free ^= low
        found = _path_through(nbr, root, low.bit_length() - 1, used | low, missing - 1, budget)
        if found:
            return found
    return 0


def _exact_kept(nbr, size, m, budget):
    """The chips of a component of `size` chips that lie on some simple
    path of >= m chips, as a mask (exact)."""
    kept = 0
    for k in range(size):
        if not kept >> k & 1:
            kept |= _path_through(nbr, k, k, 1 << k, m - 1, budget)
    return kept


class _LazyMasks(dict):
    """Neighbour masks of one component's chips, keyed by bit, each built
    on first access from the chip's row of `neighbours`, so a search
    builds only the masks of the chips it reaches.  `bit` maps node ids
    to their bits, -1 for unsearched chips and at its padding end, which
    a missing neighbour (-1) reads."""

    def __init__(self, neighbours, bit, nodes):
        super().__init__()
        self._neighbours = neighbours
        self._bit = bit
        self._nodes = nodes

    def __missing__(self, k):
        bits = self._bit[self._neighbours[self._nodes[k]]].tolist()
        self[k] = mask = sum(1 << b for b in bits if b >= 0)
        return mask


def _small_masks(neighbours, bit, nodes):
    """The neighbour masks of `nodes`, chips of components small enough
    that their bits fit an int64, in one vectorised pass."""
    # 1 << (b + 1) >> 1 is 1 << b for a bit b, and 0 for a -1.
    return (np.left_shift(1, bit[neighbours[nodes]] + 1) >> 1).sum(axis=1).tolist()


def cpf_filter(wmap: WaferMap, cfg: CpfConfig | None = None) -> FilterResult:
    """CPF labeling: x_i = 1 only for defective chips on long enough paths.

    objective_value carries sum(x) (CPF has no cost model).  `counters`
    gives the components searched to the end (`components_exact`), those
    kept whole because the search budget ran out (`components_approx`),
    and the budget steps spent over all of them (`budget_spent`).
    """
    if cfg is None:
        cfg = CpfConfig()
    m = cfg.m_threshold
    graph = build_graph(wmap, cfg.nb)
    comp = components(wmap.grid() == CellState.DEFECTIVE.value, cfg.nb)[wmap.in_mask()]
    sizes = np.bincount(comp)
    # A component of fewer than m chips holds no path of m chips: unsearched.
    comp[sizes[comp] < m] = 0
    # The chips of each searched component in one array, components in
    # ascending id and each one's nodes in ascending id, and each chip's
    # bit: its place in its component.
    chips = np.flatnonzero(comp)
    chips = chips[np.argsort(comp[chips], kind="stable")]
    counts = sizes[1:][sizes[1:] >= m]
    starts = np.cumsum(counts) - counts
    bit = np.full(graph.node_count + 1, -1)
    bit[chips] = np.arange(chips.size) - np.repeat(starts, counts)
    small = np.repeat(counts <= EXACT_COMPONENT_LIMIT, counts)
    masks = _small_masks(graph.neighbours, bit, chips[small])

    kept_masks = []
    exact = approx = spent = at = 0
    for start, size in zip(starts.tolist(), counts.tolist()):
        budget = _Budget(SEARCH_BUDGET)
        try:
            if size <= EXACT_COMPONENT_LIMIT:
                at += size
                kept = _exact_kept(masks[at - size:at], size, m, budget)
            else:
                # component retention: keep everything iff a long path
                # starts at one of its chips
                nbr = _LazyMasks(graph.neighbours, bit, chips[start:start + size])
                kept = -any(_extend(nbr, k, 1 << k, m - 1, budget) for k in range(size))
            exact += 1
        except _BudgetExceeded:
            kept = -1  # size >= m already checked
            approx += 1
        spent += SEARCH_BUDGET - max(budget.left, 0)
        kept_masks.append(kept)
    # A chip is kept where its bit is set in its component's mask.  A
    # large component's mask is 0 or -1 (-True: every bit), which reads
    # the same at bit 63 as at any higher bit.
    on = np.repeat(np.array(kept_masks, dtype=np.int64), counts) >> np.minimum(bit[chips], 63) & 1
    labels = np.zeros(graph.node_count, dtype=bool)
    labels[chips] = on
    labels.flags.writeable = False

    return FilterResult(
        labels=labels,
        objective_value=Fraction(int(np.count_nonzero(labels))),
        approx=approx > 0,
        counters=(("components_exact", exact), ("components_approx", approx),
                  ("budget_spent", spent)),
    )
