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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .acfilter import FilterResult
from .wafer import AdjacencyGraph, CellState, Neighborhood, WaferMap, build_graph, components

EXACT_COMPONENT_LIMIT = 24
SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class CpfConfig:
    m_threshold: int = 5
    nb: Neighborhood = Neighborhood.KING

    def __post_init__(self):
        if self.m_threshold < 1:
            raise ValueError("M must be >= 1")


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


def _reachable_count(adj, start, blocked, limit):
    """Nodes reachable from `start` without entering `blocked`, not counting
    `start` itself; the search stops once `limit` of them are found."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen and v not in blocked:
                seen.add(v)
                if len(seen) > limit:
                    return limit
                stack.append(v)
    return len(seen) - 1


def _extend_path(adj, path, used, need, budget):
    """Depth-first right-extension; returns a full path once len >= need."""
    if len(path) >= need:
        return list(path)
    budget.spend()
    tail = path[-1]
    missing = need - len(path)
    if missing == 1:
        # any unused neighbour of the tail ends the path; the search below
        # would take the first one and return without spending budget
        for v in adj[tail]:
            if v not in used:
                return path + [v]
        return None
    # prune: even absorbing every reachable unused node cannot reach `need`
    if _reachable_count(adj, tail, used, missing) < missing:
        return None
    for v in adj[tail]:
        if v not in used:
            path.append(v)
            used.add(v)
            found = _extend_path(adj, path, used, need, budget)
            if found:
                return found
            used.discard(v)
            path.pop()
    return None


def _path_through(adj, left, used, need, budget):
    """Some simple path with >= need nodes passing through left[0], or None.

    `left` is a left arm rooted at left[0], its nodes in `used`; call with
    ([v], {v}).  Grows left arms depth-first, exhaustively, and for each
    arm searches for a right arm among the remaining nodes.  The found
    path is returned so callers can mark every node on it as kept.  The
    recursion is a module-level function, not a closure calling itself,
    which would form a reference cycle holding `adj` until the cyclic
    collector runs.
    """
    remaining = need - len(left) + 1  # right arm includes left[0]
    right = _extend_path(adj, [left[0]], set(used), remaining, budget)
    if right:
        return list(reversed(left[1:])) + right
    budget.spend()
    for w in adj[left[-1]]:
        if w not in used:
            left.append(w)
            used.add(w)
            found = _path_through(adj, left, used, need, budget)
            if found:
                return found
            used.discard(w)
            left.pop()
    return None


def _exact_kept(adj, comp, m, budget):
    """Nodes of `comp` lying on some simple path of >= m nodes (exact)."""
    kept = set()
    for v in comp:
        if v in kept:
            continue
        path = _path_through(adj, [v], {v}, m, budget)
        if path:
            kept.update(path)
    return kept


class _LazyAdjacency(dict):
    """Neighbour lists of the chips with comp > 0, keyed by node id.

    Lists missing from the dict are built on first access from the
    chip's row of `neighbours`, so a search reads only the lists of the
    chips it reaches.  `comp` ends in a padding 0, which a missing
    neighbour (-1) reads.
    """

    def __init__(self, lists, neighbours, comp):
        super().__init__(lists)
        self._neighbours = neighbours
        self._comp = comp

    def __missing__(self, i):
        if not self._comp[i] > 0:
            raise KeyError(i)
        row = self._neighbours[i]
        self[i] = nbrs = row[self._comp[row] > 0].tolist()
        return nbrs


def _adjacency(graph: AdjacencyGraph, comp: np.ndarray) -> dict[int, list[int]]:
    """Adjacency among the chips with comp > 0: each one's neighbour list in
    ascending id order, which is the order the path search visits them in.

    Only the chips of components small enough for the exact search, which
    reads every list of its component, get their lists up front; the
    others get theirs on first access.  One vectorised pass over the
    several hundred small-component chips of a 150x150 wafer costs less
    than building their lists one at a time on access.
    """
    # A padding 0 after the last node, for the -1 entries of
    # graph.neighbours to read.
    comp = np.append(comp, 0)
    sizes = np.bincount(comp)
    alive = np.flatnonzero((comp > 0) & (sizes[comp] <= EXACT_COMPONENT_LIMIT))
    nbr = graph.neighbours[alive]
    link = comp[nbr] > 0
    flat = nbr[link].tolist()
    ends = np.cumsum(link.sum(axis=1)).tolist()
    lists = {i: flat[a:b] for i, a, b in zip(alive.tolist(), [0] + ends[:-1], ends)}
    return _LazyAdjacency(lists, graph.neighbours, comp)


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
    # A component of fewer than m chips holds no path of m chips, so its
    # chips are dropped before any adjacency is built.
    comp[sizes[comp] < m] = 0
    adj = _adjacency(graph, comp)

    # The chips of each searched component in one list, components in
    # ascending id and each one's nodes in ascending id, so that every
    # search starts where a per-component scan would start it.
    chips = np.flatnonzero(comp)
    chips = chips[np.argsort(comp[chips], kind="stable")].tolist()
    ends = np.cumsum(sizes[1:][sizes[1:] >= m]).tolist()
    kept_nodes = []
    exact = approx = spent = 0
    for start, end in zip([0] + ends[:-1], ends):
        nodes = chips[start:end]
        budget = _Budget(SEARCH_BUDGET)
        try:
            if len(nodes) <= EXACT_COMPONENT_LIMIT:
                kept = _exact_kept(adj, nodes, m, budget)
            else:
                # component retention: keep everything iff a long path
                # starts at one of its chips
                long_path = any(_extend_path(adj, [v], {v}, m, budget) for v in nodes)
                kept = nodes if long_path else []
            exact += 1
        except _BudgetExceeded:
            kept = nodes  # size >= m already checked
            approx += 1
        spent += SEARCH_BUDGET - max(budget.left, 0)
        kept_nodes.extend(kept)
    labels = np.zeros(graph.node_count, dtype=bool)
    labels[kept_nodes] = True
    labels.flags.writeable = False

    return FilterResult(
        labels=labels,
        objective_value=Fraction(int(np.count_nonzero(labels))),
        approx=approx > 0,
        counters=(("components_exact", exact), ("components_approx", approx),
                  ("budget_spent", spent)),
    )
