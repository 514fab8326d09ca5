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
from .errors import InternalError
from .wafer import CellState, Neighborhood, WaferMap, build_graph

EXACT_COMPONENT_LIMIT = 24
SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class CpfConfig:
    m_threshold: int = 5
    nb: Neighborhood = Neighborhood.KING

    def __post_init__(self):
        if self.m_threshold < 1:
            raise ValueError("M must be >= 1")


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        return self.left >= 0


def _components(adj, nodes):
    """Connected components in deterministic (sorted-seed) order."""
    remaining = set(nodes)
    comps = []
    for seed in sorted(nodes):
        if seed not in remaining:
            continue
        comp = [seed]
        remaining.discard(seed)
        qi = 0
        while qi < len(comp):
            u = comp[qi]
            qi += 1
            for v in adj[u]:
                if v in remaining:
                    remaining.discard(v)
                    comp.append(v)
        comps.append(sorted(comp))
    return comps


def _reachable_count(adj, start_set, blocked):
    seen = set(start_set)
    stack = list(start_set)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen and v not in blocked:
                seen.add(v)
                stack.append(v)
    return len(seen - set(start_set))


def _extend_path(adj, path, used, need, budget):
    """Depth-first right-extension; returns a full path once len >= need."""
    if len(path) >= need:
        return list(path)
    if not budget.spend():
        raise _BudgetExceeded
    tail = path[-1]
    # prune: even absorbing every reachable unused node cannot reach `need`
    if len(path) + _reachable_count(adj, (tail,), used - {tail}) < need:
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


class _BudgetExceeded(Exception):
    pass


def _path_through(adj, v, need, budget):
    """Some simple path with >= need nodes passing through v, or None.

    Enumerates left arms rooted at v exhaustively; for each arm, searches
    for a right arm among the remaining nodes.  The found path is returned
    so callers can mark every node on it as kept.
    """
    left = [v]
    used = {v}

    def try_right():
        remaining = need - len(left) + 1  # right arm includes v
        right = _extend_path(adj, [v], set(used), remaining, budget)
        if right:
            return list(reversed(left[1:])) + right
        return None

    def grow_left():
        found = try_right()
        if found:
            return found
        if not budget.spend():
            raise _BudgetExceeded
        head = left[-1]
        for w in adj[head]:
            if w not in used:
                left.append(w)
                used.add(w)
                found = grow_left()
                if found:
                    return found
                used.discard(w)
                left.pop()
        return None

    return grow_left()


def _exact_kept(adj, comp, m, budget):
    """Nodes of `comp` lying on some simple path of >= m nodes (exact)."""
    kept = set()
    for v in comp:
        if v in kept:
            continue
        path = _path_through(adj, v, m, budget)
        if path:
            kept.update(path)
    return kept


def longest_simple_path_at_least(nodes, edges, length: int) -> bool:
    """True iff the connected component has a simple path with >= length nodes.

    Exact for components up to EXACT_COMPONENT_LIMIT nodes; larger
    components use a budgeted search and fall back to the component-size
    criterion when the budget runs out.
    """
    nodes = sorted(nodes)
    if length < 1:
        raise ValueError("length must be >= 1")
    adj = {v: [] for v in nodes}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    # precondition: connected
    if nodes:
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(nodes):
            raise InternalError("component is not connected")
    if len(nodes) < length:
        return False
    if length == 1:
        return True
    budget = _Budget(SEARCH_BUDGET)
    try:
        for v in nodes:
            if _extend_path(adj, [v], {v}, length, budget):
                return True
        return False
    except _BudgetExceeded:
        return len(nodes) >= length


def cpf_filter(wmap: WaferMap, cfg: CpfConfig | None = None) -> FilterResult:
    """CPF labeling: x_i = 1 only for defective chips on long enough paths.

    objective_value carries sum(x) (CPF has no cost model).
    """
    if cfg is None:
        cfg = CpfConfig()
    graph = build_graph(wmap, cfg.nb)
    d = wmap.defect_bits().astype(bool)
    defective = np.flatnonzero(d).tolist()
    adj = {i: [] for i in defective}
    both = d[graph.edges[:, 0]] & d[graph.edges[:, 1]]
    for i, j in graph.edges[both].tolist():
        adj[i].append(j)
        adj[j].append(i)

    m = cfg.m_threshold
    labels = np.zeros(graph.node_count, dtype=np.int8)
    approx = False
    for comp in _components(adj, defective):
        if len(comp) < m:
            continue
        if m == 1:
            kept = comp
        elif len(comp) <= EXACT_COMPONENT_LIMIT:
            try:
                kept = _exact_kept(adj, comp, m, _Budget(SEARCH_BUDGET))
            except _BudgetExceeded:
                kept = comp  # size >= m already checked
                approx = True
        else:
            # component retention: keep everything iff a long path exists
            budget = _Budget(SEARCH_BUDGET)
            try:
                found = any(
                    _extend_path(adj, [v], {v}, m, budget) for v in comp
                )
            except _BudgetExceeded:
                found = True  # size >= m already checked
                approx = True
            kept = comp if found else []
        for v in kept:
            labels[v] = 1

    return FilterResult(
        labels=tuple(int(x) for x in labels),
        objective_value=Fraction(int(labels.sum())),
        kept_count=int(labels.sum()),
        approx=approx,
    )
