"""Exact maximum-flow / minimum-cut on integer-capacity s-t networks.

Parallel arcs are summed into one sparse capacity matrix, which SciPy's
compiled Dinic solver (`scipy.sparse.csgraph.maximum_flow`) brings to a
maximum flow.  The minimum-cut source side is the set of nodes reachable
from the source over positive residual capacity.  That set is the same
for every maximum flow: it is the inclusion-minimal minimum-cut source
set, so the cut does not depend on which maximum flow the solver finds.

The solver computes in int32 and wraps silently on overflow.  So after
parallel arcs are summed, any capacity above INT32_MAX raises ValueError;
capacities are never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

INT32_MAX = 2**31 - 1
_INT64_MAX = np.iinfo(np.int64).max


def _arc_array(arcs) -> np.ndarray:
    """Arcs as a read-only (m, 3) int64 array; rejects floats and values
    that do not fit int64."""
    arr = np.asarray(arcs)
    if arr.size == 0:
        arr = np.empty((0, 3), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"arcs must be (from, to, capacity) triples, got shape {arr.shape}")
    if arr.dtype.kind == "u" and arr.size and arr.max() > _INT64_MAX:
        raise ValueError("arc values must fit in int64")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"arc values must be integers within int64, got {arr.dtype}")
    arr = arr.astype(np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """s-t network. Arcs are (from, to, capacity) with integer capacity >= 0.

    `arcs` may be any sequence of triples; it is stored as a read-only
    (m, 3) int64 array.
    """

    node_count: int
    arcs: np.ndarray
    source: int
    sink: int

    def __post_init__(self):
        if not (0 <= self.source < self.node_count and 0 <= self.sink < self.node_count):
            raise ValueError("source/sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        arcs = _arc_array(self.arcs)
        if arcs.size:
            ends = arcs[:, :2]
            if ends.min() < 0 or ends.max() >= self.node_count:
                bad = ((ends < 0) | (ends >= self.node_count)).any(axis=1)
                u, v = ends[np.argmax(bad)].tolist()
                raise ValueError(f"arc endpoint out of range: ({u}, {v})")
            if arcs[:, 2].min() < 0:
                raise ValueError("capacities must be nonnegative")
        object.__setattr__(self, "arcs", arcs)


@dataclass(frozen=True)
class CutResult:
    """Max-flow value plus the canonical minimum-cut source side."""

    max_flow_value: int
    source_set: frozenset


def _capacities(net: FlowNetwork) -> csr_array:
    """int32 capacity matrix with parallel arcs summed and self-loops dropped."""
    tails, heads, caps = net.arcs.T
    keep = (tails != heads) & (caps > 0)
    tails, heads, caps = tails[keep], heads[keep], caps[keep]
    # Each arc fits int32 before the sum, so the int64 sum cannot wrap.
    if caps.size and caps.max() > INT32_MAX:
        raise ValueError(f"capacity {int(caps.max())} exceeds the solver's limit {INT32_MAX}")
    n = net.node_count
    cap = csr_array((caps, (tails, heads)), shape=(n, n))
    cap.sum_duplicates()
    if cap.data.size and cap.data.max() > INT32_MAX:
        raise ValueError(f"summed parallel capacity {int(cap.data.max())} exceeds "
                         f"the solver's limit {INT32_MAX}")
    return cap.astype(np.int32)


def _maximum_flow(net: FlowNetwork):
    cap = _capacities(net)
    return cap, maximum_flow(cap, net.source, net.sink, method="dinic")


def flow(net: FlowNetwork) -> tuple[int, np.ndarray]:
    """A maximum flow: its value and the (u, v, f) rows, as an int64 array,
    of every node pair with positive net flow f from u to v."""
    _, res = _maximum_flow(net)
    f = res.flow.tocoo()
    pos = f.data > 0
    rows = np.column_stack([f.row[pos], f.col[pos], f.data[pos]]).astype(np.int64)
    return int(res.flow_value), rows


def max_flow_min_cut(net: FlowNetwork) -> CutResult:
    """Exact max flow and the inclusion-minimal min-cut source set."""
    cap, res = _maximum_flow(net)
    residual = csr_array(cap.astype(np.int64) - res.flow.astype(np.int64))
    residual.data = (residual.data > 0).astype(np.int8)
    residual.eliminate_zeros()
    reachable = breadth_first_order(residual, net.source, directed=True,
                                    return_predecessors=False)
    return CutResult(max_flow_value=int(res.flow_value),
                     source_set=frozenset(reachable.tolist()))
