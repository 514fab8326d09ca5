"""Exact maximum-flow / minimum-cut on integer-capacity s-t networks.

A network is its capacity matrix: an int32 CSR matrix that stores the
reverse (j, i) of every arc (i, j) it stores, as an explicit zero when
that reverse arc has no capacity of its own.  SciPy's compiled Dinic
solver (`scipy.sparse.csgraph.maximum_flow`) adds reverse arcs only where
they are missing, so its flow comes back on exactly this structure, and
the residual capacity of every stored arc is read entry by entry.  The
minimum-cut source side is the set of nodes reachable from the source
over positive residual capacity.  That set is the same for every maximum
flow: it is the inclusion-minimal minimum-cut source set, so the cut does
not depend on which maximum flow the solver finds.

The solver computes in int32 and wraps silently on overflow.  So after
parallel arcs are summed, any capacity above INT32_MAX raises ValueError;
capacities are never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import InternalError

INT32_MAX = 2**31 - 1
_INT64_MAX = np.iinfo(np.int64).max


def _arc_array(arcs) -> np.ndarray:
    """Arcs as an (m, 3) int64 array; rejects floats and values that do
    not fit int64."""
    arr = np.asarray(arcs)
    if arr.size == 0:
        arr = np.empty((0, 3), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"arcs must be (from, to, capacity) triples, got shape {arr.shape}")
    if arr.dtype.kind == "u" and arr.size and arr.max() > _INT64_MAX:
        raise ValueError("arc values must fit in int64")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"arc values must be integers within int64, got {arr.dtype}")
    return arr.astype(np.int64)


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """s-t network held as its (n, n) capacity matrix.

    `capacity` is an int32 CSR matrix in canonical format (sorted indices,
    no duplicates) with nonnegative entries, which stores (j, i) whenever
    it stores (i, j); a reverse arc without capacity is an explicit zero.
    The solver checks that last condition and raises InternalError when
    it does not hold.  `FlowNetwork.from_arcs` builds a network from
    (from, to, capacity) triples.
    """

    capacity: csr_array
    source: int
    sink: int

    def __post_init__(self):
        cap = self.capacity
        if cap.format != "csr" or cap.ndim != 2 or cap.shape[0] != cap.shape[1]:
            raise ValueError(f"capacity must be a square CSR matrix, got {cap.format} {cap.shape}")
        if cap.dtype != np.int32:
            raise ValueError(f"capacities must be int32, got {cap.dtype}")
        n = cap.shape[0]
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise ValueError("source/sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if not cap.has_canonical_format:
            raise ValueError("capacity matrix must have sorted indices and no duplicates")
        if cap.data.size and cap.data.min() < 0:
            raise ValueError("capacities must be nonnegative")

    @classmethod
    def from_arcs(cls, node_count: int, arcs, source: int, sink: int) -> "FlowNetwork":
        """Network from (from, to, capacity) triples with integer
        capacity >= 0: parallel arcs are summed and self-loops dropped.

        Raises ValueError on a malformed triple, an endpoint out of range,
        or a summed capacity beyond the solver's int32 range.
        """
        tails, heads, caps = _arc_array(arcs).T
        if tails.size:
            outside = (np.minimum(tails, heads) < 0) | (np.maximum(tails, heads) >= node_count)
            if outside.any():
                bad = np.argmax(outside)
                raise ValueError(f"arc endpoint out of range: ({tails[bad]}, {heads[bad]})")
            if caps.min() < 0:
                raise ValueError("capacities must be nonnegative")
        loop = tails == heads
        tails, heads, caps = tails[~loop], heads[~loop], caps[~loop]
        # Each arc fits int32 before the sum, so the int64 sum cannot wrap.
        if caps.size and caps.max() > INT32_MAX:
            raise ValueError(f"capacity {int(caps.max())} exceeds the solver's limit {INT32_MAX}")
        # Every arc comes with a zero-capacity reverse arc; the COO -> CSR
        # conversion sums duplicates and keeps the explicit zeros.
        cap = csr_array((np.concatenate([caps, np.zeros_like(caps)]),
                         (np.concatenate([tails, heads]), np.concatenate([heads, tails]))),
                        shape=(node_count, node_count))
        cap.sum_duplicates()
        if cap.data.size and cap.data.max() > INT32_MAX:
            raise ValueError(f"summed parallel capacity {int(cap.data.max())} exceeds "
                             f"the solver's limit {INT32_MAX}")
        return cls(cap.astype(np.int32), source, sink)

    @property
    def node_count(self) -> int:
        return self.capacity.shape[0]

    @property
    def arcs(self) -> np.ndarray:
        """The positive-capacity arcs as a read-only (m, 3) int64 array of
        (from, to, capacity) rows in row-major order.  Computed on each
        access."""
        cap = self.capacity
        pos = cap.data > 0
        arcs = np.empty((int(np.count_nonzero(pos)), 3), dtype=np.int64)
        arcs[:, 0] = np.repeat(np.arange(self.node_count), np.diff(cap.indptr))[pos]
        arcs[:, 1] = cap.indices[pos]
        arcs[:, 2] = cap.data[pos]
        arcs.flags.writeable = False
        return arcs


@dataclass(frozen=True, eq=False)
class CutResult:
    """Max-flow value plus the canonical minimum-cut source side, a
    read-only bool mask over the network's nodes."""

    max_flow_value: int
    source_side: np.ndarray


def max_flow_min_cut(net: FlowNetwork) -> CutResult:
    """Exact max flow and the inclusion-minimal min-cut source side.

    Raises InternalError when the solver's flow does not share the
    capacity matrix's structure (a reverse arc was missing), since the
    residual could then not be read entry by entry.
    """
    cap = net.capacity
    res = maximum_flow(cap, net.source, net.sink, method="dinic")
    f = res.flow
    if not (np.array_equal(f.indptr, cap.indptr) and np.array_equal(f.indices, cap.indices)):
        raise InternalError("the solver's flow does not share the capacity matrix's structure; "
                            "every arc of a FlowNetwork needs its reverse arc stored")
    # An arc is open when its residual capacity (capacity - flow) is
    # positive.  Closed arcs are removed from the search graph, because
    # SciPy's graph search follows explicit zeros too; the copy keeps that
    # in-place removal off the network's own index arrays.
    residual = csr_array(((cap.data > f.data).astype(np.float64), cap.indices, cap.indptr),
                         shape=cap.shape, copy=True)
    residual.eliminate_zeros()
    source_side = np.zeros(net.node_count, dtype=bool)
    source_side[breadth_first_order(residual, net.source, directed=True,
                                    return_predecessors=False)] = True
    source_side.flags.writeable = False
    return CutResult(max_flow_value=int(res.flow_value), source_side=source_side)
