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

The solver computes in int32 and wraps silently on overflow.  The
residual capacity of an arc can reach its capacity plus that of its
reverse arc, so a network is solved exactly only when every such pair
sums to at most INT32_MAX; the builder checks that, and capacities are
never rounded.  A flow the solver stops at with the sink still reachable
is not maximal, and raises InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import InternalError

INT32_MAX = 2**31 - 1


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """s-t network held as its (n, n) capacity matrix.

    `capacity` is an int32 CSR matrix in canonical format (sorted indices,
    no duplicates) with nonnegative entries, which stores (j, i) whenever
    it stores (i, j); a reverse arc without capacity is an explicit zero.
    The solver checks that last condition and raises InternalError when
    it does not hold.  The capacities of each arc and its reverse must
    sum to at most INT32_MAX, the solver's limit on a residual capacity.
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
    residual could then not be read entry by entry, and when the sink is
    reachable in the residual, so the flow is not maximal (a residual
    capacity wrapped past INT32_MAX).
    """
    cap = net.capacity
    res = maximum_flow(cap, net.source, net.sink, method="dinic")
    f = res.flow
    if not (np.array_equal(f.indptr, cap.indptr) and np.array_equal(f.indices, cap.indices)):
        raise InternalError("the solver's flow does not share the capacity matrix's structure; "
                            "every arc of a FlowNetwork needs its reverse arc stored")
    # An arc is open when its residual capacity (capacity - flow) is
    # positive.  SciPy's graph search follows every stored entry, explicit
    # zeros too, so in the search graph each closed arc leads back to the
    # source, which the search visits first; the network's own arrays are
    # only read.
    residual = csr_array((np.ones(cap.nnz), np.where(cap.data > f.data, cap.indices, net.source),
                          cap.indptr), shape=cap.shape)
    source_side = np.zeros(net.node_count, dtype=bool)
    source_side[breadth_first_order(residual, net.source, directed=True,
                                    return_predecessors=False)] = True
    if source_side[net.sink]:
        raise InternalError("the solver's flow is not maximal: the sink is reachable in "
                            "its residual, as when a residual capacity wraps past INT32_MAX")
    source_side.flags.writeable = False
    return CutResult(max_flow_value=int(res.flow_value), source_side=source_side)
