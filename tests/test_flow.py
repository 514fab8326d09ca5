import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array

from oracles import brute_force_min_cut, crossing_capacity, network_from_arcs
from waferspr.errors import InternalError
from waferspr.flow import INT32_MAX, FlowNetwork, max_flow_min_cut


def _side(r):
    """The source side of a cut result as a set of node ids."""
    return set(np.flatnonzero(r.source_side).tolist())


def test_single_arc():
    r = max_flow_min_cut(network_from_arcs(2, ((0, 1, 7),), 0, 1))
    assert r.max_flow_value == 7
    assert _side(r) == {0}


def test_chain_bottleneck():
    r = max_flow_min_cut(network_from_arcs(3, ((0, 1, 3), (1, 2, 5)), 0, 2))
    assert r.max_flow_value == 3
    # s->a saturates; a unreachable in the residual
    assert _side(r) == {0}


def test_diamond_cut_behind_sink_arcs():
    net = network_from_arcs(4, ((0, 1, 2), (0, 2, 2), (1, 3, 1), (2, 3, 1), (1, 2, 10)), 0, 3)
    r = max_flow_min_cut(net)
    assert r.max_flow_value == 2
    assert _side(r) == {0, 1, 2}


def test_parallel_arcs_summed():
    r = max_flow_min_cut(network_from_arcs(2, ((0, 1, 3), (0, 1, 4)), 0, 1))
    assert r.max_flow_value == 7


def test_zero_capacity_and_self_loop():
    r = max_flow_min_cut(network_from_arcs(3, ((0, 1, 0), (1, 1, 5), (1, 2, 2)), 0, 2))
    assert r.max_flow_value == 0
    assert _side(r) == {0}


def test_arc_into_source_and_out_of_sink_allowed():
    net = network_from_arcs(4, ((0, 1, 5), (1, 3, 5), (3, 2, 9), (2, 0, 9)), 0, 3)
    r = max_flow_min_cut(net)
    assert r.max_flow_value == 5


def test_validation_errors():
    with pytest.raises(ValueError):
        network_from_arcs(2, ((0, 1, -1),), 0, 1)
    for source, sink in ((0, 0), (0, 5), (-1, 1)):
        with pytest.raises(ValueError):
            FlowNetwork(_csr([1, 0], [1, 0], [0, 1, 2]), source, sink)
    for data, indices, indptr in (([-1, 0], [1, 0], [0, 1, 2]),  # negative capacity
                                  ([1, 0], [1, 1], [0, 2, 2])):  # duplicate entry
        with pytest.raises(ValueError):
            FlowNetwork(_csr(data, indices, indptr), 0, 1)
    for dtype in (np.int64, np.float64):
        with pytest.raises(ValueError):
            FlowNetwork(_csr([1, 0], [1, 0], [0, 1, 2]).astype(dtype), 0, 1)


def _csr(data, indices, indptr):
    n = len(indptr) - 1
    return csr_array((np.array(data, dtype=np.int32), np.array(indices, dtype=np.int32),
                      np.array(indptr, dtype=np.int32)), shape=(n, n))


def test_from_arcs_stores_every_reverse_arc():
    net = network_from_arcs(3, ((0, 1, 3), (0, 1, 4), (1, 2, 5), (2, 2, 9), (2, 0, 0)), 0, 2)
    assert net.capacity.dtype == np.int32 and net.capacity.has_canonical_format
    # parallel arcs summed, the self-loop dropped, a zero arc kept as an explicit zero
    assert net.capacity.toarray().tolist() == [[0, 7, 0], [0, 0, 5], [0, 0, 0]]
    stored = net.capacity.copy()
    stored.data[:] = 1
    assert (stored != stored.T).nnz == 0
    assert net.capacity.nnz == 6  # three stored arcs, three reverses
    assert net.arcs.tolist() == [[0, 1, 7], [1, 2, 5]]


def test_missing_reverse_arc_is_internal_error():
    # 0 -> 1 -> 2 with no stored reverse arcs: the solver adds them, so its
    # flow no longer shares the network's structure.
    net = FlowNetwork(_csr([5, 3], [1, 2], [0, 1, 2, 2]), 0, 2)
    with pytest.raises(InternalError):
        max_flow_min_cut(net)
    fixed = network_from_arcs(3, ((0, 1, 5), (1, 2, 3)), 0, 2)
    assert max_flow_min_cut(fixed).max_flow_value == 3


def _random_network(rng, max_nodes=9, max_arcs=24, max_cap=12):
    n = rng.randint(2, max_nodes)
    m = rng.randint(0, max_arcs)
    arcs = tuple(
        (rng.randrange(n), rng.randrange(n), rng.randint(0, max_cap)) for _ in range(m)
    )
    return network_from_arcs(n, arcs, 0, n - 1)


def test_duality_random_networks():
    rng = random.Random(20240811)
    for _ in range(600):
        net = _random_network(rng)
        r = max_flow_min_cut(net)
        expected = brute_force_min_cut(net.node_count, net.arcs, net.source, net.sink)
        assert r.max_flow_value == expected
        assert crossing_capacity(net.arcs, _side(r)) == r.max_flow_value
        assert net.source in _side(r)
        assert net.sink not in _side(r)


def test_source_set_inclusion_minimal():
    import itertools

    rng = random.Random(7)
    for _ in range(150):
        net = _random_network(rng, max_nodes=7, max_arcs=14, max_cap=6)
        r = max_flow_min_cut(net)
        middles = [v for v in range(net.node_count) if v not in (net.source, net.sink)]
        minimum_cuts = []
        for k in range(len(middles) + 1):
            for sub in itertools.combinations(middles, k):
                side = frozenset(sub) | {net.source}
                if crossing_capacity(net.arcs, side) == r.max_flow_value:
                    minimum_cuts.append(side)
        assert _side(r) in minimum_cuts
        # residual reachability gives the unique minimal source side
        for side in minimum_cuts:
            assert _side(r) <= side


def test_determinism():
    rng = random.Random(5)
    nets = [_random_network(rng) for _ in range(50)]
    first = [max_flow_min_cut(net) for net in nets]
    second = [max_flow_min_cut(net) for net in nets]
    assert [(r.max_flow_value, r.source_side.tolist()) for r in first] == [
        (r.max_flow_value, r.source_side.tolist()) for r in second]


def test_source_side_is_readonly_bool_mask():
    net = network_from_arcs(4, ((0, 1, 2), (0, 2, 2), (1, 3, 1), (2, 3, 1), (1, 2, 10)), 0, 3)
    side = max_flow_min_cut(net).source_side
    assert side.dtype == np.bool_ and side.shape == (4,)
    assert not side.flags.writeable
    assert side.tolist() == [True, True, True, False]


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 8)
            ),
            max_size=12,
        ).map(lambda arcs: (n, arcs))
    )
)
@settings(max_examples=150, deadline=None)
def test_duality_property(case):
    n, arcs = case
    net = network_from_arcs(n, tuple(arcs), 0, n - 1)
    r = max_flow_min_cut(net)
    assert r.max_flow_value == brute_force_min_cut(n, net.arcs, 0, n - 1)


def test_cut_leaves_the_capacity_matrix_as_it_was():
    # 0 -> 1 saturates, and 2 -> 0 leads into the source: the residual
    # search redirects closed arcs and never writes to the network.
    net = network_from_arcs(4, ((0, 1, 2), (1, 3, 5), (1, 2, 1), (2, 0, 4), (2, 3, 1)), 0, 3)
    cap = net.capacity
    before = [a.copy() for a in (cap.data, cap.indices, cap.indptr)]
    r = max_flow_min_cut(net)
    assert r.max_flow_value == 2 and _side(r) == {0}
    for array, copy in zip((cap.data, cap.indices, cap.indptr), before):
        assert np.array_equal(array, copy)
    assert cap.has_canonical_format


def test_arcs_stored_as_readonly_int64_array():
    net = network_from_arcs(3, ((0, 1, 3), (1, 2, 5)), 0, 2)
    assert net.arcs.dtype == np.int64 and net.arcs.shape == (2, 3)
    assert not net.arcs.flags.writeable
    assert network_from_arcs(2, (), 0, 1).arcs.shape == (0, 3)


def test_capacity_range_checked_not_wrapped():
    # SciPy's solver works in int32 and wraps silently past INT32_MAX.
    assert max_flow_min_cut(network_from_arcs(2, ((0, 1, INT32_MAX),), 0, 1)).max_flow_value == INT32_MAX
    with pytest.raises(ValueError):
        max_flow_min_cut(network_from_arcs(2, ((0, 1, 2**31),), 0, 1))
    with pytest.raises(ValueError):
        max_flow_min_cut(network_from_arcs(2, ((0, 1, 2**30), (0, 1, 2**30)), 0, 1))


def test_wrapped_residual_is_internal_error():
    # Each arc fits int32, but the residual of an arc and its reverse
    # reaches 2**31 + 2: the solver wraps it and stops at a flow below the
    # maximum, which leaves the sink reachable in the residual.
    u = 2**30
    net = FlowNetwork(_csr([u + 1, u, u + 1, u, u + 1, u, u, u + 1, u, u, u + 1, 6, u + 1, 6],
                           [1, 3, 0, 2, 4, 1, 3, 5, 0, 2, 1, 5, 2, 4],
                           [0, 2, 5, 8, 10, 12, 14]), 0, 5)
    assert brute_force_min_cut(6, net.arcs, 0, 5) == u + 7
    with pytest.raises(InternalError, match="not maximal"):
        max_flow_min_cut(net)
