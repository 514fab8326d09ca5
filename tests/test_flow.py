import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_min_cut, crossing_capacity
from waferspr.flow import INT32_MAX, FlowNetwork, flow, max_flow_min_cut


def test_single_arc():
    r = max_flow_min_cut(FlowNetwork(2, ((0, 1, 7),), 0, 1))
    assert r.max_flow_value == 7
    assert r.source_set == frozenset({0})


def test_chain_bottleneck():
    r = max_flow_min_cut(FlowNetwork(3, ((0, 1, 3), (1, 2, 5)), 0, 2))
    assert r.max_flow_value == 3
    # s->a saturates; a unreachable in the residual
    assert r.source_set == frozenset({0})


def test_diamond_cut_behind_sink_arcs():
    net = FlowNetwork(4, ((0, 1, 2), (0, 2, 2), (1, 3, 1), (2, 3, 1), (1, 2, 10)), 0, 3)
    r = max_flow_min_cut(net)
    assert r.max_flow_value == 2
    assert r.source_set == frozenset({0, 1, 2})


def test_parallel_arcs_summed():
    r = max_flow_min_cut(FlowNetwork(2, ((0, 1, 3), (0, 1, 4)), 0, 1))
    assert r.max_flow_value == 7


def test_zero_capacity_and_self_loop():
    r = max_flow_min_cut(FlowNetwork(3, ((0, 1, 0), (1, 1, 5), (1, 2, 2)), 0, 2))
    assert r.max_flow_value == 0
    assert r.source_set == frozenset({0})


def test_arc_into_source_and_out_of_sink_allowed():
    net = FlowNetwork(4, ((0, 1, 5), (1, 3, 5), (3, 2, 9), (2, 0, 9)), 0, 3)
    r = max_flow_min_cut(net)
    assert r.max_flow_value == 5


def test_validation_errors():
    with pytest.raises(ValueError):
        FlowNetwork(2, ((0, 1, -1),), 0, 1)
    with pytest.raises(ValueError):
        FlowNetwork(2, ((0, 1, 1.5),), 0, 1)
    with pytest.raises(ValueError):
        FlowNetwork(2, (), 0, 0)
    with pytest.raises(ValueError):
        FlowNetwork(2, ((0, 5, 1),), 0, 1)


def _random_network(rng, max_nodes=9, max_arcs=24, max_cap=12):
    n = rng.randint(2, max_nodes)
    m = rng.randint(0, max_arcs)
    arcs = tuple(
        (rng.randrange(n), rng.randrange(n), rng.randint(0, max_cap)) for _ in range(m)
    )
    return FlowNetwork(n, arcs, 0, n - 1)


def test_duality_random_networks():
    rng = random.Random(20240811)
    for _ in range(600):
        net = _random_network(rng)
        r = max_flow_min_cut(net)
        expected = brute_force_min_cut(net.node_count, net.arcs, net.source, net.sink)
        assert r.max_flow_value == expected
        assert crossing_capacity(net.arcs, r.source_set) == r.max_flow_value
        assert net.source in r.source_set
        assert net.sink not in r.source_set


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
        assert r.source_set in minimum_cuts
        # residual reachability gives the unique minimal source side
        for side in minimum_cuts:
            assert r.source_set <= side


def test_flow_conservation():
    rng = random.Random(99)
    for _ in range(200):
        net = _random_network(rng)
        value, net_flows = flow(net)
        assert value == max_flow_min_cut(net).max_flow_value
        balance = {}
        for u, v, f in net_flows.tolist():
            assert f > 0
            assert f <= sum(c for a, b, c in net.arcs.tolist() if (a, b) == (u, v))
            balance[u] = balance.get(u, 0) - f
            balance[v] = balance.get(v, 0) + f
        for v in range(net.node_count):
            if v not in (net.source, net.sink):
                assert balance.get(v, 0) == 0
        assert balance.get(net.sink, 0) == value


def test_determinism():
    rng = random.Random(5)
    nets = [_random_network(rng) for _ in range(50)]
    first = [max_flow_min_cut(net) for net in nets]
    second = [max_flow_min_cut(net) for net in nets]
    assert first == second


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
    net = FlowNetwork(n, tuple(arcs), 0, n - 1)
    r = max_flow_min_cut(net)
    assert r.max_flow_value == brute_force_min_cut(n, net.arcs, 0, n - 1)


def test_arcs_stored_as_readonly_int64_array():
    net = FlowNetwork(3, ((0, 1, 3), (1, 2, 5)), 0, 2)
    assert net.arcs.dtype == np.int64 and net.arcs.shape == (2, 3)
    assert not net.arcs.flags.writeable
    assert FlowNetwork(2, (), 0, 1).arcs.shape == (0, 3)


def test_capacity_range_checked_not_wrapped():
    # SciPy's solver works in int32 and wraps silently past INT32_MAX.
    assert max_flow_min_cut(FlowNetwork(2, ((0, 1, INT32_MAX),), 0, 1)).max_flow_value == INT32_MAX
    with pytest.raises(ValueError):
        max_flow_min_cut(FlowNetwork(2, ((0, 1, 2**31),), 0, 1))
    with pytest.raises(ValueError):
        max_flow_min_cut(FlowNetwork(2, ((0, 1, 2**30), (0, 1, 2**30)), 0, 1))
    for too_big in (2**63, 2**64, 2**80):
        with pytest.raises(ValueError):
            FlowNetwork(2, ((0, 1, too_big),), 0, 1)
