import gc
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cpf_list_search, edges as grid_edges, longest_simple_path_nodes, nodes_on_paths_at_least,
)
from waferspr import cpf, synthgen
from waferspr.acfilter import ac_filter
from waferspr.cpf import CpfConfig, cpf_filter
from waferspr.validation import reconstruct_ground_truth
from waferspr.wafer import (
    CellState, Neighborhood, WaferMap, build_graph, components, parse_wafer, write_wafer,
)

LINE7 = "0000000\n1111111\n0000000\n"
L_SHAPE = "1000\n1000\n1000\n1110\n"  # 4-cell column + 3-cell row sharing the corner
CROSS = "010\n111\n010\n"


def test_m1_is_identity_on_defectives():
    m = parse_wafer("10.\n011\n1.0\n")
    res = cpf_filter(m, CpfConfig(m_threshold=1))
    assert np.array_equal(res.labels, m.defect_bits())
    assert res.objective_value == res.kept_count == m.n_defective


def test_m1_keeps_a_large_component_without_search():
    # a 6x6 block (36 chips, over the exact-search limit), a 3-chip bar
    # and a lone chip: three components, every one kept with no budget spent
    rows = ["0" * 10 for _ in range(8)]
    for r in range(6):
        rows[r] = "111111" + rows[r][6:]
    rows[0] = rows[0][:8] + "11"
    rows[1] = rows[1][:8] + "01"
    rows[7] = "0" * 9 + "1"
    m = parse_wafer("\n".join(rows) + "\n")
    assert components(m.grid() == CellState.DEFECTIVE, Neighborhood.KING).max() == 3
    assert 36 > cpf.EXACT_COMPONENT_LIMIT
    res = cpf_filter(m, CpfConfig(m_threshold=1))
    assert np.array_equal(res.labels, m.defect_bits())
    assert dict(res.counters) == {"components_exact": 3, "components_approx": 0,
                                  "budget_spent": 0}
    assert not res.approx


def test_line_component_kept_iff_long_enough():
    m = parse_wafer(LINE7)
    assert cpf_filter(m, CpfConfig(m_threshold=5)).kept_count == 7
    assert cpf_filter(m, CpfConfig(m_threshold=7)).kept_count == 7
    assert cpf_filter(m, CpfConfig(m_threshold=10)).kept_count == 0


def test_l_shape_corner_path():
    m = parse_wafer(L_SHAPE)
    cfg6 = CpfConfig(m_threshold=6, nb=Neighborhood.ROOK)
    cfg7 = CpfConfig(m_threshold=7, nb=Neighborhood.ROOK)
    assert cpf_filter(m, cfg6).kept_count == 6
    assert cpf_filter(m, cfg7).kept_count == 0


def test_functional_chips_never_kept():
    m = parse_wafer("101\n010\n101\n")
    for thr in (1, 2, 3):
        res = cpf_filter(m, CpfConfig(m_threshold=thr))
        assert all(
            x == 0 for x, d in zip(res.labels, m.defect_bits()) if d == 0
        )


def test_pendant_excluded_in_exact_mode():
    # 7-cell vertical line with a 1-cell stub at its middle: the stub's
    # longest simple path is 5 nodes (stub, junction, one 3-cell arm),
    # so at M = 6 the stub is dropped while the line survives
    grid = np.ones((7, 3), dtype=np.int8)
    grid[:, 1] = 2
    grid[3, 2] = 2
    m = WaferMap(7, 3, grid.ravel())
    res = cpf_filter(m, CpfConfig(m_threshold=6, nb=Neighborhood.ROOK))
    labels = res.labels.reshape(7, 3)
    assert labels[:, 1].sum() == 7
    assert labels[3, 2] == 0
    # and the oracle agrees
    assert cpf_filter(m, CpfConfig(m_threshold=5, nb=Neighborhood.ROOK)).kept_count == 8


def test_config_validation():
    # a bool is an int to Python, but True is no threshold; NaN passes a
    # `< 1` check and would search every component to its budget
    for m in (0, -3, True, False, np.True_, 2.5, float("inf"), float("nan"), "5", None):
        with pytest.raises(ValueError, match="m_threshold"):
            CpfConfig(m_threshold=m)
    for m in (5, 5.0, np.int64(5), np.float64(5.0)):
        cfg = CpfConfig(m_threshold=m)
        assert cfg.m_threshold == 5 and type(cfg.m_threshold) is int


def test_longest_path_examples():
    # a 5-chip line is one path of 5 chips
    line = parse_wafer("11111\n")
    assert cpf_filter(line, CpfConfig(m_threshold=5)).kept_count == 5
    assert cpf_filter(line, CpfConfig(m_threshold=6)).kept_count == 0
    # a rook plus is a star: its longest paths run arm, center, arm
    plus = parse_wafer(CROSS)
    rook = Neighborhood.ROOK
    assert cpf_filter(plus, CpfConfig(m_threshold=3, nb=rook)).kept_count == 5
    assert cpf_filter(plus, CpfConfig(m_threshold=4, nb=rook)).kept_count == 0


def test_longest_path_king_block_hamiltonian():
    m = parse_wafer("111\n111\n111\n")
    res = cpf_filter(m, CpfConfig(m_threshold=9))
    assert res.kept_count == 9
    assert cpf_filter(m, CpfConfig(m_threshold=10)).kept_count == 0


def _random_defect_map(rng, rows, cols, p):
    cells = np.where(
        np.array([rng.random() < p for _ in range(rows * cols)]), 2, 1
    ).astype(np.int8)
    return WaferMap(rows, cols, cells)


def test_exact_mode_matches_oracle():
    rng = random.Random(4)
    for _ in range(30):
        m = _random_defect_map(rng, 4, 4, 0.45)
        thr = rng.randint(2, 6)
        nb = rng.choice([Neighborhood.ROOK, Neighborhood.KING])
        res = cpf_filter(m, CpfConfig(m_threshold=thr, nb=nb))
        # oracle: build the defective subgraph and enumerate paths
        from waferspr.wafer import build_graph

        g = build_graph(m, nb)
        d = m.defect_bits()
        nodes = [i for i in range(g.node_count) if d[i]]
        edges = [(i, j) for i, j in grid_edges(g) if d[i] and d[j]]
        expected = nodes_on_paths_at_least(nodes, edges, thr)
        got = {i for i, x in enumerate(res.labels) if x == 1}
        assert got == expected


@given(st.integers(0, 2**12 - 1), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_monotone_in_m(bits, thr):
    cells = np.array([2 if (bits >> i) & 1 else 1 for i in range(12)], dtype=np.int8)
    m = WaferMap(3, 4, cells)
    kept_m = cpf_filter(m, CpfConfig(m_threshold=thr)).labels
    kept_m1 = cpf_filter(m, CpfConfig(m_threshold=thr + 1)).labels
    for a, b in zip(kept_m1, kept_m):
        assert a <= b  # kept at M+1 implies kept at M


def test_large_component_uses_component_retention():
    # a 30-cell straight line exceeds the exact-search node limit
    m = WaferMap(1, 30, np.full(30, 2, dtype=np.int8))
    assert cpf_filter(m, CpfConfig(m_threshold=30)).kept_count == 30
    assert cpf_filter(m, CpfConfig(m_threshold=31)).kept_count == 0


def test_scratch_like_components_kept_iff_size_at_least_m():
    rng = random.Random(12)
    for _ in range(10):
        length = rng.randint(3, 12)
        row = rng.randint(0, 3)
        grid = np.ones((4, 14), dtype=np.int8)
        start = rng.randint(0, 14 - length)
        grid[row, start : start + length] = 2
        m = WaferMap(4, 14, grid.ravel())
        for thr in (length - 1, length, length + 1):
            res = cpf_filter(m, CpfConfig(m_threshold=max(1, thr)))
            expected = length if length >= thr else 0
            assert res.kept_count == expected


def _dict_adjacency(graph, comp):
    """Reference adjacency: grid edges between chips with comp > 0 appended
    to dict lists in lexicographic edge order."""
    adj = {i: [] for i in np.flatnonzero(comp).tolist()}
    pairs = grid_edges(graph)
    both = (comp[pairs[:, 0]] > 0) & (comp[pairs[:, 1]] > 0)
    for i, j in pairs[both].tolist():
        adj[i].append(j)
        adj[j].append(i)
    return adj


def test_adjacency_matches_dict_build(monkeypatch):
    # A small budget makes some searches run out, so that the counters of
    # approximate components are checked too.
    monkeypatch.setattr(cpf, "SEARCH_BUDGET", 300)
    rng = random.Random(31)
    approx = 0
    for _ in range(12):
        m = _random_defect_map(rng, rng.randint(8, 16), rng.randint(8, 16), rng.uniform(0.3, 0.6))
        for nb in (Neighborhood.ROOK, Neighborhood.KING):
            graph = build_graph(m, nb)
            comp = components(m.grid() == CellState.DEFECTIVE, nb)[m.in_mask()]
            adj = _dict_adjacency(graph, comp)
            # a chip's bit is its place among its component's chips
            bit = np.full(graph.node_count + 1, -1)
            for label in range(1, comp.max() + 1):
                nodes = np.flatnonzero(comp == label)
                bit[nodes] = np.arange(nodes.size)
            sizes = np.bincount(comp)
            small = np.array([v for v in adj if sizes[comp[v]] <= cpf.EXACT_COMPONENT_LIMIT],
                             dtype=np.int64)
            assert cpf._small_masks(graph.neighbours, bit, small) == [
                sum(1 << int(bit[j]) for j in adj[v]) for v in small.tolist()]
            for label in (np.flatnonzero(sizes[1:] > cpf.EXACT_COMPONENT_LIMIT) + 1).tolist():
                nodes = np.flatnonzero(comp == label)
                masks = cpf._LazyMasks(graph.neighbours, bit, nodes)
                assert [masks[k] for k in range(nodes.size)] == [
                    sum(1 << int(bit[j]) for j in adj[v]) for v in nodes.tolist()]
            sizes = sizes[1:]
            for thr in (1, 3, 5, 10):
                res = cpf_filter(m, CpfConfig(m_threshold=thr, nb=nb))
                counters = dict(res.counters)
                assert counters["components_exact"] + counters["components_approx"] == int(
                    (sizes >= thr).sum())
                assert res.approx == (counters["components_approx"] > 0)
                assert 300 * counters["components_approx"] <= counters["budget_spent"]
                assert counters["budget_spent"] <= 300 * int((sizes >= thr).sum())
                approx += counters["components_approx"]
    assert approx > 0


def test_bitmask_search_matches_list_search(monkeypatch):
    """Labels and all three counters equal those of the list-and-set
    search, which visits chips in the same order and spends its budget at
    the same points, on random wafers and budgets small enough that many
    components are kept whole as approximate."""
    rng = random.Random(2029)
    approx = 0
    for _ in range(60):
        m = _random_defect_map(rng, rng.randint(8, 30), rng.randint(8, 30), rng.uniform(0.25, 0.6))
        for nb in (Neighborhood.ROOK, Neighborhood.KING):
            for budget in (1, 7, 40, 300, cpf.SEARCH_BUDGET):
                thr = rng.randint(1, 12)
                with monkeypatch.context() as patched:
                    patched.setattr(cpf, "SEARCH_BUDGET", budget)
                    res = cpf_filter(m, CpfConfig(m_threshold=thr, nb=nb))
                labels, counters = cpf_list_search(m, thr, nb, cpf.EXACT_COMPONENT_LIMIT, budget)
                assert np.array_equal(res.labels, labels)
                assert res.counters == counters
                approx += dict(counters)["components_approx"]
    assert approx > 0


@pytest.mark.parametrize("nb", [Neighborhood.ROOK, Neighborhood.KING])
def test_large_component_reads_few_neighbour_lists(monkeypatch, nb):
    # one 3600-chip component: its retention search stops at the first
    # long path, so only the masks along that path are ever built
    built = []

    class Recording(cpf._LazyMasks):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(cpf, "_LazyMasks", Recording)
    m = WaferMap(60, 60, np.full(3600, 2, dtype=np.int8))
    for thr in (5, 10):
        res = cpf_filter(m, CpfConfig(m_threshold=thr, nb=nb))
        assert res.kept_count == 3600 and not res.approx
        assert 0 < len(built[-1]) < 50


def test_filters_leave_no_cyclic_garbage():
    # Reference cycles outlive the call that made them until a full
    # collection, so a per-wafer cycle holding the wafer's graph piles up
    # the graphs of many wafers.
    wafers = [synthgen.generate(150, 150, synthgen.family_specs(family), 0.15, seed).map
              for seed, family in enumerate(synthgen.FAMILIES)]
    calls = [(f"cpf M={thr} {nb.value}", lambda w, c=CpfConfig(thr, nb): cpf_filter(w, c))
             for thr in (5, 10) for nb in (Neighborhood.ROOK, Neighborhood.KING)]
    calls += [("ac", ac_filter), ("parse", lambda w: parse_wafer(write_wafer(w))),
              ("reconstruct", reconstruct_ground_truth)]
    gc.collect()
    gc.disable()
    try:
        for wmap in wafers:
            for name, call in calls:
                call(wmap)
                assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_counters_when_budget_runs_out(monkeypatch):
    m = parse_wafer("111\n")
    assert dict(cpf_filter(m, CpfConfig(m_threshold=3)).counters)["components_exact"] == 1
    # the second step of the first path search exhausts a one-step budget
    monkeypatch.setattr(cpf, "SEARCH_BUDGET", 1)
    res = cpf_filter(m, CpfConfig(m_threshold=3))
    assert res.approx and res.kept_count == 3
    assert dict(res.counters) == {"components_exact": 0, "components_approx": 1,
                                  "budget_spent": 1}


def test_filter_outputs_pinned_at_150x150():
    """SHA-256 of the labels, objective and counters of AC at its defaults
    and of CPF at M = 5 and 10, rook and king, on a seeded 150x150 wafer of
    every family at noise 0.15.  Labels and counters are exact, so the
    digest does not depend on the machine; it guards the search order that
    CPF's `budget_spent` and its approximate components read."""
    digest = hashlib.sha256()
    for seed, family in enumerate(synthgen.FAMILIES):
        wmap = synthgen.generate(150, 150, synthgen.family_specs(family), 0.15, seed).map
        results = [ac_filter(wmap)] + [cpf_filter(wmap, CpfConfig(thr, nb))
                                       for thr in (5, 10) for nb in Neighborhood]
        for res in results:
            digest.update(np.packbits(res.labels).tobytes())
            digest.update(repr((res.objective_value, res.approx, res.counters)).encode())
    assert digest.hexdigest() == (
        "a7fc5e5355c24136626c5b6546e1d55e7628e028205c90eb3e022bf05ddf8a97")
