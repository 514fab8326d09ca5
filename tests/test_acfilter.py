import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import edges as grid_edges
from oracles import exhaustive_ac_argmin, exhaustive_ac_minimum, network_from_arcs
from waferspr import acfilter
from waferspr.acfilter import AcConfig, ac_filter, ac_objective, as_fraction
from waferspr.cpf import CpfConfig, cpf_filter
from waferspr.errors import ConfigError, DimensionError, InternalError
from waferspr.flow import max_flow_min_cut
from waferspr.synthgen import FAMILIES, family_specs, generate, wafer_mask
from waferspr.wafer import Neighborhood, WaferMap, build_graph, parse_wafer

HOLE = "111\n101\n111\n"  # all defective except functional center
CENTER5 = "00000\n00000\n00100\n00000\n00000\n"


def test_as_fraction_decimal_floats():
    assert as_fraction(0.4) == Fraction(2, 5)
    assert as_fraction("0.5") == Fraction(1, 2)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert as_fraction(2) == Fraction(2)


@pytest.mark.parametrize("value", ["1/0", "0/0", "-3/0"])
def test_as_fraction_zero_denominator_is_value_error(value):
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction(value)
    with pytest.raises(ValueError):
        AcConfig(u=value)
    with pytest.raises(ValueError):
        AcConfig(w_mag=value)


def test_labels_are_readonly_bool_masks():
    m = parse_wafer("1111100\n0100011\n0111000\n")
    for res in (ac_filter(m), cpf_filter(m, CpfConfig(m_threshold=3))):
        assert res.labels.dtype == np.bool_ and res.labels.shape == (m.n_in_mask,)
        assert not res.labels.flags.writeable
        with pytest.raises(ValueError):
            res.labels[0] = True
        assert res.kept_count == int(np.count_nonzero(res.labels)) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        AcConfig(u=-1)
    with pytest.raises(ValueError):
        AcConfig(u=Fraction(1, 2), w_mag=0)


@pytest.mark.parametrize("u", [Fraction(1, 2**31), 0.1 + 0.2, Fraction(1, 2**70), 2**30])
def test_capacities_beyond_solver_range_rejected(u):
    # Scaled by the LCM of the denominators, w_mag = 1 becomes 2**31,
    # 2.5e16 and 2**70: beyond int32, and the last beyond int64.  u = 2**30
    # fits int32, but the residual of a grid arc reaches 2u = 2**31.
    with pytest.raises(ConfigError, match="u=.*w_mag="):
        ac_filter(parse_wafer(HOLE), AcConfig(u=u))


def test_u_zero_is_identity():
    m = parse_wafer(HOLE)
    res = ac_filter(m, AcConfig(u=0))
    assert np.array_equal(res.labels, m.defect_bits())
    assert res.objective_value == -Fraction(m.n_defective)


def test_hole_filled():
    m = parse_wafer(HOLE)
    res = ac_filter(m, AcConfig(u=Fraction(1, 2)))
    assert res.labels.tolist() == [True] * 9
    assert res.objective_value == Fraction(-7)
    assert res.kept_count == 9


def test_isolated_center_removed():
    m = parse_wafer(CENTER5)
    res = ac_filter(m, AcConfig(u=Fraction(1, 2)))
    assert res.kept_count == 0
    assert res.objective_value == 0


def test_objective_examples():
    m = parse_wafer(HOLE)
    cfg = AcConfig(u=Fraction(1, 2))
    assert ac_objective(m, cfg, np.zeros(9, dtype=int)) == 0
    # observed labels: -8 deviation + 8 cross King edges at the center
    assert ac_objective(m, cfg, m.defect_bits()) == Fraction(-4)
    assert ac_objective(m, cfg, np.ones(9, dtype=int)) == Fraction(-7)


def test_objective_length_mismatch():
    m = parse_wafer(HOLE)
    with pytest.raises(DimensionError):
        ac_objective(m, AcConfig(u=1), [1, 0])


def _random_wafer(rng, rows, cols, p_defect, p_mask=0.0):
    while True:
        cells = []
        for _ in range(rows * cols):
            if rng.random() < p_mask:
                cells.append(0)
            elif rng.random() < p_defect:
                cells.append(2)
            else:
                cells.append(1)
        if any(c != 0 for c in cells):
            return WaferMap(rows, cols, np.array(cells, dtype=np.int8))


@pytest.mark.parametrize("u", [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)])
def test_optimality_exhaustive_3x3(u):
    rng = random.Random(int(u * 8))
    for _ in range(25):
        m = _random_wafer(rng, 3, 3, rng.choice([0.2, 0.5, 0.8]))
        cfg = AcConfig(u=u)
        res = ac_filter(m, cfg)
        assert res.objective_value == exhaustive_ac_minimum(m, cfg)
        # recomputation check
        assert ac_objective(m, cfg, res.labels) == res.objective_value


def test_optimality_with_masks_and_rook():
    rng = random.Random(3)
    for _ in range(20):
        m = _random_wafer(rng, 4, 3, 0.5, p_mask=0.2)
        for nb in (Neighborhood.ROOK, Neighborhood.KING):
            cfg = AcConfig(u=Fraction(2, 5), nb=nb)
            res = ac_filter(m, cfg)
            assert res.objective_value == exhaustive_ac_minimum(m, cfg)


def test_all_defective_stays_kept_at_large_u():
    m = parse_wafer("11\n11\n")
    cfg = AcConfig(u=Fraction(10))
    res = ac_filter(m, cfg)
    best, winners = exhaustive_ac_argmin(m, cfg)
    assert res.objective_value == best
    assert tuple(res.labels.tolist()) in [tuple(map(bool, w)) for w in winners]
    assert res.labels.tolist() == [True] * 4


def test_uniform_tie_breaks_to_all_zero():
    # equal defective/functional counts: at huge u both uniform labelings
    # score 0; residual reachability picks the minimal source set (all 0)
    m = parse_wafer("10\n01\n")
    cfg = AcConfig(u=Fraction(100))
    best, winners = exhaustive_ac_argmin(m, cfg)
    assert best == 0 and len(winners) == 2
    res = ac_filter(m, cfg)
    assert res.labels.tolist() == [False] * 4
    assert res.objective_value == 0


def test_no_unanimous_singleton_disagreement():
    rng = random.Random(11)
    cfg = AcConfig(u=Fraction(1, 2))
    for _ in range(10):
        m = _random_wafer(rng, 6, 6, 0.4)
        res = ac_filter(m, cfg)
        labels = res.labels.reshape(6, 6).astype(int)
        for r in range(1, 5):
            for c in range(1, 5):
                window = labels[r - 1 : r + 2, c - 1 : c + 2]
                neighbors_sum = int(window.sum()) - int(labels[r, c])
                if labels[r, c] == 1:
                    assert neighbors_sum > 0, "kept node with all 8 neighbors dropped"
                else:
                    assert neighbors_sum < 8, "dropped node with all 8 neighbors kept"


@given(st.integers(0, 2**9 - 1), st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
@settings(max_examples=60, deadline=None)
def test_optimality_property(bits, u):
    cells = [2 if (bits >> i) & 1 else 1 for i in range(9)]
    m = WaferMap(3, 3, np.array(cells, dtype=np.int8))
    cfg = AcConfig(u=u)
    res = ac_filter(m, cfg)
    assert res.objective_value == exhaustive_ac_minimum(m, cfg)


def test_determinism():
    m = parse_wafer("1010\n0110\n1001\n")
    cfg = AcConfig(u=Fraction(1, 2))
    first, second = ac_filter(m, cfg), ac_filter(m, cfg)
    assert np.array_equal(first.labels, second.labels)
    assert (first.objective_value, first.counters) == (second.objective_value, second.counters)


def _ac_through_triples(m, cfg):
    """AC solved through the oracles' (from, to, capacity) builder: labels
    of the inclusion-minimal source set, objective, crossing edges and
    max-flow value."""
    edges = grid_edges(build_graph(m, cfg.nb)).tolist()
    d = m.defect_bits().tolist()
    n = len(d)
    scale = lcm(cfg.u.denominator, cfg.w_mag.denominator)
    u_int, w_int = int(cfg.u * scale), int(cfg.w_mag * scale)
    arcs = [(i, j, u_int) for i, j in edges] + [(j, i, u_int) for i, j in edges]
    arcs += [(n, i, w_int) if d[i] else (i, n + 1, w_int) for i in range(n)]
    cut = max_flow_min_cut(network_from_arcs(n + 2, arcs, n, n + 1))
    labels = tuple(cut.source_side[:n].tolist())
    deviation = sum(1 if d[i] == 0 else -1 for i in range(n) if labels[i])
    cross = sum(labels[i] != labels[j] for i, j in edges)
    return labels, cfg.w_mag * deviation + cfg.u * cross, cross, cut.max_flow_value


def test_grid_network_matches_generic_builder():
    rng = np.random.default_rng(2024)
    for nb in (Neighborhood.ROOK, Neighborhood.KING):
        for u in (Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(1)):
            for w_mag in (1, 2):
                for _ in range(2):
                    rows, cols = (int(x) for x in rng.integers(20, 41, size=2))
                    inside = wafer_mask(rows, cols) & (rng.random((rows, cols)) > 0.1)
                    defect = rng.random((rows, cols)) < rng.uniform(0.1, 0.5)
                    m = WaferMap(rows, cols, np.where(inside, np.where(defect, 2, 1), 0).ravel())
                    cfg = AcConfig(u=u, w_mag=w_mag, nb=nb)
                    res = ac_filter(m, cfg)
                    labels, objective, cross, flow_value = _ac_through_triples(m, cfg)
                    assert tuple(res.labels.tolist()) == labels
                    assert res.objective_value == objective
                    kept = np.array(labels)
                    d = m.defect_bits() == 1
                    assert dict(res.counters) == {
                        "max_flow_value": flow_value,
                        "cut_edges": cross,
                        "kept_functional": int((kept & ~d).sum()),
                        "dropped_defective": int((~kept & d).sum()),
                    }
                    # the minimum cut is the objective shifted by w_mag per defective chip
                    scale = lcm(u.denominator, cfg.w_mag.denominator)
                    assert flow_value == scale * (objective + cfg.w_mag * m.n_defective)


@pytest.mark.parametrize("nb", list(Neighborhood))
@pytest.mark.parametrize("w_mag", [1, 2])
def test_flow_certifies_the_cut_on_wafers_that_share_a_mask(nb, w_mag):
    """Wafers of one mask, back to back and alternating u = 0 and u > 0,
    share the mask's graph and chip rows.  Each flow value must equal the
    scaled capacity of its cut (min-cut duality) and each labeling the
    one a network built afresh from triples gives."""
    rng = np.random.default_rng(21)
    rows, cols = 24, 30
    inside = wafer_mask(rows, cols) & (rng.random((rows, cols)) > 0.05)
    graph = build_graph(WaferMap(rows, cols, inside.ravel()), nb)
    for u in (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(0), Fraction(1)):
        defect = rng.random((rows, cols)) < rng.uniform(0.1, 0.5)
        m = WaferMap(rows, cols, np.where(inside, np.where(defect, 2, 1), 0).ravel())
        assert build_graph(m, nb) is graph
        cfg = AcConfig(u=u, w_mag=w_mag, nb=nb)
        res = ac_filter(m, cfg)
        counts = dict(res.counters)
        scale = lcm(u.denominator, cfg.w_mag.denominator)
        cut = (cfg.w_mag * (counts["kept_functional"] + counts["dropped_defective"])
               + u * counts["cut_edges"])
        assert counts["max_flow_value"] == scale * cut
        labels, objective, cross, flow_value = _ac_through_triples(m, cfg)
        assert tuple(res.labels.tolist()) == labels
        assert (res.objective_value, counts["cut_edges"], counts["max_flow_value"]) == (
            objective, cross, flow_value)


def test_a_network_that_is_not_the_objective_fails_the_certificate(monkeypatch):
    """ac_filter checks strong duality against its own costs: a network
    whose source arcs carry w_mag + 1 (scaled) gives a flow value that no
    cut of the AC objective's network has, and raises InternalError."""
    m = generate(38, 38, family_specs(FAMILIES[0]), 0.1, seed=3).map
    ac_filter(m)
    real = acfilter.csr_array

    def perturbed(arg, shape):
        data, indices, indptr = arg
        data = data.copy()
        data[indptr[0]:indptr[1]] += 1  # the source row
        return real((data, indices, indptr), shape=shape)

    monkeypatch.setattr(acfilter, "csr_array", perturbed)
    with pytest.raises(InternalError, match="max-flow value"):
        ac_filter(m)
