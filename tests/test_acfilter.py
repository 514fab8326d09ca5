import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import exhaustive_ac_argmin, exhaustive_ac_minimum
from waferspr.acfilter import AcConfig, ac_filter, ac_objective, as_fraction, filtered_points
from waferspr.errors import ConfigError, DimensionError
from waferspr.wafer import Neighborhood, WaferMap, parse_wafer

HOLE = "111\n101\n111\n"  # all defective except functional center
CENTER5 = "00000\n00000\n00100\n00000\n00000\n"


def test_as_fraction_decimal_floats():
    assert as_fraction(0.4) == Fraction(2, 5)
    assert as_fraction("0.5") == Fraction(1, 2)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert as_fraction(2) == Fraction(2)


def test_config_validation():
    with pytest.raises(ValueError):
        AcConfig(u=-1)
    with pytest.raises(ValueError):
        AcConfig(u=Fraction(1, 2), w_mag=0)


@pytest.mark.parametrize("u", [Fraction(1, 2**31), 0.1 + 0.2, Fraction(1, 2**70)])
def test_capacities_beyond_solver_range_rejected(u):
    # Scaled by the LCM of the denominators, w_mag = 1 becomes 2**31,
    # 2.5e16 and 2**70: beyond int32, and the last beyond int64.
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
    assert res.labels == (1,) * 9
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


def test_filtered_points():
    m = parse_wafer(HOLE)
    res = ac_filter(m, AcConfig(u=Fraction(1, 2)))
    pts = filtered_points(m, res)
    assert len(pts) == 9
    assert pts == sorted(pts)
    res0 = ac_filter(m, AcConfig(u=0))
    assert filtered_points(m, res0) == m.defective_coords()
    empty = ac_filter(parse_wafer(CENTER5), AcConfig(u=Fraction(1, 2)))
    assert filtered_points(parse_wafer(CENTER5), empty) == []


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
        assert ac_objective(m, cfg, np.array(res.labels)) == res.objective_value


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
    assert tuple(res.labels) in [tuple(w) for w in winners]
    assert res.labels == (1, 1, 1, 1)


def test_uniform_tie_breaks_to_all_zero():
    # equal defective/functional counts: at huge u both uniform labelings
    # score 0; residual reachability picks the minimal source set (all 0)
    m = parse_wafer("10\n01\n")
    cfg = AcConfig(u=Fraction(100))
    best, winners = exhaustive_ac_argmin(m, cfg)
    assert best == 0 and len(winners) == 2
    res = ac_filter(m, cfg)
    assert res.labels == (0, 0, 0, 0)
    assert res.objective_value == 0


def test_no_unanimous_singleton_disagreement():
    rng = random.Random(11)
    cfg = AcConfig(u=Fraction(1, 2))
    for _ in range(10):
        m = _random_wafer(rng, 6, 6, 0.4)
        res = ac_filter(m, cfg)
        labels = np.array(res.labels).reshape(6, 6)
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
    assert ac_filter(m, cfg) == ac_filter(m, cfg)
