import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ari_hubert_arabie,
    nmi_direct,
    pair_counts_naive,
    rand_index_naive,
    set_partitions,
    wilcoxon_enumeration,
    window_count_reconstruction,
)
from waferspr.errors import DimensionError, UndefinedIndex, UndefinedTest
from waferspr.validation import (
    adjusted_rand_index,
    canonical_labels,
    ch_index,
    evaluation_report,
    gdi_index,
    nmi_index,
    pair_counts,
    rand_index,
    reconstruct_ground_truth,
    wilcoxon_signed_rank,
)
from waferspr.wafer import WaferMap, parse_wafer

TWO_CLUSTERS = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
TWO_LABELS = [1, 1, 2, 2]


# -- internal indices --------------------------------------------------

def test_ch_worked_example():
    assert ch_index(TWO_CLUSTERS, TWO_LABELS) == pytest.approx(50.0)


def test_ch_invariances():
    base = ch_index(TWO_CLUSTERS, TWO_LABELS)
    assert ch_index(TWO_CLUSTERS + 13.7, TWO_LABELS) == pytest.approx(base)
    assert ch_index(TWO_CLUSTERS * 3.5, TWO_LABELS) == pytest.approx(base)
    assert ch_index(TWO_CLUSTERS * -2.0, TWO_LABELS) == pytest.approx(base)


def test_ch_degenerate():
    with pytest.raises(UndefinedIndex):
        ch_index(TWO_CLUSTERS, [1, 1, 1, 1])
    with pytest.raises(UndefinedIndex):
        ch_index(np.array([[0.0, 0.0], [1.0, 1.0]]), [1, 2])  # zero within


def test_gdi_worked_example():
    assert gdi_index(TWO_CLUSTERS, TWO_LABELS) == pytest.approx(0.5)


def test_gdi_scale_invariance():
    base = gdi_index(TWO_CLUSTERS, TWO_LABELS)
    assert gdi_index(TWO_CLUSTERS * 3.0, TWO_LABELS) == pytest.approx(base)


def test_gdi_degenerate_singletons():
    pts = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    with pytest.raises(UndefinedIndex):
        gdi_index(pts, [1, 2, 2])  # max diameter zero


# -- external indices --------------------------------------------------

def test_ri_examples():
    assert rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0
    assert rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(1 / 3)
    assert rand_index([1, 2, 3, 4], [1, 1, 1, 1]) == 0.0


def test_ari_examples():
    assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0
    # frozen from the Hubert-Arabie oracle (and sklearn)
    assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)
    a, b = [1, 1, 1, 2], [1, 1, 2, 2]
    assert adjusted_rand_index(a, b) == pytest.approx(ari_hubert_arabie(a, b))


def test_pair_counts_against_naive():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(2, 30)
        a = [rng.randint(1, 4) for _ in range(n)]
        b = [rng.randint(1, 4) for _ in range(n)]
        assert pair_counts(a, b) == pair_counts_naive(a, b)


def test_indices_against_oracles_random():
    rng = random.Random(1)
    for _ in range(400):
        n = rng.randint(2, 50)
        a = [rng.randint(1, 6) for _ in range(n)]
        b = [rng.randint(1, 6) for _ in range(n)]
        assert rand_index(a, b) == pytest.approx(rand_index_naive(a, b), abs=1e-12)
        try:
            ours = adjusted_rand_index(a, b)
            assert ours == pytest.approx(ari_hubert_arabie(a, b), abs=1e-12)
        except UndefinedIndex:
            pass
        for norm in ("paper", "joint", "sqrt"):
            expected = nmi_direct(a, b, norm)
            try:
                got = nmi_index(a, b, norm)
            except UndefinedIndex:
                assert expected is None
                assert canonical_labels(a) != canonical_labels(b)
                continue
            if expected is None:
                # zero normalizer resolved by the identical-partition rule
                assert got == 1.0
                assert canonical_labels(a) == canonical_labels(b)
            else:
                assert got == pytest.approx(expected, abs=1e-12)


def test_label_permutation_invariance():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(3, 25)
        a = [rng.randint(1, 4) for _ in range(n)]
        b = [rng.randint(1, 4) for _ in range(n)]
        perm = {1: 4, 2: 3, 3: 1, 4: 2}
        b2 = [perm[x] for x in b]
        a2 = [perm[x] for x in a]
        assert rand_index(a, b) == rand_index(a2, b2) == rand_index(a, b2)
        try:
            assert adjusted_rand_index(a, b) == pytest.approx(
                adjusted_rand_index(a, b2)
            )
            assert nmi_index(a, b, "sqrt") == pytest.approx(nmi_index(a2, b2, "sqrt"))
        except UndefinedIndex:
            pass


def test_nmi_identical_and_degenerate():
    assert nmi_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0
    assert nmi_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0
    # single-cluster prediction: normalizer H(A|pred) = H(A) > 0 => defined, 0
    assert nmi_index([1, 1, 2, 2], [1, 1, 1, 1], "paper") == pytest.approx(0.0)
    # prediction refining the truth drives the printed normalizer to zero
    with pytest.raises(UndefinedIndex):
        nmi_index([1, 1, 2, 2], [1, 1, 2, 3], "paper")


def test_nmi_one_cluster_side_has_zero_normalizer():
    # the entropy of the one-cluster side sums to -2.2e-16, not 0
    one, four = [1] * 13, [1] * 4 + [2] * 3 + [3] * 3 + [4] * 3
    for a, b in ((one, four), (four, one)):
        with pytest.raises(UndefinedIndex, match="zero normalizer"):
            nmi_index(a, b, "sqrt")
    report = evaluation_report(np.zeros((13, 2)), four, one)
    assert report.nmi_sqrt is None
    assert report.flags["nmi_sqrt"] == "zero normalizer"


def test_nmi_of_independent_partitions_is_exactly_zero():
    # the mutual information sums to -1.6e-16 here, not 0
    one, four = [1] * 13, [1] * 4 + [2] * 3 + [3] * 3 + [4] * 3
    assert nmi_index(one, four, "joint") == 0.0
    assert nmi_index(four, one, "paper") == 0.0


def test_nmi_bounds_standard_variants():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 30)
        a = [rng.randint(1, 5) for _ in range(n)]
        b = [rng.randint(1, 5) for _ in range(n)]
        for norm in ("joint", "sqrt", "max"):
            try:
                v = nmi_index(a, b, norm)
            except UndefinedIndex:
                continue
            assert -1e-12 <= v <= 1 + 1e-12


def test_ri_ari_bounds_and_equality_iff_identical():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(2, 40)
        a = [rng.randint(1, 5) for _ in range(n)]
        b = [rng.randint(1, 5) for _ in range(n)]
        ri = rand_index(a, b)
        assert 0.0 <= ri <= 1.0
        try:
            ari = adjusted_rand_index(a, b)
        except UndefinedIndex:
            continue
        assert ari <= 1.0 + 1e-12
        if canonical_labels(a) == canonical_labels(b):
            assert ari == pytest.approx(1.0)
        else:
            assert ari < 1.0


def test_length_mismatch():
    with pytest.raises(DimensionError):
        rand_index([1, 2], [1, 2, 3])
    with pytest.raises(UndefinedIndex):
        rand_index([1], [1])


# -- ground-truth reconstruction ---------------------------------------

def test_reconstruction_examples():
    all_def = parse_wafer("111\n111\n111\n")
    assert reconstruct_ground_truth(all_def).n_defective == 9
    single = parse_wafer("000\n010\n000\n")
    assert reconstruct_ground_truth(single).n_defective == 0
    block = parse_wafer("00000\n01110\n01110\n01110\n00000\n")
    rec = reconstruct_ground_truth(block)
    # interior keeps 9/9, corners 4/9, edge-centers 6/9; ring outside drops
    assert rec.defective_coords() == block.defective_coords()


def test_reconstruction_matches_window_oracle():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(3, 8), rng.randint(3, 8)
        cells = np.array(
            [rng.choice([0, 1, 1, 2, 2]) for _ in range(rows * cols)], dtype=np.int8
        )
        if (cells != 0).sum() == 0:
            continue
        m = WaferMap(rows, cols, cells)
        rec = reconstruct_ground_truth(m)
        assert np.array_equal(rec.grid(), window_count_reconstruction(m))


def test_reconstruction_preserves_mask():
    m = parse_wafer(".1.\n111\n.1.\n")
    rec = reconstruct_ground_truth(m)
    assert np.array_equal(rec.in_mask(), m.in_mask())


@given(st.integers(3, 5), st.integers(3, 5), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_reconstruction_idempotent_on_blocks(h, w, r0, c0):
    rows, cols = r0 + h + 2, c0 + w + 2
    grid = np.ones((rows, cols), dtype=np.int8)
    grid[r0 : r0 + h, c0 : c0 + w] = 2
    m = WaferMap(rows, cols, grid.ravel())
    once = reconstruct_ground_truth(m)
    twice = reconstruct_ground_truth(once)
    assert np.array_equal(once.cells, twice.cells)


# -- Wilcoxon ----------------------------------------------------------

def test_wilcoxon_all_positive_12():
    res = wilcoxon_signed_rank([0.5] * 12)
    assert res.exact
    assert res.statistic == 78.0
    assert res.p_two_sided == pytest.approx(2 / 2**12)
    # the headline order of magnitude: 5e-4
    assert res.p_two_sided == pytest.approx(5e-4, rel=0.05)


def test_wilcoxon_symmetric_pairs():
    res = wilcoxon_signed_rank([3.0, -3.0, 2.0, -2.0, 1.0, -1.0])
    assert res.statistic == pytest.approx(10.5)
    assert res.p_two_sided == pytest.approx(1.0)


def test_wilcoxon_n5_enumeration():
    res = wilcoxon_signed_rank([1, 2, 3, 4, 5])
    assert res.p_two_sided == pytest.approx(wilcoxon_enumeration([1, 2, 3, 4, 5]))
    assert res.p_two_sided == pytest.approx(2 / 32)


def test_wilcoxon_drops_zeros_and_undefined():
    res = wilcoxon_signed_rank([0.0, 0.0, 1.0])
    assert res.n_nonzero == 1
    with pytest.raises(UndefinedTest):
        wilcoxon_signed_rank([0.0, 0.0])


def test_wilcoxon_matches_enumeration_random():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 10)
        diffs = [rng.choice([-3, -2, -1, 1, 2, 3, 4]) for _ in range(n)]
        ours = wilcoxon_signed_rank(diffs)
        assert ours.exact
        assert ours.p_two_sided == pytest.approx(wilcoxon_enumeration(diffs))


def test_wilcoxon_normal_approximation_reasonable():
    rng = random.Random(7)
    diffs = [rng.gauss(0.5, 1.0) for _ in range(40)]
    res = wilcoxon_signed_rank(diffs)
    assert not res.exact
    assert 0.0 <= res.p_two_sided <= 1.0


# -- report assembly ---------------------------------------------------

def test_evaluation_report_typed_nulls():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    rep = evaluation_report(pts, [1, 1, 1], [1, 1, 2])
    assert rep.ch is None and "ch" in rep.flags
    assert rep.ri is not None
    d = rep.to_dict()
    assert d["ch"] is None
    assert isinstance(d["flags"]["ch"], str)


def test_evaluation_report_full():
    pts = TWO_CLUSTERS
    rep = evaluation_report(pts, TWO_LABELS, TWO_LABELS)
    assert rep.ri == rep.ari == rep.nmi == 1.0
    assert rep.ch == pytest.approx(50.0)
    assert rep.flags == {}


def test_partition_enumeration_oracle_sanity():
    assert len(list(set_partitions(4))) == 15  # Bell(4)
    assert len(list(set_partitions(5))) == 52
