import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import generate_loops, rasterize_loops

from waferspr.errors import GenerationError
from waferspr.synthgen import (
    FAMILIES,
    PatternKind,
    PatternSpec,
    family_specs,
    generate,
    rasterize,
    twelve_wafer_corpus,
    wafer_mask,
)
from waferspr.validation import reconstruct_ground_truth
from waferspr.wafer import CellState, write_wafer


def test_mask_is_circular_and_inscribed():
    mask = wafer_mask(20, 20)
    assert mask[10, 10]
    assert not mask[0, 0]
    assert not mask[0, 19]
    # mask is left-right and top-bottom symmetric for even grids
    assert np.array_equal(mask, mask[::-1, :])
    assert np.array_equal(mask, mask[:, ::-1])


def test_spec_validation():
    with pytest.raises(ValueError):
        PatternSpec(PatternKind.DONUT, inner_frac=0.5, outer_frac=0.4)
    with pytest.raises(ValueError):
        PatternSpec(PatternKind.CENTER_DISK, outer_frac=1.5)
    with pytest.raises(ValueError):
        PatternSpec(PatternKind.SCRATCH, length_cells=0)
    with pytest.raises(ValueError):
        PatternSpec(PatternKind.CENTER_DISK, fill_rate=0.0)
    # A NaN arc extent would rasterize the full annulus, an infinite width
    # every in-mask cell, an infinite length a scratch to the wafer's edge,
    # and a NaN angle nothing.
    for name in ("offset_angle_deg", "arc_start_deg", "arc_extent_deg", "length_cells",
                 "width_cells", "angle_deg"):
        for value in (math.nan, math.inf, -math.inf):
            for kind in (PatternKind.PARTIAL_RING, PatternKind.SCRATCH):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    PatternSpec(kind, **{"inner_frac": 0.7, "outer_frac": 0.9,
                                         "length_cells": 5, name: value})
    # length_cells is a count: 2.5 rasterized a 6-cell scratch and True a
    # 2-cell one
    for value in (2.5, 14.000001, True, np.True_):
        with pytest.raises(ValueError, match="^length_cells must be a whole number"):
            PatternSpec(PatternKind.SCRATCH, length_cells=value)
    for value in (14, 14.0, np.int64(14)):
        assert type(PatternSpec(PatternKind.SCRATCH, length_cells=value).length_cells) is int
    # The other fields are reals: offset_frac="0.5" ended in a TypeError and
    # fill_rate=True was stored as a bool.
    for name in ("offset_frac", "offset_angle_deg", "inner_frac", "outer_frac", "arc_start_deg",
                 "arc_extent_deg", "width_cells", "angle_deg", "fill_rate"):
        for value in ("0.5", None, True, np.True_):
            with pytest.raises(ValueError, match=f"^{name} must be finite and real"):
                PatternSpec(PatternKind.PARTIAL_RING, **{"inner_frac": 0.1, name: value})
    spec = PatternSpec(PatternKind.DONUT, inner_frac=0, outer_frac=np.float32(0.5), fill_rate=1)
    assert spec == PatternSpec(PatternKind.DONUT, inner_frac=0.0, outer_frac=0.5, fill_rate=1.0)
    assert type(spec.inner_frac) is type(spec.outer_frac) is type(spec.fill_rate) is float


def test_generate_validation():
    with pytest.raises(ValueError):
        generate(4, 20, [], 0.1, 0)
    with pytest.raises(ValueError):
        generate(20, 20, [], 0.5, 0)
    # rows and cols are counts: 10.0 ended in a TypeError from np.zeros
    for name, rows, cols in (("rows", 20.5, 20), ("cols", 20, True), ("rows", math.nan, 20),
                             ("cols", 20, "20"), ("rows", np.True_, 20)):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            generate(rows, cols, [], 0.1, 0)
    specs = family_specs("two_zone")
    sw = generate(20.0, np.int64(20), specs, 0.1, 0)
    assert (type(sw.map.rows), type(sw.map.cols)) == (int, int)
    assert np.array_equal(sw.map.grid(), generate(20, 20, specs, 0.1, 0).map.grid())
    # noise_rate is a real: None and "0.1" ended in a TypeError.
    for noise_rate in (None, "0.1", True, math.nan):
        with pytest.raises(ValueError, match="^noise_rate must be finite and real"):
            generate(20, 20, specs, noise_rate, 0)
    assert type(generate(20, 20, specs, 0, 0).noise_rate) is float
    # The seed is a whole number: None drew from OS entropy, True ran
    # seed 1 and 1.5 ended in a TypeError.
    for seed in (None, True, np.True_, 1.5, "1"):
        with pytest.raises(ValueError, match="^seed must be a whole number"):
            generate(20, 20, specs, 0.1, seed)
    assert np.array_equal(generate(20, 20, specs, 0.1, np.int64(3)).map.grid(),
                          generate(20, 20, specs, 0.1, 3).map.grid())


def _raster_cells(spec, rows, cols, mask=None):
    rr, cc = rasterize(spec, rows, cols, mask)
    return set(zip(rr.tolist(), cc.tolist()))


def test_full_fill_disk_exactly_raster():
    spec = PatternSpec(PatternKind.CENTER_DISK, outer_frac=0.4, fill_rate=1.0)
    sw = generate(20, 20, [spec], 0.0, 7)
    raster = _raster_cells(spec, 20, 20)
    assert set(sw.map.defective_coords()) == raster
    truth = sw.truth_labels.reshape(20, 20)
    assert all(truth[r, c] == 1 for r, c in raster)


def test_no_specs_no_noise_is_clean():
    sw = generate(16, 16, [], 0.0, 3)
    assert sw.map.n_defective == 0
    assert sw.truth_labels.max() == 0


def test_determinism_per_seed():
    specs = family_specs("donut_partial_ring")
    a = generate(24, 24, specs, 0.08, 5)
    b = generate(24, 24, specs, 0.08, 5)
    c = generate(24, 24, specs, 0.08, 6)
    assert np.array_equal(a.map.cells, b.map.cells)
    assert np.array_equal(a.truth_labels, b.truth_labels)
    assert not np.array_equal(a.map.cells, c.map.cells)


def test_truth_label_range_and_invariant():
    specs = family_specs("center_zone")
    sw = generate(30, 30, specs, 0.05, 11)
    assert set(np.unique(sw.truth_labels)) <= set(range(len(specs) + 1))
    grid = sw.map.cells
    assert (sw.truth_labels[grid != CellState.DEFECTIVE] == 0).all()


def test_empty_raster_rejected():
    # zero-extent arc covers no cells
    spec = PatternSpec(
        PatternKind.PARTIAL_RING, inner_frac=0.8, outer_frac=0.81,
        arc_start_deg=0.0, arc_extent_deg=0.0,
    )
    with pytest.raises(GenerationError):
        generate(10, 10, [spec], 0.0, 0)


def test_overlap_later_pattern_wins():
    inner = PatternSpec(PatternKind.CENTER_DISK, outer_frac=0.3, fill_rate=1.0)
    outer = PatternSpec(PatternKind.CENTER_DISK, outer_frac=0.2, fill_rate=1.0)
    sw = generate(20, 20, [inner, outer], 0.0, 0)
    region = sw.region_labels.reshape(20, 20)
    assert region[10, 10] == 2
    truth = sw.truth_labels.reshape(20, 20)
    assert truth[10, 10] == 2


def test_expected_defect_count_within_3_sigma():
    specs = [
        PatternSpec(PatternKind.DONUT, inner_frac=0.25, outer_frac=0.45),
        PatternSpec(PatternKind.PARTIAL_RING, inner_frac=0.8, outer_frac=0.95,
                    arc_start_deg=0.0, arc_extent_deg=200.0),
    ]
    rows = cols = 38
    noise = 0.05
    mask = wafer_mask(rows, cols)
    rasters = [_raster_cells(s, rows, cols, mask) for s in specs]
    covered = rasters[0] | rasters[1]
    # expectation: each raster cell keeps with its own fill rate (overlap
    # cells can be set by either draw); noise on uncovered in-mask cells
    p_keep = {}
    for s, r in zip(specs, rasters):
        for cell in r:
            p_keep[cell] = 1 - (1 - p_keep.get(cell, 0.0)) * (1 - s.fill_rate)
    n_uncovered = int(mask.sum()) - len(covered)
    mean = sum(p_keep.values()) + n_uncovered * noise
    var = sum(p * (1 - p) for p in p_keep.values()) + n_uncovered * noise * (1 - noise)
    sw = generate(rows, cols, specs, noise, seed=7)
    count = sw.map.n_defective
    assert abs(count - mean) <= 3.0 * math.sqrt(var)


def test_reconstruction_recovers_full_fill_patterns():
    specs = [
        PatternSpec(PatternKind.DONUT, inner_frac=0.25, outer_frac=0.5, fill_rate=1.0),
    ]
    sw = generate(38, 38, specs, 0.0, 1)
    rec = reconstruct_ground_truth(sw.map)
    pattern = {rc for rc in sw.map.defective_coords()}
    recovered = set(rec.defective_coords())
    agreement = len(pattern & recovered) / len(pattern)
    assert agreement >= 0.95


def test_families_all_generate():
    for family in FAMILIES:
        sw = generate(38, 38, family_specs(family), 0.05, 42)
        assert sw.map.n_defective > 20


def test_family_specs_unknown():
    with pytest.raises(ValueError):
        family_specs("bullseye")


def test_twelve_wafer_corpus_shape():
    corpus = twelve_wafer_corpus(rows=20, cols=20, noise_rate=0.0, base_seed=5)
    assert len(corpus) == 12
    families = [f for f, _ in corpus]
    assert families.count("center_partial_ring") == 4
    assert families.count("two_zone") == 3
    assert families.count("center_zone") == 2
    assert families.count("donut_partial_ring") == 2
    assert families.count("scratch_pair") == 1


# -- the array generator against the per-cell oracle ----------------------

_ANGLES = st.one_of(
    st.sampled_from([0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0]),
    st.floats(-360.0, 720.0),
)


@st.composite
def pattern_specs(draw):
    outer = draw(st.floats(0.01, 1.0))
    return PatternSpec(
        draw(st.sampled_from(list(PatternKind))),
        offset_frac=draw(st.floats(0.0, 1.0)),
        offset_angle_deg=draw(_ANGLES),
        inner_frac=draw(st.floats(0.0, outer, exclude_max=True)),
        outer_frac=outer,
        arc_start_deg=draw(st.one_of(st.integers(-8, 15).map(lambda k: 45.0 * k),
                                     st.floats(-400.0, 400.0))),
        arc_extent_deg=draw(st.one_of(st.sampled_from([360.0, 45.0, 90.0, 180.0]),
                                      st.floats(0.0, 400.0))),
        length_cells=draw(st.integers(1, 60)),
        width_cells=draw(st.floats(0.1, 8.0)),
        angle_deg=draw(_ANGLES),
        fill_rate=draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))),
    )


# Cells on a pattern's boundary that numpy's hypot (the disk) or arctan2
# (the donuts) would move, on machines where they differ from libm.
_DISK = PatternSpec(PatternKind.CENTER_DISK, outer_frac=0.9668518868814434)
_DONUT_A = PatternSpec(PatternKind.DONUT, offset_frac=0.37, offset_angle_deg=45.0,
                       inner_frac=0.2, outer_frac=0.9, arc_start_deg=90.0,
                       arc_extent_deg=135.0)
_DONUT_B = PatternSpec(PatternKind.DONUT, offset_frac=0.5, offset_angle_deg=315.0,
                       inner_frac=0.25, outer_frac=0.9, arc_start_deg=135.0,
                       arc_extent_deg=90.0)


# Cells exactly on a boundary, where the libm window decides: the mask
# circle's cells at d == radius (35 x 35, radius 17 = |(8, 15)| = |(0, 17)|),
# cells on the start ray of arcs starting on a grid axis through an odd
# grid's center cell, and an arc whose end, 270 + 180, passes 360 onto the
# 90-degree axis.
_RIM = PatternSpec(PatternKind.EDGE_ZONE, inner_frac=0.6, outer_frac=1.0)
_AXIS_STARTS = [PatternSpec(PatternKind.PARTIAL_RING, inner_frac=0.2, outer_frac=0.9,
                            arc_start_deg=start, arc_extent_deg=90.0)
                for start in (0.0, 90.0, 180.0)]
_PAST_360 = PatternSpec(PatternKind.PARTIAL_RING, inner_frac=0.3, outer_frac=1.0,
                        arc_start_deg=270.0, arc_extent_deg=180.0)


@given(
    rows=st.integers(8, 90),
    cols=st.integers(8, 90),
    specs=st.lists(pattern_specs(), min_size=1, max_size=3),
    noise=st.one_of(st.sampled_from([0.0, 0.05, 0.15]), st.floats(0.0, 0.49)),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=34, cols=34, specs=[_DISK], noise=0.05, seed=0)
@example(rows=90, cols=24, specs=[_DONUT_A], noise=0.05, seed=0)
@example(rows=84, cols=82, specs=[_DONUT_B], noise=0.05, seed=0)
@example(rows=35, cols=35, specs=[_RIM], noise=0.0, seed=0)
@example(rows=35, cols=35, specs=_AXIS_STARTS, noise=0.05, seed=0)
@example(rows=35, cols=35, specs=[_PAST_360], noise=0.05, seed=0)
@settings(max_examples=150, deadline=None)
def test_generator_matches_per_cell_oracle(rows, cols, specs, noise, seed):
    mask = wafer_mask(rows, cols)
    for spec in specs:
        try:
            want = rasterize_loops(spec, rows, cols, mask)
        except GenerationError:
            with pytest.raises(GenerationError):
                rasterize(spec, rows, cols, mask)
            continue
        rr, cc = rasterize(spec, rows, cols, mask)
        assert list(zip(rr.tolist(), cc.tolist())) == want
    try:
        want = generate_loops(rows, cols, specs, noise, seed)
    except GenerationError:
        with pytest.raises(GenerationError):
            generate(rows, cols, specs, noise, seed)
        return
    got = generate(rows, cols, specs, noise, seed)
    assert np.array_equal(got.map.cells, want.map.cells)
    assert np.array_equal(got.truth_labels, want.truth_labels)
    assert np.array_equal(got.region_labels, want.region_labels)


def _wafers_sha256(wafers):
    h = hashlib.sha256()
    for sw in wafers:
        h.update(write_wafer(sw.map))
        h.update(sw.truth_labels.astype("<i8").tobytes())
        h.update(sw.region_labels.astype("<i8").tobytes())
    return h.hexdigest()


def test_generator_output_pinned():
    # Every test, the comparison corpus and the benchmark pools are built by
    # the generator; a change that moves a single cell fails here first.
    corpus = (sw for _, sw in twelve_wafer_corpus())
    assert _wafers_sha256(corpus) == (
        "a5b05de18c0702b5504e3386b29d526dd02f0fa47d22ad52127ca48c5f7c2105"
    )
    large = (generate(150, 150, family_specs(f), 0.15, seed) for seed, f in enumerate(FAMILIES))
    assert _wafers_sha256(large) == (
        "929ca8a7bc3b691b42f128e482aacc540a05e4c752381304096ca6768f7806ca"
    )
