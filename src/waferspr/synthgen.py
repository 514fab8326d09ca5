"""Parametric generator of mixed-type defect wafers with known truth labels.

Pattern geometry is normalized to the wafer radius so one spec scales
across grid sizes.  Patterns are rasterized onto the circular in-mask
region, thinned by a per-pattern fill rate (so systematic patterns have
internal holes), and Bernoulli noise defects are sprinkled on the
remaining in-mask cells.  Everything is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GenerationError
from .wafer import CellState, WaferMap


class PatternKind(Enum):
    CENTER_DISK = "center_disk"
    EDGE_ZONE = "edge_zone"
    DONUT = "donut"
    PARTIAL_RING = "partial_ring"
    SCRATCH = "scratch"


@dataclass(frozen=True)
class PatternSpec:
    """Geometry of one systematic pattern, in wafer-radius fractions.

    The pattern center sits `offset_frac` of the radius away from the
    wafer center, in direction `offset_angle_deg`.  Annular kinds use
    inner_frac/outer_frac and an arc window; scratches use a length in
    cells along `angle_deg`.
    """

    kind: PatternKind
    offset_frac: float = 0.0
    offset_angle_deg: float = 0.0
    inner_frac: float = 0.0
    outer_frac: float = 0.3
    arc_start_deg: float = 0.0
    arc_extent_deg: float = 360.0
    length_cells: int = 0
    width_cells: float = 1.0
    angle_deg: float = 0.0
    fill_rate: float = 0.9

    def __post_init__(self):
        for name in ("offset_frac", "inner_frac", "outer_frac"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {v}")
        if self.kind in (PatternKind.DONUT, PatternKind.PARTIAL_RING, PatternKind.EDGE_ZONE):
            if not self.inner_frac < self.outer_frac:
                raise ValueError("annular patterns need inner_frac < outer_frac")
        if self.kind is PatternKind.SCRATCH and self.length_cells < 1:
            raise ValueError("scratch needs length_cells >= 1")
        if self.width_cells <= 0:
            raise ValueError("width_cells must be positive")
        if not 0.0 < self.fill_rate <= 1.0:
            raise ValueError("fill_rate must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class SynthWafer:
    """Generated map plus truth metadata.

    truth_labels: per-cell, 0 for functional/noise cells and the 1-based
    pattern id for defective pattern cells.
    region_labels: per-cell pattern coverage before fill-rate thinning;
    used to attribute hole-filled cells to their owning pattern.
    """

    map: WaferMap
    truth_labels: np.ndarray
    region_labels: np.ndarray
    noise_rate: float

    def __post_init__(self):
        grid = self.map.cells
        truth = np.asarray(self.truth_labels, dtype=np.int64)
        if (truth[grid != CellState.DEFECTIVE] > 0).any():
            raise ValueError("truth label > 0 on a non-defective cell")


def wafer_mask(rows: int, cols: int) -> np.ndarray:
    """Circular mask inscribed in the grid."""
    cr, cc = (rows - 1) / 2.0, (cols - 1) / 2.0
    radius = (min(rows, cols) - 1) / 2.0
    rr, cc_idx = np.mgrid[0:rows, 0:cols]
    return (rr - cr) ** 2 + (cc_idx - cc) ** 2 <= radius**2 + 1e-9


def rasterize(spec: PatternSpec, rows: int, cols: int, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) index arrays of the in-mask cells covered by the pattern,
    in row-major order; GenerationError if none.

    Distances and angles of annular patterns come from libm's `math.hypot`
    and `math.atan2`: numpy's vectorised versions differ from them in the
    last bit on some inputs, which moves cells on a pattern's boundary.
    """
    if mask is None:
        mask = wafer_mask(rows, cols)
    cr, cc = (rows - 1) / 2.0, (cols - 1) / 2.0
    radius = (min(rows, cols) - 1) / 2.0
    ang = math.radians(spec.offset_angle_deg)
    pr = cr - spec.offset_frac * radius * math.sin(ang)
    pc = cc + spec.offset_frac * radius * math.cos(ang)

    r, c = np.nonzero(mask)
    dy, dx = r - pr, c - pc
    if spec.kind is PatternKind.SCRATCH:
        theta = math.radians(spec.angle_deg)
        dr, dc = -math.sin(theta), math.cos(theta)
        half_width = max(0.6, spec.width_cells / 2.0)
        # distance from cell to the segment [p, p + length*dir]
        t = np.clip(dy * dr + dx * dc, 0.0, float(spec.length_cells))
        keep = (r - (pr + t * dr)) ** 2 + (c - (pc + t * dc)) ** 2 <= half_width**2 + 1e-9
    else:
        lo = 0.0 if spec.kind is PatternKind.CENTER_DISK else spec.inner_frac * radius
        d = np.fromiter(map(math.hypot, dy, dx), float, dy.size)
        keep = (lo <= d) & (d <= spec.outer_frac * radius)
        if spec.arc_extent_deg < 360.0:
            at = np.flatnonzero(keep)
            cell_ang = np.degrees(np.fromiter(map(math.atan2, -dy[at], dx[at]), float, at.size))
            keep[at] = (cell_ang - spec.arc_start_deg) % 360.0 <= spec.arc_extent_deg
    if not keep.any():
        raise GenerationError(f"pattern {spec.kind.value} rasterized to nothing")
    return r[keep], c[keep]


def generate(rows: int, cols: int, specs, noise_rate: float, seed: int) -> SynthWafer:
    """Rasterize the specs, thin by fill rate, add Bernoulli noise defects.

    One uniform draw per covered cell of each pattern and then one per
    in-mask cell not yet defective, each in row-major order.
    """
    if rows < 8 or cols < 8:
        raise ValueError("rows and cols must be >= 8")
    if not 0.0 <= noise_rate < 0.5:
        raise ValueError("noise_rate must be in [0, 0.5)")
    rng = np.random.default_rng(seed)
    mask = wafer_mask(rows, cols)

    region = np.zeros((rows, cols), dtype=np.int64)
    truth = np.zeros((rows, cols), dtype=np.int64)
    defect = np.zeros((rows, cols), dtype=bool)
    for pid, spec in enumerate(specs, start=1):
        r, c = rasterize(spec, rows, cols, mask)
        region[r, c] = pid  # later pattern wins on overlap
        kept = rng.random(r.size) < spec.fill_rate
        defect[r[kept], c[kept]] = True
        truth[r[kept], c[kept]] = pid
    if noise_rate > 0:
        clean = mask & ~defect
        defect[clean] = rng.random(np.count_nonzero(clean)) < noise_rate

    cells = np.where(mask, np.where(defect, CellState.DEFECTIVE, CellState.FUNCTIONAL),
                     CellState.OUTSIDE)
    return SynthWafer(
        map=WaferMap(rows, cols, cells.ravel()),
        truth_labels=truth.ravel(),
        region_labels=region.ravel(),
        noise_rate=noise_rate,
    )


# ---------------------------------------------------------------------
# The mixed-type families used in the comparison experiments
# ---------------------------------------------------------------------

FAMILIES = (
    "donut_partial_ring",
    "two_zone",
    "center_zone",
    "center_partial_ring",
    "scratch_pair",
)


def family_specs(name: str) -> tuple[PatternSpec, ...]:
    """Pattern menu mirroring the classic mixed-type defect combinations."""
    if name == "donut_partial_ring":
        return (
            PatternSpec(PatternKind.DONUT, inner_frac=0.15, outer_frac=0.42,
                        fill_rate=0.94),
            PatternSpec(PatternKind.PARTIAL_RING, inner_frac=0.78, outer_frac=0.99,
                        arc_start_deg=150.0, arc_extent_deg=170.0, fill_rate=0.94),
        )
    if name == "two_zone":
        return (
            PatternSpec(PatternKind.EDGE_ZONE, inner_frac=0.55, outer_frac=1.0,
                        arc_start_deg=20.0, arc_extent_deg=100.0),
            PatternSpec(PatternKind.EDGE_ZONE, inner_frac=0.55, outer_frac=1.0,
                        arc_start_deg=200.0, arc_extent_deg=100.0),
        )
    if name == "center_zone":
        return (
            PatternSpec(PatternKind.CENTER_DISK, outer_frac=0.35),
            PatternSpec(PatternKind.EDGE_ZONE, inner_frac=0.62, outer_frac=1.0,
                        arc_start_deg=230.0, arc_extent_deg=120.0),
        )
    if name == "center_partial_ring":
        return (
            PatternSpec(PatternKind.CENTER_DISK, outer_frac=0.32),
            PatternSpec(PatternKind.PARTIAL_RING, inner_frac=0.72, outer_frac=0.95,
                        arc_start_deg=30.0, arc_extent_deg=170.0),
        )
    if name == "scratch_pair":
        return (
            PatternSpec(PatternKind.SCRATCH, offset_frac=0.55, offset_angle_deg=135.0,
                        angle_deg=-35.0, length_cells=20, width_cells=3.0, fill_rate=0.95),
            PatternSpec(PatternKind.SCRATCH, offset_frac=0.5, offset_angle_deg=300.0,
                        angle_deg=60.0, length_cells=14, width_cells=3.0, fill_rate=0.95),
        )
    raise ValueError(f"unknown family {name!r}")


# Family multiplicities of the twelve-wafer comparison corpus.
TWELVE_WAFER_FAMILIES = (
    "center_partial_ring", "center_zone", "two_zone", "two_zone", "two_zone",
    "center_partial_ring", "center_partial_ring", "donut_partial_ring",
    "donut_partial_ring", "center_zone", "scratch_pair", "center_partial_ring",
)


# The twelve-wafer corpus's defaults: its wafers' side in rows and
# columns, their noise rate, and the first wafer's seed (wafer i adds i).
CORPUS_SIDE = 38
CORPUS_NOISE = 0.05
CORPUS_BASE_SEED = 100


def twelve_wafer_corpus(rows=CORPUS_SIDE, cols=CORPUS_SIDE, noise_rate=CORPUS_NOISE,
                        base_seed=CORPUS_BASE_SEED):
    """The synthetic stand-in for the paper-style twelve-wafer comparison."""
    out = []
    for idx, family in enumerate(TWELVE_WAFER_FAMILIES):
        sw = generate(rows, cols, family_specs(family), noise_rate, base_seed + idx)
        out.append((family, sw))
    return out
