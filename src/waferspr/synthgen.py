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
from .wafer import CellState, WaferMap, whole_number


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
        for name in ("offset_angle_deg", "arc_start_deg", "arc_extent_deg", "length_cells",
                     "width_cells", "angle_deg"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        object.__setattr__(self, "length_cells", whole_number("length_cells", self.length_cells))
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
    row_d2 = (np.arange(rows) - cr) ** 2
    col_d2 = (np.arange(cols) - cc) ** 2
    return row_d2[:, None] + col_d2 <= radius**2 + 1e-9


# numpy's hypot and arctan2 differ from libm's by at most a few ulp, that is
# a few times 2.2e-16 of the value's scale.  A value further than
# _LIBM_WINDOW times that scale (about 4.5e6 ulp) from a decision boundary
# therefore lands on the same side under either.
_LIBM_WINDOW = 1e-9


def _near(values, edges, tol):
    """Indices of the `values` within `tol` of any of `edges`."""
    return np.flatnonzero(np.logical_or.reduce([np.abs(values - e) < tol for e in edges]))


def _mod360(x):
    """`x % 360.0` bit for bit, from the exact fmod, which numpy computes
    far faster than its floor remainder: plus 360 where fmod is negative,
    which also turns -0.0 into 0.0."""
    out = np.fmod(x, 360.0)
    out += 360.0 * (out < 0)
    return out


def rasterize(spec: PatternSpec, rows: int, cols: int, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) index arrays of the in-mask cells covered by the pattern,
    in row-major order; GenerationError if none.

    Distances and arc angles of annular patterns come from numpy's `hypot`
    and `arctan2`, one array operation each.  Those differ from libm's
    `math.hypot` and `math.atan2` in the last bit on some inputs, which
    would move a cell lying on a pattern's boundary.  So every cell whose
    array value lies within a small window of a decision boundary (`lo` and
    `hi` for distances; the start ray, `start + extent` and the 0/360 wrap
    for arcs) is recomputed with libm, and every cell lands on the side
    libm puts it.
    """
    r, c = np.nonzero(wafer_mask(rows, cols) if mask is None else mask)
    keep = _covered(spec, rows, cols, r, c)
    return r[keep], c[keep]


def _covered(spec: PatternSpec, rows: int, cols: int, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Which of the in-mask cells (r, c) the pattern covers, as a bool mask;
    GenerationError if none.  See `rasterize`."""
    cr, cc = (rows - 1) / 2.0, (cols - 1) / 2.0
    radius = (min(rows, cols) - 1) / 2.0
    ang = math.radians(spec.offset_angle_deg)
    pr = cr - spec.offset_frac * radius * math.sin(ang)
    pc = cc + spec.offset_frac * radius * math.cos(ang)

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
        hi = spec.outer_frac * radius
        d = np.hypot(dy, dx)
        # libm decides the distances that lie near `lo` or `hi`.
        at = _near(d, (lo, hi), _LIBM_WINDOW * (1.0 + hi))
        d[at] = list(map(math.hypot, dy[at], dx[at]))
        keep = (lo <= d) & (d <= hi)
        if spec.arc_extent_deg < 360.0:
            start, extent = spec.arc_start_deg, spec.arc_extent_deg
            at = np.flatnonzero(keep)
            ady, adx = -dy[at], dx[at]
            # How far counterclockwise of the start ray each cell lies.
            turn = _mod360(np.degrees(np.arctan2(ady, adx)) - start)
            # Between numpy and libm, `angle - start` moves by a few ulp of
            # 360 + |start|, and `% 360` folds it exactly but for the wrap.
            fix = _near(turn, (0.0, extent, 360.0), _LIBM_WINDOW * (360.0 + abs(start)))
            libm_ang = np.array(list(map(math.atan2, ady[fix], adx[fix])), dtype=float)
            turn[fix] = _mod360(np.degrees(libm_ang) - start)
            keep[at] = turn <= extent
    if not keep.any():
        raise GenerationError(f"pattern {spec.kind.value} rasterized to nothing")
    return keep


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
    mask = wafer_mask(rows, cols).ravel()
    # The in-mask cells, found once: flat indices and (row, col) pairs.
    inside = np.flatnonzero(mask)
    r, c = np.divmod(inside, cols)

    region = np.zeros(rows * cols, dtype=np.int64)
    truth = np.zeros(rows * cols, dtype=np.int64)
    defect = np.zeros(rows * cols, dtype=bool)
    for pid, spec in enumerate(specs, start=1):
        at = inside[_covered(spec, rows, cols, r, c)]
        region[at] = pid  # later pattern wins on overlap
        at = at[rng.random(at.size) < spec.fill_rate]
        defect[at] = True
        truth[at] = pid
    if noise_rate > 0:
        clean = mask & ~defect
        defect[clean] = rng.random(np.count_nonzero(clean)) < noise_rate

    cells = np.where(mask, np.where(defect, CellState.DEFECTIVE, CellState.FUNCTIONAL),
                     CellState.OUTSIDE)
    return SynthWafer(
        map=WaferMap(rows, cols, cells),
        truth_labels=truth,
        region_labels=region,
        noise_rate=noise_rate,
    )


# ---------------------------------------------------------------------
# The mixed-type families used in the comparison experiments
# ---------------------------------------------------------------------

# The pattern menu of each family, mirroring the classic mixed-type
# defect combinations.
_FAMILY_SPECS = {
    "donut_partial_ring": (
        PatternSpec(PatternKind.DONUT, inner_frac=0.15, outer_frac=0.42, fill_rate=0.94),
        PatternSpec(PatternKind.PARTIAL_RING, inner_frac=0.78, outer_frac=0.99,
                    arc_start_deg=150.0, arc_extent_deg=170.0, fill_rate=0.94),
    ),
    "two_zone": (
        PatternSpec(PatternKind.EDGE_ZONE, inner_frac=0.55, outer_frac=1.0,
                    arc_start_deg=20.0, arc_extent_deg=100.0),
        PatternSpec(PatternKind.EDGE_ZONE, inner_frac=0.55, outer_frac=1.0,
                    arc_start_deg=200.0, arc_extent_deg=100.0),
    ),
    "center_zone": (
        PatternSpec(PatternKind.CENTER_DISK, outer_frac=0.35),
        PatternSpec(PatternKind.EDGE_ZONE, inner_frac=0.62, outer_frac=1.0,
                    arc_start_deg=230.0, arc_extent_deg=120.0),
    ),
    "center_partial_ring": (
        PatternSpec(PatternKind.CENTER_DISK, outer_frac=0.32),
        PatternSpec(PatternKind.PARTIAL_RING, inner_frac=0.72, outer_frac=0.95,
                    arc_start_deg=30.0, arc_extent_deg=170.0),
    ),
    "scratch_pair": (
        PatternSpec(PatternKind.SCRATCH, offset_frac=0.55, offset_angle_deg=135.0,
                    angle_deg=-35.0, length_cells=20, width_cells=3.0, fill_rate=0.95),
        PatternSpec(PatternKind.SCRATCH, offset_frac=0.5, offset_angle_deg=300.0,
                    angle_deg=60.0, length_cells=14, width_cells=3.0, fill_rate=0.95),
    ),
}

FAMILIES = tuple(_FAMILY_SPECS)


def family_specs(name: str) -> tuple[PatternSpec, ...]:
    """The pattern specs of the family `name`; ValueError if unknown."""
    try:
        return _FAMILY_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


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
