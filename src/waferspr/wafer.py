"""Wafer bin map data model: masked grids, neighborhood systems, and file I/O.

A wafer bin map is a rows x cols grid in which every cell is outside the
round wafer mask, a functional chip, or a defective chip.  Two on-disk
formats are supported:

* ASCII: one row per line, characters ``.`` / ``0`` / ``1`` for
  outside-mask / functional / defective, newline-terminated.
* CSV: comma-separated integers ``0`` / ``1`` / ``2`` for
  no-die / pass / fail (the public wafer-dataset convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

from .errors import DimensionError, ParseError


class CellState(IntEnum):
    """Per-cell state; integer values follow the public CSV convention."""

    OUTSIDE = 0
    FUNCTIONAL = 1
    DEFECTIVE = 2


_ASCII_TO_STATE = {".": CellState.OUTSIDE, "0": CellState.FUNCTIONAL, "1": CellState.DEFECTIVE}
_STATE_TO_ASCII = {v: k for k, v in _ASCII_TO_STATE.items()}


class Neighborhood(Enum):
    """Grid adjacency: rook-move (4 neighbors) or king-move (8 neighbors)."""

    ROOK = "rook"
    KING = "king"

    @property
    def offsets(self):
        rook = ((-1, 0), (1, 0), (0, -1), (0, 1))
        if self is Neighborhood.ROOK:
            return rook
        return rook + ((-1, -1), (-1, 1), (1, -1), (1, 1))

    @property
    def forward_offsets(self):
        """Offsets that only point to lexicographically later cells.

        Enumerating edges with these visits each unordered pair once and
        yields canonical (i, j) with i < j under row-major node ids.
        """
        if self is Neighborhood.ROOK:
            return ((0, 1), (1, 0))
        return ((0, 1), (1, 0), (1, 1), (1, -1))


@dataclass(frozen=True)
class WaferMap:
    """Immutable masked grid of cell states, stored row-major.

    Invariants (checked on construction): rows, cols >= 1;
    len(cells) == rows * cols; every cell state valid; at least one cell
    inside the mask.
    """

    rows: int
    cols: int
    cells: np.ndarray
    name: str | None = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        cells = np.asarray(self.cells, dtype=np.int8)
        if cells.ndim != 1 or cells.shape[0] != self.rows * self.cols:
            raise DimensionError(
                f"cells length {cells.size} != rows*cols = {self.rows * self.cols}"
            )
        if not np.isin(cells, (0, 1, 2)).all():
            raise ValueError("cell values must be in {0, 1, 2}")
        if not (cells != CellState.OUTSIDE).any():
            raise ValueError("wafer has no in-mask cells")
        cells = cells.copy()
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    # -- views ---------------------------------------------------------

    def grid(self) -> np.ndarray:
        return self.cells.reshape(self.rows, self.cols)

    def in_mask(self) -> np.ndarray:
        """Boolean grid, True where a die exists."""
        return self.grid() != CellState.OUTSIDE

    @property
    def n_in_mask(self) -> int:
        return int((self.cells != CellState.OUTSIDE).sum())

    @property
    def n_defective(self) -> int:
        return int((self.cells == CellState.DEFECTIVE).sum())

    def defect_bits(self) -> np.ndarray:
        """d_i in {0,1} for each in-mask cell, row-major order."""
        inside = self.cells[self.cells != CellState.OUTSIDE]
        return (inside == CellState.DEFECTIVE).astype(np.int8)

    def in_mask_coords(self) -> list[tuple[int, int]]:
        """(row, col) of every in-mask cell in row-major order."""
        rr, cc = np.nonzero(self.in_mask())
        return list(zip(rr.tolist(), cc.tolist()))

    def defective_coords(self) -> list[tuple[int, int]]:
        rr, cc = np.nonzero(self.grid() == CellState.DEFECTIVE)
        return list(zip(rr.tolist(), cc.tolist()))

    def with_overlay(self, labels) -> "WaferMap":
        """New map whose defective set is the given per-in-mask-cell 0/1 labels.

        The mask is preserved; label 1 -> defective, 0 -> functional.
        """
        labels = np.asarray(labels)
        if labels.shape != (self.n_in_mask,):
            raise DimensionError(
                f"overlay length {labels.size} != in-mask cell count {self.n_in_mask}"
            )
        cells = np.array(self.cells)
        inside = cells != CellState.OUTSIDE
        cells[inside] = np.where(labels == 1, CellState.DEFECTIVE, CellState.FUNCTIONAL)
        return WaferMap(self.rows, self.cols, cells, name=self.name)


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Dense-indexed graph over in-mask cells.

    Node ids are 0..node_count-1 in row-major order over in-mask cells;
    `coords[i]` recovers the grid position of node i.  `edges` is a
    read-only (m, 2) int64 array of canonical pairs (i, j) with i < j,
    sorted lexicographically, with no duplicates and no self-loops.
    """

    node_count: int
    edges: np.ndarray
    coords: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in range(self.node_count)]
        for i, j in self.edges.tolist():
            adj[i].append(j)
            adj[j].append(i)
        return adj


def parse_wafer(text, fmt: str = "ascii") -> WaferMap:
    """Parse a wafer map from bytes or str in 'ascii' or 'csv' format."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or all(line == "" for line in lines):
        raise ParseError("empty grid")

    if fmt == "ascii":
        rows = []
        for lineno, line in enumerate(lines, start=1):
            states = []
            for col, ch in enumerate(line):
                if ch not in _ASCII_TO_STATE:
                    raise ParseError(
                        f"unknown symbol {ch!r} at line {lineno}, column {col}",
                        line=lineno, symbol=ch, position=col,
                    )
                states.append(int(_ASCII_TO_STATE[ch]))
            rows.append(states)
    elif fmt == "csv":
        rows = []
        for lineno, line in enumerate(lines, start=1):
            states = []
            for col, tok in enumerate(line.split(",")):
                tok = tok.strip()
                try:
                    val = int(tok)
                except ValueError:
                    raise ParseError(
                        f"unknown symbol {tok!r} at line {lineno}, field {col}",
                        line=lineno, symbol=tok, position=col,
                    ) from None
                if val not in (0, 1, 2):
                    raise ParseError(
                        f"value {val} out of range at line {lineno}, field {col}",
                        line=lineno, symbol=tok, position=col,
                    )
                states.append(val)
            rows.append(states)
    else:
        raise ValueError(f"unknown format {fmt!r}")

    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(
                f"ragged rows: line {lineno} has {len(row)} cells, expected {width}",
                line=lineno,
            )
    if width == 0:
        raise ParseError("empty grid")

    cells = np.array([s for row in rows for s in row], dtype=np.int8)
    try:
        return WaferMap(len(rows), width, cells)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_wafer(wmap: WaferMap, labels=None, fmt: str = "ascii") -> bytes:
    """Serialize a wafer map, optionally overlaying per-in-mask-cell labels.

    The ASCII format round-trips bit-exactly through parse_wafer.
    """
    if labels is not None:
        wmap = wmap.with_overlay(labels)
    grid = wmap.grid()
    out = []
    if fmt == "ascii":
        for r in range(wmap.rows):
            out.append("".join(_STATE_TO_ASCII[CellState(v)] for v in grid[r]))
    elif fmt == "csv":
        for r in range(wmap.rows):
            out.append(",".join(str(int(v)) for v in grid[r]))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return ("\n".join(out) + "\n").encode("utf-8")


def build_graph(wmap: WaferMap, nb: Neighborhood = Neighborhood.KING) -> AdjacencyGraph:
    """Adjacency graph over in-mask cells under the given neighborhood.

    Deterministic: row-major node ids, canonical sorted edge list.
    """
    inside = wmap.in_mask()
    rows, cols = inside.shape
    node_id = np.full(inside.shape, -1, dtype=np.int64)
    node_id[inside] = np.arange(int(inside.sum()))

    # Pair every cell with its neighbor at each forward offset by slicing
    # the id grid against a shifted copy of itself.
    pairs = []
    for dr, dc in nb.forward_offsets:
        c0, c1 = max(0, -dc), cols - max(0, dc)
        a = node_id[: rows - dr, c0:c1]
        b = node_id[dr:, c0 + dc : c1 + dc]
        keep = (a >= 0) & (b >= 0)
        pairs.append(np.column_stack([a[keep], b[keep]]))
    edges = np.concatenate(pairs)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    edges.flags.writeable = False
    coords = tuple(wmap.in_mask_coords())
    return AdjacencyGraph(len(coords), edges, coords)
