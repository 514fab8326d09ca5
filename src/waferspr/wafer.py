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
from scipy import ndimage

from .errors import DimensionError, ParseError


class CellState(IntEnum):
    """Per-cell state; integer values follow the public CSV convention."""

    OUTSIDE = 0
    FUNCTIONAL = 1
    DEFECTIVE = 2


# The symbol of each cell state, indexed by state, per file format.
_SYMBOLS = {"ascii": b".01", "csv": b"012"}
# Cell state of each ASCII code point, -1 for a symbol that is no cell; the
# last entry (DEL) stands for every code point beyond the table.
_ASCII_LUT = np.full(128, -1, dtype=np.int8)
_ASCII_LUT[list(_SYMBOLS["ascii"])] = np.arange(len(CellState))


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
    def structure(self) -> np.ndarray:
        """3x3 connectivity element for scipy.ndimage: a cross for rook
        moves, the full square for king moves."""
        return ndimage.generate_binary_structure(2, 1 if self is Neighborhood.ROOK else 2)


@dataclass(frozen=True, eq=False)
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

    Node ids are 0..node_count-1 in row-major order over in-mask cells, so
    `WaferMap.in_mask_coords()[i]` is the grid position of node i.
    `neighbours` is a read-only (node_count, deg) int64 matrix: row i holds
    the ids of node i's neighbours in ascending order, one column per grid
    offset in `sorted(nb.offsets)`, with -1 where that neighbour is outside
    the grid or the mask.
    """

    neighbours: np.ndarray

    @property
    def node_count(self) -> int:
        return self.neighbours.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """Read-only (m, 2) int64 array of canonical pairs (i, j) with
        i < j, sorted lexicographically, with no duplicates and no
        self-loops.  Computed on each access.

        The offsets are symmetric and sorted, so the second half of the
        columns holds the offsets that point to later cells, in ascending
        id order; read row by row they list the pairs already sorted.
        """
        forward = self.neighbours[:, self.neighbours.shape[1] // 2:]
        i, col = np.nonzero(forward >= 0)
        edges = np.column_stack([i, forward[i, col]]).astype(np.int64, copy=False)
        edges.flags.writeable = False
        return edges


def _parse_ascii(body: str) -> tuple[np.ndarray, list[int]]:
    """Cell states and per-line cell counts of ASCII rows joined by newlines.

    One table lookup over the code points; the first character that is
    neither a cell symbol nor a newline raises ParseError.
    """
    codes = np.frombuffer(body.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    newline = codes == ord("\n")
    states = _ASCII_LUT[np.minimum(codes, _ASCII_LUT.size - 1)]
    bad = (states < 0) & ~newline
    if bad.any():
        at = int(bad.argmax())
        lineno = body.count("\n", 0, at) + 1
        col = at - (body.rfind("\n", 0, at) + 1)
        ch = body[at]
        raise ParseError(
            f"unknown symbol {ch!r} at line {lineno}, column {col}",
            line=lineno, symbol=ch, position=col,
        )
    lengths = np.diff(np.flatnonzero(newline), prepend=-1, append=codes.size) - 1
    return states[~newline], lengths.tolist()


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
        cells, lengths = _parse_ascii(text[:-1] if text.endswith("\n") else text)
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
        cells = [s for row in rows for s in row]
        lengths = [len(row) for row in rows]
    else:
        raise ValueError(f"unknown format {fmt!r}")

    width = lengths[0]
    for lineno, length in enumerate(lengths, start=1):
        if length != width:
            raise ParseError(
                f"ragged rows: line {lineno} has {length} cells, expected {width}",
                line=lineno,
            )
    if width == 0:
        raise ParseError("empty grid")

    try:
        return WaferMap(len(lengths), width, np.asarray(cells, dtype=np.int8))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_wafer(wmap: WaferMap, labels=None, fmt: str = "ascii") -> bytes:
    """Serialize a wafer map, optionally overlaying per-in-mask-cell labels.

    The ASCII format round-trips bit-exactly through parse_wafer.
    """
    if labels is not None:
        wmap = wmap.with_overlay(labels)
    if fmt not in _SYMBOLS:
        raise ValueError(f"unknown format {fmt!r}")
    symbols = np.frombuffer(_SYMBOLS[fmt], dtype=np.uint8)[wmap.grid()]
    if fmt == "ascii":
        return np.column_stack([symbols, np.full(wmap.rows, ord("\n"), np.uint8)]).tobytes()
    # every symbol followed by a comma, the last of each row by a newline
    separators = np.full_like(symbols, ord(","))
    separators[:, -1] = ord("\n")
    return np.stack([symbols, separators], axis=-1).tobytes()


def build_graph(wmap: WaferMap, nb: Neighborhood = Neighborhood.KING) -> AdjacencyGraph:
    """Adjacency graph over in-mask cells under the given neighborhood.

    Deterministic: row-major node ids, neighbours in ascending id order.
    """
    inside = wmap.in_mask()
    rows, cols = inside.shape
    # An id grid padded with a ring of -1, so that every offset of an
    # in-grid cell lands inside the padded grid.
    padded = np.full((rows + 2, cols + 2), -1, dtype=np.int64)
    padded[1:-1, 1:-1][inside] = np.arange(int(inside.sum()))
    neighbours = np.column_stack([
        padded[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols][inside]
        for dr, dc in sorted(nb.offsets)
    ])
    neighbours.flags.writeable = False
    return AdjacencyGraph(neighbours)


def components(mask, nb: Neighborhood = Neighborhood.KING) -> np.ndarray:
    """Connected components of the True cells of a boolean grid.

    Returns an int grid of the same shape: 0 where `mask` is False, and
    1..K elsewhere, numbered in row-major order of each component's first
    cell.
    """
    labels, _ = ndimage.label(mask, structure=nb.structure)
    return labels
