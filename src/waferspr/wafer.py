"""Wafer bin map data model: masked grids, neighborhood systems, and file I/O.

A wafer bin map is a rows x cols grid in which every cell is outside the
round wafer mask, a functional chip, or a defective chip.  Two on-disk
formats are supported:

* ASCII: one row per line, characters ``.`` / ``0`` / ``1`` for
  outside-mask / functional / defective, newline-terminated.
* CSV: comma-separated integers ``0`` / ``1`` / ``2`` for
  no-die / pass / fail (the public wafer-dataset convention), each cell
  exactly one digit, with spaces and carriage returns allowed around it.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property, lru_cache

import numpy as np
from scipy import ndimage

from .errors import DimensionError, ParseError


def whole_number(name: str, value) -> int:
    """A count field's value as an int; ValueError naming the field for a
    bool (True would read as 1), a non-number, or a non-finite or
    fractional value."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value != int(value)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


class CellState(IntEnum):
    """Per-cell state; integer values follow the public CSV convention."""

    OUTSIDE = 0
    FUNCTIONAL = 1
    DEFECTIVE = 2


# The symbol of each cell state, indexed by state, per file format.
_SYMBOLS = {"ascii": b".01", "csv": b"012"}
# Per format, the kind of each ASCII code point: its cell state, a field or
# row separator, skipped (around a CSV cell) or refused.  The last entry
# (DEL, refused) stands for every code point beyond the table.
_REFUSED, _FIELD, _ROW, _SKIPPED = -1, -2, -3, -4
_CODE_TABLES = {fmt: np.full(128, _REFUSED, dtype=np.int8) for fmt in _SYMBOLS}
for _fmt, _table in _CODE_TABLES.items():
    _table[list(_SYMBOLS[_fmt] + b"\n")] = [*range(len(CellState)), _ROW]
_CODE_TABLES["csv"][list(b", \r")] = [_FIELD, _SKIPPED, _SKIPPED]


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

    @cached_property
    def structure(self) -> np.ndarray:
        """3x3 connectivity element for scipy.ndimage: a cross for rook
        moves, the full square for king moves.  Built once per member and
        read-only, since every caller shares it."""
        structure = ndimage.generate_binary_structure(2, 1 if self is Neighborhood.ROOK else 2)
        structure.flags.writeable = False
        return structure


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

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        cells = np.asarray(self.cells)
        if cells.ndim != 1 or cells.shape[0] != self.rows * self.cols:
            raise DimensionError(
                f"cells length {cells.size} != rows*cols = {self.rows * self.cols}"
            )
        # Checked before the cast to int8, which would wrap 258 to 2 and
        # truncate 2.7 to 2.
        kind = cells.dtype.kind
        if (kind not in "biuf" or not 0 <= cells.min() <= cells.max() <= 2
                or kind == "f" and (cells % 1).any()):
            raise ValueError("cell values must be in {0, 1, 2}")
        cells = cells.astype(np.int8)
        if not (cells != CellState.OUTSIDE.value).any():
            raise ValueError("wafer has no in-mask cells")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    # -- views ---------------------------------------------------------

    def grid(self) -> np.ndarray:
        return self.cells.reshape(self.rows, self.cols)

    def in_mask(self) -> np.ndarray:
        """Boolean grid, True where a die exists."""
        return self.grid() != CellState.OUTSIDE.value

    @property
    def n_in_mask(self) -> int:
        return int((self.cells != CellState.OUTSIDE).sum())

    @property
    def n_defective(self) -> int:
        return int((self.cells == CellState.DEFECTIVE).sum())

    def defect_bits(self) -> np.ndarray:
        """d_i in {0,1} for each in-mask cell, row-major order."""
        inside = self.cells[self.cells != CellState.OUTSIDE.value]
        return (inside == CellState.DEFECTIVE.value).astype(np.int8)

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
        return WaferMap(self.rows, self.cols, cells)


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Dense-indexed graph over in-mask cells.

    Node ids are 0..node_count-1 in row-major order over in-mask cells, so
    node i sits at the i-th position `np.nonzero(WaferMap.in_mask())` lists.
    `neighbours` is a read-only (node_count, deg) int64 matrix: row i holds
    the ids of node i's neighbours in ascending order, one column per grid
    offset in `sorted(nb.offsets)`, with -1 where that neighbour is outside
    the grid or the mask.  `build_graph` hands one graph to every wafer of
    a mask, so nothing may write to it.
    """

    neighbours: np.ndarray

    @property
    def node_count(self) -> int:
        return self.neighbours.shape[0]


def _parse_cells(body: str, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Cell states and per-row cell counts of `fmt` rows joined by newlines,
    from one lookup in the format's code-point table.  ASCII must hold
    cells and newlines only.  CSV, once its skipped code points are
    dropped, must alternate cell and separator, starting and ending with a
    cell, and then reads as ASCII without its commas.  The first refused
    code point raises ParseError.
    """
    table = _CODE_TABLES[fmt]
    codes = np.frombuffer(body.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    kinds = table[np.minimum(codes, table.size - 1)]
    if fmt == "csv":
        at = np.flatnonzero(kinds != _SKIPPED)
        kinds = kinds[at]
        bad = kinds == _REFUSED
        bad[::2] |= kinds[::2] < 0
        bad[1::2] |= kinds[1::2] >= 0
        # The first misplaced code point lies in the first refused field;
        # with none, an even count ends on a separator, in an empty field.
        if bad.any() or kinds.size % 2 == 0:
            raise _refusal(body, int(at[bad.argmax()]) if bad.any() else len(body), fmt)
        kinds = kinds[kinds != _FIELD]
    elif (kinds == _REFUSED).any():
        raise _refusal(body, int((kinds == _REFUSED).argmax()), fmt)
    newline = kinds == _ROW
    lengths = np.diff(np.flatnonzero(newline), prepend=-1, append=kinds.size) - 1
    return kinds[~newline], lengths


def _refusal(body: str, at: int, fmt: str) -> ParseError:
    """The ParseError of the refused code point at index `at` of `body`:
    the symbol at its line and column (ASCII), or the field that holds it,
    spaces and carriage returns stripped, at its line and field number."""
    lineno = body.count("\n", 0, at) + 1
    start = body.rfind("\n", 0, at) + 1
    if fmt == "ascii":
        symbol, where, position = body[at], "column", at - start
    else:
        position = body.count(",", start, at)
        start = max(start, body.rfind(",", start, at) + 1)
        symbol, where = re.match("[^,\n]*", body[start:]).group().strip(" \r"), "field"
    return ParseError(f"unknown symbol {symbol!r} at line {lineno}, {where} {position}",
                      line=lineno, symbol=symbol, position=position)


def parse_wafer(text, fmt: str = "ascii") -> WaferMap:
    """Parse a wafer map from bytes or str in 'ascii' or 'csv' format."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc}") from None
    if fmt not in _CODE_TABLES:
        raise ValueError(f"unknown format {fmt!r}")
    if not text.strip("\n"):
        raise ParseError("empty grid")
    cells, lengths = _parse_cells(text[:-1] if text.endswith("\n") else text, fmt)
    ragged = lengths != lengths[0]
    if ragged.any():
        row = int(ragged.argmax())
        raise ParseError(f"ragged rows: line {row + 1} has {lengths[row]} cells, "
                         f"expected {lengths[0]}", line=row + 1)
    try:
        return WaferMap(lengths.size, int(lengths[0]), cells)
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


# How many masks' graphs `build_graph` keeps.
GRAPH_CACHE_SIZE = 8


def build_graph(wmap: WaferMap, nb: Neighborhood = Neighborhood.KING) -> AdjacencyGraph:
    """Adjacency graph over in-mask cells under the given neighborhood.

    Deterministic: row-major node ids, neighbours in ascending id order.
    The graph depends only on the mask, so wafers that share a mask share
    one read-only graph object.  The graphs of the GRAPH_CACHE_SIZE (8)
    most recently used (grid shape, in-mask cells, neighborhood) keys are
    kept; a key costs one bit per grid cell.  A graph holds 8 bytes per
    neighbour slot, 32 (rook) or 64 (king) per in-mask cell, so the cache
    holds at most 8 * 64 bytes per in-mask cell of the largest mask
    used: 8.9 MB for 150x150 wafers.
    """
    inside = wmap.in_mask()
    return _mask_graph(inside.shape, np.packbits(inside).tobytes(), nb)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _mask_graph(shape: tuple[int, int], bits: bytes, nb: Neighborhood) -> AdjacencyGraph:
    """The graph of the mask whose cells `np.packbits` packed into `bits`."""
    rows, cols = shape
    inside = np.unpackbits(np.frombuffer(bits, dtype=np.uint8),
                           count=rows * cols).astype(bool).reshape(shape)
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
