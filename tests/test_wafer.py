import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import edges as grid_edges, grid_components_bfs

from waferspr import wafer
from waferspr.errors import DimensionError, ParseError
from waferspr.synthgen import twelve_wafer_corpus, wafer_mask
from waferspr.wafer import (
    GRAPH_CACHE_SIZE,
    CellState,
    Neighborhood,
    WaferMap,
    build_graph,
    components,
    parse_wafer,
    write_wafer,
)


def test_parse_ascii_cross():
    m = parse_wafer("010\n111\n010\n")
    assert (m.rows, m.cols) == (3, 3)
    assert m.n_defective == 5
    assert m.n_in_mask == 9


def test_parse_csv_wm811k_convention():
    m = parse_wafer("2,1\n1,2\n", fmt="csv")
    assert m.defective_coords() == [(0, 0), (1, 1)]
    assert m.n_in_mask == 4


def test_parse_ragged_rows():
    with pytest.raises(ParseError) as exc:
        parse_wafer("010\n0101\n")
    assert exc.value.line == 2


def test_parse_unknown_symbol():
    with pytest.raises(ParseError) as exc:
        parse_wafer("01x\n010\n")
    assert exc.value.symbol == "x"
    assert exc.value.line == 1


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_wafer("")
    with pytest.raises(ParseError):
        parse_wafer("\n")


def test_parse_all_masked_rejected():
    with pytest.raises(ParseError):
        parse_wafer("..\n..\n")


def test_parse_csv_bad_value():
    with pytest.raises(ParseError):
        parse_wafer("0,3\n", fmt="csv")


@pytest.mark.parametrize("cells", [
    np.array([1, 258, 1, 1]),  # 2 in int8
    np.array([1, -254, 1, 1]),  # 2 in int8
    np.array([1, 2.7, 1, 1]),  # 2 truncated
    [1, 258, 1, 1],  # beyond int8
], ids=["258", "-254", "2.7", "list-258"])
def test_cell_values_checked_before_narrowing(cells):
    with pytest.raises(ValueError, match=r"cell values must be in \{0, 1, 2\}"):
        WaferMap(2, 2, cells)


def test_integral_cells_of_any_numeric_type_accepted():
    for cells in ([1, 2, 0, 1], np.array([1.0, 2.0, 0.0, 1.0]), np.array([1, 2, 0, 1], dtype=np.uint64)):
        wmap = WaferMap(2, 2, cells)
        assert wmap.cells.dtype == np.int8 and wmap.cells.tolist() == [1, 2, 0, 1]


def test_write_single_defective():
    m = parse_wafer("1\n")
    assert write_wafer(m) == b"1\n"


def test_overlay_wrong_length():
    m = parse_wafer("010\n111\n010\n")
    with pytest.raises(DimensionError):
        write_wafer(m, labels=[1, 0, 1])


def test_overlay_rewrites_defects():
    m = parse_wafer(".0.\n010\n")
    out = write_wafer(m, labels=[1, 1, 0, 1])
    assert out == b".1.\n101\n"


grids = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.sampled_from(".01"), min_size=r * c, max_size=r * c
        ).map(lambda cells: (r, c, cells))
    )
)


@given(grids)
@settings(max_examples=200)
def test_roundtrip_ascii(rc):
    r, c, cells = rc
    if all(ch == "." for ch in cells):
        return
    text = "\n".join("".join(cells[i * c : (i + 1) * c]) for i in range(r)) + "\n"
    m = parse_wafer(text)
    assert write_wafer(m) == text.encode()
    m2 = parse_wafer(write_wafer(m))
    assert np.array_equal(m.cells, m2.cells)
    # the same grid as CSV
    values = [str(".01".index(ch)) for ch in cells]
    csv = "\n".join(",".join(values[i * c : (i + 1) * c]) for i in range(r)) + "\n"
    assert write_wafer(m, fmt="csv") == csv.encode()
    assert np.array_equal(parse_wafer(csv, fmt="csv").cells, m.cells)


def test_csv_roundtrip():
    m = parse_wafer("0,1,2\n2,1,0\n", fmt="csv")
    assert write_wafer(m, fmt="csv") == b"0,1,2\n2,1,0\n"


def _node_cells(m):
    """(row, col) of each graph node id: the in-mask cells in row-major order."""
    rows, cols = np.nonzero(m.in_mask())
    return list(zip(rows.tolist(), cols.tolist()))


def test_build_graph_rook_counts():
    m = parse_wafer("000\n000\n000\n")
    g = build_graph(m, Neighborhood.ROOK)
    assert g.node_count == 9
    assert len(grid_edges(g)) == 12  # 2rc - r - c


def test_build_graph_king_counts():
    m = parse_wafer("000\n000\n000\n")
    g = build_graph(m, Neighborhood.KING)
    assert len(grid_edges(g)) == 20  # + 2(r-1)(c-1) diagonals
    # interior node has degree 8
    center = _node_cells(m).index((1, 1))
    degree = sum(1 for e in grid_edges(g).tolist() if center in e)
    assert degree == 8


def test_build_graph_masked_corners():
    m = parse_wafer(".0.\n000\n.0.\n")
    g = build_graph(m, Neighborhood.ROOK)
    assert g.node_count == 5
    assert len(grid_edges(g)) == 4


def test_build_graph_outside_mask_excluded():
    m = parse_wafer(".1\n1.\n")
    g = build_graph(m, Neighborhood.KING)
    assert g.node_count == 2
    assert _node_cells(m) == [(0, 1), (1, 0)]
    assert len(grid_edges(g)) == 1  # anti-diagonal adjacency under king


@given(grids)
@settings(max_examples=100)
def test_edge_distances(rc):
    r, c, cells = rc
    if all(ch == "." for ch in cells):
        return
    text = "\n".join("".join(cells[i * c : (i + 1) * c]) for i in range(r)) + "\n"
    m = parse_wafer(text)
    coords = _node_cells(m)
    for nb in (Neighborhood.ROOK, Neighborhood.KING):
        g = build_graph(m, nb)
        assert np.array_equal(g.neighbours, build_graph(m, nb).neighbours)  # deterministic
        for i, j in grid_edges(g).tolist():
            assert i < j
            (r1, c1), (r2, c2) = coords[i], coords[j]
            if nb is Neighborhood.ROOK:
                assert abs(r1 - r2) + abs(c1 - c2) == 1
            else:
                assert max(abs(r1 - r2), abs(c1 - c2)) == 1


def _naive_graph(m, nb):
    """Reference graph: a per-cell double loop over the grid.  Returns the
    sorted edge list, the cell of each node id, and each node's neighbour
    ids (-1 outside the grid or mask) in sorted offset order."""
    grid = m.grid()
    ids = {}
    for r in range(m.rows):
        for c in range(m.cols):
            if grid[r, c] != CellState.OUTSIDE:
                ids[(r, c)] = len(ids)
    edges = set()
    neighbours = []
    for (r, c), i in ids.items():
        row = []
        for dr, dc in sorted(nb.offsets):
            j = ids.get((r + dr, c + dc))
            row.append(-1 if j is None else j)
            if j is not None:
                edges.add((min(i, j), max(i, j)))
        neighbours.append(row)
    return sorted(edges), tuple(ids), neighbours


@given(grids)
@settings(max_examples=200)
def test_build_graph_matches_naive_loop(rc):
    r, c, cells = rc
    if all(ch == "." for ch in cells):
        return
    m = parse_wafer("\n".join("".join(cells[i * c : (i + 1) * c]) for i in range(r)) + "\n")
    for nb in (Neighborhood.ROOK, Neighborhood.KING):
        g = build_graph(m, nb)
        edges, coords, neighbours = _naive_graph(m, nb)
        assert grid_edges(g).tolist() == [list(e) for e in edges]
        assert g.neighbours.dtype == np.int64
        assert g.neighbours.shape == (len(coords), len(nb.offsets))
        assert not g.neighbours.flags.writeable
        assert g.neighbours.tolist() == neighbours
        assert tuple(_node_cells(m)) == coords
        assert g.node_count == len(coords)


def _wafer_of(inside, defect_rate, rng):
    defect = rng.random(inside.shape) < defect_rate
    return WaferMap(*inside.shape, np.where(inside, np.where(defect, 2, 1), 0).ravel())


def test_wafers_of_one_mask_share_one_read_only_graph():
    rng = np.random.default_rng(21)
    inside = wafer_mask(12, 12)
    graph = build_graph(_wafer_of(inside, 0.2, rng), Neighborhood.KING)
    assert build_graph(_wafer_of(inside, 0.6, rng), Neighborhood.KING) is graph
    with pytest.raises(ValueError):
        graph.neighbours[0, 0] = 0
    # The neighbourhood, one cell of the mask and the grid shape each key
    # a graph of their own.
    rook = build_graph(_wafer_of(inside, 0.2, rng), Neighborhood.ROOK)
    assert rook is not graph and rook.neighbours.shape[1] == 4
    one_less = inside.copy()
    one_less[6, 6] = False
    assert build_graph(_wafer_of(one_less, 0.2, rng), Neighborhood.KING).node_count == (
        graph.node_count - 1)
    wide, tall = np.ones((4, 6), dtype=bool), np.ones((6, 4), dtype=bool)
    assert np.packbits(wide).tobytes() == np.packbits(tall).tobytes()
    g_wide = build_graph(_wafer_of(wide, 0.2, rng), Neighborhood.KING)
    g_tall = build_graph(_wafer_of(tall, 0.2, rng), Neighborhood.KING)
    assert g_wide.neighbours.tolist() != g_tall.neighbours.tolist()
    assert g_tall.neighbours.tolist() == _naive_graph(_wafer_of(tall, 0.2, rng),
                                                      Neighborhood.KING)[2]


def test_graph_cache_keeps_its_bound_of_masks():
    rng = np.random.default_rng(22)
    # One-row grids of distinct widths, one mask each.
    wafers = [_wafer_of(np.ones((1, 100 + k), dtype=bool), 0.3, rng)
              for k in range(GRAPH_CACHE_SIZE + 1)]
    graphs = [build_graph(w, Neighborhood.KING) for w in wafers[:GRAPH_CACHE_SIZE]]
    assert all(build_graph(w, Neighborhood.KING) is g
               for w, g in zip(wafers[:GRAPH_CACHE_SIZE], graphs))
    # One mask more evicts the least recently used one, the first.
    build_graph(wafers[-1], Neighborhood.KING)
    assert build_graph(wafers[1], Neighborhood.KING) is graphs[1]
    rebuilt = build_graph(wafers[0], Neighborhood.KING)
    assert rebuilt is not graphs[0]
    assert np.array_equal(rebuilt.neighbours, graphs[0].neighbours)
    info = wafer._mask_graph.cache_info()
    assert info.maxsize == info.currsize == GRAPH_CACHE_SIZE


@pytest.mark.parametrize("nb", list(Neighborhood))
def test_structure_is_one_read_only_array_per_neighborhood(nb):
    structure = nb.structure
    assert nb.structure is structure
    assert not structure.flags.writeable
    with pytest.raises(ValueError):
        structure[0, 0] = not structure[0, 0]
    # the centre and one cell per offset
    assert np.count_nonzero(structure) == 1 + len(nb.offsets)
    assert all(structure[1 + dr, 1 + dc] for dr, dc in nb.offsets)


@given(st.integers(1, 8), st.integers(1, 8), st.data())
@settings(max_examples=200)
def test_components_match_bfs(rows, cols, data):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=rows * cols,
                                       max_size=rows * cols))).reshape(rows, cols)
    for nb in (Neighborhood.ROOK, Neighborhood.KING):
        labels = components(mask, nb)
        assert labels.shape == mask.shape
        assert labels.tolist() == grid_components_bfs(mask.tolist(), nb.offsets)


def test_parse_non_utf8_is_parse_error():
    with pytest.raises(ParseError):
        parse_wafer(b"01\n\xff0\n")


def _reference_parse_ascii(text):
    """Reference ASCII parser, a per-character loop over the lines.

    Returns ("ok", rows, cols, cells) or ("error", message, line, symbol,
    position) of the ParseError it raises.
    """
    lines = _reference_lines(text)
    if not lines:
        return ("error", "empty grid", None, None, None)
    symbols = {".": 0, "0": 1, "1": 2}
    rows = []
    for lineno, line in enumerate(lines, start=1):
        for col, ch in enumerate(line):
            if ch not in symbols:
                return ("error", f"unknown symbol {ch!r} at line {lineno}, column {col}",
                        lineno, ch, col)
        rows.append([symbols[ch] for ch in line])
    return _reference_grid(rows)


# A CSV field: one cell symbol, with spaces and carriage returns around it.
_REFERENCE_CSV_FIELD = re.compile(r"[ \r]*([012])[ \r]*")


def _reference_parse_csv(text):
    """Reference CSV parser, a regex match per field over the lines; its
    outcome as `_reference_parse_ascii` gives it."""
    lines = _reference_lines(text)
    if not lines:
        return ("error", "empty grid", None, None, None)
    rows = []
    for lineno, line in enumerate(lines, start=1):
        row = []
        for col, field in enumerate(line.split(",")):
            match = _REFERENCE_CSV_FIELD.fullmatch(field)
            if match is None:
                symbol = field.strip(" \r")
                return ("error", f"unknown symbol {symbol!r} at line {lineno}, field {col}",
                        lineno, symbol, col)
            row.append("012".index(match[1]))
        rows.append(row)
    return _reference_grid(rows)


def _reference_lines(text):
    """The lines of a newline-terminated text, none for an empty grid."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if all(line == "" for line in lines):
        return []
    return lines


def _reference_grid(rows):
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            return ("error", f"ragged rows: line {lineno} has {len(row)} cells, "
                    f"expected {width}", lineno, None, None)
    if width == 0:
        return ("error", "empty grid", None, None, None)
    cells = tuple(s for row in rows for s in row)
    if not any(cells):
        return ("error", "wafer has no in-mask cells", None, None, None)
    return ("ok", len(rows), width, cells)


_REFERENCE_PARSERS = {"ascii": _reference_parse_ascii, "csv": _reference_parse_csv}


def _parse_outcome(text, fmt="ascii"):
    try:
        m = parse_wafer(text, fmt=fmt)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.symbol, exc.position)
    return ("ok", m.rows, m.cols, tuple(m.cells.tolist()))


def _check_every_single_character_corruption(fmt, replacements):
    reference = _REFERENCE_PARSERS[fmt]
    text = write_wafer(twelve_wafer_corpus()[0][1].map, fmt=fmt).decode()
    assert _parse_outcome(text, fmt) == reference(text)
    for k in range(len(text)):
        for replacement in replacements:
            corrupt = text[:k] + replacement + text[k + 1 :]
            assert _parse_outcome(corrupt, fmt) == reference(corrupt), (k, replacement)


def test_parse_every_single_character_corruption():
    _check_every_single_character_corruption("ascii", ("x", "\n", "é", ""))


def test_parse_every_single_character_corruption_csv():
    _check_every_single_character_corruption("csv", ("\u0661", "\n", ",", ""))


@given(st.binary(max_size=64), st.sampled_from(("ascii", "csv")))
@settings(max_examples=300)
def test_parse_arbitrary_bytes(data, fmt):
    try:
        m = parse_wafer(data, fmt=fmt)
    except ParseError:
        return
    assert isinstance(m, WaferMap)


@given(st.text(alphabet=".01\nx\r\u00e9\U0001f600\ud800", max_size=40))
@settings(max_examples=300)
def test_parse_ascii_matches_reference(text):
    assert _parse_outcome(text) == _reference_parse_ascii(text)


@given(st.text(alphabet="012,\n\r +x\u0661", max_size=40))
@settings(max_examples=300)
def test_parse_csv_matches_reference(text):
    assert _parse_outcome(text, "csv") == _reference_parse_csv(text)


def test_parse_csv_refuses_what_no_writer_writes():
    m = parse_wafer(" 1 ,2\r, 0\n0 ,\r1\r,2\r\n", fmt="csv")
    assert m.cells.tolist() == [1, 2, 0, 0, 1, 2]
    for token in ("+2", "-0", "0_0", "01", "\uff11", "\u0661", "\t1", "1\xa0"):
        with pytest.raises(ParseError) as exc:
            parse_wafer(f"0,1,2\n1, {token} ,0\r\n", fmt="csv")
        assert (str(exc.value), exc.value.line, exc.value.symbol, exc.value.position) == (
            f"unknown symbol {token!r} at line 2, field 1", 2, token, 1), token


def test_wafermap_validations():
    with pytest.raises(DimensionError):
        WaferMap(2, 2, np.array([0, 1, 2], dtype=np.int8))
    with pytest.raises(ValueError):
        WaferMap(1, 1, np.array([5], dtype=np.int8))
    with pytest.raises(ValueError):
        WaferMap(1, 2, np.array([0, 0], dtype=np.int8))


def test_cells_immutable():
    m = parse_wafer("01\n")
    with pytest.raises(ValueError):
        m.cells[0] = 2
