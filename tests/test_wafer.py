import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waferspr.errors import DimensionError, ParseError
from waferspr.wafer import (
    CellState,
    Neighborhood,
    WaferMap,
    build_graph,
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


def test_csv_roundtrip():
    m = parse_wafer("0,1,2\n2,1,0\n", fmt="csv")
    assert write_wafer(m, fmt="csv") == b"0,1,2\n2,1,0\n"


def test_build_graph_rook_counts():
    m = parse_wafer("000\n000\n000\n")
    g = build_graph(m, Neighborhood.ROOK)
    assert g.node_count == 9
    assert len(g.edges) == 12  # 2rc - r - c


def test_build_graph_king_counts():
    m = parse_wafer("000\n000\n000\n")
    g = build_graph(m, Neighborhood.KING)
    assert len(g.edges) == 20  # + 2(r-1)(c-1) diagonals
    # interior node has degree 8
    center = g.coords.index((1, 1))
    degree = sum(1 for e in g.edges if center in e)
    assert degree == 8


def test_build_graph_masked_corners():
    m = parse_wafer(".0.\n000\n.0.\n")
    g = build_graph(m, Neighborhood.ROOK)
    assert g.node_count == 5
    assert len(g.edges) == 4


def test_build_graph_outside_mask_excluded():
    m = parse_wafer(".1\n1.\n")
    g = build_graph(m, Neighborhood.KING)
    assert g.node_count == 2
    assert g.coords == ((0, 1), (1, 0))
    assert len(g.edges) == 1  # anti-diagonal adjacency under king


@given(grids)
@settings(max_examples=100)
def test_edge_distances(rc):
    r, c, cells = rc
    if all(ch == "." for ch in cells):
        return
    text = "\n".join("".join(cells[i * c : (i + 1) * c]) for i in range(r)) + "\n"
    m = parse_wafer(text)
    for nb in (Neighborhood.ROOK, Neighborhood.KING):
        g = build_graph(m, nb)
        assert np.array_equal(g.edges, build_graph(m, nb).edges)  # deterministic
        for i, j in g.edges:
            assert i < j
            (r1, c1), (r2, c2) = g.coords[i], g.coords[j]
            if nb is Neighborhood.ROOK:
                assert abs(r1 - r2) + abs(c1 - c2) == 1
            else:
                assert max(abs(r1 - r2), abs(c1 - c2)) == 1


def _naive_edges(m, nb):
    """Reference edge list: a per-cell double loop over the grid."""
    grid = m.grid()
    ids = {}
    for r in range(m.rows):
        for c in range(m.cols):
            if grid[r, c] != CellState.OUTSIDE:
                ids[(r, c)] = len(ids)
    edges = set()
    for (r, c), i in ids.items():
        for dr, dc in nb.offsets:
            j = ids.get((r + dr, c + dc))
            if j is not None:
                edges.add((min(i, j), max(i, j)))
    return sorted(edges), tuple(ids)


@given(grids)
@settings(max_examples=200)
def test_build_graph_matches_naive_loop(rc):
    r, c, cells = rc
    if all(ch == "." for ch in cells):
        return
    m = parse_wafer("\n".join("".join(cells[i * c : (i + 1) * c]) for i in range(r)) + "\n")
    for nb in (Neighborhood.ROOK, Neighborhood.KING):
        g = build_graph(m, nb)
        edges, coords = _naive_edges(m, nb)
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(edges), 2)
        assert not g.edges.flags.writeable
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.coords == coords
        assert g.node_count == len(coords)


def test_parse_non_utf8_is_parse_error():
    with pytest.raises(ParseError):
        parse_wafer(b"01\n\xff0\n")


@given(st.binary(max_size=64), st.sampled_from(("ascii", "csv")))
@settings(max_examples=300)
def test_parse_arbitrary_bytes(data, fmt):
    try:
        m = parse_wafer(data, fmt=fmt)
    except ParseError:
        return
    assert isinstance(m, WaferMap)


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
