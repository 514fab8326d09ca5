"""Output checks for the benchmark, independent of the code under test.

Each check returns a list of failure strings; an empty list means the
output passed.  None of them runs inside a timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

OUTSIDE, DEFECTIVE = 0, 2
KING = np.ones((3, 3), dtype=int)
KING_FORWARD = ((0, 1), (1, 0), (1, 1), (1, -1))
INT32_MAX = 2**31 - 1

# The comparison.csv columns as documented in README.md.
COMPARISON_COLUMNS = [
    "wafer", "family", "method", "param", "fit_seed", "n_points", "k_hat",
    "ch", "gdi", "ri", "ari", "nmi", "nmi_sqrt",
]


def label_digest(labels) -> str:
    """Short SHA-256 of a 0/1 label vector."""
    return hashlib.sha256(np.asarray(labels, dtype=np.int8).tobytes()).hexdigest()[:16]


def _king_arcs(grid):
    """Forward king-move pairs (i, j) over in-mask cells, row-major ids."""
    rows, cols = grid.shape
    inside = grid != OUTSIDE
    ids = np.full(grid.shape, -1, dtype=np.int64)
    ids[inside] = np.arange(int(inside.sum()))
    tails, heads = [], []
    for dr, dc in KING_FORWARD:
        c0, c1 = max(0, -dc), cols - max(0, dc)
        a = ids[0:rows - dr, c0:c1]
        b = ids[dr:rows, c0 + dc:c1 + dc]
        keep = (a >= 0) & (b >= 0)
        tails.append(a[keep])
        heads.append(b[keep])
    return np.concatenate(tails), np.concatenate(heads)


def check_ac_certificate(grid, labels, u=Fraction(1, 2), w_mag=Fraction(1)) -> list[str]:
    """Certify an AC labeling as the inclusion-minimal minimum cut.

    Builds the same s-t network from the raw grid (LCM-scaled integer
    capacities), solves it with SciPy's Dinic max-flow, and requires
    (1) the cut value of `labels` to equal the max-flow value, and
    (2) `labels` to equal the set reachable from the source in the
    residual network, which is the same for every maximum flow.
    """
    scale = lcm(u.denominator, w_mag.denominator)
    u_int, w_int = int(u * scale), int(w_mag * scale)
    if max(u_int, w_int) > INT32_MAX:
        return [f"capacities {u_int}, {w_int} exceed int32; cannot certify"]
    inside = grid != OUTSIDE
    defect = grid[inside] == DEFECTIVE
    n = defect.size
    labels = np.asarray(labels, dtype=np.int8)
    if labels.shape != (n,):
        return [f"AC labels have length {labels.size}, wafer has {n} chips"]
    s, t = n, n + 1
    a, b = _king_arcs(grid)
    chips = np.arange(n)
    tails = np.concatenate([a, b, np.full(int(defect.sum()), s), chips[~defect]])
    heads = np.concatenate([b, a, chips[defect], np.full(int((~defect).sum()), t)])
    caps = np.concatenate([np.full(2 * a.size, u_int), np.full(n, w_int)]).astype(np.int32)
    if u_int == 0:
        keep = caps > 0
        tails, heads, caps = tails[keep], heads[keep], caps[keep]
    net = csr_array((caps, (tails, heads)), shape=(n + 2, n + 2))
    flow = maximum_flow(net, s, t)

    side = np.append(labels == 1, [True, False])
    cut = int(caps[side[tails] & ~side[heads]].sum())
    failures = []
    if cut != flow.flow_value:
        failures.append(f"AC cut value {cut} != max-flow value {flow.flow_value}")

    residual = csr_array(net - flow.flow)
    residual.data = (residual.data > 0).astype(np.int8)
    residual.eliminate_zeros()
    reachable = breadth_first_order(residual, s, directed=True, return_predecessors=False)
    minimal = np.zeros(n + 2, dtype=bool)
    minimal[reachable] = True
    if not np.array_equal(minimal[:n], labels == 1):
        diff = int((minimal[:n] != (labels == 1)).sum())
        failures.append(f"AC labels differ from the minimal min-cut source set on {diff} chips")
    return failures


def check_cpf_invariants(grid, labels, m: int) -> list[str]:
    """Kept chips are defective and lie in a defective king-component of >= m chips."""
    inside = grid != OUTSIDE
    kept = np.zeros(grid.shape, dtype=bool)
    kept[inside] = np.asarray(labels) == 1
    defect = grid == DEFECTIVE
    failures = []
    if (kept & ~defect).any():
        failures.append(f"CPF kept {int((kept & ~defect).sum())} non-defective chips")
    comp, _ = ndimage.label(defect, structure=KING)
    sizes = np.bincount(comp.ravel())
    small = kept & defect & (sizes[comp] < m)
    if small.any():
        failures.append(f"CPF kept {int(small.sum())} chips in components smaller than M={m}")
    return failures


def reconstructed_defects(grid):
    """In-mask cells with >= 4 defective cells among the 9 of their 3x3 window."""
    votes = ndimage.convolve((grid == DEFECTIVE).astype(int), KING, mode="constant", cval=0)
    return (grid != OUTSIDE) & (votes >= 4)


def check_reconstruction(grid, rec_grid) -> list[str]:
    """The reconstructed map marks exactly the 4-of-9 window-vote cells defective."""
    expected = np.where(grid == OUTSIDE, OUTSIDE,
                        np.where(reconstructed_defects(grid), DEFECTIVE, 1))
    if not np.array_equal(expected, rec_grid):
        return [f"reconstruction differs on {int((expected != rec_grid).sum())} cells"]
    return []


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _read_csv(path: Path):
    """(non-finite number failures, header, rows) of a CSV file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        header = reader.fieldnames or []
    failures = []
    for lineno, row in enumerate(rows, start=2):
        for key, value in row.items():
            try:
                number = float(value)
            except (TypeError, ValueError):
                continue  # text or a typed null (empty field)
            if not math.isfinite(number):
                failures.append(f"{path.name} line {lineno}: {key} = {value}")
    return failures, header, rows


def check_compare_outputs(outdir: Path, n_wafers: int, n_methods: int, seeds: int) -> list[str]:
    """Row count, documented columns, and no NaN anywhere in the outputs."""
    failures = []
    for name in ("comparison.csv", "improvements.csv", "wilcoxon.json", "manifest.json"):
        if not (outdir / name).is_file():
            failures.append(f"missing {name}")
    if failures:
        return failures
    bad, header, rows = _read_csv(outdir / "comparison.csv")
    failures += bad
    if header != COMPARISON_COLUMNS:
        failures.append(f"comparison.csv columns {header}")
    expected = n_wafers * n_methods * seeds
    if len(rows) != expected:
        failures.append(f"comparison.csv has {len(rows)} rows, expected {expected}")
    failures += _read_csv(outdir / "improvements.csv")[0]
    try:
        json.loads((outdir / "wilcoxon.json").read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        failures.append(f"wilcoxon.json: {exc}")
    return failures


def check_compare_points(outdir: Path, kept: dict) -> list[str]:
    """Each comparison.csv row fits as many points as the checked filter
    labels keep.  `kept` maps (wafer, method, param) to that count; a row
    with no entry in it fails too."""
    failures = []
    for lineno, row in enumerate(comparison_rows(outdir), start=2):
        key = (row["wafer"], row["method"], row["param"])
        if key not in kept:
            failures.append(f"comparison.csv line {lineno}: no checked filter for {key}")
        elif row["n_points"] != str(kept[key]):
            failures.append(f"comparison.csv line {lineno}: {key} has n_points "
                            f"{row['n_points']}, the checked labels keep {kept[key]}")
    return failures


def comparison_rows(outdir: Path) -> list[dict]:
    return _read_csv(outdir / "comparison.csv")[2]
