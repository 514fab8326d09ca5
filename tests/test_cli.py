import json
from pathlib import Path

import numpy as np
import pytest

from waferspr.cli import (
    COMPARISON_COLUMNS,
    compute_improvements,
    compute_wilcoxon,
    main,
)
from waferspr.render import PALETTE, cluster_color, render_svg
from waferspr.wafer import parse_wafer

CROSS = "010\n111\n010\n"
HOLE = "111\n101\n111\n"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_filter_ac_defaults(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    out = tmp_path / "out"
    assert run_cli("filter", wafer, "--method", "ac", "--u", "0.5", "--out", out) == 0
    filtered = (out / "filtered.txt").read_text()
    assert filtered == "111\n111\n111\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kept_count"] == 9
    assert summary["objective"] == "-7"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "filter"
    assert manifest["config"]["u"] == "1/2"


def test_filter_cpf(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_text("1111100\n0000000\n")
    out = tmp_path / "out"
    assert run_cli("filter", wafer, "--method", "cpf", "--m", "5", "--out", out) == 0
    assert (out / "filtered.txt").read_text() == "1111100\n0000000\n"
    assert run_cli("filter", wafer, "--method", "cpf", "--m", "6",
                   "--out", tmp_path / "out6") == 0
    assert (tmp_path / "out6" / "filtered.txt").read_text() == "0000000\n0000000\n"


def test_filter_bad_u_exits_3(tmp_path, capsys):
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    assert run_cli("filter", wafer, "--u", "-1", "--out", tmp_path / "o") == 3
    assert "error" in capsys.readouterr().err


def test_filter_u_beyond_solver_range_exits_3(tmp_path, capsys):
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    assert run_cli("filter", wafer, "--u", "1e-10", "--out", tmp_path / "o") == 3
    assert "u=1/10000000000" in capsys.readouterr().err


def test_filter_parse_error_exits_2(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_text("01\n0\n")
    assert run_cli("filter", wafer, "--out", tmp_path / "o") == 2


def test_filter_non_utf8_exits_2(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_bytes(b"010\n1\xff1\n010\n")
    assert run_cli("filter", wafer, "--out", tmp_path / "o") == 2


def test_cluster_and_evaluate_roundtrip(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_text("110000\n110000\n000011\n000011\n")
    out = tmp_path / "cl"
    assert run_cli(
        "cluster", wafer, "--iters", "30", "--burn-in", "10", "--seed", "1",
        "--out", out,
    ) == 0
    doc = json.loads((out / "assignments.json").read_text())
    assert doc["n"] == 8
    assert set(doc["assignments"]) == {
        "0,0", "0,1", "1,0", "1,1", "2,4", "2,5", "3,4", "3,5"
    }
    latent = json.loads((out / "latent.json").read_text())
    assert len(latent["points"]) == 8

    # evaluate against itself (as an assignments-style truth): perfect scores
    ev = tmp_path / "ev"
    assert run_cli(
        "evaluate", "--pred", out / "assignments.json",
        "--truth", out / "assignments.json", "--out", ev,
    ) == 0
    report = json.loads((ev / "report.json").read_text())
    assert report["ri"] == 1.0
    assert report["ari"] == 1.0
    assert report["nmi"] == 1.0
    assert report["n_points"] == 8


def test_cluster_empty_defects_exits_4(tmp_path, capsys):
    wafer = tmp_path / "in.txt"
    wafer.write_text("000\n000\n")
    assert run_cli("cluster", wafer, "--out", tmp_path / "o") == 4
    assert "defective" in capsys.readouterr().err


def test_cluster_seeded_rerun_identical_bytes(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_text("11100\n11100\n00011\n")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "cluster", wafer, "--iters", "25", "--burn-in", "5", "--seed", "7",
            "--out", out,
        ) == 0
    assert (a / "assignments.json").read_bytes() == (b / "assignments.json").read_bytes()
    assert (a / "latent.json").read_bytes() == (b / "latent.json").read_bytes()


def test_evaluate_coordinate_mismatch_exits_5(tmp_path):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,0": 1, "0,1": 1}}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"assignments": {"0,0": 1, "5,5": 1}}))
    assert run_cli("evaluate", "--pred", pred, "--truth", truth,
                   "--out", tmp_path / "o") == 5


def test_evaluate_with_reconstruction(tmp_path):
    wafer = tmp_path / "w.txt"
    wafer.write_text(
        "1110000\n1110000\n1110000\n0000000\n0000111\n0000111\n0000111\n"
    )
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({
        "assignments": {
            "0,0": 1, "0,1": 1, "1,0": 1, "1,1": 1,
            "4,4": 2, "4,5": 2, "5,4": 2, "5,5": 2,
        }
    }))
    out = tmp_path / "o"
    # --wafer without --reconstruct is a configuration error
    assert run_cli("evaluate", "--pred", pred, "--wafer", wafer, "--out", out) == 3
    assert not (out / "report.json").exists()
    assert run_cli("evaluate", "--pred", pred, "--wafer", wafer,
                   "--reconstruct", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ri"] == 1.0


def test_evaluate_single_cluster_pred_ch_undefined(tmp_path):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,0": 1, "0,1": 1, "3,3": 1}}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"assignments": {"0,0": 1, "0,1": 1, "3,3": 2}}))
    out = tmp_path / "o"
    assert run_cli("evaluate", "--pred", pred, "--truth", truth, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ch"] is None
    assert "ch" in report["flags"]


def test_generate_writes_sidecar(tmp_path):
    out = tmp_path / "gen"
    assert run_cli(
        "generate", "--family", "donut_partial_ring", "--rows", "20", "--cols", "20",
        "--noise", "0.02", "--seed", "9", "--out", out,
    ) == 0
    m = parse_wafer((out / "wafer.txt").read_bytes())
    assert m.rows == 20
    truth = json.loads((out / "truth.json").read_text())
    assert truth["family"] == "donut_partial_ring"
    assert truth["labels"]
    assert truth["regions"]
    # labels only on defective cells
    grid = m.grid()
    for key, val in truth["labels"].items():
        r, c = map(int, key.split(","))
        assert grid[r, c] == 2


def test_generate_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("generate", "--family", "scratch_pair", "--seed", "3",
                       "--out", out) == 0
    assert (a / "wafer.txt").read_bytes() == (b / "wafer.txt").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


def test_render_single_defective(tmp_path):
    wafer = tmp_path / "w.txt"
    wafer.write_text("1\n")
    out = tmp_path / "r" / "map.svg"
    assert run_cli("render", wafer, "--out", out) == 0
    svg = out.read_text()
    assert svg.count("<rect") == 2  # background + the one cell
    assert "#c62828" in svg


def test_render_deterministic_and_palette(tmp_path):
    wafer = tmp_path / "w.txt"
    wafer.write_text(CROSS)
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assignments = tmp_path / "assign.json"
    assignments.write_text(json.dumps({"assignments": {"0,1": 1, "1,0": 2, "1,2": 11}}))
    for out in (out1, out2):
        assert run_cli("render", wafer, "--assignments", assignments, "--out", out) == 0
    assert out1.read_bytes() == out2.read_bytes()
    svg = out1.read_text()
    assert cluster_color(1) in svg
    assert cluster_color(2) in svg
    # palette cycles after 10 clusters
    assert cluster_color(11) == PALETTE[0]


def test_render_mask_blank():
    m = parse_wafer(".1.\n111\n.1.\n")
    svg = render_svg(m)
    assert svg.count("<rect") == 1 + 5  # background + five in-mask cells


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


# -- compare machinery (fast paths only; the full pipeline runs in the
#    acceptance suite) ----------------------------------------------------

def _row(wafer, family, method, param, seed, **metrics):
    base = {
        "wafer": wafer, "family": family, "method": method, "param": param,
        "fit_seed": seed, "n_points": 10, "k_hat": 2,
        "ch": None, "gdi": None, "ri": None, "ari": None,
        "nmi": None, "nmi_sqrt": None,
    }
    base.update(metrics)
    return base


def test_improvements_zero_for_identical_methods():
    rows = []
    for wafer in ("w0", "w1"):
        for method, param in (("ac", "0.5"), ("cpf", "5")):
            rows.append(_row(wafer, "two_zone", method, param, 0,
                             ch=10.0, gdi=0.5, ri=0.9, ari=0.8, nmi=0.7))
    imps = compute_improvements(rows)
    assert imps
    assert all(entry["improvement_pct"] == 0.0 for entry in imps)


def test_improvements_sign():
    rows = [
        _row("w0", "f", "ac", "0.5", 0, ch=20.0, gdi=1.0, ri=1.0, ari=1.0, nmi=0.9),
        _row("w0", "f", "cpf", "5", 0, ch=10.0, gdi=2.0, ri=0.5, ari=0.5, nmi=0.45),
    ]
    by_metric = {e["metric"]: e["improvement_pct"] for e in compute_improvements(rows)}
    assert by_metric["ch"] == pytest.approx(100.0)
    assert by_metric["gdi"] == pytest.approx(-50.0)
    assert by_metric["nmi"] == pytest.approx(100.0)


def test_wilcoxon_summary_fewer_than_two_wafers():
    rows = [
        _row("w0", "f", "ac", "0.5", 0, nmi=0.9),
        _row("w0", "f", "cpf", "5", 0, nmi=0.8),
    ]
    out = compute_wilcoxon(rows)
    assert out["nmi_m5"]["p_two_sided"] is None
    assert out["nmi_m5"]["reason"] == "fewer than 2 wafers"


def test_wilcoxon_summary_defined():
    rows = []
    for i, delta in enumerate([0.1, 0.2, 0.05, 0.15]):
        rows.append(_row(f"w{i}", "f", "ac", "0.5", 0, nmi=0.7 + delta))
        rows.append(_row(f"w{i}", "f", "cpf", "5", 0, nmi=0.7))
    out = compute_wilcoxon(rows)
    assert out["nmi_m5"]["p_two_sided"] == pytest.approx(2 / 16)
    assert out["nmi_m5"]["exact"]


def test_comparison_columns_documented():
    assert COMPARISON_COLUMNS == (
        "wafer", "family", "method", "param", "fit_seed", "n_points", "k_hat",
        "ch", "gdi", "ri", "ari", "nmi", "nmi_sqrt",
    )


def test_compare_two_wafers_schema(tmp_path):
    for i, text in enumerate((CROSS, HOLE)):
        d = tmp_path / f"w{i}"
        d.mkdir()
        (d / "wafer.txt").write_text(text)
    out = tmp_path / "cmp"
    assert run_cli(
        "compare", tmp_path / "w0" / "wafer.txt", tmp_path / "w1" / "wafer.txt",
        "--m-list", "1", "--seeds", "1", "--iters", "12", "--burn-in", "4",
        "--out", out,
    ) == 0
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(COMPARISON_COLUMNS)
    # 2 wafers x 2 methods x 1 seed
    assert len(lines) == 1 + 4
    assert (out / "improvements.csv").exists()
    assert (out / "wilcoxon.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "compare"
