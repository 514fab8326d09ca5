import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import inspect
import io
import itertools
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import oracles
from waferspr import cli, iwmm
from waferspr.cli import (
    COMPARISON_COLUMNS,
    build_parser,
    compute_improvements,
    compute_wilcoxon,
    main,
    reconstructed_truth,
    run_comparison,
)
from waferspr.acfilter import AcConfig, ac_filter
from waferspr.errors import ConfigError, CoordinateMismatchError, EmptyInputError, ParseError
from waferspr.render import PALETTE, cluster_color, render_svg
from waferspr.synthgen import FAMILIES, family_specs, generate, twelve_wafer_corpus
from waferspr.validation import evaluation_report, reconstruct_ground_truth
from waferspr.wafer import CellState, Neighborhood, components, parse_wafer

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
    # capacities scaled by 2: flow = 2 * (objective + w_mag * n_defective) = 2 * (-7 + 8)
    assert summary["counters"] == {"max_flow_value": 2, "cut_edges": 0,
                                   "kept_functional": 1, "dropped_defective": 0}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "filter"
    assert manifest["config"]["u"] == "1/2"


def test_filter_cpf(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_text("1111100\n0000000\n")
    out = tmp_path / "out"
    assert run_cli("filter", wafer, "--method", "cpf", "--m", "5", "--out", out) == 0
    assert (out / "filtered.txt").read_text() == "1111100\n0000000\n"
    counters = json.loads((out / "summary.json").read_text())["counters"]
    assert (counters["components_exact"], counters["components_approx"]) == (1, 0)
    assert counters["budget_spent"] > 0
    assert run_cli("filter", wafer, "--method", "cpf", "--m", "6",
                   "--out", tmp_path / "out6") == 0
    assert (tmp_path / "out6" / "filtered.txt").read_text() == "0000000\n0000000\n"


def test_filter_bad_u_exits_3(tmp_path, capsys):
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    assert run_cli("filter", wafer, "--u", "-1", "--out", tmp_path / "o") == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--w-mag", "0"), ("--method", "cpf", "--m", "0")])
def test_filter_bad_config_exits_3(tmp_path, capsys, flags):
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    assert run_cli("filter", wafer, *flags, "--out", tmp_path / "o") == 3
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_filter_u_beyond_solver_range_exits_3(tmp_path, capsys):
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    assert run_cli("filter", wafer, "--u", "1e-10", "--out", tmp_path / "o") == 3
    assert "u=1/10000000000" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("filter", "--u", "1/0"),
    ("filter", "--w-mag", "0/0"),
    ("compare", "--u", "1/0"),
    ("compare", "--u-scratch", "1/0"),
])
def test_zero_denominator_exits_3(tmp_path, capsys, flags):
    command, flag, value = flags
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    out = tmp_path / "o"
    extra = ("--seeds", "1", "--iters", "3", "--burn-in", "1") if command == "compare" else ()
    assert run_cli(command, wafer, flag, value, *extra, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zero denominator" in err and "Traceback" not in err
    assert not out.exists()


def test_filter_parse_error_exits_2(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_text("01\n0\n")
    assert run_cli("filter", wafer, "--out", tmp_path / "o") == 2


def test_filter_csv_cell_no_writer_writes_exits_2(tmp_path, capsys):
    wafer = tmp_path / "in.csv"
    wafer.write_text("0,1,0\n1,+1,1\n0,1,0\n")
    assert run_cli("filter", wafer, "--out", tmp_path / "o") == 2
    assert "unknown symbol '+1' at line 2, field 1" in capsys.readouterr().err


def test_filter_non_utf8_exits_2(tmp_path):
    wafer = tmp_path / "in.txt"
    wafer.write_bytes(b"010\n1\xff1\n010\n")
    assert run_cli("filter", wafer, "--out", tmp_path / "o") == 2


FILTER_RUNS = (
    ("--method", "ac"),
    ("--method", "cpf", "--m", "5", "--neighborhood", "rook"),
    ("--method", "cpf", "--m", "5", "--neighborhood", "king"),
    ("--method", "cpf", "--m", "10", "--neighborhood", "rook"),
    ("--method", "cpf", "--m", "10", "--neighborhood", "king"),
    ("--method", "cpf", "--m", "3", "--neighborhood", "rook"),
    ("--method", "cpf", "--m", "3", "--neighborhood", "king"),
    ("--method", "ac", "--u", "0"),
)


def test_filter_outputs_pinned(tmp_path):
    """SHA-256 of `filter`'s summary.json and filtered.txt on a seeded
    38x38 wafer of every family, for AC at its defaults and at u = 0 and
    CPF at M = 3, 5 and 10, rook and king.  The outputs come from exact
    integer and rational arithmetic, so the digest does not depend on the
    machine; it guards the labels and the solver counters, CPF's
    `budget_spent` among them."""
    digest = hashlib.sha256()
    for family in FAMILIES:
        gen = tmp_path / family
        assert run_cli("generate", "--family", family, "--noise", "0.1", "--seed", "31",
                       "--out", gen) == 0
        for i, flags in enumerate(FILTER_RUNS):
            out = tmp_path / f"{family}-{i}"
            assert run_cli("filter", gen / "wafer.txt", *flags, "--out", out) == 0
            for name in ("summary.json", "filtered.txt"):
                digest.update((out / name).read_bytes())
    assert digest.hexdigest() == (
        "1cb83a444719cad09a2a90dd62d65343fc35b9d9daa2553abc5de017a7d4014e")


@pytest.mark.parametrize("flags,flag", [
    (("--method", "ac", "--m", "5"), "--m"),
    (("--method", "cpf", "--u", "0.5"), "--u"),
    (("--method", "cpf", "--w-mag", "1"), "--w-mag"),
])
def test_filter_flag_of_other_method_exits_3(tmp_path, capsys, flags, flag):
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    out = tmp_path / "o"
    assert run_cli("filter", wafer, *flags, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("method,defaults", [
    ("ac", ("--u", "0.5", "--w-mag", "1", "--neighborhood", "king")),
    ("cpf", ("--m", "5", "--neighborhood", "king")),
])
def test_filter_flags_left_out_take_config_defaults(tmp_path, method, defaults):
    wafer = tmp_path / "in.txt"
    wafer.write_text("1111100\n0100011\n0111000\n")
    implicit, explicit = tmp_path / "implicit", tmp_path / "explicit"
    assert run_cli("filter", wafer, "--method", method, "--out", implicit) == 0
    assert run_cli("filter", wafer, "--method", method, *defaults, "--out", explicit) == 0
    for name in ("summary.json", "filtered.txt", "manifest.json"):
        assert (implicit / name).read_bytes() == (explicit / name).read_bytes()
    # an explicit --neighborhood still overrides the config's
    rook = tmp_path / "rook"
    assert run_cli("filter", wafer, "--method", method, "--neighborhood", "rook",
                   "--out", rook) == 0
    assert json.loads((rook / "manifest.json").read_text())["config"]["neighborhood"] == "rook"
    assert (rook / "summary.json").read_bytes() != (implicit / "summary.json").read_bytes()


def test_options_left_out_take_the_defaults_of_what_they_feed():
    """The parser writes no default of its own for an option that feeds a
    config or a function: left out, the option is None (filter) or that
    config's or function's default."""
    parse = build_parser().parse_args
    args = parse(["filter", "w.txt", "--out", "o"])
    assert (args.u, args.w_mag, args.m, args.neighborhood) == (None, None, None, None)
    args = parse(["cluster", "w.txt", "--out", "o"])
    mcmc, hyper = iwmm.McmcConfig(), iwmm.GwHyper()
    assert (args.iters, args.burn_in, args.alpha) == (mcmc.iters, mcmc.burn_in, hyper.alpha)
    args = parse(["evaluate", "--pred", "p.json", "--out", "o"])
    report_keywords = inspect.signature(evaluation_report).parameters
    assert args.nmi_normalizer == report_keywords["nmi_normalizer"].default
    args = parse(["compare", "w.txt", "--out", "o"])
    keywords = inspect.signature(run_comparison).parameters
    settings = set(keywords) - {"wafer_paths", "progress", "counters"}
    assert settings == set(cli.COMPARE_SETTINGS)
    for name in settings:
        value = getattr(args, name)
        if name == "m_list":
            value = tuple(int(m) for m in value.split(","))
        assert value == keywords[name].default, name


@pytest.mark.parametrize("error,code", [
    (ParseError("x.txt: not a wafer"), 2),
    (ConfigError("--u: bad"), 3),
    (ValueError("bad value"), 3),
    (EmptyInputError("no chips"), 4),
    (CoordinateMismatchError("other chips"), 5),
])
def test_main_exits_with_the_code_of_each_error(tmp_path, monkeypatch, capsys, error, code):
    """A command that fails raises; main prints one error line and exits
    with the code of the error's type."""
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_render", failing)
    assert run_cli("render", "w.txt", "--out", tmp_path / "r.svg") == code
    assert capsys.readouterr().err == f"error: {error}\n"


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
    assert doc["trace_summary"]["jitter_escalations"] == 0
    assert doc["trace_summary"]["hmc_numerical_rejections"] == 0
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


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_cluster_non_finite_alpha_exits_3(tmp_path, capsys, alpha):
    wafer = tmp_path / "in.txt"
    wafer.write_text(CROSS)
    out = tmp_path / "o"
    assert run_cli("cluster", wafer, "--iters", "6", "--burn-in", "2", "--alpha", alpha,
                   "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("schedule", [("--iters", "5", "--burn-in", "5"), ("--burn-in", "-1")])
def test_cluster_bad_schedule_exits_3(tmp_path, capsys, schedule):
    wafer = tmp_path / "in.txt"
    wafer.write_text(CROSS)
    out = tmp_path / "o"
    assert run_cli("cluster", wafer, *schedule, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


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


def test_cluster_timings_beside_the_bytes_of_the_per_point_oracles(tmp_path, monkeypatch):
    """`cluster` writes its wall-clock seconds to timings.json, outside
    the seeded files; those keep the bytes that the per-point Gibbs step
    and the numpy latent marginal of tests/oracles.py give."""
    assert run_cli("generate", "--family", "two_zone", "--rows", "20", "--cols", "20",
                   "--seed", "4", "--out", tmp_path / "gen") == 0
    wafer = tmp_path / "gen" / "wafer.txt"
    run = ("cluster", wafer, "--iters", "30", "--burn-in", "10", "--seed", "3", "--out")
    assert run_cli(*run, tmp_path / "fast") == 0
    timings = json.loads((tmp_path / "fast" / "timings.json").read_text())
    assert sorted(timings) == ["fit_s", "gibbs_s", "gplvm_field_s", "gplvm_ll_s", "hmc_s"]
    assert 0 < timings["gibbs_s"] + timings["hmc_s"] <= timings["fit_s"]
    assert timings["gplvm_ll_s"] > 0 and timings["gplvm_field_s"] > 0
    assert timings["gplvm_ll_s"] + timings["gplvm_field_s"] <= timings["hmc_s"]

    def per_point_sweep(state, rng):
        for i in range(state.A.shape[0]):
            oracles.gibbs_assignment_step(state, i, state.h, rng)

    def numpy_marginal(Z, members, h):
        A = np.zeros(Z.shape[0], dtype=np.int64)
        for label, idx in enumerate(members, 1):
            A[idx] = label
        return oracles.marginal_and_grad(Z, A, h)

    monkeypatch.setattr(iwmm, "gibbs_sweep", per_point_sweep)
    monkeypatch.setattr(iwmm, "_marginal_and_grad", numpy_marginal)
    monkeypatch.setattr(iwmm.LatentState, "marginal_log",
                        lambda state: oracles.marginal_log_from_sums(state._sums, state.h))
    assert run_cli(*run, tmp_path / "oracle") == 0
    for name in ("assignments.json", "latent.json", "manifest.json"):
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()


def test_evaluate_coordinate_mismatch_exits_5(tmp_path):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,0": 1, "0,1": 1}}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"assignments": {"0,0": 1, "5,5": 1}}))
    assert run_cli("evaluate", "--pred", pred, "--truth", truth,
                   "--out", tmp_path / "o") == 5


def test_evaluate_pairs_labels_by_coordinate_not_key_order(tmp_path):
    labels = {"10,0": 1, "2,0": 1, "2,1": 2, "0,5": 2, "0,6": 3}
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": labels}))
    reports = []
    for name, order in (("same", list(labels)), ("reversed", list(labels)[::-1])):
        truth = tmp_path / f"truth_{name}.json"
        truth.write_text(json.dumps({"assignments": {k: labels[k] for k in order}}))
        out = tmp_path / name
        assert run_cli("evaluate", "--pred", pred, "--truth", truth, "--out", out) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


MALFORMED_ASSIGNMENTS = {
    "no_assignments": '{"k_hat": 1}',
    "list_document": "[1,2]",
    "list_assignments": '{"assignments": [1, 2]}',
    "bad_key": '{"assignments": {"0,0": 1, "1,x": 2}}',
    "three_part_key": '{"assignments": {"0,0,0": 1}}',
    "string_label": '{"assignments": {"0,0": "a"}}',
    "float_label": '{"assignments": {"0,0": 1.5}}',
    "not_json": "assignments: 0,0",
    "not_utf8": b"\xff\xfe{",
    "utf16": '{"assignments": {"0,1": 1}}'.encode("utf-16"),
    "repeated_chip": '{"assignments": {"1,1": 1, "01,1": 2, "0,1": 1}}',
    "duplicate_key": '{"assignments": {"1,1": 1, "1,1": 2}}',
    "underscore_key": '{"assignments": {"1_0,2": 1}}',
    "spaced_signed_key": '{"assignments": {" 3 ,+4": 1}}',
    "arabic_indic_key": '{"assignments": {"\u0663,1": 1}}',
    "leading_zero_key": '{"assignments": {"01,1": 1}}',
    "negative_zero_key": '{"assignments": {"-0,1": 1}}',
}


@pytest.mark.parametrize("role", ["pred", "truth", "render"])
@pytest.mark.parametrize("case", MALFORMED_ASSIGNMENTS)
def test_malformed_assignments_exit_2(tmp_path, capsys, role, case):
    wafer = tmp_path / "w.txt"
    wafer.write_text(CROSS)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"assignments": {"0,1": 1, "1,0": 1, "1,1": 2}}))
    bad = tmp_path / "bad.json"
    doc = MALFORMED_ASSIGNMENTS[case]
    if isinstance(doc, bytes):
        bad.write_bytes(doc)
    else:
        bad.write_text(doc)
    out = tmp_path / "o"
    if role == "render":
        argv = ("render", wafer, "--assignments", bad, "--out", out / "map.svg")
    else:
        pred, truth = (bad, good) if role == "pred" else (good, bad)
        argv = ("evaluate", "--pred", pred, "--truth", truth, "--out", out)
    if role == "truth" and case == "no_assignments":
        # an object without "assignments" is read as a truth.json sidecar
        assert run_cli(*argv) == 0
        return
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not out.exists()


def test_a_second_key_for_a_chip_is_not_row_col():
    doc = json.loads(MALFORMED_ASSIGNMENTS["repeated_chip"])
    with pytest.raises(ParseError, match="a.json: coordinate key '01,1' is not \"row,col\""):
        cli._chip_table(doc, "assignments", "a.json")


MALFORMED_SIDECARS = {
    "list_document": "[1]",
    "not_json": "regions: 0,0",
    "not_utf8": b"\xff\xfe{",
    "list_regions": '{"regions": [1]}',
    "string_label": '{"labels": {"0,1": "3"}}',
    "float_label": '{"labels": {"0,1": 3.0}}',
    "bool_region": '{"regions": {"0,1": true}}',
    "list_family": '{"family": ["x"]}',
    "number_family": '{"family": 3}',
    "bad_key": '{"labels": {"0,1": 1, "junk": 7}}',
    "repeated_chip": '{"regions": {"1,1": 2, "1,01": 2}}',
    "duplicate_key": '{"regions": {"1,1": 2, "1,1": 3}}',
}


@pytest.mark.parametrize("role", ["evaluate", "compare", "compare_sidecar_truth"])
@pytest.mark.parametrize("case", MALFORMED_SIDECARS)
def test_malformed_sidecar_exits_2(tmp_path, capsys, role, case):
    wafer = tmp_path / "w" / "wafer.txt"
    wafer.parent.mkdir()
    wafer.write_text(CROSS)
    sidecar = wafer.parent / "truth.json"
    doc = MALFORMED_SIDECARS[case]
    if isinstance(doc, bytes):
        sidecar.write_bytes(doc)
    else:
        sidecar.write_text(doc)
    out = tmp_path / "o"
    if role == "evaluate":
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"assignments": {"0,1": 1, "1,0": 1, "1,1": 2}}))
        argv = ("evaluate", "--pred", pred, "--truth", sidecar, "--out", out)
    else:
        argv = ("compare", wafer, "--seeds", "1", "--iters", "3", "--burn-in", "1",
                "--out", out)
        if role == "compare_sidecar_truth":
            argv += ("--truth", "sidecar")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(sidecar) in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


# Each command with an unreadable input: "BAD" stands for the input, in
# the role the entry names; the other inputs are valid.
UNREADABLE_ROLES = {
    "filter": ("filter", "BAD", "--out", "OUT"),
    "cluster": ("cluster", "BAD", "--out", "OUT"),
    "evaluate_pred": ("evaluate", "--pred", "BAD", "--truth", "PRED", "--out", "OUT"),
    "evaluate_truth": ("evaluate", "--pred", "PRED", "--truth", "BAD", "--out", "OUT"),
    "evaluate_wafer": ("evaluate", "--pred", "PRED", "--wafer", "BAD", "--out", "OUT"),
    "render": ("render", "BAD", "--out", "OUT/map.svg"),
    "render_assignments": ("render", "WAFER", "--assignments", "BAD", "--out", "OUT/map.svg"),
    "compare": ("compare", "WAFER", "BAD", "--seeds", "1", "--iters", "3", "--burn-in", "1",
                "--out", "OUT"),
}


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("role", UNREADABLE_ROLES)
def test_unreadable_input_exits_2(tmp_path, capsys, role, kind):
    wafer = tmp_path / "w.txt"
    wafer.write_text(CROSS)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,1": 1, "1,0": 1, "1,1": 2}}))
    bad = tmp_path / "bad.txt"
    if kind == "directory":
        bad.mkdir()
    out = tmp_path / "o"
    names = {"BAD": str(bad), "PRED": str(pred), "WAFER": str(wafer), "OUT": str(out)}
    argv = [names.get(arg, arg).replace("OUT/", f"{out}/") for arg in UNREADABLE_ROLES[role]]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_evaluate_format_picks_the_wafer_parser(tmp_path):
    wafer = tmp_path / "w.dat"
    wafer.write_text("1,1,0\n1,1,0\n0,0,0\n")
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,0": 1, "0,1": 1, "1,0": 1, "1,1": 1}}))
    # not named .csv, but its commas make it a CSV wafer
    out = tmp_path / "o"
    assert run_cli("evaluate", "--pred", pred, "--wafer", wafer, "--out", out) == 0
    assert json.loads((out / "report.json").read_text())["ri"] == 1.0


# The hole as a CSV wafer (0/1/2 = no-die/pass/fail).
HOLE_CSV = "2,2,2\n2,1,2\n2,2,2\n"


@pytest.mark.parametrize("suffix", [".dat", ".txt"])
def test_comma_separated_wafer_reads_as_csv_under_any_name(tmp_path, suffix):
    """filter, evaluate --wafer and compare read a CSV wafer not named
    .csv, with no flag, as they read the same wafer in ASCII."""
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,0": 1, "0,1": 1, "1,0": 2, "2,2": 2}}))
    outs = {}
    for kind, name, text in (("ascii", "wafer.txt", HOLE), ("csv", f"wafer{suffix}", HOLE_CSV)):
        wafer = tmp_path / kind / "w0" / name
        wafer.parent.mkdir(parents=True)
        wafer.write_text(text)
        out = outs[kind] = tmp_path / kind / "out"
        assert run_cli("filter", wafer, "--out", out / "filter") == 0
        assert run_cli("evaluate", "--pred", pred, "--wafer", wafer,
                       "--out", out / "evaluate") == 0
        assert run_cli("compare", wafer, "--m-list", "1", "--seeds", "1", "--iters", "12",
                       "--burn-in", "4", "--out", out / "compare") == 0
    for name in ("filter/filtered.txt", "filter/summary.json", "evaluate/report.json",
                 "compare/comparison.csv", "compare/wilcoxon.json"):
        assert (outs["csv"] / name).read_bytes() == (outs["ascii"] / name).read_bytes()


@pytest.mark.parametrize("name", ["w.csv", "W.CSV"])
def test_single_column_csv_wafer_reads_as_csv(tmp_path, name):
    # no comma, but the name makes it CSV; as ASCII, "2" is no chip state
    wafer = tmp_path / name
    wafer.write_text("2\n1\n2\n")
    read = cli._read_wafer(wafer)
    assert (read.rows, read.cols, read.n_defective) == (3, 1, 2)
    assert np.array_equal(read.grid(), parse_wafer(b"2\n1\n2\n", fmt="csv").grid())


def test_sidecar_lookup_prefers_region_to_label():
    family, truth = cli._sidecar_of(
        {"regions": {"0,0": 2, "0,1": 4}, "labels": {"0,0": 1, "1,1": 3}}, "t.json")
    assert family == ""
    assert [truth.get(rc, 0) for rc in ((0, 0), (0, 1), (1, 1), (2, 2))] == [2, 4, 3, 0]


@pytest.mark.parametrize("extra", [("--wafer", "WAFER")])
def test_evaluate_truth_refuses_wafer_flags(tmp_path, capsys, extra):
    wafer = tmp_path / "w.txt"
    wafer.write_text(CROSS)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,1": 1, "1,0": 1, "1,1": 2}}))
    out = tmp_path / "o"
    extra = [wafer if arg == "WAFER" else arg for arg in extra]
    assert run_cli("evaluate", "--pred", pred, "--truth", pred, *extra, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and extra[0] in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_takes_one_of_truth_and_wafer(tmp_path, capsys):
    wafer = tmp_path / "w.txt"
    wafer.write_text(CROSS)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,1": 1, "1,0": 1, "1,1": 2}}))
    out = tmp_path / "o"
    assert run_cli("evaluate", "--pred", pred, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--truth" in err and "--wafer" in err
    assert not out.exists()
    # --wafer alone scores against the reconstruction; --reconstruct is gone
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", "--pred", pred, "--wafer", wafer, "--reconstruct", "--out", out)
    assert exc.value.code == 2
    assert not out.exists()


def test_evaluate_one_cluster_partition_gives_typed_null(tmp_path):
    """A one-cluster truth against a four-cluster prediction: the sqrt NMI
    normalizer is zero, so nmi_sqrt is a typed null with its reason."""
    chips = [f"{r},{c}" for r in range(4) for c in range(4)][:13]
    labels = [1] * 4 + [2] * 3 + [3] * 3 + [4] * 3
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": dict(zip(chips, labels))}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"labels": {key: 1 for key in chips}}))
    out = tmp_path / "o"
    assert run_cli("evaluate", "--pred", pred, "--truth", truth, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["nmi_sqrt"] is None
    assert report["flags"]["nmi_sqrt"] == "zero normalizer"


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
    assert run_cli("evaluate", "--pred", pred, "--wafer", wafer, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ri"] == 1.0


def test_truth_lookup_outside_grid_is_zero():
    truth = reconstructed_truth(parse_wafer("111\n111\n111\n"))
    assert truth[0, 0] == truth[2, 2] == 1
    for rc in ((-1, -1), (-1, 0), (0, -1), (3, 0), (0, 3), (-3, -3)):
        assert rc not in truth


@pytest.mark.parametrize("family", FAMILIES)
def test_reconstructed_truth_covers_exactly_the_in_mask_chips(family):
    for seed in (0, 1):
        wmap = generate(24, 30, family_specs(family), 0.1, seed).map
        truth = reconstructed_truth(wmap)
        inside = wmap.in_mask()
        assert set(truth) == set(zip(*np.nonzero(inside)))
        comp = components(reconstruct_ground_truth(wmap).grid() == CellState.DEFECTIVE,
                          Neighborhood.KING)
        assert all(truth[r, c] == comp[r, c] for r, c in truth)
        assert (~inside).any() and max(truth.values()) > 0


@pytest.mark.parametrize("chips", [
    {"50,50": 2, "-1,-1": 2},  # off the grid
    {"0,0": 2},                # on the grid, outside the mask
])
def test_evaluate_wafer_refuses_chips_off_the_wafer(tmp_path, capsys, chips):
    wafer = tmp_path / "w.txt"
    wafer.write_text(".11\n111\n111\n")
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"1,1": 1, "2,2": 1, **chips}}))
    out = tmp_path / "o"
    assert run_cli("evaluate", "--pred", pred, "--wafer", wafer, "--out", out) == 5
    assert "cover different coordinates" in capsys.readouterr().err
    assert not out.exists()
    # the same prediction on its in-mask chips alone is scored
    pred.write_text(json.dumps({"assignments": {"1,1": 1, "2,2": 1}}))
    assert run_cli("evaluate", "--pred", pred, "--wafer", wafer, "--out", out) == 0


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


def test_generate_format_csv_writes_wafer_csv(tmp_path):
    for fmt in ("ascii", "csv"):
        assert run_cli("generate", "--family", "two_zone", "--seed", "5", "--format", fmt,
                       "--out", tmp_path / fmt) == 0
    assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == [
        "manifest.json", "truth.json", "wafer.csv"]
    written = parse_wafer((tmp_path / "csv" / "wafer.csv").read_bytes(), fmt="csv")
    assert np.array_equal(written.grid(),
                          parse_wafer((tmp_path / "ascii" / "wafer.txt").read_bytes()).grid())


def _load_script(name):
    """The module of scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(
        f"{name}_script", Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_comparison_script_sidecars_match_generate(tmp_path):
    """write_corpus writes each corpus wafer's wafer.txt and truth.json
    with the bytes `waferspr generate` writes for its family and seed, and
    scripts/run_comparison.py writes that corpus and runs compare on it."""
    corpus = tmp_path / "corpus"
    paths = cli.write_corpus(corpus)
    assert paths == [corpus / f"w{idx:02d}" / "wafer.txt" for idx in range(12)]
    for idx, ((family, _), path) in enumerate(zip(twelve_wafer_corpus(), paths)):
        gen = tmp_path / "gen" / str(idx)
        assert run_cli("generate", "--family", family, "--seed", 100 + idx,
                       "--out", gen) == 0
        for name in ("wafer.txt", "truth.json"):
            assert (path.parent / name).read_bytes() == (gen / name).read_bytes()

    out = tmp_path / "cmp"
    assert _load_script("run_comparison").main(
        ["--out", str(out), "--seeds", "1", "--iters", "4", "--burn-in", "2"]) == 0
    for path in paths:
        wafer_dir = out / "wafers" / path.parent.name
        assert sorted(p.name for p in wafer_dir.iterdir()) == [
            "raw.svg", "truth.json", "wafer.txt"]
        for name in ("wafer.txt", "truth.json"):
            assert (wafer_dir / name).read_bytes() == (path.parent / name).read_bytes()
    for name in ("comparison.csv", "improvements.csv", "wilcoxon.json", "manifest.json",
                 "timings.json"):
        assert (out / name).exists()
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["seeds"], config["iters"], config["burn_in"]) == (1, 4, 2)
    with open(out / "comparison.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 12 * 3


def test_comparison_defaults_are_shared(tmp_path, monkeypatch):
    """compare, run_comparison and scripts/run_comparison.py fit the same
    number of seeds over the same M list on the same schedule, and the
    script's corpus is twelve_wafer_corpus's default one."""
    args = cli.build_parser().parse_args(["compare", "w.txt", "--out", "o"])
    keywords = inspect.signature(run_comparison).parameters
    assert args.seeds == keywords["seeds"].default
    assert tuple(int(m) for m in args.m_list.split(",")) == keywords["m_list"].default
    calls = {}

    def no_fits(paths, counters, **kw):
        calls.update(kw, paths=paths)
        counters.update(fit_requests=0, fits_run=0, workers=1, wall_seconds={})
        return []

    monkeypatch.setattr(cli, "run_comparison", no_fits)
    out = tmp_path / "cmp"
    assert _load_script("run_comparison").main(["--out", str(out)]) == 0
    for name in ("seeds", "iters", "burn_in"):
        assert calls[name] == keywords[name].default
    assert tuple(calls["m_list"]) == keywords["m_list"].default
    corpus_keywords = inspect.signature(twelve_wafer_corpus).parameters
    writer_keywords = inspect.signature(cli.write_corpus).parameters
    for name in ("rows", "noise_rate", "base_seed"):
        assert writer_keywords[name].default == corpus_keywords[name].default
    default_corpus = cli.write_corpus(tmp_path / "corpus")
    assert [Path(p).parent.name for p in calls["paths"]] == [
        p.parent.name for p in default_corpus]
    for path, default in zip(calls["paths"], default_corpus):
        assert Path(path).read_bytes() == default.read_bytes()
    for name in ("comparison.csv", "improvements.csv", "wilcoxon.json", "manifest.json"):
        assert (out / name).exists()


def test_demo_pipeline_script_writes_its_files(tmp_path):
    """The demo runs each stage as a waferspr command, each into its own
    directory with its own manifest, and its summary holds what the
    commands wrote.  On scratch_pair AC takes compare's u_scratch: at
    u = 1/2 it kept none of that wafer's 139 defective chips."""
    for family in ("donut_partial_ring", "scratch_pair"):
        out = tmp_path / family
        _load_script("demo_pipeline").main(["--family", family, "--iters", "6",
                                            "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["ac", "cpf5"]
        manifests = {"generate/manifest.json": "generate", "raw/raw.manifest.json": "render"}
        for name in summary:
            manifests.update({f"{name}/{path}": command for path, command in (
                ("filter/manifest.json", "filter"), ("filtered/filtered.manifest.json", "render"),
                ("cluster/manifest.json", "cluster"), ("clusters/clusters.manifest.json", "render"),
                ("evaluate/manifest.json", "evaluate"))})
        for path, command in manifests.items():
            manifest = json.loads((out / path).read_text())
            assert manifest["command"] == command, path
        assert (out / "raw" / "raw.svg").exists()
        for name, result in summary.items():
            assert (out / name / "filtered" / "filtered.svg").exists()
            assert (out / name / "clusters" / "clusters.svg").exists()
            assert result["kept"] > 0
            assignments = json.loads((out / name / "cluster" / "assignments.json").read_text())
            assert result["k_hat"] == assignments["k_hat"] >= 1
            assert result["report"] == json.loads(
                (out / name / "evaluate" / "report.json").read_text())


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


def test_render_keeps_the_manifest_of_the_directory_it_writes_into(tmp_path):
    """A render into a filter's output directory writes its manifest beside
    its SVG, named after it, and leaves the filter's manifest.json."""
    wafer = tmp_path / "w.txt"
    wafer.write_text(CROSS)
    refit = tmp_path / "refit"
    assert run_cli("filter", wafer, "--out", refit) == 0
    filtered = (refit / "manifest.json").read_bytes()
    assert run_cli("render", wafer, "--out", refit / "x.svg") == 0
    assert (refit / "manifest.json").read_bytes() == filtered
    assert json.loads(filtered)["command"] == "filter"
    manifest = json.loads((refit / "x.manifest.json").read_text())
    assert manifest["command"] == "render" and manifest["config"] == {"out": "x.svg"}
    assert manifest["inputs"] == [str(wafer)]


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
                             ch=10.0, gdi=0.5, ri=0.9, ari=0.8, nmi=0.7, nmi_sqrt=0.6))
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


# Compare rows with the improvements and Wilcoxon summaries recorded for
# them before both were read from one AC-vs-CPF pairing.  The rows cover
# four wafers, CPF at M=5 and M=10, two fit seeds, None cells, a zero CPF
# median (w2's ch at M=5), an empty point set (w1 at M=10), tied
# differences (gdi at M=5), all-zero differences (ri at M=10) and a metric
# defined on one wafer only (ari at M=10).
PINNED_ROWS = [dict(zip(COMPARISON_COLUMNS, row)) for row in (
    ("w0", "center_zone", "ac", "0.5", 0, 40, 2, 120.0, 0.5, 0.9, 0.8, 0.75, 0.7),
    ("w0", "center_zone", "ac", "0.5", 1, 40, 3, 100.0, 0.25, 0.8, 0.6, 0.625, 0.6),
    ("w0", "center_zone", "cpf", "5", 0, 30, 2, 80.0, 0.5, 0.9, 0.5, 0.5, 0.55),
    ("w0", "center_zone", "cpf", "5", 1, 30, 2, 90.0, 0.5, 0.9, 0.7, 0.5, 0.5),
    ("w0", "center_zone", "cpf", "10", 0, 25, 1, None, None, 0.9, 0.0, 0.0, None),
    ("w0", "center_zone", "cpf", "10", 1, 25, 2, 60.0, 1.0, 0.8, 0.1, 0.25, 0.3),
    ("w1", "two_zone", "ac", "0.5", 0, 55, 2, 200.0, 0.125, 1.0, 1.0, 1.0, 1.0),
    ("w1", "two_zone", "ac", "0.5", 1, 55, 2, 180.0, 0.375, 0.9, 0.9, 0.875, 0.9),
    ("w1", "two_zone", "cpf", "5", 0, 50, 2, 150.0, 0.125, 0.9, 0.8, 0.75, 0.8),
    ("w1", "two_zone", "cpf", "5", 1, 50, 3, 170.0, 0.125, 0.9, 0.7, 0.625, 0.7),
    ("w1", "two_zone", "cpf", "10", 0, 0, None, None, None, None, None, None, None),
    ("w1", "two_zone", "cpf", "10", 1, 0, None, None, None, None, None, None, None),
    ("w2", "scratch_pair", "ac", "0.4", 0, 12, 1, None, None, 0.6, None, 0.5, None),
    ("w2", "scratch_pair", "ac", "0.4", 1, 12, 2, 30.0, 0.75, 0.6, None, 0.75, 0.4),
    ("w2", "scratch_pair", "cpf", "5", 0, 10, 2, 0.0, None, 0.6, 0.2, 0.5, 0.5),
    ("w2", "scratch_pair", "cpf", "5", 1, 10, 2, 0.0, 0.5, 0.6, 0.4, 0.5, 0.5),
    ("w2", "scratch_pair", "cpf", "10", 0, 10, 2, 20.0, 0.5, 0.6, 0.4, 0.25, 0.5),
    ("w2", "scratch_pair", "cpf", "10", 1, 10, 2, 20.0, 0.5, 0.6, 0.4, 0.25, 0.5),
    ("w3", "donut_partial_ring", "ac", "0.5", 0, 70, 3, 90.0, 0.5, 0.8, None, 0.875, 0.85),
    ("w3", "donut_partial_ring", "ac", "0.5", 1, 70, 3, 95.0, 0.5, 0.8, None, 0.625, 0.8),
    ("w3", "donut_partial_ring", "cpf", "5", 0, 66, 2, 85.0, 0.25, 0.8, 0.5, 0.5, 0.75),
    ("w3", "donut_partial_ring", "cpf", "5", 1, 66, 4, 85.0, 0.75, 0.8, 0.5, 0.5, 0.7),
    ("w3", "donut_partial_ring", "cpf", "10", 0, 60, 2, 70.0, 0.5, 0.8, 0.25, 0.5, 0.6),
    ("w3", "donut_partial_ring", "cpf", "10", 1, 60, 2, 80.0, 0.5, 0.8, 0.25, 0.5, 0.6),
)]

PINNED_IMPROVEMENTS = [
    ("w0", "center_zone", "10", "ch", 83.33333333333333),
    ("w0", "center_zone", "10", "gdi", -62.5),
    ("w0", "center_zone", "10", "ri", 0.0),
    ("w0", "center_zone", "10", "ari", 1299.9999999999995),
    ("w0", "center_zone", "10", "nmi", 450.0),
    ("w0", "center_zone", "10", "nmi_sqrt", 116.66666666666664),
    ("w0", "center_zone", "5", "ch", 29.41176470588235),
    ("w0", "center_zone", "5", "gdi", -25.0),
    ("w0", "center_zone", "5", "ri", -5.555555555555547),
    ("w0", "center_zone", "5", "ari", 16.666666666666664),
    ("w0", "center_zone", "5", "nmi", 37.5),
    ("w0", "center_zone", "5", "nmi_sqrt", 23.80952380952379),
    ("w1", "two_zone", "10", "ch", None),
    ("w1", "two_zone", "10", "gdi", None),
    ("w1", "two_zone", "10", "ri", None),
    ("w1", "two_zone", "10", "ari", None),
    ("w1", "two_zone", "10", "nmi", None),
    ("w1", "two_zone", "10", "nmi_sqrt", None),
    ("w1", "two_zone", "5", "ch", 18.75),
    ("w1", "two_zone", "5", "gdi", 100.0),
    ("w1", "two_zone", "5", "ri", 5.555555555555547),
    ("w1", "two_zone", "5", "ari", 26.66666666666666),
    ("w1", "two_zone", "5", "nmi", 36.36363636363637),
    ("w1", "two_zone", "5", "nmi_sqrt", 26.66666666666666),
    ("w2", "scratch_pair", "10", "ch", 50.0),
    ("w2", "scratch_pair", "10", "gdi", 50.0),
    ("w2", "scratch_pair", "10", "ri", 0.0),
    ("w2", "scratch_pair", "10", "ari", None),
    ("w2", "scratch_pair", "10", "nmi", 150.0),
    ("w2", "scratch_pair", "10", "nmi_sqrt", -19.999999999999996),
    ("w2", "scratch_pair", "5", "ch", None),
    ("w2", "scratch_pair", "5", "gdi", 50.0),
    ("w2", "scratch_pair", "5", "ri", 0.0),
    ("w2", "scratch_pair", "5", "ari", None),
    ("w2", "scratch_pair", "5", "nmi", 25.0),
    ("w2", "scratch_pair", "5", "nmi_sqrt", -19.999999999999996),
    ("w3", "donut_partial_ring", "10", "ch", 23.333333333333332),
    ("w3", "donut_partial_ring", "10", "gdi", 0.0),
    ("w3", "donut_partial_ring", "10", "ri", 0.0),
    ("w3", "donut_partial_ring", "10", "ari", None),
    ("w3", "donut_partial_ring", "10", "nmi", 50.0),
    ("w3", "donut_partial_ring", "10", "nmi_sqrt", 37.49999999999999),
    ("w3", "donut_partial_ring", "5", "ch", 8.823529411764707),
    ("w3", "donut_partial_ring", "5", "gdi", 0.0),
    ("w3", "donut_partial_ring", "5", "ri", 0.0),
    ("w3", "donut_partial_ring", "5", "ari", None),
    ("w3", "donut_partial_ring", "5", "nmi", 50.0),
    ("w3", "donut_partial_ring", "5", "nmi_sqrt", 13.79310344827586),
]

PINNED_WILCOXON = {
    "ari_m10": {"p_two_sided": None, "reason": "fewer than 2 wafers", "statistic": None},
    "ari_m5": {"exact": True, "n_nonzero": 2, "p_two_sided": 0.5, "statistic": 3.0},
    "ch_m10": {"exact": True, "n_nonzero": 3, "p_two_sided": 0.25, "statistic": 6.0},
    "ch_m5": {"exact": True, "n_nonzero": 4, "p_two_sided": 0.125, "statistic": 10.0},
    "gdi_m10": {"exact": True, "n_nonzero": 2, "p_two_sided": 1.0, "statistic": 1.0},
    "gdi_m5": {"exact": True, "n_nonzero": 3, "p_two_sided": 0.75, "statistic": 4.5},
    "nmi_m10": {"exact": True, "n_nonzero": 3, "p_two_sided": 0.25, "statistic": 6.0},
    "nmi_m5": {"exact": True, "n_nonzero": 4, "p_two_sided": 0.125, "statistic": 10.0},
    "nmi_sqrt_m10": {"exact": True, "n_nonzero": 3, "p_two_sided": 0.5, "statistic": 5.0},
    "nmi_sqrt_m5": {"exact": True, "n_nonzero": 4, "p_two_sided": 0.375, "statistic": 8.5},
    "ri_m10": {"p_two_sided": None, "reason": "all differences are zero", "statistic": None},
    "ri_m5": {"exact": True, "n_nonzero": 2, "p_two_sided": 1.0, "statistic": 1.5},
}


def test_improvements_pinned():
    out = compute_improvements(PINNED_ROWS)
    assert all(tuple(entry) == cli.IMPROVEMENT_COLUMNS for entry in out)
    assert [(e["wafer"], e["family"], e["m"], e["metric"], e["improvement_pct"])
            for e in out] == PINNED_IMPROVEMENTS


def test_wilcoxon_pinned():
    assert compute_wilcoxon(PINNED_ROWS) == PINNED_WILCOXON


def test_comparison_columns_documented():
    assert COMPARISON_COLUMNS == (
        "wafer", "family", "method", "param", "fit_seed", "n_points", "k_hat",
        "ch", "gdi", "ri", "ari", "nmi", "nmi_sqrt",
    )


def _two_wafers(tmp_path):
    """The cross and the hole as wafers w0 and w1.  AC fills both to the
    full 3x3 square; CPF at M=1 and M=2 keeps the 5 and the 8 defects."""
    paths = []
    for i, text in enumerate((CROSS, HOLE)):
        d = tmp_path / f"w{i}"
        d.mkdir()
        (d / "wafer.txt").write_text(text)
        paths.append(d / "wafer.txt")
    return paths


def _usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_compare_two_wafers_schema(tmp_path):
    w0, w1 = _two_wafers(tmp_path)
    out = tmp_path / "cmp"
    assert run_cli(
        "compare", w0, w1,
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
    timings = json.loads((out / "timings.json").read_text())
    assert timings["gplvm_ll_s"] > 0 and timings["gplvm_field_s"] > 0
    assert timings["gplvm_ll_s"] + timings["gplvm_field_s"] <= timings["hmc_s"]


# The counters `compare` sums over its distinct fits.
_FIT_COUNTERS = ("hmc_accepted", "jitter_escalations", "hmc_numerical_rejections")


def _fit_counter_sums(results):
    """The sums of _FIT_COUNTERS over fit results."""
    return {key: sum(getattr(res, key) for res in results) for key in _FIT_COUNTERS}


def test_compare_outputs_pinned(tmp_path):
    """SHA-256 of a seeded two-seed `compare` run's comparison.csv and
    manifest counters on corpus wafers w07 and w10 at a short schedule.
    Its fits run with OpenBLAS on one thread, but their floats depend on
    the BLAS and libm builds, so the digest guards a refactor on one
    machine rather than the arithmetic everywhere."""
    paths = cli.write_corpus(tmp_path / "corpus")
    out = tmp_path / "cmp"
    assert run_cli("compare", paths[7], paths[10], "--seeds", "2", "--iters", "30",
                   "--burn-in", "10", "--out", out) == 0
    digest = hashlib.sha256((out / "comparison.csv").read_bytes())
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    digest.update(json.dumps(counters, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "acc475a9f250f85ee4c8d46e243f3be3d7e4c752538eed209bc00bd8af35ae39")


def test_compare_rows_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    paths = _two_wafers(tmp_path)
    runs, fit_counters = {}, {}
    for workers in (1, 2):
        _usable_cores(monkeypatch, workers)
        streamed, counters = [], {}
        rows = run_comparison(paths, m_list=(1, 2), seeds=2, iters=12, burn_in=4,
                              progress=streamed.append, counters=counters)
        assert sorted(counters.pop("wall_seconds")) == [
            "fit", "gibbs", "gplvm_field", "gplvm_ll", "hmc"]
        fit_counters[workers] = {key: counters.pop(key) for key in _FIT_COUNTERS}
        assert counters == {"fit_requests": 12, "fits_run": 6, "workers": workers}
        assert streamed == rows
        runs[workers] = rows
    assert runs[1] == runs[2]
    assert fit_counters[1] == fit_counters[2]
    assert 0 < fit_counters[1]["hmc_accepted"] <= 6 * 12
    # Input order: wafer, then AC and CPF at each M, then fit seed.
    assert [(r["wafer"], r["method"], r["param"], r["fit_seed"], r["n_points"])
            for r in runs[1]] == [
        (w, method, param, seed, n)
        for w, sizes in (("w0", (9, 5, 5)), ("w1", (9, 8, 8)))
        for (method, param), n in zip((("ac", "0.5"), ("cpf", "1"), ("cpf", "2")), sizes)
        for seed in (0, 1)
    ]


def test_compare_fits_equal_point_sets_once(tmp_path, monkeypatch):
    _usable_cores(monkeypatch, 1)  # fits run in this process, where they are counted
    calls, results = [], []

    def counting_fit(points, hyper, mcmc, seed):
        calls.append((points, seed))
        results.append(original(points, hyper, mcmc, seed))
        return results[-1]

    original = cli.fit_points
    monkeypatch.setattr(cli, "fit_points", counting_fit)
    out = tmp_path / "cmp"
    assert run_cli("compare", *_two_wafers(tmp_path), "--m-list", "1,2", "--seeds", "2",
                   "--iters", "12", "--burn-in", "4", "--out", out) == 0
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    # CPF at M=1 and M=2 keep the same points, and AC the same square on
    # both wafers: 12 requests, 6 distinct (points, seed) pairs.
    assert counters == {"fit_requests": 12, "fits_run": 6, **_fit_counter_sums(results)}
    assert len(calls) == len(set(calls)) == counters["fits_run"]


def test_compare_timings_sum_the_distinct_fits(tmp_path, monkeypatch):
    _usable_cores(monkeypatch, 1)
    results = []

    def timed_fit(points, hyper, mcmc, seed):
        res = original(points, hyper, mcmc, seed)
        results.append(res)
        return dataclasses.replace(res, wall_seconds={"gibbs": 1.0, "hmc": 2.0, "fit": 4.0})

    original = cli.fit_points
    monkeypatch.setattr(cli, "fit_points", timed_fit)
    out = tmp_path / "cmp"
    assert run_cli("compare", *_two_wafers(tmp_path), "--m-list", "1,2", "--seeds", "2",
                   "--iters", "12", "--burn-in", "4", "--out", out) == 0
    # 6 distinct fits of 12 requests, as in the test above
    timings = json.loads((out / "timings.json").read_text())
    assert timings == {"gibbs_s": 6.0, "hmc_s": 12.0, "fit_s": 24.0}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counters"] == {"fit_requests": 12, "fits_run": 6,
                                    **_fit_counter_sums(results)}


def test_cluster_reports_step_size_and_k_after_burn_in(tmp_path):
    gen = tmp_path / "gen"
    assert run_cli("generate", "--family", "two_zone", "--rows", "20", "--cols", "20",
                   "--seed", "3", "--out", gen) == 0
    out = tmp_path / "fit"
    assert run_cli("cluster", gen / "wafer.txt", "--iters", "30", "--burn-in", "10",
                   "--seed", "2", "--out", out) == 0
    doc = json.loads((out / "assignments.json").read_text())
    summary = doc["trace_summary"]
    assert 1e-6 <= summary["step_size"] <= 1.0
    # burn-in ends before the first 25th iteration
    assert summary["step_size_path"] == [[10, summary["step_size"]]]
    assert summary["k_min"] <= doc["k_hat"] <= summary["k_max"]
    # the reported partition is a kept iteration's, so its K has a share
    assert 0 < summary["k_hat_share"] <= 1
    assert (20 * summary["k_hat_share"]).is_integer()


def test_filtered_points():
    """compare fits the chips a filter keeps, in row-major order, as
    `cluster` reads them from the filter's overlay."""
    m = parse_wafer(HOLE)
    pts = cli.filtered_points(m, ac_filter(m, AcConfig(u="1/2")))
    assert len(pts) == 9
    assert pts == sorted(pts)
    assert cli.filtered_points(m, ac_filter(m, AcConfig(u=0))) == m.defective_coords()
    center = parse_wafer("00000\n00000\n00100\n00000\n00000\n")
    assert cli.filtered_points(center, ac_filter(center, AcConfig(u="1/2"))) == []


def test_cluster_refits_a_compare_row(tmp_path):
    """`filter` at the defaults, then `cluster` with compare's schedule
    and a fit seed, scored by `evaluate --wafer`, gives compare's AC row."""
    gen = tmp_path / "gen"
    assert run_cli("generate", "--family", "two_zone", "--rows", "20", "--cols", "20",
                   "--seed", "3", "--out", gen) == 0
    wafer = gen / "wafer.txt"
    schedule = ("--iters", "6", "--burn-in", "2")
    assert run_cli("compare", wafer, "--m-list", "5", "--seeds", "2", *schedule,
                   "--out", tmp_path / "cmp") == 0
    with open(tmp_path / "cmp" / "comparison.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["method"] == "ac"]
    assert [row["fit_seed"] for row in rows] == ["0", "1"]
    assert run_cli("filter", wafer, "--out", tmp_path / "filtered") == 0
    for row in rows:
        fit, ev = tmp_path / f"cluster{row['fit_seed']}", tmp_path / f"eval{row['fit_seed']}"
        assert run_cli("cluster", tmp_path / "filtered" / "filtered.txt", *schedule,
                       "--seed", row["fit_seed"], "--out", fit) == 0
        assert run_cli("evaluate", "--pred", fit / "assignments.json", "--wafer", wafer,
                       "--out", ev) == 0
        report = json.loads((ev / "report.json").read_text())
        assert json.loads((fit / "assignments.json").read_text())["k_hat"] == int(row["k_hat"])
        assert report["n_points"] == int(row["n_points"]) > 0
        for score in cli.SCORES:
            assert report[score] == (float(row[score]) if row[score] else None), score


def test_compare_bad_schedule_fails_before_any_work(tmp_path, monkeypatch, capsys):
    _usable_cores(monkeypatch, 2)

    def no_filtering(*args, **kwargs):
        raise AssertionError("filtered before the MCMC schedule was checked")

    monkeypatch.setattr(cli, "ac_filter", no_filtering)
    out = tmp_path / "cmp"
    assert run_cli("compare", *_two_wafers(tmp_path), "--m-list", "1,2", "--seeds", "2",
                   "--iters", "4", "--burn-in", "4", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def _no_filtering(monkeypatch):
    def no_filtering(*args, **kwargs):
        raise AssertionError("filtered before the inputs were checked")

    monkeypatch.setattr(cli, "ac_filter", no_filtering)
    monkeypatch.setattr(cli, "cpf_filter", no_filtering)


def test_compare_wafers_of_one_name_exit_3(tmp_path, monkeypatch, capsys):
    # a/wafer.txt and b/a/wafer.txt are both named "a"
    first, second = tmp_path / "a" / "wafer.txt", tmp_path / "b" / "a" / "wafer.txt"
    for path in (first, second):
        path.parent.mkdir(parents=True)
        path.write_text(CROSS)
    _no_filtering(monkeypatch)
    out = tmp_path / "cmp"
    assert run_cli("compare", first, second, "--seeds", "1", "--iters", "12",
                   "--burn-in", "4", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(first) in err and str(second) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_compare_repeated_m_exits_3(tmp_path, monkeypatch, capsys):
    _no_filtering(monkeypatch)
    out = tmp_path / "cmp"
    assert run_cli("compare", *_two_wafers(tmp_path), "--m-list", "5,5", "--seeds", "1",
                   "--iters", "12", "--burn-in", "4", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "5,5" in err and "Traceback" not in err
    assert not out.exists()


def test_compare_sidecar_truth_needs_the_sidecar(tmp_path, capsys):
    w0, w1 = _two_wafers(tmp_path)
    (w0.parent / "truth.json").write_text(json.dumps({"family": "two_zone", "labels": {}}))
    argv = ("compare", w0, w1, "--m-list", "1", "--seeds", "1", "--iters", "12",
            "--burn-in", "4")
    out = tmp_path / "sidecar"
    assert run_cli(*argv, "--truth", "sidecar", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(w1.parent / "truth.json") in err
    assert not out.exists()
    # scored against the reconstruction, a missing sidecar only leaves
    # the family empty
    out = tmp_path / "reconstruction"
    assert run_cli(*argv, "--out", out) == 0
    families = {line.split(",")[0]: line.split(",")[1]
                for line in (out / "comparison.csv").read_text().splitlines()[1:]}
    assert families == {"w0": "two_zone", "w1": ""}


def test_run_comparison_refuses_an_unknown_truth_source(tmp_path):
    # the wafer does not exist: the value is refused before any is read
    with pytest.raises(ValueError, match="'sidcar'"):
        run_comparison([tmp_path / "missing.txt"], truth_source="sidcar", m_list=(1,),
                       seeds=1, iters=6, burn_in=2)


@pytest.mark.parametrize("bad", [{"seeds": 0}, {"m_list": (0,)}, {"m_list": (5, 0)},
                                 {"m_list": ()}])
def test_run_comparison_checks_seeds_and_m_before_any_wafer(tmp_path, bad):
    # the wafer does not exist: the setting is refused before any is read
    with pytest.raises(ConfigError):
        run_comparison([tmp_path / "missing.txt"], **{"seeds": 1, "iters": 6, "burn_in": 2, **bad})


@pytest.mark.parametrize("bad,name", [({"seeds": 1.5}, "seeds"), ({"seeds": True}, "seeds"),
                                      ({"m_list": (5.5,)}, "m_list"),
                                      ({"m_list": (True,)}, "m_list"),
                                      ({"m_list": (5, np.True_)}, "m_list"),
                                      ({"m_list": (0.5,)}, "m_list")])
def test_run_comparison_refuses_fractional_or_bool_counts(tmp_path, bad, name):
    # 5.5 ran CPF at M = 5 but wrote "5.5", True wrote "True", seeds=1.5
    # ended in a TypeError and seeds=True ran one seed; the wafer does not
    # exist, so the setting is refused before any is read
    with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
        run_comparison([tmp_path / "missing.txt"], **{"seeds": 1, "iters": 6, "burn_in": 2, **bad})


def test_run_comparison_writes_the_m_it_filtered_with(tmp_path, monkeypatch):
    _usable_cores(monkeypatch, 1)
    rows = run_comparison(_two_wafers(tmp_path)[:1], m_list=(np.int64(2), 1.0), seeds=1.0,
                          iters=12, burn_in=4)
    assert [(r["method"], r["param"], r["n_points"]) for r in rows] == [
        ("ac", "0.5", 9), ("cpf", "2", 5), ("cpf", "1", 5)]


@pytest.mark.parametrize("flags", [("--seeds", "0"), ("--m-list", "0"), ("--m-list", ","),
                                   ("--m-list", "5,x")])
def test_compare_bad_seeds_or_m_exit_3(tmp_path, capsys, flags):
    out = tmp_path / "cmp"
    assert run_cli("compare", tmp_path / "missing.txt", *flags, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if flags[1] == "5,x":  # the error names the flag and the token
        assert err.startswith("error: --m-list: ") and "'x'" in err
    assert not out.exists()


# Numeric flag values that Python's int(), float() and Fraction() read but
# that are not ASCII decimal numbers: other scripts' digits, '_' and, for
# integers, '+' and spaces.
_NON_ASCII_INT_FLAGS = [
    ("generate", "--rows", "٣٨"), ("generate", "--cols", "3_8"), ("generate", "--seed", "٧"),
    ("generate", "--seed", "+7"), ("generate", "--rows", " 38"),
    ("filter", "--m", "٥"), ("cluster", "--iters", "1_0"), ("cluster", "--burn-in", "٢"),
    ("cluster", "--seed", "+0"), ("compare", "--seeds", "٣"), ("compare", "--iters", "1_2"),
    ("compare", "--burn-in", "+4"),
]
_NON_ASCII_FLOAT_FLAGS = [
    ("generate", "--noise", "٠.٠٥"), ("generate", "--noise", "0.0_5"),
    ("cluster", "--alpha", "١"), ("compare", "--alpha", "1_0"),
]


@pytest.mark.parametrize("command, flag, value", _NON_ASCII_INT_FLAGS + _NON_ASCII_FLOAT_FLAGS)
def test_numeric_flags_read_ascii_decimals_only_exit_2(tmp_path, capsys, command, flag, value):
    """An integer flag takes `-?[0-9]+` and a float flag ASCII text with no
    '_'; argparse refuses anything else with exit 2, as it refuses 'x'."""
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    head = {"generate": ("--family", "two_zone"), "filter": (wafer, "--method", "cpf")}
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *head.get(command, (wafer,)), flag, value, "--out", out)
    assert exc.value.code == 2
    kind = "float" if (command, flag, value) in _NON_ASCII_FLOAT_FLAGS else "int"
    assert f"argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("filter", "--u", "٠.٥"), ("filter", "--w-mag", "1_0"), ("filter", "--u", "١/٤"),
    ("compare", "--u", "0.2_5"), ("compare", "--u-scratch", "٠.٤"),
    ("compare", "--m-list", "+5,1_0"), ("compare", "--m-list", "٥"),
    ("compare", "--m-list", "5, 10"),
])
def test_cost_and_m_list_values_read_ascii_decimals_only_exit_3(tmp_path, capsys, argv):
    command, flag, value = argv
    wafer = tmp_path / "in.txt"
    wafer.write_text(HOLE)
    out = tmp_path / "o"
    extra = ("--seeds", "1", "--iters", "3", "--burn-in", "1") if command == "compare" else ()
    assert run_cli(command, wafer, flag, value, *extra, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if flag == "--m-list":  # the error names the flag and the first bad token
        bad = next(tok for tok in value.split(",") if not cli.INT_TOKEN.fullmatch(tok))
        assert err.startswith("error: --m-list: ") and repr(bad) in err
    assert not out.exists()


def test_compare_manifest_config_is_run_comparisons_settings(tmp_path, monkeypatch):
    """compare passes one settings dict to run_comparison and writes the
    same dict as its manifest's config, keyed by run_comparison's
    keywords other than the wafers, `progress` and `counters`."""
    calls = {}

    def no_fits(paths, progress, counters, **kw):
        calls.update(kw)
        counters.update(fit_requests=0, fits_run=0, workers=1, wall_seconds={})
        return []

    monkeypatch.setattr(cli, "run_comparison", no_fits)
    out = tmp_path / "cmp"
    assert run_cli("compare", *_two_wafers(tmp_path), "--u", "1/4", "--m-list", "2,7",
                   "--seeds", "2", "--out", out) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    keywords = set(inspect.signature(run_comparison).parameters)
    assert set(config) == keywords - {"wafer_paths", "progress", "counters"}
    assert config == calls


def test_compare_progress_gets_empty_point_sets(tmp_path, monkeypatch):
    # CPF at M=9 keeps none of the cross's 5 chips
    _usable_cores(monkeypatch, 1)
    streamed = []
    rows = run_comparison(_two_wafers(tmp_path)[:1], m_list=(9,), seeds=2, iters=12,
                          burn_in=4, progress=streamed.append)
    assert streamed == rows
    assert [(r["method"], r["n_points"]) for r in rows] == [("ac", 9)] * 2 + [("cpf", 0)] * 2
    for row in rows[2:]:
        assert row["k_hat"] is None
        assert all(row[score] is None for score in cli.SCORES)


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_compare_non_finite_alpha_fails_before_any_work(tmp_path, monkeypatch, capsys, alpha):
    def no_filtering(*args, **kwargs):
        raise AssertionError("filtered before alpha was checked")

    monkeypatch.setattr(cli, "ac_filter", no_filtering)
    out = tmp_path / "cmp"
    assert run_cli("compare", *_two_wafers(tmp_path), "--m-list", "1", "--seeds", "1",
                   "--iters", "12", "--burn-in", "4", "--alpha", alpha, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def _openblas_thread_counts(_):
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if getter is not None:
                counts.append(getter())
                break
    return counts


# A short fit, as `compare` maps it: (points, prior, schedule, seed).
_SHORT_FIT = ([(0, 0), (0, 1), (1, 1), (6, 6), (6, 7)], iwmm.GwHyper(),
              iwmm.McmcConfig(iters=6, burn_in=2), 0)


def _short_fit_then_openblas_thread_counts(seed):
    """Thread count of each OpenBLAS library loaded in this process, read
    after a short `cli.fit_points` fit with fit seed `seed`."""
    points, hyper, mcmc, _ = _SHORT_FIT
    cli.fit_points(points, hyper, mcmc, seed)
    return _openblas_thread_counts(None)


def test_pool_workers_run_openblas_on_one_thread():
    if not _openblas_thread_counts(None):
        pytest.skip("numpy and scipy do not use OpenBLAS here")

    def pool_fits():
        with cli._fit_map(2) as fit_map:
            return list(fit_map(_short_fit_then_openblas_thread_counts, range(2)))

    before, per_worker, _ = _openblas_counts_after(pool_fits)
    assert before == [2] * len(before)
    assert per_worker == [[1] * len(per_worker[0])] * 2
    assert per_worker[0]


def _openblas_counts_after(action):
    """OpenBLAS thread counts before `action()`, its result, and the
    counts after it, run in a forked child in which every OpenBLAS library
    was first set to two threads, so that this process keeps its own
    setting and a fit that does not pin shows."""
    import ctypes
    import multiprocessing

    def child():
        try:
            with open("/proc/self/maps") as fh:
                paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
            for path in paths:
                lib = ctypes.CDLL(path)
                for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
                    setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                    if setter is not None:
                        setter.argtypes, setter.restype = [ctypes.c_int], None
                        setter(2)
                        break
            before = _openblas_thread_counts(None)
            result = action()
            send.send((before, result, _openblas_thread_counts(None)))
        except Exception as exc:
            send.send(repr(exc))

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=child)
    proc.start()
    send.close()  # so that a child that dies unreported ends the wait
    try:
        result = recv.recv() if recv.poll(300) else "no report within 300 s"
    except EOFError:
        result = "the child exited without a report"
    proc.join(30)
    if proc.is_alive():
        proc.kill()
    assert not isinstance(result, str), result
    return result


def test_in_process_fits_run_openblas_on_one_thread(tmp_path):
    if not _openblas_thread_counts(None):
        pytest.skip("numpy and scipy do not use OpenBLAS here")
    (tmp_path / "w.txt").write_text(CROSS)

    def cluster():
        assert run_cli("cluster", tmp_path / "w.txt", "--iters", "6", "--burn-in", "2",
                       "--out", tmp_path / "cl") == 0

    def one_worker_compare():
        with cli._fit_map(1) as fit_map:
            list(fit_map(cli.fit_points, *([arg] for arg in _SHORT_FIT)))

    for action in (cluster, one_worker_compare):
        before, _, after = _openblas_counts_after(action)
        assert before == [2] * len(before)
        assert after == [1] * len(before)


# Each command with valid inputs and an `--out` that cannot be written:
# "OUT" stands for it.
UNWRITABLE_RUNS = {
    "generate": ("generate", "--family", "two_zone", "--out", "OUT"),
    "filter": ("filter", "WAFER", "--out", "OUT"),
    "cluster": ("cluster", "WAFER", "--iters", "3", "--burn-in", "1", "--out", "OUT"),
    "evaluate": ("evaluate", "--pred", "PRED", "--truth", "PRED", "--out", "OUT"),
    "render": ("render", "WAFER", "--out", "OUT"),
    "compare": ("compare", "WAFER", "--seeds", "1", "--iters", "3", "--burn-in", "1",
                "--out", "OUT"),
}


@pytest.mark.parametrize("command", ["filter", "cluster", "evaluate", "render", "compare"])
def test_format_flag_exits_2(tmp_path, capsys, command):
    """A wafer's format comes from its file: no command that reads a
    wafer takes --format."""
    wafer = tmp_path / "w.txt"
    wafer.write_text(CROSS)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,1": 1, "1,0": 1, "1,1": 2}}))
    out = tmp_path / "o"
    names = {"WAFER": str(wafer), "PRED": str(pred), "OUT": str(out)}
    with pytest.raises(SystemExit) as exc:
        run_cli(*[names.get(arg, arg) for arg in UNWRITABLE_RUNS[command]], "--format", "csv")
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["under_a_file", "a_directory"])
@pytest.mark.parametrize("command", UNWRITABLE_RUNS)
def test_unwritable_out_exits_3(tmp_path, capsys, command, kind):
    wafer = tmp_path / "w.txt"
    wafer.write_text(CROSS)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"assignments": {"0,1": 1, "1,0": 1, "1,1": 2}}))
    plain = tmp_path / "plain"
    plain.write_text("")
    if kind == "under_a_file":
        out = plain / "o"
    else:
        # A directory where `render` writes its file; the directory
        # commands write the files they name into it.
        out = tmp_path / "o"
        out.mkdir()
        if command != "render":
            (out / "manifest.json").mkdir()
    names = {"WAFER": str(wafer), "PRED": str(pred), "OUT": str(out)}
    assert run_cli(*[names.get(arg, arg) for arg in UNWRITABLE_RUNS[command]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot write" in err and "Traceback" not in err
    assert not (out / "manifest.json").is_file()
    # render's manifest would sit beside its file: o.manifest.json
    assert not list(tmp_path.glob("*manifest.json"))


# ---------------------------------------------------------------------
# The CLI contract: every command, on any input, with any subset of its
# flags, exits with a documented code and no traceback, and a command
# that fails writes no manifest.json.
# ---------------------------------------------------------------------

CONTRACT_EXIT_CODES = {0, 2, 3, 4, 5}

_NORMALIZERS = ["paper", "joint", "sqrt", "max", "min"]
_COSTS = ["1/2", "1/4", "2", "0.4", "0", "-1", "1/0", "x"]

# Per command: the argv head ("INPUT" stands for the input under test),
# the flags every run passes (a random flag of the same name overrides
# one of them; the MCMC schedule is kept small), and the flags a run
# picks a random subset of, each with the values it picks from (None for
# a switch).  "WAFER", "PRED" and "SIDECAR" stand for valid files of
# each kind.  Most values are valid, so that most runs get past the
# checks of their flags.
CONTRACT_COMMANDS = {
    "generate": ((), ("--family", "two_zone"), {
        "--rows": ["8", "12", "0"], "--cols": ["8", "13", "-2"],
        "--family": list(FAMILIES) + ["none"], "--noise": ["0", "0.1", "0.6"],
        "--seed": ["0", "7", "-1"], "--format": ["ascii", "csv"]}),
    "filter": (("INPUT",), (), {
        "--method": ["ac", "ac", "cpf", "none"], "--u": _COSTS, "--w-mag": _COSTS,
        "--m": ["1", "3", "5", "0"], "--neighborhood": ["rook", "king"]}),
    "cluster": (("INPUT",), ("--iters", "4", "--burn-in", "2"), {
        "--burn-in": ["0", "3", "4"], "--alpha": ["0.3", "1", "2", "nan"],
        "--seed": ["0", "3"]}),
    "evaluate": (("--pred", "INPUT"), ("--truth", "PRED"), {
        "--truth": ["PRED", "PRED", "SIDECAR", "WAFER"], "--wafer": ["WAFER", "PRED"],
        "--nmi-normalizer": _NORMALIZERS}),
    "render": (("INPUT",), (), {"--assignments": ["PRED", "PRED", "WAFER"]}),
    "compare": (("INPUT", "WAFER"), ("--iters", "4", "--burn-in", "2", "--seeds", "1"), {
        "--u": _COSTS, "--u-scratch": _COSTS, "--m-list": ["1", "2,5", "3", "0"],
        "--burn-in": ["0", "1", "4"], "--seeds": ["2", "0"], "--alpha": ["0.3", "1", "nan"],
        "--truth": ["reconstruction", "sidecar"], "--nmi-normalizer": _NORMALIZERS,
        "--verbose": [None]}),
}


def test_contract_flags_are_options_of_their_commands():
    """argparse exits 2 on a flag it does not know, and 2 is a contract
    code, so the contract alone would pass a flag that was dropped: each
    flag of the table must parse on its command."""
    parser = build_parser()
    for command, (head, always, flags) in CONTRACT_COMMANDS.items():
        for flag, values in flags.items():
            value = [] if values == [None] else [values[0]]
            _, unknown = parser.parse_known_args(
                [command, *head, *always, flag, *value, "--out", "OUT"])
            assert unknown == [], (command, flag)


INPUT_KINDS = ("valid", "valid", "valid", "other", "missing", "directory", "empty", "random")
OUT_KINDS = ("fresh", "under_a_file", "a_directory")


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """A valid wafer with its truth.json sidecar, an assignments document
    over the wafer's defective chips, and other valid inputs: a wafer
    without defects, an assignments document over other chips."""
    base = tmp_path_factory.mktemp("contract")
    (base / "w").mkdir()
    wafer = base / "w" / "wafer.txt"
    wafer.write_text("110000\n110000\n000011\n000011\n")
    keys = ["0,0", "0,1", "1,0", "1,1", "2,4", "2,5", "3,4", "3,5"]
    sidecar = base / "w" / "truth.json"
    sidecar.write_text(json.dumps({"family": "scratch_pair",
                                   "labels": {k: 1 + i // 4 for i, k in enumerate(keys)},
                                   "regions": {}}))
    pred = base / "pred.json"
    pred.write_text(json.dumps({"assignments": {k: 1 + i % 2 for i, k in enumerate(keys)}}))
    blank = base / "blank.txt"
    blank.write_text("000\n000\n")
    other = base / "other.json"
    other.write_text(json.dumps({"assignments": {"0,0": 1, "5,5": 2, "9,9": 1}}))
    return {"WAFER": str(wafer), "SIDECAR": str(sidecar), "PRED": str(pred),
            "BLANK": str(blank), "OTHER": str(other)}


@st.composite
def contract_runs(draw):
    command = draw(st.sampled_from(sorted(CONTRACT_COMMANDS)))
    head, always, flags = CONTRACT_COMMANDS[command]
    argv = [command, *head, *always]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        value = draw(st.sampled_from(flags[flag]))
        argv += [flag] if value is None else [flag, value]
    kind = draw(st.sampled_from(INPUT_KINDS))
    noise = draw(st.binary(max_size=40)) if kind == "random" else b""
    return argv, kind, noise, draw(st.sampled_from(OUT_KINDS))


def _run_contract(files, argv, kind, noise, out_kind):
    """(exit code, stderr, whether a manifest.json was written) of one
    in-process run, in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        target = tmp / "input"
        if kind == "directory":
            target.mkdir()
        elif kind == "empty":
            target.write_bytes(b"")
        elif kind == "random":
            target.write_bytes(noise)
        elif kind == "valid":
            target = Path(files["PRED" if argv[0] == "evaluate" else "WAFER"])
        elif kind == "other":
            target = Path(files["OTHER" if argv[0] == "evaluate" else "BLANK"])
        if out_kind == "under_a_file":
            (tmp / "plain").write_text("")
            out = tmp / "plain" / "out"
        else:
            out = tmp / "out"
            if out_kind == "a_directory":
                out.mkdir()
        if argv[0] == "render" and out_kind != "a_directory":
            out = out / "map.svg"  # else render's file is the directory
        names = dict(files, INPUT=str(target))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            try:
                code = main([names.get(arg, arg) for arg in argv] + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        manifest = (out.parent / f"{out.stem}.manifest.json" if argv[0] == "render"
                    else out / "manifest.json")
        return code, stderr.getvalue(), manifest.exists()


@given(run=contract_runs())
@example(run=(["filter", "INPUT", "--u", "1/0"], "valid", b"", "fresh"))
@example(run=(["compare", "INPUT", "WAFER", "--iters", "4", "--seeds", "1",
               "--burn-in", "2", "--u-scratch", "0/0"], "valid", b"", "fresh"))
@example(run=(["filter", "INPUT"], "valid", b"", "under_a_file"))
@example(run=(["render", "INPUT"], "valid", b"", "a_directory"))
@settings(max_examples=400, deadline=None)
def test_cli_contract(contract_files, run):
    argv, kind, noise, out_kind = run
    code, err, manifest = _run_contract(contract_files, argv, kind, noise, out_kind)
    event(f"{argv[0]} exits {code}")
    assert code in CONTRACT_EXIT_CODES, (code, err)
    assert "Traceback" not in err
    assert code == 0 or not manifest
