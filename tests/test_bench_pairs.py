"""The claim rule and the argument checks of scripts/bench_pairs.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
METRIC_NAMES = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _workload(parent, change, better="higher", all_correct=True, raw=None):
    workload = {"pairs": len(parent), "all_correct": all_correct,
                "metrics": {"m": bench_pairs.summarize(better, parent, change)}}
    if raw is not None:
        workload["raw"] = {"m": bench_pairs.summarize(better, *raw)}
    return workload


def test_claim_met_by_wins_beyond_the_parent_spread():
    assert bench_pairs.claim_met(_workload([1.0, 1.1] * 5, [2.0] * 10), "m")
    assert bench_pairs.claim_met(_workload([2.0, 2.1] * 5, [1.0] * 10, better="lower"), "m")


def test_claim_not_met_with_too_few_wins_or_a_small_gap():
    assert not bench_pairs.claim_met(_workload([1.0] * 10, [2.0] * 8 + [0.5] * 2), "m")
    assert not bench_pairs.claim_met(_workload([1.0, 2.0] * 5, [2.01] * 10), "m")


def test_claim_not_met_when_a_run_failed():
    assert not bench_pairs.claim_met(_workload([1.0, 1.1] * 5, [2.0] * 10, all_correct=False), "m")


def test_claim_met_only_when_the_raw_median_moves_the_claimed_way_too():
    win, loss = ([1.0, 1.1] * 5, [2.0] * 10), ([1.0] * 10, [0.99] * 10)
    assert bench_pairs.claim_met(_workload(*win, raw=win), "m")
    assert bench_pairs.claim_met(_workload(*win, raw=([1.0] * 10, [1.01] * 10)), "m")
    assert not bench_pairs.claim_met(_workload(*win, raw=loss), "m")
    assert not bench_pairs.claim_met(_workload(*win, raw=([1.0] * 10, [1.0] * 10)), "m")
    lower_win, lower_loss = ([2.0, 2.1] * 5, [1.0] * 10), ([1.0] * 10, [1.5] * 10)
    assert bench_pairs.claim_met(_workload(*lower_win, better="lower", raw=lower_win), "m")
    assert not bench_pairs.claim_met(
        _workload(*lower_win, better="lower", raw=lower_loss), "m")


def test_claim_on_a_metric_raw_does_not_report_needs_no_raw_median():
    workload = _workload([1.0, 1.1] * 5, [2.0] * 10, raw=([1.0] * 10, [0.5] * 10))
    workload["metrics"]["ok"] = workload["metrics"].pop("m")
    assert bench_pairs.claim_met(workload, "ok")


@pytest.mark.parametrize("args", [
    ["--claim", "large_mpa:wafers_per_s"],
    ["--claim", "large_map:wafers_per_second"],
    ["--claim", "large_map"],
    ["--pairs", "0"],
])
def test_bad_arguments_stop_before_the_first_run(args, tmp_path, monkeypatch):
    def run_once(*a):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(ROOT), "--change", str(ROOT),
                          "--out", str(tmp_path / "bench.json"), *args])
    assert exc.value.code == 2
    assert not (tmp_path / "bench.json").exists()


class _Started(Exception):
    pass


def test_a_valid_claim_reaches_the_first_run(tmp_path, monkeypatch):
    started = []

    def run_once(tree, workload, seed, seconds):
        started.append(workload)
        raise _Started

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(_Started):
        bench_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--pairs", "1",
                          "--claim", "large_map:wafers_per_s",
                          "--out", str(tmp_path / "bench.json")])
    assert started == ["screen"]


def _stub_runs(tmp_path, monkeypatch, results):
    """Point bench_pairs at two empty trees whose benchmark runs print
    `results(side, seed)`: the (raw, normalized) metric dicts of the run."""
    def run(argv, cwd, **kwargs):
        raw, metrics = results(cwd.name, int(argv[argv.index("--seed") + 1]))
        stdout = "\n".join([
            '# env {"cpu": "test"}',
            "# raw " + " ".join(f"{k}={v:g}" for k, v in raw.items()),
            json.dumps({"correct": True, "attempted": 3, "failed": 0,
                        "metrics": {name: {"value": metrics.get(name, 1.0), "unit": "u"}
                                    for name in METRIC_NAMES}}),
        ])
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_raw_times_are_summarized_beside_the_normalized_ones(tmp_path, monkeypatch):
    """Each run's `# raw` line reaches the summary: raw medians and
    quartiles of setup_s, wafers_per_s, op_p50_ms and op_p90_ms for both
    sides, per workload."""
    speeds = {"parent": 100.0, "change": 110.0}

    def results(side, seed):
        raw = speeds[side] + seed
        normalized = 2 * raw
        return ({"setup_s": 0.5, "wafers_per_s": raw, "op_p50_ms": 1e3 / raw,
                 "op_p90_ms": 20},
                {"wafers_per_s": normalized, "op_p50_ms": 1e3 / normalized})

    trees = _stub_runs(tmp_path, monkeypatch, results)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([*trees, "--pairs", "3", "--first-seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for workload in doc["workloads"].values():
        assert sorted(workload["raw"]) == ["op_p50_ms", "op_p90_ms", "setup_s", "wafers_per_s"]
        raw, normalized = workload["raw"]["wafers_per_s"], workload["metrics"]["wafers_per_s"]
        assert raw["parent_median"] == 101.0 and raw["change_median"] == 111.0
        assert raw["parent_quartiles"] == [100.5, 101.5]
        assert raw["change_better_pairs"] == 3
        assert normalized["parent_median"] == 202.0
        assert workload["raw"]["op_p50_ms"]["change_median"] == round(1e3 / 111, 4)
        assert workload["raw"]["op_p50_ms"]["better"] == "lower"
        assert workload["raw"]["setup_s"]["parent_median"] == 0.5


def test_a_setup_claim_needs_its_raw_median_too(tmp_path, monkeypatch):
    """A set-up gain that only the probe normalization shows is no claim:
    the change's normalized setup_s wins every pair by far, but its raw
    setup_s loses."""
    def results(side, seed):
        raw = {"parent": 0.40, "change": 0.42}[side] + seed / 1000
        normalized = {"parent": 0.40, "change": 0.30}[side] + seed / 1000
        return ({"setup_s": raw, "wafers_per_s": 10, "op_p50_ms": 10, "op_p90_ms": 20},
                {"setup_s": normalized})

    trees = _stub_runs(tmp_path, monkeypatch, results)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([*trees, "--pairs", "10", "--claim", "large_map:setup_s",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    setup = doc["workloads"]["large_map"]["metrics"]["setup_s"]
    assert setup["change_better_pairs"] == 10
    assert doc["workloads"]["large_map"]["raw"]["setup_s"]["change_worse_pairs"] == 10
    assert doc["claim"] == {"workload": "large_map", "metric": "setup_s", "met": False}
