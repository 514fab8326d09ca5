"""The claim rule of scripts/bench_pairs.py."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _workload(parent, change, better="higher", all_correct=True):
    return {"pairs": len(parent), "all_correct": all_correct,
            "metrics": {"m": bench_pairs.summarize(better, parent, change)}}


def test_claim_met_by_wins_beyond_the_parent_spread():
    assert bench_pairs.claim_met(_workload([1.0, 1.1] * 5, [2.0] * 10), "m")
    assert bench_pairs.claim_met(_workload([2.0, 2.1] * 5, [1.0] * 10, better="lower"), "m")


def test_claim_not_met_with_too_few_wins_or_a_small_gap():
    assert not bench_pairs.claim_met(_workload([1.0] * 10, [2.0] * 8 + [0.5] * 2), "m")
    assert not bench_pairs.claim_met(_workload([1.0, 2.0] * 5, [2.01] * 10), "m")


def test_claim_not_met_when_a_run_failed():
    assert not bench_pairs.claim_met(_workload([1.0, 1.1] * 5, [2.0] * 10, all_correct=False), "m")
