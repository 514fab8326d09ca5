#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, summarized as a BENCH_<n>.json.

For each workload of BENCHMARK.json, every pair runs
`benchmark/run.py --trace 0` for the file's `run_seconds` once in each
tree on the same seed, one after the other; the side that runs first
alternates from pair to pair, starting with the parent.  Each run uses
the benchmark of its own tree.  The summary gives, per end-to-end metric
of BENCHMARK.json, both sides' medians and inclusive quartiles over the
pairs and the number of pairs in which the change read better or worse
(ties count for neither), and `within_bound`, false when the change's
median is worse than the parent's by more than the metric's `bound` times
the parent's median's magnitude.  The end-to-end times are normalized by the
benchmark's speed probe; under "raw" each workload gets the same summary
of the un-normalized setup_s, wafers_per_s, op_p50_ms and op_p90_ms that
each run prints on its `# raw` line, so that a gain the normalization adds
or hides shows.
Its "notes" list starts empty.

Usage:
    python scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --first-seed 1100 --claim compare:wafers_per_s --out BENCH_11.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# The metrics of a run's `# raw` line that the summary reports.
RAW_METRICS = ("setup_s", "wafers_per_s", "op_p50_ms", "op_p90_ms")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The parsed result of one benchmark run in `tree`: the last output
    line's JSON object with each metric as its value, the `# env` line's
    object under "env", and the `# raw` line's values under "raw"."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    env = [line[len("# env "):] for line in lines if line.startswith("# env ")]
    result["env"] = json.loads(env[0]) if env else None
    raw = [line[len("# raw "):] for line in lines if line.startswith("# raw ")]
    if not raw:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed no '# raw' line")
    result["raw"] = {name: float(value) for name, value in
                     (token.split("=") for token in raw[0].split())}
    return result


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(metric: dict, parent: list, change: list) -> dict:
    """One metric over the pairs, in the shape of the BENCH files;
    `metric` is its end-to-end entry of BENCHMARK.json."""
    better, bound = metric["better"], metric["bound"]
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "better": better,
        "parent_median": round(p_med, 4),
        "parent_quartiles": [round(q, 4) for q in quartiles(parent)],
        "change_median": round(c_med, 4),
        "change_quartiles": [round(q, 4) for q in quartiles(change)],
        "change_pct": round(100.0 * (c_med - p_med) / p_med, 1) if p_med else None,
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "change_worse_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "bound": bound,
        "within_bound": sign * (c_med - p_med) >= -bound * abs(p_med),
    }


def _median_gain(summary: dict) -> float:
    """How far the change's median beats the parent's, signed so that a
    gain is positive."""
    gap = summary["change_median"] - summary["parent_median"]
    return -gap if summary["better"] == "lower" else gap


def claim_met(workload: dict, metric: str) -> bool:
    """The claim rule on one workload summary: every run of both sides
    was correct with no failed operation (a gain that comes with failures
    does not count), the change reads better in at least nine tenths of
    the pairs, its median beats the parent's by more than the parent's
    interquartile range, and, where "raw" reports the metric, its raw
    median moves the same way (a gain that only the speed-probe
    normalization shows does not count)."""
    summary = workload["metrics"][metric]
    q1, q3 = summary["parent_quartiles"]
    raw = workload.get("raw", {}).get(metric)
    return (workload["all_correct"]
            and 10 * summary["change_better_pairs"] >= 9 * workload["pairs"]
            and _median_gain(summary) > q3 - q1
            and (raw is None or _median_gain(raw) > 0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", dest="first_seed", type=int, default=0)
    parser.add_argument("--describe", default="", help='the "change" text of the summary')
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain, if any")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    claim = args.claim.partition(":")[::2] if args.claim else None
    if claim and (claim[0] not in {w["name"] for w in bench["workloads"]}
                  or claim[1] not in {m["name"] for m in bench["end_to_end"]}):
        parser.error(f"--claim {args.claim}: not a workload and an end-to-end metric "
                     "of BENCHMARK.json")
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "change": args.describe,
        "claim": None,
        "method": (f"benchmark/run.py --seconds {seconds:g} --trace 0, "
                   "the parent tree against the change tree, each from its own copy "
                   "of the source tree, one run of each per pair on the same seed, "
                   "the side that runs first alternating; medians and quartiles (inclusive "
                   "method) over the pairs; change_better_pairs counts the pairs in which "
                   "the change reads better, ties counting for neither; within_bound is false "
                   "when the change's median is worse than the parent's by more than the "
                   "metric's bound times |parent median|; \"raw\" summarizes "
                   "the un-normalized times of each run's '# raw' line the same way."),
        "env": None,
        "workloads": {},
        "notes": [],
    }
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        first = ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)]
        runs = {"parent": [], "change": []}
        for seed, lead in zip(seeds, first):
            for side in (lead, "change" if lead == "parent" else "parent"):
                result = run_once(sides[side], workload, seed, seconds)
                runs[side].append(result)
                doc["env"] = doc["env"] or result["env"]
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        doc["workloads"][workload] = {
            "pairs": args.pairs,
            "seeds": seeds,
            "first_side": first,
            "all_correct": all(r["correct"] and r["failed"] == 0
                               for side in runs.values() for r in side),
            "metrics": {
                m["name"]: summarize(m, [r["metrics"][m["name"]] for r in runs["parent"]],
                                     [r["metrics"][m["name"]] for r in runs["change"]])
                for m in bench["end_to_end"]
            },
            "raw": {
                m["name"]: summarize(m, [r["raw"][m["name"]] for r in runs["parent"]],
                                     [r["raw"][m["name"]] for r in runs["change"]])
                for m in bench["end_to_end"] if m["name"] in RAW_METRICS
            },
        }
    if claim:
        workload, metric = claim
        doc["claim"] = {"workload": workload, "metric": metric,
                        "met": claim_met(doc["workloads"][workload], metric)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
