#!/usr/bin/env python3
"""End-to-end demo on one synthetic wafer: generate, filter both ways
(AC as `compare` runs it, CPF at M = 5), cluster, evaluate, and render
every stage as SVG.  AC takes its defaults, except on the scratch_pair
family, where it takes `compare`'s --u-scratch separation cost.

Each stage is a `waferspr` command run in process, and each fit runs
with OpenBLAS on one thread, as `iwmm_fit` sets it.  Each command writes into
its own directory under --out, next to its own manifest (a render's is
named after its SVG, raw.svg -> raw.manifest.json): generate/, raw/, and
filter/, filtered/, cluster/, clusters/ and evaluate/ under ac/ and
cpf5/.  summary.json collects each method's kept count, k_hat and
report.

Usage:
    python scripts/demo_pipeline.py --family donut_partial_ring --out runs/demo
"""

import argparse
import json
import sys
from pathlib import Path

from waferspr.cli import COMPARE_SETTINGS, _dump_json, main as waferspr
from waferspr.iwmm import McmcConfig
from waferspr.synthgen import FAMILIES

# The filter flags of each method the demo runs.
METHODS = {"ac": ("--method", "ac"), "cpf5": ("--method", "cpf", "--m", "5")}


def run(*argv):
    """Run one waferspr command in process.  A failing command ends the
    demo with its exit code, except `cluster`'s 4 (no chip to cluster),
    which is returned."""
    code = waferspr([str(arg) for arg in argv])
    if code not in (0, 4):
        sys.exit(code)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=FAMILIES, default="donut_partial_ring")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--iters", type=int, default=McmcConfig.iters)
    parser.add_argument("--out", default="runs/demo")
    args = parser.parse_args(argv)

    out = Path(args.out)
    wafer = out / "generate" / "wafer.txt"
    run("generate", "--family", args.family, "--seed", args.seed, "--noise", args.noise,
        "--out", wafer.parent)
    run("render", wafer, "--out", out / "raw" / "raw.svg")

    results = {}
    for name, flags in METHODS.items():
        stage = out / name
        filtered = stage / "filter" / "filtered.txt"
        if name == "ac" and args.family == "scratch_pair":
            flags += ("--u", COMPARE_SETTINGS["u_scratch"])
        assignments = stage / "cluster" / "assignments.json"
        run("filter", wafer, *flags, "--out", filtered.parent)
        run("render", filtered, "--out", stage / "filtered" / "filtered.svg")
        if run("cluster", filtered, "--iters", args.iters, "--burn-in", args.iters // 2,
               "--out", assignments.parent) == 4:
            results[name] = {"kept": 0}
            continue
        run("render", wafer, "--assignments", assignments,
            "--out", stage / "clusters" / "clusters.svg")
        run("evaluate", "--pred", assignments, "--wafer", wafer, "--out", stage / "evaluate")
        results[name] = {
            "kept": json.loads((filtered.parent / "summary.json").read_text())["kept_count"],
            "k_hat": json.loads(assignments.read_text())["k_hat"],
            "report": json.loads((stage / "evaluate" / "report.json").read_text()),
        }
    summary = _dump_json(results)
    (out / "summary.json").write_text(summary)
    print(summary, end="")


if __name__ == "__main__":
    main()
