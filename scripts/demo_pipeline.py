#!/usr/bin/env python3
"""End-to-end demo on one synthetic wafer: generate, filter both ways,
cluster, evaluate, and render every stage as SVG.

Usage:
    python scripts/demo_pipeline.py --family donut_partial_ring --out runs/demo
"""

import argparse
import json
from pathlib import Path

import numpy as np

from waferspr.acfilter import AcConfig, ac_filter, filtered_points
from waferspr.cli import fit_points, truth_lookup_from_reconstruction
from waferspr.cpf import CpfConfig, cpf_filter
from waferspr.iwmm import GwHyper, McmcConfig
from waferspr.render import render_svg
from waferspr.synthgen import FAMILIES, family_specs, generate
from waferspr.validation import evaluation_report
from waferspr.wafer import write_wafer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=FAMILIES, default="donut_partial_ring")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--iters", type=int, default=McmcConfig.iters)
    parser.add_argument("--out", default="runs/demo")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sw = generate(38, 38, family_specs(args.family), args.noise, args.seed)
    (out / "raw.txt").write_bytes(write_wafer(sw.map))
    (out / "raw.svg").write_text(render_svg(sw.map))
    lookup = truth_lookup_from_reconstruction(sw.map)
    mcmc = McmcConfig(iters=args.iters, burn_in=args.iters // 2)

    results = {}
    for name, flt in (
        ("ac", lambda m: ac_filter(m, AcConfig())),
        ("cpf5", lambda m: cpf_filter(m, CpfConfig(m_threshold=5))),
    ):
        res = flt(sw.map)
        filtered = sw.map.with_overlay(res.labels)
        (out / f"filtered_{name}.svg").write_text(render_svg(filtered))
        points = filtered_points(sw.map, res)
        if not points:
            results[name] = {"kept": 0}
            continue
        fit = fit_points(points, GwHyper(), mcmc, seed=0)
        assignments = dict(zip(points, fit.assignments))
        (out / f"clusters_{name}.svg").write_text(render_svg(sw.map, assignments))
        truth = [lookup(rc) for rc in points]
        report = evaluation_report(
            np.array(points, dtype=float), list(fit.assignments), truth
        )
        results[name] = {
            "kept": len(points),
            "k_hat": fit.k_hat,
            "report": report.to_dict(),
        }
    (out / "summary.json").write_text(json.dumps(results, sort_keys=True, indent=2))
    print(json.dumps(results, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
