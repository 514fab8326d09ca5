#!/usr/bin/env python3
"""Run the full twelve-wafer AC vs CPF comparison experiment.

Generates the synthetic corpus (five mixed-type families at the paper-style
multiplicities), runs both filters and the warped-mixture clusterer over
several seeds, and writes comparison.csv / improvements.csv / wilcoxon.json
plus per-wafer SVG renderings.

Usage:
    python scripts/run_comparison.py --out runs/comparison [--seeds 3]
"""

import argparse
import sys
import time
from pathlib import Path

from waferspr.cli import dump_json, run_comparison, truth_document, write_comparison
from waferspr.iwmm import McmcConfig
from waferspr.render import render_svg
from waferspr.synthgen import twelve_wafer_corpus
from waferspr.wafer import write_wafer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/comparison")
    parser.add_argument("--rows", type=int, default=38)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--iters", type=int, default=McmcConfig.iters)
    parser.add_argument("--burn-in", dest="burn_in", type=int, default=McmcConfig.burn_in)
    parser.add_argument("--base-seed", dest="base_seed", type=int, default=100)
    args = parser.parse_args(argv)

    out = Path(args.out)
    wafers_dir = out / "wafers"
    t0 = time.perf_counter()

    paths = []
    for idx, (family, sw) in enumerate(
        twelve_wafer_corpus(args.rows, args.rows, args.noise, args.base_seed)
    ):
        d = wafers_dir / f"w{idx:02d}"
        d.mkdir(parents=True, exist_ok=True)
        (d / "wafer.txt").write_bytes(write_wafer(sw.map))
        doc = truth_document(sw, family, args.base_seed + idx)
        (d / "truth.json").write_text(dump_json(doc))
        (d / "raw.svg").write_text(render_svg(sw.map))
        paths.append(d / "wafer.txt")

    def progress(row):
        print(f"  {row['wafer']} {row['family']:>20s} {row['method']}{row['param']:>4} "
              f"seed {row['fit_seed']}  k={row['k_hat']}  nmi_sqrt={row['nmi_sqrt']}",
              file=sys.stderr, flush=True)

    rows = run_comparison(paths, seeds=args.seeds, iters=args.iters,
                          burn_in=args.burn_in, progress=progress)
    write_comparison(out, rows)
    print(f"done in {time.perf_counter() - t0:.0f}s -> {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
