#!/usr/bin/env python3
"""Run the full twelve-wafer AC vs CPF comparison experiment.

Writes the synthetic corpus (five mixed-type families at the paper-style
multiplicities) to <out>/wafers/wNN as `waferspr generate` writes each
wafer, with a raw.svg rendering of each, then runs `waferspr compare
--verbose` over it into <out>: comparison.csv, improvements.csv,
wilcoxon.json, manifest.json and timings.json.  --seeds, --iters and
--burn-in are passed to compare; left out, they take compare's defaults.

Usage:
    python scripts/run_comparison.py --out runs/comparison [--seeds 3]
"""

import argparse
import sys
from pathlib import Path

from waferspr import cli
from waferspr.render import render_svg
from waferspr.synthgen import CORPUS_BASE_SEED, CORPUS_NOISE, CORPUS_SIDE
from waferspr.wafer import parse_wafer

COMPARE_FLAGS = ("--seeds", "--iters", "--burn-in")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="runs/comparison")
    parser.add_argument("--rows", type=int, default=CORPUS_SIDE)
    parser.add_argument("--noise", type=float, default=CORPUS_NOISE)
    parser.add_argument("--base-seed", dest="base_seed", type=int, default=CORPUS_BASE_SEED)
    for flag in COMPARE_FLAGS:
        parser.add_argument(flag, help="passed to waferspr compare")
    args = parser.parse_args(argv)

    out = Path(args.out)
    paths = cli.write_corpus(out / "wafers", args.rows, args.noise, args.base_seed)
    for path in paths:
        (path.parent / "raw.svg").write_text(render_svg(parse_wafer(path.read_bytes())))
    passed = [(flag, getattr(args, flag[2:].replace("-", "_"))) for flag in COMPARE_FLAGS]
    return cli.main(["compare", *map(str, paths), "--verbose", "--out", str(out),
                     *[tok for flag, value in passed if value is not None for tok in (flag, value)]])


if __name__ == "__main__":
    sys.exit(main())
