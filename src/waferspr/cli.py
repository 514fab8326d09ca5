"""Command-line front end: generate -> filter -> cluster -> evaluate ->
render -> compare, with deterministic seeds and machine-readable outputs.

Every command writes a manifest.json next to its outputs with the full
configuration needed to replay the run.  Exit codes: 2 input parse error,
3 configuration error, 4 empty defect set (cluster), 5 mismatched
coordinates (evaluate).
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .acfilter import AcConfig, ac_filter, as_fraction, filtered_points
from .cpf import CpfConfig, cpf_filter
from .errors import ConfigError, ParseError, UndefinedTest
from .iwmm import GwHyper, HmcConfig, KernelParams, McmcConfig, PointSet, iwmm_fit
from .render import render_svg
from .synthgen import FAMILIES, family_specs, generate
from .validation import (
    evaluation_report,
    reconstruct_ground_truth,
    wilcoxon_signed_rank,
)
from .wafer import CellState, Neighborhood, WaferMap, build_graph, parse_wafer, write_wafer

COMPARISON_COLUMNS = (
    "wafer", "family", "method", "param", "fit_seed", "n_points", "k_hat",
    "ch", "gdi", "ri", "ari", "nmi", "nmi_sqrt",
)

IMPROVEMENT_COLUMNS = ("wafer", "family", "metric", "m", "improvement_pct")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a run bit-for-bit."""

    command: str
    inputs: tuple
    config: dict
    seed: int | None
    version: str


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


def _write_manifest(outdir: Path, command, inputs, config, seed=None):
    manifest = RunManifest(
        command=command,
        inputs=tuple(str(p) for p in inputs),
        config=config,
        seed=seed,
        version=__version__,
    )
    _write(outdir / "manifest.json", _dump_json(asdict(manifest)))


def _read_wafer(path, fmt="auto") -> WaferMap:
    path = Path(path)
    if fmt == "auto":
        fmt = "csv" if path.suffix.lower() == ".csv" else "ascii"
    return parse_wafer(path.read_bytes(), fmt=fmt)


def _coord_key(rc) -> str:
    return f"{rc[0]},{rc[1]}"


def _parse_coord_key(key) -> tuple[int, int]:
    r, c = key.split(",")
    return int(r), int(c)


# ---------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------

def cmd_generate(args) -> int:
    outdir = Path(args.out)
    sw = generate(args.rows, args.cols, family_specs(args.family), args.noise, args.seed)
    ext = "csv" if args.format == "csv" else "txt"
    _write(outdir / f"wafer.{ext}",
           write_wafer(sw.map, fmt="csv" if args.format == "csv" else "ascii").decode())
    grid_truth = sw.truth_labels.reshape(args.rows, args.cols)
    grid_region = sw.region_labels.reshape(args.rows, args.cols)
    defect = sw.map.grid() == CellState.DEFECTIVE
    truth_doc = {
        "rows": args.rows,
        "cols": args.cols,
        "family": args.family,
        "noise_rate": args.noise,
        "seed": args.seed,
        "labels": {
            _coord_key((r, c)): int(grid_truth[r, c])
            for r, c in zip(*np.nonzero(defect))
        },
        "regions": {
            _coord_key((r, c)): int(grid_region[r, c])
            for r, c in zip(*np.nonzero(grid_region > 0))
        },
    }
    _write(outdir / "truth.json", _dump_json(truth_doc))
    _write_manifest(
        outdir, "generate", [],
        {"rows": args.rows, "cols": args.cols, "family": args.family,
         "noise": args.noise, "format": args.format},
        seed=args.seed,
    )
    return 0


# ---------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------

def _run_filter(wmap: WaferMap, args):
    nb = Neighborhood(args.neighborhood)
    if args.method == "ac":
        u = as_fraction(args.u)
        w = as_fraction(args.w_mag)
        if u < 0:
            raise ConfigError("--u must be nonnegative")
        if w <= 0:
            raise ConfigError("--w-mag must be positive")
        cfg = AcConfig(u=u, w_mag=w, nb=nb)
        return ac_filter(wmap, cfg), {"method": "ac", "u": str(cfg.u), "w_mag": str(cfg.w_mag),
                                      "neighborhood": nb.value}
    if args.method == "cpf":
        if args.m < 1:
            raise ConfigError("--m must be >= 1")
        cfg = CpfConfig(m_threshold=args.m, nb=nb)
        return cpf_filter(wmap, cfg), {"method": "cpf", "m": args.m, "neighborhood": nb.value}
    raise ConfigError(f"unknown method {args.method!r}")


def cmd_filter(args) -> int:
    wmap = _read_wafer(args.input, args.format)
    result, config = _run_filter(wmap, args)
    outdir = Path(args.out)
    filtered = wmap.with_overlay(np.array(result.labels))
    _write(outdir / "filtered.txt", write_wafer(filtered).decode())
    summary = {
        "kept_count": result.kept_count,
        "objective": str(result.objective_value),
        "objective_float": float(result.objective_value),
        "approx": result.approx,
        "n_in_mask": wmap.n_in_mask,
        "n_defective_raw": wmap.n_defective,
    }
    _write(outdir / "summary.json", _dump_json(summary))
    _write_manifest(outdir, "filter", [args.input], config)
    return 0


# ---------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------

def cmd_cluster(args) -> int:
    wmap = _read_wafer(args.input, args.format)
    points = wmap.defective_coords()
    if not points:
        print("error: input wafer has no defective cells to cluster", file=sys.stderr)
        return 4
    if args.iters <= args.burn_in:
        raise ConfigError("--iters must exceed --burn-in")
    hyper = GwHyper(alpha=args.alpha)
    mcmc = McmcConfig(iters=args.iters, burn_in=args.burn_in)
    res = iwmm_fit(PointSet.from_points(points), h=hyper, mcmc=mcmc, seed=args.seed)
    outdir = Path(args.out)
    ks = [k for k, _ in res.trace]
    assignments_doc = {
        "k_hat": res.k_hat,
        "n": len(points),
        "seed": args.seed,
        "assignments": {
            _coord_key(rc): int(k) for rc, k in zip(points, res.assignments)
        },
        "trace_summary": {
            "iters": args.iters,
            "burn_in": args.burn_in,
            "k_last": ks[-1],
            "k_mode": max(sorted(set(ks)), key=ks.count),
            "best_joint_log": max(j for _, j in res.trace[args.burn_in:]),
            "hmc_acceptance_rate": res.hmc_acceptance_rate,
        },
    }
    _write(outdir / "assignments.json", _dump_json(assignments_doc))
    latent_doc = {
        "points": [
            {"row": rc[0], "col": rc[1], "z": [float(z[0]), float(z[1])]}
            for rc, z in zip(points, res.latent_coords)
        ]
    }
    _write(outdir / "latent.json", _dump_json(latent_doc))
    _write_manifest(
        outdir, "cluster", [args.input],
        {"iters": args.iters, "burn_in": args.burn_in, "alpha": args.alpha},
        seed=args.seed,
    )
    return 0


# ---------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------

def _truth_lookup_from_sidecar(doc):
    regions = {k: v for k, v in doc.get("regions", {}).items()}
    labels = {k: v for k, v in doc.get("labels", {}).items()}

    def lookup(key):
        return int(regions.get(key, labels.get(key, 0)))

    return lookup


def _truth_lookup_from_reconstruction(wmap: WaferMap):
    rec = reconstruct_ground_truth(wmap)
    graph = build_graph(rec, Neighborhood.KING)
    d = rec.defect_bits()
    comp_of = {}
    adj = graph.adjacency()
    comp_id = 0
    seen = set()
    for i in range(graph.node_count):
        if d[i] and i not in seen:
            comp_id += 1
            stack = [i]
            seen.add(i)
            while stack:
                u = stack.pop()
                comp_of[graph.coords[u]] = comp_id
                for v in adj[u]:
                    if d[v] and v not in seen:
                        seen.add(v)
                        stack.append(v)

    def lookup(key):
        return comp_of.get(_parse_coord_key(key), 0)

    return lookup


def cmd_evaluate(args) -> int:
    pred_doc = json.loads(Path(args.pred).read_text())
    pred_map = pred_doc["assignments"]
    keys = sorted(pred_map.keys(), key=_parse_coord_key)
    points = np.array([_parse_coord_key(k) for k in keys], dtype=float)
    predicted = [int(pred_map[k]) for k in keys]

    inputs = [args.pred]
    if args.truth:
        inputs.append(args.truth)
        truth_doc = json.loads(Path(args.truth).read_text())
        if "assignments" in truth_doc:
            truth_map = truth_doc["assignments"]
            if sorted(truth_map.keys(), key=_parse_coord_key) != keys:
                print("error: prediction and truth cover different coordinates",
                      file=sys.stderr)
                return 5
            truth = [int(truth_map[k]) for k in keys]
        else:
            lookup = _truth_lookup_from_sidecar(truth_doc)
            truth = [lookup(k) for k in keys]
    elif args.wafer:
        if not args.reconstruct:
            raise ConfigError("--wafer scores against reconstructed truth; add --reconstruct")
        inputs.append(args.wafer)
        wmap = _read_wafer(args.wafer, args.format)
        lookup = _truth_lookup_from_reconstruction(wmap)
        truth = [lookup(k) for k in keys]
    else:
        raise ConfigError("evaluate needs --truth or --wafer with --reconstruct")

    report = evaluation_report(points, predicted, truth, nmi_normalizer=args.nmi_normalizer)
    outdir = Path(args.out)
    _write(outdir / "report.json", _dump_json(report.to_dict()))
    _write_manifest(outdir, "evaluate", inputs, {"nmi_normalizer": args.nmi_normalizer})
    return 0


# ---------------------------------------------------------------------
# render
# ---------------------------------------------------------------------

def cmd_render(args) -> int:
    wmap = _read_wafer(args.input, args.format)
    assignments = {}
    if args.assignments:
        doc = json.loads(Path(args.assignments).read_text())
        assignments = {
            _parse_coord_key(k): int(v) for k, v in doc["assignments"].items()
        }
    svg = render_svg(wmap, assignments)
    out = Path(args.out)
    _write(out, svg)
    _write_manifest(out.parent, "render", [args.input] +
                    ([args.assignments] if args.assignments else []),
                    {"out": out.name})
    return 0


# ---------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------

def _median_defined(values):
    vals = [v for v in values if v is not None]
    return statistics.median(vals) if vals else None


def compute_improvements(rows):
    """Per-wafer percentage improvement of AC over each CPF M, from
    per-wafer medians across fit seeds."""
    out = []
    wafers = sorted({(r["wafer"], r["family"]) for r in rows})
    metrics = ("ch", "gdi", "ri", "ari", "nmi")
    for wafer, family in wafers:
        ac = [r for r in rows if r["wafer"] == wafer and r["method"] == "ac"]
        for m in sorted({r["param"] for r in rows if r["method"] == "cpf"}):
            cpf = [r for r in rows
                   if r["wafer"] == wafer and r["method"] == "cpf" and r["param"] == m]
            for metric in metrics:
                a = _median_defined([r[metric] for r in ac])
                c = _median_defined([r[metric] for r in cpf])
                if a is None or c is None or c == 0:
                    pct = None
                else:
                    pct = 100.0 * (a - c) / abs(c)
                out.append({"wafer": wafer, "family": family, "metric": metric,
                            "m": m, "improvement_pct": pct})
    return out


def compute_wilcoxon(rows):
    """Across-wafer Wilcoxon signed-rank p-values per metric and CPF M,
    on differences of per-wafer medians (AC minus CPF)."""
    out = {}
    wafers = sorted({r["wafer"] for r in rows})
    metrics = ("ch", "gdi", "ri", "ari", "nmi")
    ms = sorted({r["param"] for r in rows if r["method"] == "cpf"})
    for m in ms:
        for metric in metrics:
            diffs = []
            for wafer in wafers:
                a = _median_defined([r[metric] for r in rows
                                     if r["wafer"] == wafer and r["method"] == "ac"])
                c = _median_defined([r[metric] for r in rows
                                     if r["wafer"] == wafer and r["method"] == "cpf"
                                     and r["param"] == m])
                if a is not None and c is not None:
                    diffs.append(a - c)
            key = f"{metric}_m{m}"
            if len(diffs) < 2:
                out[key] = {"p_two_sided": None, "statistic": None,
                            "reason": "fewer than 2 wafers"}
                continue
            try:
                res = wilcoxon_signed_rank(diffs)
                out[key] = {"p_two_sided": res.p_two_sided, "statistic": res.statistic,
                            "n_nonzero": res.n_nonzero, "exact": res.exact}
            except UndefinedTest as exc:
                out[key] = {"p_two_sided": None, "statistic": None, "reason": str(exc)}
    return out


# Clustering configuration used by the comparison pipeline.  A noisier
# GP (larger jitter) lets the warp deform enough to contract curved
# patterns, and the wider cluster-scale prior discourages fragmenting
# arcs; assignments start from the filter output's spatial components.
PIPELINE_KERNEL = KernelParams(signal_variance=1.0, length_scale=1.5, jitter=0.01)
PIPELINE_PRIOR_SCALE = 2.0
PIPELINE_LEAPFROG = 5


PIPELINE_WARP_WARMUP = 40


def _pipeline_fit(points, alpha, iters, burn_in, seed):
    return iwmm_fit(
        PointSet(np.array(points, dtype=float)),
        h=GwHyper(alpha=alpha, R=PIPELINE_PRIOR_SCALE * np.eye(2)),
        k0=PIPELINE_KERNEL,
        mcmc=McmcConfig(iters=iters, burn_in=burn_in,
                        hmc=HmcConfig(step_size=0.01, leapfrog_steps=PIPELINE_LEAPFROG),
                        gibbs_start=min(PIPELINE_WARP_WARMUP, burn_in // 2)),
        seed=seed,
        init="components",
    )


def run_comparison(wafer_paths, *, u="0.5", u_scratch="0.4", m_list=(5, 10), seeds=3,
                   iters=300, burn_in=150, alpha=0.3, nmi_normalizer="paper",
                   truth_source="reconstruction", fmt="auto", progress=None):
    """Full AC vs CPF pipeline over a set of wafers; returns result rows.

    External truth comes from connected components of the reconstructed
    raw map by default (`truth_source="reconstruction"`); pass "sidecar"
    to use generator metadata when a truth.json sits next to the wafer.
    Scratch-family wafers use `u_scratch` for the AC filter, mirroring
    the reduced separation cost the experiments use for scratch patterns.
    """
    rows = []
    for path in wafer_paths:
        path = Path(path)
        wmap = _read_wafer(path, fmt)
        sidecar = path.parent / "truth.json"
        family = ""
        sidecar_doc = None
        if sidecar.exists():
            sidecar_doc = json.loads(sidecar.read_text())
            family = sidecar_doc.get("family") or ""
        if truth_source == "sidecar" and sidecar_doc is not None:
            lookup = _truth_lookup_from_sidecar(sidecar_doc)
        else:
            lookup = _truth_lookup_from_reconstruction(wmap)

        u_eff = u_scratch if family == "scratch_pair" else u
        methods = [("ac", str(u_eff))] + [("cpf", str(m)) for m in m_list]
        fit_cache = {}  # identical filtered sets (e.g. CPF M=5 vs M=10) share fits
        for method, param in methods:
            if method == "ac":
                result = ac_filter(wmap, AcConfig(u=as_fraction(u_eff)))
            else:
                result = cpf_filter(wmap, CpfConfig(m_threshold=int(param)))
            points = filtered_points(wmap, result)
            wafer_name = path.stem if path.stem != "wafer" else path.parent.name
            if not points:
                for fit_seed in range(seeds):
                    rows.append({
                        "wafer": wafer_name,
                        "family": family, "method": method, "param": param,
                        "fit_seed": fit_seed, "n_points": 0, "k_hat": None,
                        "ch": None, "gdi": None, "ri": None, "ari": None,
                        "nmi": None, "nmi_sqrt": None,
                    })
                continue
            truth = [lookup(_coord_key(rc)) for rc in points]
            pts_arr = np.array(points, dtype=float)
            for fit_seed in range(seeds):
                cache_key = (tuple(points), fit_seed)
                res = fit_cache.get(cache_key)
                if res is None:
                    res = _pipeline_fit(points, alpha, iters, burn_in, fit_seed)
                    fit_cache[cache_key] = res
                report = evaluation_report(pts_arr, list(res.assignments), truth,
                                           nmi_normalizer=nmi_normalizer)
                rows.append({
                    "wafer": wafer_name,
                    "family": family, "method": method, "param": param,
                    "fit_seed": fit_seed, "n_points": len(points),
                    "k_hat": res.k_hat, "ch": report.ch, "gdi": report.gdi,
                    "ri": report.ri, "ari": report.ari, "nmi": report.nmi,
                    "nmi_sqrt": report.nmi_sqrt,
                })
                if progress:
                    progress(rows[-1])
    return rows


def _write_csv(path: Path, columns, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k, ""))
                             for k in columns})


def cmd_compare(args) -> int:
    m_list = [int(tok) for tok in args.m_list.split(",") if tok]
    if not m_list or any(m < 1 for m in m_list):
        raise ConfigError("--m-list must contain integers >= 1")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")

    def progress(row):
        print(f"  {row['wafer']} {row['method']}{row['param']} seed {row['fit_seed']}: "
              f"k={row['k_hat']} nmi={row['nmi']}", file=sys.stderr)

    rows = run_comparison(
        args.wafers, u=args.u, u_scratch=args.u_scratch, m_list=m_list,
        seeds=args.seeds, iters=args.iters, burn_in=args.burn_in,
        alpha=args.alpha, nmi_normalizer=args.nmi_normalizer,
        truth_source=args.truth_source, fmt=args.format,
        progress=progress if args.verbose else None,
    )
    outdir = Path(args.out)
    _write_csv(outdir / "comparison.csv", COMPARISON_COLUMNS, rows)
    improvements = compute_improvements(rows)
    _write_csv(outdir / "improvements.csv", IMPROVEMENT_COLUMNS, improvements)
    _write(outdir / "wilcoxon.json", _dump_json(compute_wilcoxon(rows)))
    _write_manifest(
        outdir, "compare", list(args.wafers),
        {"u": str(args.u), "u_scratch": str(args.u_scratch), "m_list": m_list,
         "seeds": args.seeds, "iters": args.iters, "burn_in": args.burn_in,
         "alpha": args.alpha, "truth_source": args.truth_source,
         "nmi_normalizer": args.nmi_normalizer},
    )
    return 0


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waferspr",
        description="Mixed-type spatial pattern recognition for wafer bin maps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic mixed-type wafer")
    p.add_argument("--rows", type=int, default=38)
    p.add_argument("--cols", type=int, default=38)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("ascii", "csv"), default="ascii")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("filter", help="spatial filtering (AC or CPF)")
    p.add_argument("input")
    p.add_argument("--method", choices=("ac", "cpf"), default="ac")
    p.add_argument("--u", default="0.5")
    p.add_argument("--w-mag", dest="w_mag", default="1")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--neighborhood", choices=("rook", "king"), default="king")
    p.add_argument("--format", choices=("auto", "ascii", "csv"), default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("cluster", help="iWMM sub-clustering of a filtered wafer")
    p.add_argument("input")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=500)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("auto", "ascii", "csv"), default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="internal/external validation of assignments")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth")
    p.add_argument("--wafer")
    p.add_argument("--reconstruct", action="store_true",
                   help="reconstruct ground truth from --wafer")
    p.add_argument("--nmi-normalizer", dest="nmi_normalizer",
                   choices=("paper", "joint", "sqrt", "max", "min"), default="paper")
    p.add_argument("--format", choices=("auto", "ascii", "csv"), default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="SVG rendering of a wafer map")
    p.add_argument("input")
    p.add_argument("--assignments")
    p.add_argument("--format", choices=("auto", "ascii", "csv"), default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="AC vs CPF head-to-head over wafers")
    p.add_argument("wafers", nargs="+")
    p.add_argument("--u", default="0.5")
    p.add_argument("--u-scratch", dest="u_scratch", default="0.4",
                   help="AC separation cost for scratch-family wafers")
    p.add_argument("--m-list", dest="m_list", default="5,10")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=150)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--truth", dest="truth_source",
                   choices=("reconstruction", "sidecar"), default="reconstruction")
    p.add_argument("--nmi-normalizer", dest="nmi_normalizer",
                   choices=("paper", "joint", "sqrt", "max", "min"), default="paper")
    p.add_argument("--format", choices=("auto", "ascii", "csv"), default="auto")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
