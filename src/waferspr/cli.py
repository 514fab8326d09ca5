"""Command-line front end: generate -> filter -> cluster -> evaluate ->
render -> compare, with deterministic seeds and machine-readable outputs.

Every command writes a manifest.json next to its outputs with the full
configuration needed to replay the run; a command that fails writes none.
Exit codes: 2 input parse error (an unreadable or malformed input, or a
usage error argparse reports), 3 configuration error (a bad flag value,
or an `--out` that cannot be written), 4 empty defect set (cluster),
5 mismatched coordinates (evaluate).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import statistics
import sys
from collections import Counter
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .acfilter import AcConfig, ac_filter, filtered_points
from .cpf import CpfConfig, cpf_filter
from .errors import ConfigError, ParseError, UndefinedTest
from .iwmm import GwHyper, McmcConfig, PointSet, iwmm_fit
from .render import render_svg
from .synthgen import FAMILIES, family_specs, generate
from .validation import (
    NMI_NORMALIZERS,
    EvaluationReport,
    evaluation_report,
    reconstruct_ground_truth,
    wilcoxon_signed_rank,
)
from .wafer import CellState, Neighborhood, WaferMap, components, parse_wafer, write_wafer

# The scores of a compare row, as EvaluationReport names them, on each of
# which improvements.csv and wilcoxon.json pair AC with CPF.
SCORES = ("ch", "gdi", "ri", "ari", "nmi", "nmi_sqrt")
METRICS = SCORES

COMPARISON_COLUMNS = (
    "wafer", "family", "method", "param", "fit_seed", "n_points", "k_hat",
) + SCORES

IMPROVEMENT_COLUMNS = ("wafer", "family", "metric", "m", "improvement_pct")

# compare's defaults: the CPF M thresholds it runs, and the fits per
# filtered point set, seeded 0, 1, ...
COMPARE_M_LIST = (5, 10)
COMPARE_SEEDS = 3

# Where compare's external truth comes from (see `run_comparison`).
TRUTH_SOURCES = ("reconstruction", "sidecar")


def dump_json(obj) -> str:
    """The text of every JSON file the program writes: sorted keys, an
    indent of 2 and a trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: Path, text: str):
    """Write `text` to `path`, making its directory first; ConfigError
    naming the path when it cannot be written (an existing directory, a
    file where a directory should be, no permission)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write ({exc.strerror or exc})") from None


def _write_manifest(outdir: Path, command, inputs, config, seed=None, counters=None):
    """manifest.json of a run, with everything needed to replay it
    bit-for-bit; `counters` (deterministic counts of the work done) are
    added under their own key when given."""
    doc = {"command": command, "inputs": [str(p) for p in inputs], "config": config,
           "seed": seed, "version": __version__}
    if counters is not None:
        doc["counters"] = counters
    _write(outdir / "manifest.json", dump_json(doc))


def _write_timings(outdir: Path, wall_seconds):
    """timings.json: the seconds of each fit stage, as `wall_seconds` of
    IwmmResult names them.  Wall-clock seconds vary from run to run, so
    they stay out of the seeded files and the manifest."""
    _write(outdir / "timings.json",
           dump_json({f"{stage}_s": s for stage, s in wall_seconds.items()}))


def _read_bytes(path) -> bytes:
    """The bytes of the file at `path`; ParseError naming the file when it
    cannot be read (missing, a directory, no permission)."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror or exc})") from None


def _read_wafer(path) -> WaferMap:
    """The wafer in the file at `path`: CSV when its name ends in `.csv`
    (any case) or it holds a comma, which no ASCII wafer can, else ASCII."""
    data = _read_bytes(path)
    csv_file = Path(path).suffix.lower() == ".csv" or b"," in data
    return parse_wafer(data, fmt="csv" if csv_file else "ascii")


def _coord_key(rc) -> str:
    return f"{rc[0]},{rc[1]}"


def _read_json_object(path) -> dict:
    """The JSON object in `path`; ParseError naming the file when it
    cannot be read or holds anything else."""
    data = _read_bytes(path)
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON object")
    return doc


def _assignments_of(doc: dict, path) -> list[tuple[tuple[int, int], int]]:
    """The ((row, col), cluster label) entries of an assignments document
    (as `cluster` writes it) read from `path`, in (row, col) order;
    ParseError naming the file when it is malformed or two keys name one
    chip ("1,1" and "01,1")."""
    assignments = doc.get("assignments")
    if not isinstance(assignments, dict):
        raise ParseError(f'{path}: no "assignments" object')
    keys = {}  # (row, col) -> its key
    entries = []
    for key, label in assignments.items():
        try:
            r, c = key.split(",")
            rc = (int(r), int(c))
        except ValueError:
            raise ParseError(f'{path}: coordinate key {key!r} is not "row,col"') from None
        if type(label) is not int:
            raise ParseError(f"{path}: label {label!r} of {key!r} is not an integer")
        if rc in keys:
            raise ParseError(f"{path}: keys {keys[rc]!r} and {key!r} name one chip")
        keys[rc] = key
        entries.append((rc, label))
    entries.sort(key=lambda entry: entry[0])
    return entries


def _sidecar_of(doc: dict, path) -> dict:
    """`doc`, a truth.json sidecar (as `generate` writes it) read from
    `path`; ParseError naming the file unless its "regions" and "labels",
    where present, are objects of integer labels and its "family", where
    present, is a string."""
    for name in ("regions", "labels"):
        table = doc.get(name, {})
        if not isinstance(table, dict) or any(type(v) is not int for v in table.values()):
            raise ParseError(f'{path}: "{name}" is not an object of integer labels')
    if not isinstance(doc.get("family", ""), str):
        raise ParseError(f'{path}: "family" is not a string')
    return doc


# ---------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------

def truth_document(sw, family, seed) -> dict:
    """The truth.json sidecar of a generated wafer: pattern labels of its
    defective chips and the region of every chip inside a pattern."""
    rows, cols = sw.map.rows, sw.map.cols
    grid_truth = sw.truth_labels.reshape(rows, cols)
    grid_region = sw.region_labels.reshape(rows, cols)
    defect = sw.map.grid() == CellState.DEFECTIVE
    return {
        "rows": rows,
        "cols": cols,
        "family": family,
        "noise_rate": sw.noise_rate,
        "seed": seed,
        "labels": {
            _coord_key((r, c)): int(grid_truth[r, c])
            for r, c in zip(*np.nonzero(defect))
        },
        "regions": {
            _coord_key((r, c)): int(grid_region[r, c])
            for r, c in zip(*np.nonzero(grid_region > 0))
        },
    }


def cmd_generate(args) -> int:
    outdir = Path(args.out)
    sw = generate(args.rows, args.cols, family_specs(args.family), args.noise, args.seed)
    ext = "csv" if args.format == "csv" else "txt"
    _write(outdir / f"wafer.{ext}", write_wafer(sw.map, fmt=args.format).decode())
    _write(outdir / "truth.json", dump_json(truth_document(sw, args.family, args.seed)))
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

# The config field each method-specific `filter` flag sets, by method.
FILTER_FLAGS = {"ac": {"u": "u", "w_mag": "w_mag"}, "cpf": {"m": "m_threshold"}}


def _run_filter(wmap: WaferMap, args):
    """Filter `wmap` as `args` asks; a flag left out takes its config
    default, and a flag of the other method is a ConfigError."""
    options = {}
    for method, fields in FILTER_FLAGS.items():
        for dest, name in fields.items():
            value = getattr(args, dest)
            if value is None:
                continue
            if method != args.method:
                raise ConfigError(f"--{dest.replace('_', '-')} does not apply to "
                                  f"--method {args.method}")
            options[name] = value
    nb = Neighborhood(args.neighborhood)
    if args.method == "ac":
        cfg = AcConfig(nb=nb, **options)
        return ac_filter(wmap, cfg), {"method": "ac", "u": str(cfg.u), "w_mag": str(cfg.w_mag),
                                      "neighborhood": nb.value}
    cfg = CpfConfig(nb=nb, **options)
    return cpf_filter(wmap, cfg), {"method": "cpf", "m": cfg.m_threshold,
                                   "neighborhood": nb.value}


def cmd_filter(args) -> int:
    wmap = _read_wafer(args.input)
    result, config = _run_filter(wmap, args)
    outdir = Path(args.out)
    _write(outdir / "filtered.txt", write_wafer(wmap, result.labels).decode())
    summary = {
        "kept_count": result.kept_count,
        "objective": str(result.objective_value),
        "objective_float": float(result.objective_value),
        "approx": result.approx,
        "n_in_mask": wmap.n_in_mask,
        "n_defective_raw": wmap.n_defective,
        "counters": dict(result.counters),
    }
    _write(outdir / "summary.json", dump_json(summary))
    _write_manifest(outdir, "filter", [args.input], config)
    return 0


# ---------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------

def cmd_cluster(args) -> int:
    wmap = _read_wafer(args.input)
    points = wmap.defective_coords()
    if not points:
        print("error: input wafer has no defective cells to cluster", file=sys.stderr)
        return 4
    hyper = GwHyper(alpha=args.alpha)
    mcmc = McmcConfig(iters=args.iters, burn_in=args.burn_in)
    _one_blas_thread()
    res = fit_points(points, hyper, mcmc, args.seed)
    outdir = Path(args.out)
    ks = [k for k, _ in res.trace]
    kept = ks[args.burn_in:]
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
            "jitter_escalations": res.jitter_escalations,
            "hmc_numerical_rejections": res.hmc_numerical_rejections,
            "step_size": res.step_size,
            "k_min": min(kept),
            "k_max": max(kept),
            "k_hat_share": kept.count(res.k_hat) / len(kept),
        },
    }
    _write(outdir / "assignments.json", dump_json(assignments_doc))
    latent_doc = {
        "points": [
            {"row": rc[0], "col": rc[1], "z": [float(z[0]), float(z[1])]}
            for rc, z in zip(points, res.latent_coords)
        ]
    }
    _write(outdir / "latent.json", dump_json(latent_doc))
    _write_manifest(
        outdir, "cluster", [args.input],
        {"iters": args.iters, "burn_in": args.burn_in, "alpha": args.alpha},
        seed=args.seed,
    )
    _write_timings(outdir, res.wall_seconds)
    return 0


# ---------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------

def _truth_lookup_from_sidecar(doc):
    """Truth label of a (row, col) chip from a checked truth.json sidecar
    (see `_sidecar_of`): its region, else its pattern label, else 0."""
    regions = doc.get("regions", {})
    labels = doc.get("labels", {})

    def lookup(rc):
        key = _coord_key(rc)
        return regions.get(key, labels.get(key, 0))

    return lookup


def truth_lookup_from_reconstruction(wmap: WaferMap):
    """Truth label of a (row, col) chip: the king-connected component of
    the reconstructed map that holds the chip, or 0 off every component."""
    comp = components(reconstruct_ground_truth(wmap).grid() == CellState.DEFECTIVE,
                      Neighborhood.KING)

    def lookup(rc):
        r, c = rc
        if 0 <= r < wmap.rows and 0 <= c < wmap.cols:
            return int(comp[r, c])
        return 0

    return lookup


def cmd_evaluate(args) -> int:
    if bool(args.truth) == bool(args.wafer):
        raise ConfigError("evaluate takes one of --truth and --wafer")

    pred = _assignments_of(_read_json_object(args.pred), args.pred)
    points = np.array([rc for rc, _ in pred], dtype=float)
    predicted = [label for _, label in pred]

    inputs = [args.pred]
    if args.truth:
        inputs.append(args.truth)
        truth_doc = _read_json_object(args.truth)
        if "assignments" in truth_doc:
            truth_entries = _assignments_of(truth_doc, args.truth)
            if [rc for rc, _ in truth_entries] != [rc for rc, _ in pred]:
                print("error: prediction and truth cover different coordinates",
                      file=sys.stderr)
                return 5
            truth = [label for _, label in truth_entries]
        else:
            lookup = _truth_lookup_from_sidecar(_sidecar_of(truth_doc, args.truth))
            truth = [lookup(rc) for rc, _ in pred]
    else:
        inputs.append(args.wafer)
        lookup = truth_lookup_from_reconstruction(_read_wafer(args.wafer))
        truth = [lookup(rc) for rc, _ in pred]

    report = evaluation_report(points, predicted, truth, nmi_normalizer=args.nmi_normalizer)
    outdir = Path(args.out)
    _write(outdir / "report.json", dump_json(report.to_dict()))
    _write_manifest(outdir, "evaluate", inputs, {"nmi_normalizer": args.nmi_normalizer})
    return 0


# ---------------------------------------------------------------------
# render
# ---------------------------------------------------------------------

def cmd_render(args) -> int:
    wmap = _read_wafer(args.input)
    assignments = {}
    if args.assignments:
        assignments = dict(_assignments_of(_read_json_object(args.assignments), args.assignments))
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

def _ac_vs_cpf(rows):
    """(wafer, family, M, metric, AC median, CPF median) for every wafer,
    CPF M and metric, in that order.  A median is taken over the fit
    seeds' defined values of the metric, and is None where none is."""
    values = {}  # (wafer, None for AC or M for CPF, metric) -> defined values
    for r in rows:
        param = r["param"] if r["method"] == "cpf" else None
        for metric in METRICS:
            if r[metric] is not None:
                values.setdefault((r["wafer"], param, metric), []).append(r[metric])
    medians = {key: statistics.median(v) for key, v in values.items()}
    ms = sorted({r["param"] for r in rows if r["method"] == "cpf"})
    for wafer, family in sorted({(r["wafer"], r["family"]) for r in rows}):
        for m, metric in product(ms, METRICS):
            yield (wafer, family, m, metric, medians.get((wafer, None, metric)),
                   medians.get((wafer, m, metric)))


def compute_improvements(rows):
    """Per-wafer percentage improvement of AC over each CPF M, from
    per-wafer medians across fit seeds."""
    return [{"wafer": wafer, "family": family, "metric": metric, "m": m,
             "improvement_pct": None if a is None or c is None or c == 0
             else 100.0 * (a - c) / abs(c)}
            for wafer, family, m, metric, a, c in _ac_vs_cpf(rows)]


def compute_wilcoxon(rows):
    """Across-wafer Wilcoxon signed-rank p-values per metric and CPF M,
    on differences of per-wafer medians (AC minus CPF)."""
    diffs = {}
    for _, _, m, metric, a, c in _ac_vs_cpf(rows):
        d = diffs.setdefault(f"{metric}_m{m}", [])
        if a is not None and c is not None:
            d.append(a - c)
    out = {}
    for key, d in diffs.items():
        if len(d) < 2:
            out[key] = {"p_two_sided": None, "statistic": None,
                        "reason": "fewer than 2 wafers"}
            continue
        try:
            res = wilcoxon_signed_rank(d)
            out[key] = {"p_two_sided": res.p_two_sided, "statistic": res.statistic,
                        "n_nonzero": res.n_nonzero, "exact": res.exact}
        except UndefinedTest as exc:
            out[key] = {"p_two_sided": None, "statistic": None, "reason": str(exc)}
    return out


def fit_points(points, hyper, mcmc, seed):
    """The iWMM fit of (row, col) points, as `cluster` and `compare` run
    it: the prior `hyper`, the schedule `mcmc`, and the default kernel."""
    return iwmm_fit(PointSet(np.array(points, dtype=float)), hyper, mcmc=mcmc, seed=seed)


def _one_blas_thread():
    """Run the OpenBLAS libraries loaded in this process on one thread.

    Every fit runs under it, in process or in a pool worker.  By default
    OpenBLAS adds a helper thread per core that busy-waits: 2 such workers
    on 2 cores took 4 times as long as one process.  Without /proc
    (macOS) it does nothing.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in product(("", "scipy_"), ("", "64_")):
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


@contextlib.contextmanager
def _fit_map(workers):
    """A `map` for the fits: the builtin one in process for one worker,
    else the `map` of a pool of `workers` forked processes.  Either way
    the fits run with OpenBLAS on one thread.

    Forked workers start in milliseconds and inherit the imported
    modules; the pool forks all of them before it starts its own thread.
    Leaving the block cancels the fits not yet started.
    """
    if workers <= 1:
        _one_blas_thread()
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_one_blas_thread)
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def run_comparison(wafer_paths, *, u="0.5", u_scratch="0.4", m_list=COMPARE_M_LIST,
                   seeds=COMPARE_SEEDS, iters=McmcConfig.iters, burn_in=McmcConfig.burn_in,
                   alpha=GwHyper.alpha, nmi_normalizer="paper",
                   truth_source="reconstruction", progress=None, counters=None):
    """Full AC vs CPF pipeline over a set of wafers; returns result rows.

    A wafer is named by its file's stem, or by its directory when the
    stem is "wafer".  External truth comes from connected components of
    the reconstructed raw map by default (`truth_source="reconstruction"`);
    pass "sidecar" to use the generator metadata in the truth.json next
    to each wafer, which must then exist.  Scratch-family wafers use
    `u_scratch` for the AC filter, mirroring the reduced separation cost
    the experiments use for scratch patterns.  The MCMC schedule, `alpha`,
    `u`, `u_scratch` and `truth_source` are checked before any wafer is
    read, and a bad one raises ValueError; two wafers of one name, or an
    M given twice, raise ConfigError.

    Every wafer is filtered first.  Then each distinct (points, fit seed)
    pair is fitted once, on as many worker processes as the process may
    use cores and there are fits.  Rows come in input order, and each
    fit is seeded, so the rows do not depend on the worker count.
    `progress` is called with each row, in order, as it is ready; a row
    of an empty point set has no fit and no scores.
    A `counters` dict receives `fit_requests`, `fits_run`, `workers` and
    `wall_seconds`, the distinct fits' `IwmmResult.wall_seconds` summed
    per stage; the last two depend on the machine.
    """
    if truth_source not in TRUTH_SOURCES:
        raise ValueError(f"unknown truth source {truth_source!r}; "
                         f"expected one of {', '.join(TRUTH_SOURCES)}")
    mcmc = McmcConfig(iters=iters, burn_in=burn_in)
    hyper = GwHyper(alpha=alpha)
    ac_configs = {value: AcConfig(u=value) for value in (u, u_scratch)}
    names = {}
    for path in map(Path, wafer_paths):
        name = path.stem if path.stem != "wafer" else path.parent.name
        if name in names:
            raise ConfigError(f"{names[name]} and {path} are both named wafer {name!r}")
        names[name] = path
    if len(set(m_list)) < len(m_list):
        raise ConfigError(f"the M list {','.join(map(str, m_list))} repeats a value")

    cases = []  # (row fields, kept points, truth labels) per wafer and method
    for name, path in names.items():
        wmap = _read_wafer(path)
        sidecar = path.parent / "truth.json"
        sidecar_doc = None
        if truth_source == "sidecar" or sidecar.exists():
            sidecar_doc = _sidecar_of(_read_json_object(sidecar), sidecar)
        family = (sidecar_doc or {}).get("family") or ""
        lookup = (_truth_lookup_from_sidecar(sidecar_doc) if truth_source == "sidecar"
                  else truth_lookup_from_reconstruction(wmap))

        u_eff = u_scratch if family == "scratch_pair" else u
        results = [("ac", str(u_eff), ac_filter(wmap, ac_configs[u_eff]))] + [
            ("cpf", str(m), cpf_filter(wmap, CpfConfig(m_threshold=int(m)))) for m in m_list]
        for method, param, result in results:
            points = tuple(filtered_points(wmap, result))
            fields = {"wafer": name, "family": family, "method": method, "param": param}
            cases.append((fields, points, [lookup(rc) for rc in points]))

    # Identical filtered sets (e.g. CPF M=5 and M=10) share their fits.
    # The largest point sets go first, so no worker is left with a long
    # fit at the end.
    requests = [(points, fit_seed) for _, points, _ in cases if points
                for fit_seed in range(seeds)]
    jobs = sorted(dict.fromkeys(requests), key=lambda job: -len(job[0]))
    # Without an affinity API (macOS, Windows) the fits run in process.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, len(jobs))
    if counters is not None:
        counters.update(fit_requests=len(requests), fits_run=len(jobs), workers=workers)

    rows = []
    with _fit_map(workers) as fit_map:
        done = zip(jobs, fit_map(fit_points, [points for points, _ in jobs], repeat(hyper),
                                 repeat(mcmc), [fit_seed for _, fit_seed in jobs]))
        fits = {}
        for fields, points, truth in cases:
            pts_arr = np.array(points, dtype=float)
            for fit_seed in range(seeds):
                k_hat, report = None, EvaluationReport()
                if points:
                    while (points, fit_seed) not in fits:
                        job, res = next(done)
                        fits[job] = res
                    res = fits[points, fit_seed]
                    k_hat = res.k_hat
                    report = evaluation_report(pts_arr, list(res.assignments), truth,
                                               nmi_normalizer=nmi_normalizer)
                rows.append(dict(fields, fit_seed=fit_seed, n_points=len(points), k_hat=k_hat,
                                 **{score: getattr(report, score) for score in SCORES}))
                if progress:
                    progress(rows[-1])
    if counters is not None:
        wall_seconds = Counter()
        for res in fits.values():
            wall_seconds.update(res.wall_seconds)
        counters["wall_seconds"] = dict(wall_seconds)
    return rows


def write_csv(path: Path, columns, rows):
    """Write dict rows as CSV in column order; None becomes an empty cell."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(columns))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k, "")) for k in columns})
    _write(path, text.getvalue())


def write_comparison(outdir: Path, rows):
    """comparison.csv, improvements.csv and wilcoxon.json of compare's rows."""
    write_csv(outdir / "comparison.csv", COMPARISON_COLUMNS, rows)
    write_csv(outdir / "improvements.csv", IMPROVEMENT_COLUMNS, compute_improvements(rows))
    _write(outdir / "wilcoxon.json", dump_json(compute_wilcoxon(rows)))


def cmd_compare(args) -> int:
    m_list = [int(tok) for tok in args.m_list.split(",") if tok]
    if not m_list or any(m < 1 for m in m_list):
        raise ConfigError("--m-list must contain integers >= 1")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")

    def progress(row):
        print(f"  {row['wafer']} {row['method']}{row['param']} seed {row['fit_seed']}: "
              f"k={row['k_hat']} nmi={row['nmi']}", file=sys.stderr)

    counters = {}
    rows = run_comparison(
        args.wafers, u=args.u, u_scratch=args.u_scratch, m_list=m_list,
        seeds=args.seeds, iters=args.iters, burn_in=args.burn_in,
        alpha=args.alpha, nmi_normalizer=args.nmi_normalizer,
        truth_source=args.truth_source,
        progress=progress if args.verbose else None, counters=counters,
    )
    # The worker count and the wall times depend on the machine, so they
    # stay out of the seeded files.
    workers = counters.pop("workers")
    wall_seconds = counters.pop("wall_seconds")
    if args.verbose:
        print(f"  {counters['fits_run']} distinct fits of {counters['fit_requests']} "
              f"requests on {workers} worker(s)", file=sys.stderr)
    outdir = Path(args.out)
    write_comparison(outdir, rows)
    _write_manifest(
        outdir, "compare", list(args.wafers),
        {"u": str(args.u), "u_scratch": str(args.u_scratch), "m_list": m_list,
         "seeds": args.seeds, "iters": args.iters, "burn_in": args.burn_in,
         "alpha": args.alpha, "truth_source": args.truth_source,
         "nmi_normalizer": args.nmi_normalizer},
        counters=counters,
    )
    _write_timings(outdir, wall_seconds)
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
    p.add_argument("--u")
    p.add_argument("--w-mag", dest="w_mag")
    p.add_argument("--m", type=int)
    p.add_argument("--neighborhood", choices=("rook", "king"), default="king")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("cluster", help="iWMM sub-clustering of a filtered wafer")
    p.add_argument("input")
    p.add_argument("--iters", type=int, default=McmcConfig.iters)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=McmcConfig.burn_in)
    p.add_argument("--alpha", type=float, default=GwHyper.alpha)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="internal/external validation of assignments")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth")
    p.add_argument("--wafer", help="score against the wafer's reconstructed truth")
    p.add_argument("--nmi-normalizer", dest="nmi_normalizer",
                   choices=NMI_NORMALIZERS, default="paper")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="SVG rendering of a wafer map")
    p.add_argument("input")
    p.add_argument("--assignments")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="AC vs CPF head-to-head over wafers")
    p.add_argument("wafers", nargs="+")
    p.add_argument("--u", default="0.5")
    p.add_argument("--u-scratch", dest="u_scratch", default="0.4",
                   help="AC separation cost for scratch-family wafers")
    p.add_argument("--m-list", dest="m_list", default=",".join(map(str, COMPARE_M_LIST)))
    p.add_argument("--seeds", type=int, default=COMPARE_SEEDS)
    p.add_argument("--iters", type=int, default=McmcConfig.iters)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=McmcConfig.burn_in)
    p.add_argument("--alpha", type=float, default=GwHyper.alpha)
    p.add_argument("--truth", dest="truth_source", choices=TRUTH_SOURCES,
                   default="reconstruction")
    p.add_argument("--nmi-normalizer", dest="nmi_normalizer",
                   choices=NMI_NORMALIZERS, default="paper")
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
