"""Command-line front end: generate -> filter -> cluster -> evaluate ->
render -> compare, with deterministic seeds and machine-readable outputs.

Every command writes a manifest.json next to its outputs with the full
configuration needed to replay the run (`render` names it after its SVG:
x.svg -> x.manifest.json).  A command that fails writes none and raises;
`main` prints the error as one `error:` line and exits with the code
`EXIT_CODES` gives its type: 2 input parse error (an unreadable or
malformed input; argparse exits 2 on a usage error too), 3 configuration
error (a bad flag value, or an `--out` that cannot be written), 4 empty
defect set (cluster), 5 mismatched coordinates (evaluate: a truth
assignments document that names other chips than the prediction, or a
predicted chip that is not an in-mask chip of `--wafer`).  An option
left out takes the default of the config or function it feeds.  Every
"row,col" -> label JSON table (assignments, and a sidecar's labels and
regions) is written by `_chip_object` and read by `_chip_table`, which
takes only the canonical decimal keys `_chip_object` writes ("1,1",
never "01,1" or "+1,1"), so each chip has one key; a JSON input that
repeats a key in one object exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import io
import json
import os
import re
import statistics
import sys
from collections import Counter
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .acfilter import AcConfig, ac_filter
from .cpf import CpfConfig, cpf_filter
from .errors import ConfigError, CoordinateMismatchError, EmptyInputError, ParseError, UndefinedTest
from .iwmm import GwHyper, McmcConfig, PointSet, iwmm_fit
from .render import render_svg
from .synthgen import CORPUS_BASE_SEED, CORPUS_NOISE, CORPUS_SIDE, FAMILIES, family_specs
from .synthgen import generate, twelve_wafer_corpus
from .validation import (
    NMI_NORMALIZERS,
    EvaluationReport,
    evaluation_report,
    reconstruct_ground_truth,
    wilcoxon_signed_rank,
)
from .wafer import CellState, Neighborhood, WaferMap, components, parse_wafer, whole_number
from .wafer import write_wafer

# The scores of a compare row, as EvaluationReport names them, on each of
# which improvements.csv and wilcoxon.json pair AC with CPF.
SCORES = ("ch", "gdi", "ri", "ari", "nmi", "nmi_sqrt")

COMPARISON_COLUMNS = (
    "wafer", "family", "method", "param", "fit_seed", "n_points", "k_hat",
) + SCORES

IMPROVEMENT_COLUMNS = ("wafer", "family", "metric", "m", "improvement_pct")

# Where compare's external truth comes from (see `run_comparison`).
TRUTH_SOURCES = ("reconstruction", "sidecar")


def _dump_json(obj) -> str:
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


def _write_manifest(outdir: Path, command, inputs, config, seed=None, counters=None,
                    name="manifest.json"):
    """The manifest of a run, `name` in `outdir`, with everything needed to
    replay it bit-for-bit; `counters` (deterministic counts of the work
    done) are added under their own key when given."""
    doc = {"command": command, "inputs": [str(p) for p in inputs], "config": config,
           "seed": seed, "version": __version__}
    if counters is not None:
        doc["counters"] = counters
    _write(outdir / name, _dump_json(doc))


def _write_timings(outdir: Path, wall_seconds):
    """timings.json: the seconds of each fit stage, as `wall_seconds` of
    IwmmResult names them.  Wall-clock seconds vary from run to run, so
    they stay out of the seeded files and the manifest."""
    _write(outdir / "timings.json",
           _dump_json({f"{stage}_s": s for stage, s in wall_seconds.items()}))


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


def _read_json_object(path) -> dict:
    """The JSON object in `path`; ParseError naming the file when it
    cannot be read, repeats a key in one object, or holds anything else."""
    data = _read_bytes(path)
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_object_of_unique_keys)
    except ValueError as exc:
        raise ParseError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON object")
    return doc


def _object_of_unique_keys(pairs: list) -> dict:
    """The dict of a JSON object's (key, value) pairs; ValueError when a
    key repeats, which `json.loads` would read as its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key, _ = Counter(key for key, _ in pairs).most_common(1)[0]
        raise ValueError(f"duplicate key {key!r}")
    return doc


# A chip key as `_chip_object` writes it: canonical decimal "row,col".
# [0-9], not \d, which matches every Unicode digit.
_CHIP_KEY = re.compile(r"(0|-?[1-9][0-9]*),(0|-?[1-9][0-9]*)")


def _chip_table(doc: dict, name: str, path, default=None) -> dict:
    """The {(row, col): label} table `doc[name]` of a document read from
    `path`, an object of canonical "row,col" keys and integer labels as
    `_chip_object` writes it (`default` where `doc` has no `name`);
    ParseError naming the file when it is malformed."""
    table = doc.get(name, default)
    if not isinstance(table, dict):
        raise ParseError(f'{path}: no "{name}" object')
    chips = {}
    for key, label in table.items():
        match = _CHIP_KEY.fullmatch(key)
        if match is None:
            raise ParseError(f'{path}: coordinate key {key!r} is not "row,col"')
        if type(label) is not int:
            raise ParseError(f"{path}: label {label!r} of {key!r} is not an integer")
        chips[int(match[1]), int(match[2])] = label
    return chips


def _chip_object(chips, labels) -> dict:
    """The JSON object `_chip_table` reads: "row,col" of each (row, col)
    chip -> its integer label."""
    return {f"{r},{c}": int(label) for (r, c), label in zip(chips, labels)}


def _sidecar_of(doc: dict, path) -> tuple[str, dict]:
    """(family, {(row, col): truth label}) of `doc`, a truth.json sidecar
    (as `generate` writes it) read from `path`: a chip's region, else its
    pattern label; ParseError naming the file unless its "regions" and
    "labels", where present, are chip tables (see `_chip_table`) and its
    "family", where present, is a string."""
    labels = _chip_table(doc, "labels", path, default={})
    regions = _chip_table(doc, "regions", path, default={})
    family = doc.get("family", "")
    if not isinstance(family, str):
        raise ParseError(f'{path}: "family" is not a string')
    return family, {**labels, **regions}


# ---------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------

def _write_generated(outdir: Path, sw, family, seed, fmt="ascii") -> Path:
    """Write a generated wafer to `outdir`: its map as wafer.txt (wafer.csv
    for `fmt` "csv") and its truth.json sidecar, which holds the pattern
    label of each defective chip and the region of every chip inside a
    pattern.  Returns the map file's path."""
    path = outdir / ("wafer.csv" if fmt == "csv" else "wafer.txt")
    _write(path, write_wafer(sw.map, fmt=fmt).decode())
    rows, cols = sw.map.rows, sw.map.cols
    grid_truth = sw.truth_labels.reshape(rows, cols)
    grid_region = sw.region_labels.reshape(rows, cols)
    defect = sw.map.grid() == CellState.DEFECTIVE
    region = grid_region > 0
    truth = {
        "rows": rows, "cols": cols, "family": family, "noise_rate": sw.noise_rate, "seed": seed,
        "labels": _chip_object(zip(*np.nonzero(defect)), grid_truth[defect]),
        "regions": _chip_object(zip(*np.nonzero(region)), grid_region[region]),
    }
    _write(outdir / "truth.json", _dump_json(truth))
    return path


def write_corpus(directory, rows=CORPUS_SIDE, noise_rate=CORPUS_NOISE,
                 base_seed=CORPUS_BASE_SEED) -> list[Path]:
    """Write the twelve-wafer corpus of `rows` x `rows` wafers, wafer i
    as `generate` writes it for its family and seed `base_seed` + i, to
    `directory`/wNN; returns the wafer paths in corpus order."""
    corpus = twelve_wafer_corpus(rows, rows, noise_rate, base_seed)
    return [_write_generated(Path(directory) / f"w{idx:02d}", sw, family, base_seed + idx)
            for idx, (family, sw) in enumerate(corpus)]


def cmd_generate(args):
    outdir = Path(args.out)
    sw = generate(args.rows, args.cols, family_specs(args.family), args.noise, args.seed)
    _write_generated(outdir, sw, args.family, args.seed, fmt=args.format)
    _write_manifest(
        outdir, "generate", [],
        {"rows": args.rows, "cols": args.cols, "family": args.family,
         "noise": args.noise, "format": args.format},
        seed=args.seed,
    )


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
    if args.neighborhood is not None:
        options["nb"] = Neighborhood(args.neighborhood)
    if args.method == "ac":
        cfg = AcConfig(**options)
        return ac_filter(wmap, cfg), {"method": "ac", "u": str(cfg.u), "w_mag": str(cfg.w_mag),
                                      "neighborhood": cfg.nb.value}
    cfg = CpfConfig(**options)
    return cpf_filter(wmap, cfg), {"method": "cpf", "m": cfg.m_threshold,
                                   "neighborhood": cfg.nb.value}


def cmd_filter(args):
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
    _write(outdir / "summary.json", _dump_json(summary))
    _write_manifest(outdir, "filter", [args.input], config)


# ---------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------

def cmd_cluster(args):
    wmap = _read_wafer(args.input)
    points = wmap.defective_coords()
    if not points:
        raise EmptyInputError("input wafer has no defective cells to cluster")
    hyper = GwHyper(alpha=args.alpha)
    mcmc = McmcConfig(iters=args.iters, burn_in=args.burn_in)
    res = fit_points(points, hyper, mcmc, args.seed)
    outdir = Path(args.out)
    ks = [k for k, _ in res.trace]
    kept = ks[args.burn_in:]
    assignments_doc = {
        "k_hat": res.k_hat,
        "n": len(points),
        "seed": args.seed,
        "assignments": _chip_object(points, res.assignments),
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
            "step_size_path": res.step_size_path,
            "k_min": min(kept),
            "k_max": max(kept),
            "k_hat_share": kept.count(res.k_hat) / len(kept),
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
    _write_timings(outdir, res.wall_seconds)


# ---------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------

def reconstructed_truth(wmap: WaferMap) -> dict:
    """{(row, col): truth label} of every in-mask chip of `wmap`: the
    king-connected component of the reconstructed map that holds the
    chip, or 0 off every component."""
    comp = components(reconstruct_ground_truth(wmap).grid() == CellState.DEFECTIVE,
                      Neighborhood.KING)
    inside = wmap.in_mask()
    rows, cols = np.nonzero(inside)
    return dict(zip(zip(rows.tolist(), cols.tolist()), comp[inside].tolist()))


def cmd_evaluate(args):
    if bool(args.truth) == bool(args.wafer):
        raise ConfigError("evaluate takes one of --truth and --wafer")

    pred = _chip_table(_read_json_object(args.pred), "assignments", args.pred)
    inputs = [args.pred, args.truth or args.wafer]
    if args.truth:
        truth_doc = _read_json_object(args.truth)
        if "assignments" in truth_doc:
            truth = _chip_table(truth_doc, "assignments", args.truth)
            covered = truth.keys() == pred.keys()
        else:
            # A sidecar has no mask: a chip it does not name is truth 0.
            truth = _sidecar_of(truth_doc, args.truth)[1]
            covered = True
    else:
        truth = reconstructed_truth(_read_wafer(args.wafer))
        covered = pred.keys() <= truth.keys()
    if not covered:
        raise CoordinateMismatchError("prediction and truth cover different coordinates")

    chips = sorted(pred)
    report = evaluation_report(np.array(chips, dtype=float), [pred[rc] for rc in chips],
                               [truth.get(rc, 0) for rc in chips],
                               nmi_normalizer=args.nmi_normalizer)
    outdir = Path(args.out)
    _write(outdir / "report.json", _dump_json(report.to_dict()))
    _write_manifest(outdir, "evaluate", inputs, {"nmi_normalizer": args.nmi_normalizer})


# ---------------------------------------------------------------------
# render
# ---------------------------------------------------------------------

def cmd_render(args):
    wmap = _read_wafer(args.input)
    assignments = {}
    if args.assignments:
        assignments = _chip_table(_read_json_object(args.assignments), "assignments",
                                  args.assignments)
    svg = render_svg(wmap, assignments)
    out = Path(args.out)
    _write(out, svg)
    # Named after the SVG, so that a render into another command's
    # directory leaves that command's manifest.json in place.
    _write_manifest(out.parent, "render", [args.input] +
                    ([args.assignments] if args.assignments else []),
                    {"out": out.name}, name=f"{out.stem}.manifest.json")


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
        for metric in SCORES:
            if r[metric] is not None:
                values.setdefault((r["wafer"], param, metric), []).append(r[metric])
    medians = {key: statistics.median(v) for key, v in values.items()}
    ms = sorted({r["param"] for r in rows if r["method"] == "cpf"})
    for wafer, family in sorted({(r["wafer"], r["family"]) for r in rows}):
        for m, metric in product(ms, SCORES):
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


def filtered_points(wmap: WaferMap, result) -> list[tuple[int, int]]:
    """The (row, col) chips `result` keeps, as `cluster` reads `filter`'s."""
    return wmap.with_overlay(result.labels).defective_coords()


def fit_points(points, hyper, mcmc, seed):
    """The iWMM fit of (row, col) points, as `cluster` and `compare` run
    it: the prior `hyper`, the schedule `mcmc`, and the default kernel."""
    return iwmm_fit(PointSet(np.array(points, dtype=float)), hyper, mcmc=mcmc, seed=seed)


@contextlib.contextmanager
def _fit_map(workers):
    """A `map` for the fits: the builtin one in process for one worker,
    else the `map` of a pool of `workers` forked processes.  Either way
    each fit sets OpenBLAS to one thread in the process it runs in (see
    iwmm_fit).

    Forked workers start in milliseconds and inherit the imported
    modules; the pool forks all of them before it starts its own thread.
    Leaving the block cancels the fits not yet started.
    """
    if workers <= 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def run_comparison(wafer_paths, *, u="0.5", u_scratch="0.4", m_list=(5, 10),
                   seeds=3, iters=McmcConfig.iters, burn_in=McmcConfig.burn_in,
                   alpha=GwHyper.alpha, nmi_normalizer="paper",
                   truth_source="reconstruction", progress=None, counters=None):
    """Full AC vs CPF pipeline over a set of wafers; returns result rows.

    A wafer is named by its file's stem, or by its directory when the
    stem is "wafer".  External truth comes from connected components of
    the reconstructed raw map by default (`truth_source="reconstruction"`,
    see `reconstructed_truth`); pass "sidecar" to use the generator
    metadata in the truth.json next to each wafer, which must then exist.
    Either way a wafer's truth is one {(row, col): label} table, as
    `evaluate` reads it, and a kept chip it does not name scores 0.
    Scratch-family wafers use `u_scratch` for the AC filter, mirroring
    the reduced separation cost the experiments use for scratch
    patterns.  Every setting is checked before any wafer is read: a bad
    MCMC schedule, `alpha`, `u`, `u_scratch` or `truth_source`, or a
    `seeds` or M that is not a whole number, raises ValueError; `seeds`
    below 1, an empty M list or an M below 1, an M given twice, or two
    wafers of one name raise ConfigError.

    Every wafer is filtered first, by AC and by CPF at each M of
    `m_list`.  Then each distinct (points, fit seed) pair, fit seeds 0 to
    `seeds` - 1, is fitted once, on as many worker processes as the
    process may use cores and there are fits.  Rows come in input order,
    and each fit is seeded, so the rows do not depend on the worker count.
    `progress` is called with each row, in order, as it is ready; a row
    of an empty point set has no fit and no scores.
    A `counters` dict receives `fit_requests`, `fits_run`, the sums over
    the distinct fits of their accepted HMC transitions (`hmc_accepted`),
    `jitter_escalations` and `hmc_numerical_rejections`, and `workers`
    and `wall_seconds`, the distinct fits' `IwmmResult.wall_seconds`
    summed per stage; the last two depend on the machine.
    """
    if truth_source not in TRUTH_SOURCES:
        raise ValueError(f"unknown truth source {truth_source!r}; "
                         f"expected one of {', '.join(TRUTH_SOURCES)}")
    seeds = whole_number("seeds", seeds)
    if seeds < 1:
        raise ConfigError(f"the fit seed count must be >= 1, got {seeds}")
    m_values = [whole_number("m_list", m) for m in m_list]
    listed = ",".join(map(str, m_values))
    if not m_values or min(m_values) < 1:
        raise ConfigError(f"the M list {listed!r} must hold integers >= 1")
    if len(set(m_values)) < len(m_values):
        raise ConfigError(f"the M list {listed} repeats a value")
    mcmc = McmcConfig(iters=iters, burn_in=burn_in)
    hyper = GwHyper(alpha=alpha)
    ac_configs = {value: AcConfig(u=value) for value in (u, u_scratch)}
    cpf_configs = [CpfConfig(m_threshold=m) for m in m_values]
    names = {}
    for path in map(Path, wafer_paths):
        name = path.stem if path.stem != "wafer" else path.parent.name
        if name in names:
            raise ConfigError(f"{names[name]} and {path} are both named wafer {name!r}")
        names[name] = path

    cases = []  # (row fields, kept points, truth labels) per wafer and method
    for name, path in names.items():
        wmap = _read_wafer(path)
        sidecar = path.parent / "truth.json"
        family, truth = "", None
        if truth_source == "sidecar" or sidecar.exists():
            family, truth = _sidecar_of(_read_json_object(sidecar), sidecar)
        if truth_source == "reconstruction":
            truth = reconstructed_truth(wmap)

        u_eff = u_scratch if family == "scratch_pair" else u
        results = [("ac", str(u_eff), ac_filter(wmap, ac_configs[u_eff]))] + [
            ("cpf", str(cfg.m_threshold), cpf_filter(wmap, cfg)) for cfg in cpf_configs]
        for method, param, result in results:
            points = tuple(filtered_points(wmap, result))
            fields = {"wafer": name, "family": family, "method": method, "param": param}
            cases.append((fields, points, [truth.get(rc, 0) for rc in points]))

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
        results = list(fits.values())
        wall_seconds = Counter()
        for res in results:
            wall_seconds.update(res.wall_seconds)
        counters.update(
            hmc_accepted=sum(res.hmc_accepted for res in results),
            jitter_escalations=sum(res.jitter_escalations for res in results),
            hmc_numerical_rejections=sum(res.hmc_numerical_rejections for res in results),
            wall_seconds=dict(wall_seconds))
    return rows


# The defaults evaluate's and compare's options take: evaluation_report's
# NMI normalizer and run_comparison's settings.  Read once, so that a
# stand-in for either function leaves them be.
EVALUATE_NMI_NORMALIZER = inspect.signature(evaluation_report).parameters["nmi_normalizer"].default
COMPARE_SETTINGS = {name: default for name, default in run_comparison.__kwdefaults__.items()
                    if name not in ("progress", "counters")}


def write_csv(path: Path, columns, rows):
    """Write dict rows as CSV in column order; None becomes an empty cell."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(columns))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k, "")) for k in columns})
    _write(path, text.getvalue())


def cmd_compare(args):
    # The manifest records the settings as given.
    settings = {name: getattr(args, name) for name in COMPARE_SETTINGS}
    tokens = [tok for tok in args.m_list.split(",") if tok]
    for tok in tokens:
        if not INT_TOKEN.fullmatch(tok):
            raise ConfigError(f"--m-list: invalid literal for int() with base 10: {tok!r}")
    settings["m_list"] = list(map(int, tokens))

    def progress(row):
        print(f"  {row['wafer']} {row['method']}{row['param']} seed {row['fit_seed']}: "
              f"k={row['k_hat']} nmi={row['nmi']} nmi_sqrt={row['nmi_sqrt']}", file=sys.stderr)

    counters = {}
    rows = run_comparison(args.wafers, **settings, progress=progress if args.verbose else None,
                          counters=counters)
    # The worker count and the wall times depend on the machine, so they
    # stay out of the seeded files.
    workers = counters.pop("workers")
    wall_seconds = counters.pop("wall_seconds")
    if args.verbose:
        print(f"  {counters['fits_run']} distinct fits of {counters['fit_requests']} "
              f"requests on {workers} worker(s)", file=sys.stderr)
    outdir = Path(args.out)
    write_csv(outdir / "comparison.csv", COMPARISON_COLUMNS, rows)
    write_csv(outdir / "improvements.csv", IMPROVEMENT_COLUMNS, compute_improvements(rows))
    _write(outdir / "wilcoxon.json", _dump_json(compute_wilcoxon(rows)))
    _write_manifest(outdir, "compare", list(args.wafers), settings, counters=counters)
    _write_timings(outdir, wall_seconds)


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------

# An integer flag or `--m-list` token: ASCII digits after an optional '-'.
# int() alone also reads '+', '_', spaces and the digits of other scripts.
INT_TOKEN = re.compile(r"-?[0-9]+")


def _int_flag(text: str) -> int:
    if not INT_TOKEN.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _float_flag(text: str) -> float:
    """float() of ASCII text with no '_', which float() alone would read."""
    try:
        if text.isascii() and "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waferspr",
        description="Mixed-type spatial pattern recognition for wafer bin maps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic mixed-type wafer")
    p.add_argument("--rows", type=_int_flag, default=38)
    p.add_argument("--cols", type=_int_flag, default=38)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--noise", type=_float_flag, default=0.05)
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--format", choices=("ascii", "csv"), default="ascii")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("filter", help="spatial filtering (AC or CPF)")
    p.add_argument("input")
    p.add_argument("--method", choices=("ac", "cpf"), default="ac")
    p.add_argument("--u")
    p.add_argument("--w-mag", dest="w_mag")
    p.add_argument("--m", type=_int_flag)
    p.add_argument("--neighborhood", choices=("rook", "king"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("cluster", help="iWMM sub-clustering of a filtered wafer")
    p.add_argument("input")
    p.add_argument("--iters", type=_int_flag, default=McmcConfig.iters)
    p.add_argument("--burn-in", dest="burn_in", type=_int_flag, default=McmcConfig.burn_in)
    p.add_argument("--alpha", type=_float_flag, default=GwHyper.alpha)
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="internal/external validation of assignments")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth")
    p.add_argument("--wafer", help="score against the wafer's reconstructed truth")
    p.add_argument("--nmi-normalizer", dest="nmi_normalizer",
                   choices=NMI_NORMALIZERS, default=EVALUATE_NMI_NORMALIZER)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="SVG rendering of a wafer map")
    p.add_argument("input")
    p.add_argument("--assignments")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="AC vs CPF head-to-head over wafers")
    p.add_argument("wafers", nargs="+")
    d = COMPARE_SETTINGS
    p.add_argument("--u", default=d["u"])
    p.add_argument("--u-scratch", dest="u_scratch", default=d["u_scratch"],
                   help="AC separation cost for scratch-family wafers")
    p.add_argument("--m-list", dest="m_list", default=",".join(map(str, d["m_list"])))
    p.add_argument("--seeds", type=_int_flag, default=d["seeds"])
    p.add_argument("--iters", type=_int_flag, default=d["iters"])
    p.add_argument("--burn-in", dest="burn_in", type=_int_flag, default=d["burn_in"])
    p.add_argument("--alpha", type=_float_flag, default=d["alpha"])
    p.add_argument("--truth", dest="truth_source", choices=TRUTH_SOURCES,
                   default=d["truth_source"])
    p.add_argument("--nmi-normalizer", dest="nmi_normalizer",
                   choices=NMI_NORMALIZERS, default=d["nmi_normalizer"])
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


# The exit code of each error type a command may raise (see the module
# docstring).
EXIT_CODES = {ParseError: 2, ConfigError: 3, ValueError: 3, EmptyInputError: 4,
              CoordinateMismatchError: 5}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
