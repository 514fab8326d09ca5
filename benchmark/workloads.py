"""The benchmark workloads: screen, large_map and compare.

A workload makes its inputs from the seed (`setup`), runs one untimed
warm-up operation (`warmup`), runs one timed operation at a time
(`op`), keeps of each output what the checks need (`retain`), and
afterwards checks every output (`check`) and scores the filters
(`accuracy`).  Operations may only call into the program
through the callables that `bind` wraps, so the traced run sees them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import ndimage

from waferspr import acfilter, cli, cpf, synthgen, validation, wafer
from waferspr.errors import UndefinedIndex

import checks
import tracing

AC_CONFIG = acfilter.AcConfig(u=Fraction(1, 2), nb=wafer.Neighborhood.KING)
CPF_M = 5
CPF_CONFIG = cpf.CpfConfig(m_threshold=CPF_M, nb=wafer.Neighborhood.KING)


def components_nmi(grid, labels):
    """nmi_sqrt of the kept chips' king components against the reconstructed
    truth components (the truth `compare` scores against), or None."""
    inside = grid != checks.OUTSIDE
    kept = np.zeros(grid.shape, dtype=bool)
    kept[inside] = np.asarray(labels) == 1
    if not kept.any():
        return None
    predicted, _ = ndimage.label(kept, structure=checks.KING)
    truth, _ = ndimage.label(checks.reconstructed_defects(grid), structure=checks.KING)
    try:
        return validation.nmi_index(truth[kept], predicted[kept], "sqrt")
    except UndefinedIndex:
        return None


@dataclass(frozen=True)
class Inputs:
    """The generated inputs: the pool the timed loop cycles through, and the
    input of the warm-up operation."""

    pool: list
    warm: object


class Failures:
    """Failure messages per operation index."""

    def __init__(self):
        self.by_op = {}

    def add(self, op_index, messages):
        if messages:
            self.by_op.setdefault(op_index, []).extend(messages)


def _output_digest(ac, cp, rec):
    rec_digest = None if rec is None else checks.label_digest(rec.cells)
    return checks.label_digest(ac.labels), checks.label_digest(cp.labels), rec_digest


class FilterWorkload:
    """Shared by screen and large_map: a pool of wafers, one wafer per op."""

    wafers_per_op = 1
    # Operations of a few ms to a few s, pure-Python bound: the default
    # pure-Python speed probe run around each one tracks the machine's
    # speed during it.
    loop_probe = None

    ops_per_round = 1

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self._retained = set()  # pool wafers whose full output is kept

    def retain(self, out):
        """(pool index, digest, output): the full output only on the first
        successful run of each pool wafer, None after that, so the memory
        the benchmark keeps does not grow with the number of operations."""
        if isinstance(out, Exception):
            return out
        idx, ac, cp, rec = out
        digest = _output_digest(ac, cp, rec)
        if idx in self._retained:
            return idx, digest, None
        self._retained.add(idx)
        return idx, digest, out

    def reference_key(self, seed):
        return f"{self.name}/{'smoke' if self.smoke else 'full'}/seed{seed}"

    def bind(self, tracer):
        self.generate = tracer.wrap("synthgen.generate", synthgen.generate)
        self.parse = tracer.wrap("wafer.parse", wafer.parse_wafer)
        self.ac_filter = tracer.wrap("acfilter.filter", acfilter.ac_filter, tracing.ac_counts)
        self.cpf_filter = tracer.wrap("cpf.filter", cpf.cpf_filter, tracing.cpf_counts)
        self.reconstruct = tracer.wrap("validation.reconstruct",
                                       validation.reconstruct_ground_truth)

    def labels(self, inputs):
        """(ac, cpf) labels of every pool wafer, computed outside any timing."""
        maps = [self.wafer_map(item) for item in inputs.pool]
        return ([acfilter.ac_filter(m, AC_CONFIG).labels for m in maps],
                [cpf.cpf_filter(m, CPF_CONFIG).labels for m in maps])

    def check(self, inputs, outputs, reference) -> Failures:
        """Full checks on the first output per pool wafer.  A later output
        for the same wafer must equal it, and fails with it."""
        failures = Failures()
        first = {}  # pool index -> (op index, digest, failed)
        for op_index, out in enumerate(outputs):
            if isinstance(out, Exception):
                failures.add(op_index, [f"raised {type(out).__name__}: {out}"])
                continue
            idx, digest, full = out
            if full is None:
                first_op, first_digest, first_failed = first[idx]
                if digest != first_digest:
                    failures.add(op_index, [f"wafer {idx}: output differs from op {first_op}"])
                elif first_failed:
                    failures.add(op_index, [f"wafer {idx}: repeats the failed output of "
                                            f"op {first_op}"])
                continue
            _, ac, cp, rec = full
            grid = self.wafer_map(inputs.pool[idx]).grid()
            msgs = checks.check_ac_certificate(grid, ac.labels, AC_CONFIG.u, AC_CONFIG.w_mag)
            msgs += checks.check_cpf_invariants(grid, cp.labels, CPF_M)
            if rec is not None:
                msgs += checks.check_reconstruction(grid, rec.grid())
            if reference is not None:
                for kind, labels in (("ac", ac.labels), ("cpf", cp.labels)):
                    if checks.label_digest(labels) != reference[kind][idx]:
                        msgs.append(f"wafer {idx}: {kind} labels differ from the reference")
            first[idx] = (op_index, digest, bool(msgs))
            failures.add(op_index, msgs)
        return failures

    def accuracy(self, inputs, outputs):
        ac, cp = [], []
        for out in outputs:
            if isinstance(out, Exception) or out[2] is None:
                continue
            idx, ac_res, cpf_res, _ = out[2]
            grid = self.wafer_map(inputs.pool[idx]).grid()
            ac.append(components_nmi(grid, ac_res.labels))
            cp.append(components_nmi(grid, cpf_res.labels))
        return ac, cp


class Screen(FilterWorkload):
    """38x38 wafers cycling through the five families, noise 0.05-0.15:
    parse from ASCII bytes, AC (u=1/2, king), CPF (M=5), reconstruction."""

    name = "screen"
    size = 38

    @property
    def pool_size(self):
        return 5 if self.smoke else 100

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        pool = []
        for i in range(self.pool_size):
            family = synthgen.FAMILIES[i % len(synthgen.FAMILIES)]
            noise = float(rng.uniform(0.05, 0.15))
            sw = self.generate(self.size, self.size, synthgen.family_specs(family), noise,
                               int(rng.integers(2**31)))
            pool.append(wafer.write_wafer(sw.map))
        return Inputs(pool, pool[0])

    def wafer_map(self, item):
        return wafer.parse_wafer(item)

    def warmup(self, inputs, workdir):
        self._screen(inputs.warm)

    def op(self, inputs, i, workdir):
        idx = i % len(inputs.pool)
        return (idx, *self._screen(inputs.pool[idx]))

    def _screen(self, data):
        wmap = self.parse(data)
        ac = self.ac_filter(wmap, AC_CONFIG)
        cp = self.cpf_filter(wmap, CPF_CONFIG)
        return ac, cp, self.reconstruct(wmap)


class LargeMap(FilterWorkload):
    """150x150 wafers, two per family (noise 0.15), through AC and CPF.

    The families differ up to eightfold in cost, so a run covers whole
    rounds of the pool and every run weighs them alike.
    """

    name = "large_map"
    noise = 0.15
    per_family = 2

    @property
    def size(self):
        return 40 if self.smoke else 150

    @property
    def ops_per_round(self):
        return self.per_family * len(synthgen.FAMILIES)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        pool = [
            self.generate(self.size, self.size, synthgen.family_specs(family), self.noise,
                          int(rng.integers(2**31))).map
            for _ in range(self.per_family) for family in synthgen.FAMILIES
        ]
        # The warm-up wafer is small: it reaches the same code for a fraction
        # of the cost of a full-size wafer.
        warm = self.generate(38, 38, synthgen.family_specs(synthgen.FAMILIES[0]),
                             self.noise, int(rng.integers(2**31))).map
        return Inputs(pool, warm)

    def wafer_map(self, item):
        return item

    def warmup(self, inputs, workdir):
        self.ac_filter(inputs.warm, AC_CONFIG)
        self.cpf_filter(inputs.warm, CPF_CONFIG)

    def op(self, inputs, i, workdir):
        idx = i % len(inputs.pool)
        wmap = inputs.pool[idx]
        return idx, self.ac_filter(wmap, AC_CONFIG), self.cpf_filter(wmap, CPF_CONFIG), None


_PROBE_POINTS = np.random.default_rng(0).standard_normal((300, 2))
# gplvm_probe's median time on an unloaded Intel Xeon 2-vCPU machine
# (Python 3.11, one BLAS thread).
REF_GPLVM_PROBE_S = 0.002


def gplvm_probe():
    """Fixed work of the kind the GPLVM does, independent of the program:
    a squared-exponential covariance over 300 points and its Cholesky
    factor."""
    z = _PROBE_POINTS
    sq = np.sum(z * z, axis=1)
    k = np.exp((sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)) / -2.0)
    k.flat[::len(z) + 1] += 1e-3
    return np.linalg.cholesky(k)


class Compare:
    """`waferspr compare` in process over corpus wafers w07 and w10.

    The wafers are those of the fixed twelve-wafer corpus that acceptance
    criterion 9 scores, so the seed does not change them: the accuracy
    medians are only meaningful on that corpus, and other draws change
    which CPF point sets coincide (8 to 12 fits per command).
    """

    name = "compare"
    wafers = (7, 10)
    m_list = (5, 10)
    # Two commands per run: their median is steadier than one command.
    ops_per_round = 2
    # A command is normalized by a probe of the GPLVM's kind of work.  In
    # two sets of 10 and 12 commands in a row on a 2-vCPU machine, raw
    # times spread 20% and 25% (interquartile range over median), divided
    # by this probe 7% and 9%, and divided by the pure-Python probe 16%
    # and 9%.  The same probe factoring with scipy.linalg tracked worse.
    loop_probe = (gplvm_probe, REF_GPLVM_PROBE_S)

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.seeds = 1 if smoke else 2
        iters, burn_in = (6, 3) if smoke else (100, 50)
        self.args = ["--m-list", ",".join(map(str, self.m_list)), "--seeds", str(self.seeds),
                     "--iters", str(iters), "--burn-in", str(burn_in)]

    @property
    def wafers_per_op(self):
        return len(self.wafers)

    @property
    def n_methods(self):
        return 1 + len(self.m_list)  # AC, then CPF at each M

    def reference_key(self, seed):
        return "compare"

    def bind(self, tracer):
        self.generate = tracer.wrap("synthgen.generate", synthgen.twelve_wafer_corpus)
        self.main = tracer.wrap("cli.compare", cli.main)

    def setup(self, seed, workdir):
        corpus = self.generate()
        paths = []
        for idx in self.wafers:
            family, sw = corpus[idx]
            d = workdir / "wafers" / f"w{idx:02d}"
            d.mkdir(parents=True, exist_ok=True)
            (d / "wafer.txt").write_bytes(wafer.write_wafer(sw.map))
            (d / "truth.json").write_text(json.dumps(_truth_doc(family, sw), sort_keys=True))
            paths.append(d / "wafer.txt")
        # The warm-up compares the small-n scratch wafer alone, briefly.
        return Inputs(paths, paths[-1])

    def wafer_map(self, path):
        return wafer.parse_wafer(path.read_bytes())

    def _ac_u(self, path):
        """The `u` that compare applies to this wafer, as its options give it
        and comparison.csv writes it: `--u-scratch` on scratch wafers."""
        family = json.loads((path.parent / "truth.json").read_text())["family"]
        return "0.4" if family == "scratch_pair" else "0.5"

    def _ac_config(self, path):
        return acfilter.AcConfig(u=Fraction(self._ac_u(path)), nb=wafer.Neighborhood.KING)

    def labels(self, inputs):
        return ([acfilter.ac_filter(self.wafer_map(p), self._ac_config(p)).labels
                 for p in inputs.pool],
                [cpf.cpf_filter(self.wafer_map(p), CPF_CONFIG).labels for p in inputs.pool])

    def retain(self, out):
        return out  # the exit code and the output directory

    def warmup(self, inputs, workdir):
        rc = self.main(["compare", str(inputs.warm), "--m-list", "5", "--seeds", "1",
                        "--iters", "4", "--burn-in", "2", "--out", str(workdir / "warmup")])
        if rc != 0:
            raise RuntimeError(f"warm-up compare exited {rc}")

    def op(self, inputs, i, workdir):
        out = workdir / f"compare-{i}"
        rc = self.main(["compare", *map(str, inputs.pool), *self.args, "--out", str(out)])
        return rc, out

    def check(self, inputs, outputs, reference) -> Failures:
        """Every command's outputs are checked in full, against filter
        labels that the benchmark computes and checks itself."""
        failures = Failures()
        filter_msgs, kept = self._check_filters(inputs, reference)
        first_csv = None
        for op_index, out in enumerate(outputs):
            if isinstance(out, Exception):
                failures.add(op_index, [f"raised {type(out).__name__}: {out}"])
                continue
            rc, outdir = out
            if rc != 0:
                failures.add(op_index, [f"compare exited {rc}"])
                continue
            msgs = checks.check_compare_outputs(outdir, len(inputs.pool), self.n_methods,
                                                self.seeds)
            if not msgs:
                msgs += checks.check_compare_points(outdir, kept)
            csv_path = outdir / "comparison.csv"
            csv_bytes = csv_path.read_bytes() if csv_path.is_file() else b""
            if first_csv is None:
                first_csv = csv_bytes
            elif csv_bytes != first_csv:
                msgs.append("comparison.csv differs from the first command's")
            # Filter labels that fail their checks make every command wrong.
            failures.add(op_index, msgs + filter_msgs)
        return failures

    def _check_filters(self, inputs, reference):
        """(failures, kept counts): AC and CPF at every M, on each wafer.

        `kept` maps (wafer, method, param) as comparison.csv writes them to
        the number of chips the checked labels keep, which must be the
        rows' `n_points`.
        """
        msgs, kept = [], {}
        ac_labels, cpf_labels = self.labels(inputs)
        for idx, path in enumerate(inputs.pool):
            wmap = self.wafer_map(path)
            grid = wmap.grid()
            cfg = self._ac_config(path)
            msgs += checks.check_ac_certificate(grid, ac_labels[idx], cfg.u, cfg.w_mag)
            kept[path.parent.name, "ac", self._ac_u(path)] = sum(ac_labels[idx])
            for m in self.m_list:
                labels = (cpf_labels[idx] if m == CPF_M else
                          cpf.cpf_filter(wmap, cpf.CpfConfig(m_threshold=m,
                                                             nb=wafer.Neighborhood.KING)).labels)
                msgs += checks.check_cpf_invariants(grid, labels, m)
                kept[path.parent.name, "cpf", str(m)] = sum(labels)
        if reference is not None:
            for kind, labels in (("ac", ac_labels), ("cpf", cpf_labels)):
                for path, lab, want in zip(inputs.pool, labels, reference[kind]):
                    if checks.label_digest(lab) != want:
                        msgs.append(f"wafer {path.parent.name}: {kind} labels differ "
                                    "from the reference")
        return msgs, kept

    def accuracy(self, inputs, outputs):
        for out in outputs:
            if isinstance(out, Exception) or out[0] != 0:
                continue
            if not (out[1] / "comparison.csv").is_file():
                continue
            rows = checks.comparison_rows(out[1])
            return ([_number(r["nmi_sqrt"]) for r in rows if r["method"] == "ac"],
                    [_number(r["nmi_sqrt"]) for r in rows if r["method"] == "cpf"])
        return [], []


def _number(text):
    """A finite float, or None for a typed null or a non-finite value."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


def _truth_doc(family, sw):
    """The truth.json sidecar, as `waferspr generate` writes it."""
    rows, cols = sw.map.rows, sw.map.cols
    grid_truth = sw.truth_labels.reshape(rows, cols)
    grid_region = sw.region_labels.reshape(rows, cols)
    defect = sw.map.grid() == wafer.CellState.DEFECTIVE
    return {
        "rows": rows, "cols": cols, "family": family, "noise_rate": sw.noise_rate,
        "labels": {f"{r},{c}": int(grid_truth[r, c]) for r, c in zip(*np.nonzero(defect))},
        "regions": {f"{r},{c}": int(grid_region[r, c])
                    for r, c in zip(*np.nonzero(grid_region > 0))},
    }


WORKLOADS = {cls.name: cls for cls in (Screen, LargeMap, Compare)}
