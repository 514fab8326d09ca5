#!/usr/bin/env python3
"""Benchmark of the waferspr pipeline: one workload per process, closed
loop, one caller.

    python3 benchmark/run.py --workload screen --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are the per-layer metrics of a traced run, and the
spans are written to `.bench_work/`.  See benchmark/README.md.
"""

import os

# Before numpy loads: numpy and scipy carry separate OpenBLAS pools, which
# contend for the cores when each runs a thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
REFERENCES = BENCH_DIR / "references.json"
SETUP_REPEATS = 5
TAIL_SAMPLES = 10  # samples beyond the tail percentile
# The speed probe's median time on an unloaded Intel Xeon 2-vCPU machine
# (Python 3.11), so that normalized times read close to raw ones there.
REF_PROBE_S = 0.00125
PROBE_SHARE = 0.05  # probe time after each operation or set-up pass, as a share of its time
PROBE_LEAD_S = 0.2  # probe time around the import and before the first operation
PROBE_WINDOW = 16  # fewest probe samples behind one operation's slowdown


class ProgramMissing(Exception):
    pass


def import_program() -> float:
    """Import numpy, scipy and waferspr from this checkout; returns seconds."""
    src = ROOT / "src"
    if not (src / "waferspr" / "__init__.py").is_file():
        raise ProgramMissing(f"no waferspr package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.ndimage  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    import waferspr
    import waferspr.cli  # noqa: F401  (imports every pipeline module)
    elapsed = time.perf_counter() - t0
    if not Path(waferspr.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"waferspr was imported from {waferspr.__file__}, not {src}")
    return elapsed


def environment() -> dict:
    """What a result depends on, so results of different machines stay apart."""
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


def _probe_work():
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class SpeedProbe:
    """How fast the machine runs a fixed piece of work right now.

    Shared machines drift in speed: on a 2-vCPU cloud machine the same
    operation took from 1x to 1.8x its best time, in phases lasting
    seconds to minutes, and a fixed piece of work of the same kind
    slowed in step.  The probe times that work between operations, never
    during one, so a program that runs work in parallel cannot slow the
    probe itself.  Timings are divided by the median slowdown measured
    around them.  The default work is a pure-Python loop, and `ref_s` is
    the work's median time on a quiet machine.
    """

    def __init__(self, work=_probe_work, ref_s=REF_PROBE_S):
        self.work, self.ref_s = work, ref_s
        self.samples = []

    def sample(self, seconds=0.0):
        """Probe once, then again until `seconds` have passed."""
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.work()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            if t1 >= end:
                return

    def slowdown(self, first=0):
        """Median slowdown over the samples from index `first` on."""
        return statistics.median(self.samples[first:]) / self.ref_s

    def normalize(self, raw, before):
        """`raw` seconds of work at the reference speed: probes for
        PROBE_SHARE of `raw`, then divides by the median slowdown since
        sample `before`, over at least PROBE_WINDOW samples.  Returns the
        normalized time and the index of the first sample taken after the
        work, the `before` of the next piece of work."""
        after = len(self.samples)
        self.sample(PROBE_SHARE * raw)
        first = max(0, min(before, len(self.samples) - PROBE_WINDOW))
        return raw / self.slowdown(first), after


class Loop:
    """Closed loop, one caller: the next operation starts when the last ends.

    Runs until the operations' summed time reaches `seconds` and a whole
    round of the workload's pool is done.  Each operation's time is also
    normalized by the slowdown the probe measured just before and just
    after it, over at least PROBE_WINDOW samples.  With `paired`, each
    operation runs twice in a row, first untraced and then traced, so that
    the two meet the same input at nearly the same machine speed.
    """

    def __init__(self, workload, inputs, tracer, workdir, probe):
        self.workload, self.inputs = workload, inputs
        self.tracer, self.workdir, self.probe = tracer, workdir, probe
        self._gap = 0  # first probe sample taken since the previous operation

    def _timed(self, i):
        """Run operation i: (raw time, normalized time, output)."""
        t0 = time.perf_counter()
        try:
            with self.tracer.span("op"):
                out = self.workload.op(self.inputs, i, self.workdir)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        raw = time.perf_counter() - t0
        normalized, self._gap = self.probe.normalize(raw, self._gap)
        return raw, normalized, out

    def run(self, seconds, paired=False):
        """(raw times, normalized times, outputs, untraced normalized times).

        Without `paired` the last list is empty; with it, the outputs hold
        both runs of each pair and the times only the traced runs.  An
        output is kept as the workload's `retain` reduces it.
        """
        raw, normalized, outputs, plain = [], [], [], []
        self._gap = len(self.probe.samples)
        self.probe.sample(PROBE_LEAD_S)
        busy = 0.0
        i = 0
        while True:
            if paired:
                t, n, out = self._timed(i)
                plain.append(n)
                outputs.append(self.workload.retain(out))
                busy += t
                self.tracer.recording = True
            t, n, out = self._timed(i)
            self.tracer.recording = False
            raw.append(t)
            normalized.append(n)
            outputs.append(self.workload.retain(out))
            busy += t
            i += 1
            if busy >= seconds and i % self.workload.ops_per_round == 0:
                return raw, normalized, outputs, plain


def tail(samples):
    """The 90th percentile when at least TAIL_SAMPLES lie beyond it, else the maximum."""
    if len(samples) * 0.1 >= TAIL_SAMPLES:
        return statistics.quantiles(samples, n=10)[-1]
    return max(samples)


def median_defined(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("ratio", "ratio"), ("nmi_sqrt_median", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    probe = SpeedProbe()
    probe.sample(PROBE_LEAD_S)
    try:
        import_s = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The import is normalized by the probes just before and after it.
    gap = len(probe.samples)
    probe.sample(PROBE_LEAD_S)
    import_norm = import_s / probe.slowdown()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    reference = json.loads(REFERENCES.read_text()).get(workload.reference_key(args.seed))
    env = environment()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workload.bind(tracer)
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    try:
        tracer.install()
        tracer.recording = bool(args.trace)
        setup_s, setup_norm = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with tracer.span("setup"):
                inputs = workload.setup(args.seed, workdir)
            with tracer.span("warmup"):
                workload.warmup(inputs, workdir)
            setup_s.append(time.perf_counter() - t0)
            norm, gap = probe.normalize(setup_s[-1], gap)
            setup_norm.append(norm)

        loop_probe = SpeedProbe(*workload.loop_probe) if workload.loop_probe else probe
        loop = Loop(workload, inputs, tracer, workdir, loop_probe)
        tracer.recording = False
        samples, normalized, outputs, plain = loop.run(args.seconds, paired=bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = workload.check(inputs, outputs, reference)
        attempted, failed = len(outputs), len(failures.by_op)

        if args.trace:
            overhead = statistics.median(t / p for t, p in zip(normalized, plain))
            metrics = tracing.layer_metrics(tracer.spans, len(samples), SETUP_REPEATS, overhead)
            tracer.dump(WORK_DIR / f"spans-{workload.name}-seed{args.seed}.json",
                        {"workload": workload.name, "seed": args.seed, "env": env})
        else:
            ac_nmi, cpf_nmi = workload.accuracy(inputs, outputs)
            raw = {
                "setup_s": import_s + statistics.median(setup_s),
                "wafers_per_s": len(samples) * workload.wafers_per_op / sum(samples),
                "op_p50_ms": 1e3 * statistics.median(samples),
                "op_p90_ms": 1e3 * tail(samples),
            }
            metrics = {
                "setup_s": import_norm + statistics.median(setup_norm),
                "wafers_per_s": len(normalized) * workload.wafers_per_op / sum(normalized),
                "op_p50_ms": 1e3 * statistics.median(normalized),
                "op_p90_ms": 1e3 * tail(normalized),
                "peak_rss_mb": peak_rss_mb,
                "ok_ratio": (attempted - failed) / attempted,
                "ac_nmi_sqrt_median": median_defined(ac_nmi),
                "cpf_nmi_sqrt_median": median_defined(cpf_nmi),
            }
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {workload.name} seed {args.seed} trace {args.trace}: {attempted} ops, "
          f"{len(samples)} timed in {sum(samples):.3f} s; setup run {SETUP_REPEATS} times")
    setup_slowdown = (import_s + sum(setup_s)) / (import_norm + sum(setup_norm))
    print(f"# machine slowdown {setup_slowdown:.4f} in set-up, "
          f"{sum(samples) / sum(normalized):.4f} in the timed loop")
    if not args.trace:
        print("# raw " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    for op_index, msgs in sorted(failures.by_op.items()):
        for msg in msgs:
            print(f"# FAILED op {op_index}: {msg}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
