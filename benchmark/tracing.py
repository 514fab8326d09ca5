"""Span tracing for the traced benchmark run.

The tracer swaps timing wrappers into the module attributes that the
program's callers look up (for example `acfilter.max_flow_min_cut`), and
the benchmark wraps its own calls into the program the same way.  No
code of the program changes.  A span is [name, start, end, parent,
calls, data]; `parent` is the index of the enclosing span.  Hot calls
(one Gibbs step per point per sweep) are folded into one aggregate span
per enclosing span, whose duration is the summed time of `calls` calls.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

from waferspr import acfilter, cli, cpf, iwmm

NAME, START, END, PARENT, CALLS, DATA = range(6)


class NullTracer:
    """Tracing off: wrappers are the functions themselves."""

    recording = False

    def install(self):
        pass

    def uninstall(self):
        pass

    def wrap(self, name, fn, count=None):
        return fn

    def span(self, name):
        return contextlib.nullcontext()


def _flow_network_count(net, *args, **kwargs):
    return {"nodes": net.node_count, "arcs": len(net.arcs)}


def ac_counts(result, wmap, *args, **kwargs):
    relabelled = np.asarray(result.labels) != wmap.defect_bits()
    return {"kept": result.kept_count, "relabelled": int(relabelled.sum())}


def cpf_counts(result, *args, **kwargs):
    return {"kept": result.kept_count, "approx": int(result.approx)}


def _fit_count(result, points, *args, **kwargs):
    return {"points": points.n}


def _hmc_count(accepted, *args, **kwargs):
    return {"accepted": int(accepted)}


# (module, attribute, span name, counter) for every lookup the program makes
# through a module attribute at a layer boundary.
PATCHES = (
    (acfilter, "build_graph", "wafer.build_graph", None),
    (acfilter, "FlowNetwork", "flow.network", _flow_network_count),
    (acfilter, "max_flow_min_cut", "flow.solve", None),
    (cpf, "build_graph", "wafer.build_graph", None),
    (cli, "parse_wafer", "wafer.parse", None),
    (cli, "ac_filter", "acfilter.filter", ac_counts),
    (cli, "cpf_filter", "cpf.filter", cpf_counts),
    (cli, "iwmm_fit", "iwmm.fit", _fit_count),
    (cli, "evaluation_report", "validation.report", None),
    (cli, "reconstruct_ground_truth", "validation.reconstruct", None),
    (cli, "build_graph", "wafer.build_graph", None),
    (cli, "wilcoxon_signed_rank", "validation.wilcoxon", None),
    (iwmm, "hmc_latent_step", "iwmm.hmc", _hmc_count),
)
AGGREGATE_PATCHES = ((iwmm, "gibbs_assignment_step", "iwmm.gibbs"),)


class Tracer:
    def __init__(self):
        self.spans = []
        self.recording = False
        self._stack = []
        self._aggregate = {}
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), 0.0, parent, 1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        if not self.recording:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[DATA] = count(result, *args, **kwargs)
            return result

        return traced

    def wrap_aggregate(self, name, fn):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                parent = self._stack[-1] if self._stack else None
                idx = self._aggregate.get((name, parent))
                if idx is None:
                    idx = self._aggregate[(name, parent)] = len(self.spans)
                    self.spans.append([name, t0, t0, parent, 0, None])
                span = self.spans[idx]
                span[END] += elapsed
                span[CALLS] += 1

        return traced

    def install(self):
        """Swap in the wrappers; a lookup the program no longer makes is skipped."""
        wrappers = [(m, a, lambda fn, n=n, c=c: self.wrap(n, fn, c)) for m, a, n, c in PATCHES]
        wrappers += [(m, a, lambda fn, n=n: self.wrap_aggregate(n, fn))
                     for m, a, n in AGGREGATE_PATCHES]
        for module, attr, make in wrappers:
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path, header):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, fields=["name", "start", "end", "parent", "calls", "data"],
                   spans=self.spans)
        path.write_text(json.dumps(doc) + "\n")


def layer_metrics(spans, ops: int, setups: int, overhead_ratio: float) -> dict:
    """Per-layer metrics, per operation, from spans under the "op" roots.

    Times are in ms.  Ratios with no attempts (no HMC moves, no fit
    requests) read 0.
    """
    root, child_s, under_compare = [], defaultdict(float), []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        root.append(i if parent is None else root[parent])
        under_compare.append(span[NAME] == "cli.compare"
                             or (parent is not None and under_compare[parent]))
        if parent is not None:
            child_s[parent] += span[END] - span[START]

    total_s, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    data = defaultdict(float)
    op_s, generate_s, fit_requests = [], 0.0, 0
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        root_name = spans[root[i]][NAME]
        if root_name == "setup":
            if name == "synthgen.generate":
                generate_s += duration
            continue
        if root_name != "op":
            continue
        if name == "op":
            op_s.append(duration)
            continue
        total_s[name] += duration
        self_s[name] += duration - child_s[i]
        calls[name] += span[CALLS]
        for key, value in (span[DATA] or {}).items():
            data[f"{name}.{key}"] += value
        if name == "validation.report" and under_compare[i]:
            fit_requests += 1

    ops = max(ops, 1)

    def ms(name, table=total_s):
        return 1e3 * table[name] / ops

    def per_op(value):
        return value / ops

    hmc_moves = calls["iwmm.hmc"]
    return {
        "wafer.parse_ms": ms("wafer.parse"),
        "wafer.parse_calls": per_op(calls["wafer.parse"]),
        "wafer.build_graph_ms": ms("wafer.build_graph"),
        "wafer.build_graph_calls": per_op(calls["wafer.build_graph"]),
        "flow.network_ms": ms("flow.network"),
        "flow.solve_ms": ms("flow.solve"),
        "flow.solves": per_op(calls["flow.solve"]),
        "flow.nodes": per_op(data["flow.network.nodes"]),
        "flow.arcs": per_op(data["flow.network.arcs"]),
        "acfilter.filter_ms": ms("acfilter.filter"),
        "acfilter.self_ms": ms("acfilter.filter", self_s),
        "acfilter.kept": per_op(data["acfilter.filter.kept"]),
        "acfilter.relabelled": per_op(data["acfilter.filter.relabelled"]),
        "cpf.filter_ms": ms("cpf.filter"),
        "cpf.self_ms": ms("cpf.filter", self_s),
        "cpf.kept": per_op(data["cpf.filter.kept"]),
        "cpf.approx_wafers": per_op(data["cpf.filter.approx"]),
        "iwmm.fits": per_op(calls["iwmm.fit"]),
        "iwmm.points": per_op(data["iwmm.fit.points"]),
        "iwmm.fit_ms": ms("iwmm.fit"),
        "iwmm.hmc_ms": ms("iwmm.hmc"),
        "iwmm.hmc_moves": per_op(hmc_moves),
        "iwmm.hmc_accept_ratio": data["iwmm.hmc.accepted"] / hmc_moves if hmc_moves else 0.0,
        "iwmm.gibbs_ms": ms("iwmm.gibbs"),
        "iwmm.gibbs_steps": per_op(calls["iwmm.gibbs"]),
        "iwmm.self_ms": ms("iwmm.fit", self_s),
        "validation.reconstruct_ms": ms("validation.reconstruct"),
        "validation.report_ms": ms("validation.report"),
        "validation.reports": per_op(calls["validation.report"]),
        "validation.wilcoxon_ms": ms("validation.wilcoxon"),
        "cli.fit_requests": per_op(fit_requests),
        "cli.fit_run_ratio": calls["iwmm.fit"] / fit_requests if fit_requests else 0.0,
        "cli.compare_self_ms": ms("cli.compare", self_s),
        "synthgen.generate_ms": 1e3 * generate_s / max(setups, 1),
        "trace.op_ms": 1e3 * statistics.fmean(op_s) if op_s else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
