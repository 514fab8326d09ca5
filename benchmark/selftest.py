#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size (about 20 s).

    python3 benchmark/selftest.py        # or: python3 -m pytest benchmark/selftest.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
run.WORK_DIR.mkdir(exist_ok=True)


def bench(*args, cwd=run.ROOT):
    """Run the benchmark in a child process; (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def smoke(workload, *extra):
    code, lines = bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                        "--smoke", *extra)
    assert code == 0, lines
    return json.loads(lines[-1]), lines


@contextlib.contextmanager
def replaced(obj, attr, value):
    original = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield original
    finally:
        setattr(obj, attr, original)


def smoke_in_process(workload, seconds="0.2"):
    """Run the benchmark in this process, so a test can swap parts of it
    or of the program first; (result, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", seconds,
                         "--smoke"])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().splitlines()[-1]), out.getvalue()


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, lines = smoke(workload, "--trace", trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertTrue(any(line.startswith(f"{name} ") and
                                            line.endswith(f" {unit}") for line in lines), name)

    def test_corrupted_label_reference_is_a_failure(self):
        refs = json.loads(run.REFERENCES.read_text())
        digests = refs["screen/smoke/seed0"]["ac"]
        digests[0] = "0" * len(digests[0])
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            path = Path(tmp) / "references.json"
            path.write_text(json.dumps(refs))
            with replaced(run, "REFERENCES", path):
                result, out = smoke_in_process("screen", seconds="1")
        self.assertFalse(result["correct"])
        # Every operation on wafer 0 fails, its repeats too.
        pool = len(digests)
        self.assertGreater(result["attempted"], pool)
        self.assertEqual(result["failed"], len(range(0, result["attempted"], pool)))
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)
        self.assertIn("ac labels differ from the reference", out)
        self.assertIn("repeats the failed output", out)

    def test_nan_compare_row_is_a_failure(self):
        run.import_program()
        import waferspr.cli as cli

        def nan_report(*args, **kwargs):
            report = original(*args, **kwargs)
            report.nmi_sqrt = float("nan")
            return report

        with replaced(cli, "evaluation_report", nan_report) as original:
            result, out = smoke_in_process("compare", seconds="0")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("nmi_sqrt = nan", out)

    def test_compare_fitting_other_points_is_a_failure(self):
        run.import_program()
        import waferspr.cli as cli

        def one_point_short(*args, **kwargs):
            return original(*args, **kwargs)[:-1]

        with replaced(cli, "filtered_points", one_point_short) as original:
            result, out = smoke_in_process("compare", seconds="0")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("the checked labels keep", out)

    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "benchmark",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                                "--trace", "0", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
