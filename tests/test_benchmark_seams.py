"""The program attributes the benchmark replaces still exist.

`benchmark/tracing.py` swaps timing wrappers into module attributes, and
`Tracer.install` skips a name that is gone without a word, so a renamed
function would leave the traced run's layer metrics at 0 unnoticed.
`benchmark/selftest.py` replaces `cli.filtered_points`.
"""

import importlib.util
from pathlib import Path

from waferspr import cli

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# Targets that no program path has looked up for several changes; the
# next change to the benchmark drops or replaces them.
DEAD = {("waferspr.cli", "build_graph"), ("waferspr.iwmm", "gibbs_assignment_step")}


def test_every_traced_target_exists():
    for module, attr, *_ in tracing.PATCHES + tracing.AGGREGATE_PATCHES:
        if (module.__name__, attr) not in DEAD:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_the_selftest_seam_exists():
    assert callable(cli.filtered_points)
