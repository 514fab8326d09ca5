#!/usr/bin/env python3
"""Record the AC and CPF label digests that the benchmark checks against.

    python3 benchmark/record_references.py

Writes benchmark/references.json for seed 0 of every workload, at full
and smoke size.  The inclusion-minimal AC min-cut set is unique, so any
exact solver must reproduce these digests; re-record them only when the
generated inputs themselves change (synthgen), never to make a changed
filter pass.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main():
    run.import_program()
    import checks
    import tracing
    import workloads

    refs = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        for cls in workloads.WORKLOADS.values():
            for smoke in (False, True):
                workload = cls(smoke=smoke)
                workload.bind(tracing.NullTracer())
                inputs = workload.setup(0, Path(tmp) / workload.name)
                ac, cp = workload.labels(inputs)
                refs[workload.reference_key(0)] = {
                    "ac": [checks.label_digest(labels) for labels in ac],
                    "cpf": [checks.label_digest(labels) for labels in cp],
                }
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} reference sets to {run.REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    main()
