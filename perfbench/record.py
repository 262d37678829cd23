"""Record the reference results the benchmark checks operations against.

Usage (from the repository root)::

    python3 perfbench/record.py [workload ...]

For each experiment workload, one untraced run records every
experiment's result digest (the one its ``experiment-finish`` manifest
event carries).  For ``trace-file``, it measures every file of the
input pool, so any seed's inputs are covered.  Refuses to record an
operation that failed or whose shape checks fail (the manifest's
``checks_passed`` for an experiment, the flow's two checks for a trace
file).  Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(workload: str) -> dict:
    with run.Session(workload, seed=0) as session:
        session.prepare(setup_samples=0)
        mode = "pool" if workload == "trace-file" else "run"
        ops = session.spawn(mode)["ops"]
    bad = [
        op["id"] for op in ops
        if op["error"] is not None or not op["checks_passed"]
    ]
    if bad:
        raise run.BenchmarkError(f"{workload}: refusing to record {bad}")
    return {op["id"]: op["digest"] for op in ops}


def main(names: list[str]) -> int:
    reference = run.load_reference()
    for name in names or sorted(workloads.WORKLOADS):
        reference[name] = record(name)
        print(f"{name}: {len(reference[name])} operations recorded")
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
