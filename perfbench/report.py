"""Benchmark report: every end-to-end metric and the per-layer split.

Usage (from the repository root)::

    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S]

Per workload it makes one untraced run (as ``run.py --trace 0`` does)
and two traced repetitions, then prints:

* the end-to-end metrics by name and unit, including the operation
  checks ``ops_failed_frac`` and ``results_drifted``;
* the per-layer share table: each layer's self time over the traced
  wall time (a 2x in a layer holding X% of ``wall_s`` saves X/2% of it);
* the tracing overhead (traced wall minus the untraced ``wall_s``);
* every count metric that differs between the two traced repetitions,
  each a benchmark defect.

Exits non-zero if an operation failed or a count did not repeat.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads
from tracer import COUNT_SUFFIXES, LAYER_METRICS


def is_count(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in COUNT_SUFFIXES or ".engine." in name


def report(workload: str, seed: int, seconds: float) -> bool:
    reference = run.load_reference()
    with run.Session(workload, seed) as session:
        untraced = run.measure(session, reference, seconds)
        traced = [session.repetition(reference, trace=True) for _ in range(2)]
    attempted, failures, drifted = run.tally(untraced["reps"] + traced)
    print(f"== {workload} (seed {seed}, {len(untraced['reps'])} timed "
          f"repetition(s), 2 traced) ==")
    rows = [
        ("norm_wall_s", untraced["norm_wall_s"], "s"),
        ("host wall_s", untraced["wall_s"], "s"),
        ("setup_s", untraced["setup_s"], "s"),
        ("peak_rss_mb", untraced["peak_rss_mb"], "MB"),
        ("ops_failed_frac", len(failures) / attempted, "fraction"),
        ("results_drifted", drifted, "count"),
    ]
    for name, value, unit in rows:
        print(f"  {name:18s} {value:12.4f} {unit}")
    for failure in failures:
        print(f"  FAILED {failure}")

    metrics = [run.layer_metrics(t, untraced["wall_s"]) for t in traced]
    first = metrics[0]
    wall = first["traced_wall_s"]
    print(f"  {'layer':22s} {'self_s':>9s} {'share':>7s}   counts")
    for layer, suffixes in LAYER_METRICS.items():
        self_s = first[f"{layer}.self_s"]
        counts = ", ".join(
            f"{suffix}={first[f'{layer}.{suffix}']}"
            for suffix in suffixes
            if suffix != "self_s" and first[f"{layer}.{suffix}"]
        )
        if self_s or counts:
            print(f"  {layer:22s} {self_s:9.3f} {self_s / wall:7.1%}   {counts}")
    unattributed = first["unattributed_s"]
    print(f"  {'unattributed':22s} {unattributed:9.3f} "
          f"{unattributed / wall:7.1%}")
    print(f"  traced wall {wall:.3f} s; tracing overhead "
          + ", ".join(f"{m['trace_overhead_s']:+.3f} s" for m in metrics))

    unsteady = [
        f"{name}: {metrics[0][name]} vs {metrics[1][name]}"
        for name in first
        if is_count(name) and metrics[0][name] != metrics[1][name]
    ]
    for line in unsteady:
        print(f"  BENCHMARK DEFECT, count did not repeat: {line}")
    print()
    return not failures and not unsteady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    ok = True
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            ok = report(name, args.seed, args.seconds) and ok
    except run.BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
