"""End-to-end benchmark of the reproduction, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repro-fast --seed 1 --seconds 20 --trace 0

Every timed or traced repetition runs in a fresh interpreter
(``child.py``).  With ``--trace 0`` the last stdout line is a JSON
object carrying the end-to-end metrics (``norm_wall_s``, ``setup_s``,
``peak_rss_mb``; times at the reference host speed, see ``pace.py``);
with ``--trace 1`` it carries the per-layer metrics of one traced
repetition, plus ``unattributed_s`` and ``trace_overhead_s`` against
one untraced repetition of the same run.  Operations (one
experiment, or one trace file) are checked against ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

#: Set-up is short and noisy, so each run samples it this many times
#: on top of the timed repetitions' own set-up.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


class Session:
    """A scratch directory inside the checkout and the children run there."""

    def __init__(self, workload: str, seed: int):
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchmarkError(f"no program sources under {ROOT / 'src'}")
        self.workload = workload
        self.seed = seed
        self.spec = workloads.WORKLOADS[workload]
        self.work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = self.work / "inputs"
        self._spawned = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def spawn(self, mode: str, trace: bool = False) -> dict:
        """Run ``child.py`` once in a fresh interpreter; return its result."""
        self._spawned += 1
        tag = f"{self._spawned:03d}-{mode}"
        spec = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "trace": trace,
            "inputs": str(self.inputs),
            "out": str(self.work / f"{tag}.json"),
            "manifest": str(self.work / f"{tag}-manifest.jsonl"),
        }
        env = dict(os.environ)
        # The run manifest asks git for the commit; keep git's search for
        # a repository from leaving the checkout.
        env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
        env.pop("PYTHONPATH", None)
        # One serial process: no BLAS or OpenMP worker threads.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            env[name] = "1"
        stderr_path = self.work / f"{tag}.err"
        timeout = None if mode == "pool" else CHILD_TIMEOUT_S
        with open(self.work / f"{tag}.out", "w") as out, \
                open(stderr_path, "w") as err:
            spec["spawned_at"] = time.monotonic()
            try:
                done = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                    cwd=ROOT, env=env, stdout=out, stderr=err,
                    stdin=subprocess.DEVNULL, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                raise BenchmarkError(
                    f"{self.workload} {mode}: no result in {CHILD_TIMEOUT_S} s"
                ) from None
        if done.returncode != 0:
            tail = stderr_path.read_text(errors="replace")[-2000:]
            raise BenchmarkError(
                f"{self.workload} {mode}: exit {done.returncode}\n{tail}"
            )
        return json.loads(Path(spec["out"]).read_text())

    def prepare(self, setup_samples: int) -> list[float]:
        """Write inputs, warm the bytecode cache, sample set-up time."""
        if self.spec["cli"] is None:
            self.spawn("inputs")
        self.spawn("setup")
        return [self.spawn("setup")["setup_s"] for _ in range(setup_samples)]

    def expected_ops(self, reference: dict) -> list[str]:
        if self.spec["cli"] is None:
            return [op for op, _, _ in workloads.trace_file_inputs(self.seed)]
        return sorted(reference[self.workload])

    def repetition(self, reference: dict, trace: bool = False) -> dict:
        """One timed (or traced) run, its operations judged."""
        result = self.spawn("run", trace=trace)
        result.update(judge(
            result["ops"], self.expected_ops(reference),
            reference[self.workload],
        ))
        if trace:
            check_layers(self.workload, result)
        return result


def judge(ops: list[dict], expected: list[str], reference: dict) -> dict:
    """Failed and drifted operations against the recorded reference.

    An operation fails if it raised, did not run, or returned a result
    whose digest differs from the reference (it has then also drifted).
    The reference holds only results whose shape checks passed, and an
    experiment's digest covers its rendered check verdicts, so a
    matching digest also means passing checks.
    """
    by_id = {op["id"]: op for op in ops}
    failures = []
    drifted = 0
    for op_id in sorted(set(expected) | set(by_id)):
        op = by_id.get(op_id)
        recorded = reference.get(op_id) if op_id in expected else None
        if op is None:
            failures.append(f"{op_id}: did not run")
        elif op["error"] is not None:
            failures.append(f"{op_id}: {op['error']}")
        elif op["digest"] != recorded:
            drifted += 1
            failures.append(f"{op_id}: result differs from the reference")
    return {"attempted": len(set(expected) | set(by_id)),
            "failures": failures,
            "drifted": drifted}


def check_layers(workload: str, result: dict) -> None:
    """Fail loudly when a traced layer is silent where it must run."""
    if result["unknown_engines"]:
        print(f"warning: unreported Machine.run engines "
              f"{result['unknown_engines']}", file=sys.stderr)
    calls = result["layer_calls"]
    spec = workloads.WORKLOADS[workload]
    silent = [layer for layer in spec["expect"] if not calls.get(layer)]
    stray = [layer for layer in spec["forbid"] if calls.get(layer)]
    if silent or stray:
        raise BenchmarkError(
            f"{workload}: tracer saw no calls into {silent} and "
            f"unexpected calls into {stray}; the benchmark is broken"
        )


def measure(session: Session, reference: dict, seconds: float,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Untraced repetitions until ``seconds`` of host time accumulate."""
    setups = session.prepare(setup_samples)
    reps = []
    while not reps or sum(r["wall_s"] for r in reps) < seconds:
        reps.append(session.repetition(reference))
    return {
        "reps": reps,
        "norm_wall_s": statistics.median(r["norm_wall_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def tally(reps: list[dict]) -> tuple[int, list[str], int]:
    """Operations attempted, failures, and drifted results over ``reps``."""
    return (
        sum(r["attempted"] for r in reps),
        [failure for r in reps for failure in r["failures"]],
        sum(r["drifted"] for r in reps),
    )


def layer_metrics(traced: dict, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    layers = dict(traced["layers"])
    wall = traced["wall_s"]
    self_total = sum(
        value for name, value in layers.items() if name.endswith(".self_s")
    )
    layers["traced_wall_s"] = wall
    layers["unattributed_s"] = wall - self_total
    layers["trace_overhead_s"] = wall - untraced_wall
    return layers


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, suffixes in LAYER_METRICS.items():
        for suffix in suffixes:
            units[f"{layer}.{suffix}"] = (
                "s" if suffix == "self_s"
                else "bytes" if suffix == "bytes" else "count"
            )
    units.update(traced_wall_s="s", unattributed_s="s", trace_overhead_s="s")
    return units


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    with Session(workload, seed) as session:
        if trace:
            untraced = measure(session, reference, 0.0, setup_samples=0)
            traced = session.repetition(reference, trace=True)
            reps = untraced["reps"] + [traced]
            units = per_layer_units()
            values = layer_metrics(traced, untraced["wall_s"])
        else:
            untraced = measure(session, reference, seconds)
            reps = untraced["reps"]
            units = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            values = {name: untraced[name] for name in units}
            print(f"{workload}: host wall_s {untraced['wall_s']:.3f}, "
                  f"norm_wall_s {untraced['norm_wall_s']:.3f} (medians)")
    attempted, failures, drifted = tally(reps)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{workload}: {len(reps)} repetition(s), {attempted} operations, "
        f"ops_failed_frac {len(failures) / attempted:.4f}, "
        f"results_drifted {drifted}"
    )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
