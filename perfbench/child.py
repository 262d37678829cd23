"""One benchmark process: set up, then run one workload's timed part.

``run.py`` starts every run of this file in a fresh
interpreter, so the program's process-wide memos (the ``lru_cache``s in
``repro.experiments.validation``, the derived-column LRU) start cold, as
they do for each ``swcc run``.  Usage::

    python3 child.py '<json spec>'

The spec's ``mode`` is ``setup`` (set up and stop), ``inputs`` (write
the ``trace-file`` input files), ``run``, or ``pool`` (measure every
file the ``trace-file`` workload can draw, for ``record.py``).  The
result is written as JSON to the spec's ``out`` path.  Untraced
``setup`` and ``run`` processes are sampled by ``pace.Pacer`` from
start to end: their set-up is reported in seconds at the reference
host speed, and their timed part both so and in host seconds.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

# Stay on one CPU, the highest-numbered: no migrations, and away from
# CPU 0, which takes most device interrupts.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import workloads  # noqa: E402

#: Set-up work: the CLI, the experiment registry, and every module that
#: owns a timed entry point (the tracer rebinds their aliases).
SETUP_MODULES = (
    "repro.cli",
    "repro.experiments",
    "repro.trace",
    "repro.sim",
    "repro.sim.family",
    "repro.core",
    "repro.obs",
)


def set_up() -> None:
    """Import the program."""
    for name in SETUP_MODULES:
        importlib.import_module(name)
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}")


# -- trace-file workload ---------------------------------------------------


def write_input(directory: Path, op_id: str, name: str, file_seed: int):
    from repro.trace import preset, save_trace

    directory.mkdir(parents=True, exist_ok=True)
    trace = preset(name).generate(
        seed=file_seed, records_per_cpu=workloads.RECORDS_PER_CPU
    )
    path = directory / f"{op_id}.npz"
    save_trace(trace, path)
    return path


def reference_pool(directory: Path) -> list[dict]:
    """Ops of every file any seed can draw (for ``record.py``)."""
    ops = []
    for name in workloads.PRESETS:
        for slot in range(workloads.POOL_SIZE):
            op_id = workloads.pool_entry_id(name, slot)
            path = write_input(
                directory, op_id, name, workloads.file_seed(name, slot)
            )
            ops.append(trace_file_op(op_id, *measure_and_predict(path)))
            path.unlink()
    return ops


def measure_and_predict(path: Path):
    """The paper's measure-then-predict flow on one trace file."""
    from repro.core import BusSystem, scheme_by_name
    from repro.sim import SimulationConfig, measure_workload_params
    from repro.trace import collect_stats, load_trace

    trace = load_trace(path)
    collect_stats(trace)  # what `swcc trace stat` shows before measuring
    bus = BusSystem()
    measured = {}
    for kb in workloads.CACHE_KB:
        params = measure_workload_params(
            trace, SimulationConfig(cache_bytes=kb * 1024)
        )
        predictions = {
            scheme: bus.evaluate(scheme_by_name(scheme), params, trace.cpus)
            for scheme in workloads.SCHEMES
        }
        measured[kb] = (params, predictions)
    return trace.cpus, measured


def trace_file_op(op_id: str, cpus: int, measured) -> dict:
    """Result digest of one measured trace file.

    ``checks_passed`` holds the flow's two shape checks: miss rates do
    not rise with cache size, and every prediction's processing power is
    in (0, cpus].  ``record.py`` refuses to record a file that fails
    them; later runs are judged by the digest alone.
    """
    record = {}
    for kb, (params, predictions) in measured.items():
        record[str(kb)] = {
            "params": {k: v.hex() for k, v in params.as_dict().items()},
            "predictions": {
                scheme: [
                    float(p.processing_power).hex(),
                    float(p.utilization).hex(),
                    float(p.waiting_cycles).hex(),
                    float(p.bus_utilization).hex(),
                ]
                for scheme, p in predictions.items()
            },
        }
    blob = json.dumps(record, sort_keys=True).encode()
    rates = [measured[kb][0] for kb in sorted(measured)]
    checks_passed = all(
        small.msdat >= large.msdat and small.mains >= large.mains
        for small, large in zip(rates, rates[1:])
    ) and all(
        0.0 < p.processing_power <= cpus
        for _, predictions in measured.values()
        for p in predictions.values()
    )
    return {
        "id": op_id,
        "digest": "sha256:" + hashlib.sha256(blob).hexdigest(),
        "checks_passed": checks_passed,
        "error": None,
    }


def run_trace_files(directory: Path, seed: int) -> list:
    outcomes = []
    for op_id, _, _ in workloads.trace_file_inputs(seed):
        try:
            path = directory / f"{op_id}.npz"
            outcomes.append((op_id, measure_and_predict(path)))
        except Exception as error:  # one failed file is one failed op
            outcomes.append((op_id, f"{type(error).__name__}: {error}"))
    return [
        {"id": op_id, "digest": None, "checks_passed": False,
         "error": outcome}
        if isinstance(outcome, str)
        else trace_file_op(op_id, *outcome)
        for op_id, outcome in outcomes
    ]


# -- experiment workloads --------------------------------------------------


def run_cli(argv: list[str], manifest: Path) -> list:
    from repro.cli import main
    from repro.obs.manifest import load_manifest

    main([*argv, "--manifest", str(manifest)])
    ops = []
    for event in load_manifest(manifest):
        if event["event"] == "experiment-finish":
            ops.append({
                "id": event["experiment"],
                "digest": event["digest"],
                "checks_passed": event["checks_passed"],
                "error": None,
            })
        elif event["event"] == "experiment-failed":
            ops.append({
                "id": event["experiment"], "digest": None,
                "checks_passed": False, "error": event["error"],
            })
    return ops


def main(spec: dict) -> None:
    out = Path(spec["out"])
    if spec["mode"] == "inputs":
        for op_id, name, file_seed in workloads.trace_file_inputs(spec["seed"]):
            write_input(Path(spec["inputs"]), op_id, name, file_seed)
        out.write_text("{}")
        return
    if spec["mode"] == "pool":
        out.write_text(json.dumps({"ops": reference_pool(Path(spec["inputs"]))}))
        return
    # Traced runs go unsampled, so the sampler's ticks stay out of the
    # layers' spans; their times are plain host seconds.
    pacer = None if spec["trace"] else pace.Pacer()
    if pacer is not None:
        pacer.start()
    set_up()
    ready = time.monotonic()
    result = {}
    if spec["mode"] == "run":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        argv = workloads.WORKLOADS[spec["workload"]]["cli"]
        begin = time.monotonic()
        if argv is None:
            ops = run_trace_files(Path(spec["inputs"]), spec["seed"])
        else:
            ops = run_cli(argv, Path(spec["manifest"]))
        end = time.monotonic()
        result["ops"] = ops
        if tracer is not None:
            result["wall_s"] = end - begin
            result["layers"] = tracer.metrics()
            result["layer_calls"] = tracer.layer_calls()
            result["unknown_engines"] = sorted(tracer.unknown_engines)
    if pacer is None:
        result["setup_s"] = ready - spec["spawned_at"]
    else:
        pacer.stop()
        result["setup_s"] = pacer.seconds(spec["spawned_at"], ready)
        if spec["mode"] == "run":
            result["norm_wall_s"] = pacer.seconds(begin, end)
            result["wall_s"] = pacer.host_seconds(begin, end)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out.write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
