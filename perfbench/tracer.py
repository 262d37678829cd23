"""Outside tracer: spans around the public entry points of each layer.

The program is not modified.  :meth:`Tracer.install` replaces each
timed function by a wrapper in its owner module *and* in every loaded
``repro.*`` module that bound it at import time (``from x import f``),
and patches timed methods on their classes.  Wrapping only the owner
attribute would miss every call made through such an alias.

A layer's self time is the time inside its spans minus the time of the
child spans they contain.  The tracer's own bookkeeping (the content
digests behind ``.distinct``) runs outside every span's measured
interval, so it lands in ``unattributed_s`` rather than in a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import re
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

#: Machine.run engine labels reported as ``sim.machine.engine.<label>``.
ENGINES = ("columnar", "columnar-arb", "legacy", "segment", "arbitrated")

#: Layer -> metric suffixes, in report order.
LAYER_METRICS = {
    "trace.synthetic": ("calls", "distinct", "records", "self_s"),
    "trace.stats": ("calls", "distinct", "records", "self_s"),
    "trace.flushing": ("calls", "self_s"),
    "trace.derived": ("calls", "hits", "misses", "self_s"),
    "trace.io": ("calls", "bytes", "self_s"),
    "sim.machine": ("calls", "records", "self_s")
    + tuple(f"engine.{label}" for label in ENGINES),
    "sim.onepass": ("calls", "geometries", "fallbacks", "self_s"),
    "sim.measure": ("calls", "self_s"),
    "sim.netsim": ("calls", "cycles", "self_s"),
    "core.bus": ("calls", "self_s"),
    "core.network": ("calls", "self_s"),
    "experiments.surface": ("calls", "self_s"),
    "obs": ("events", "bytes", "self_s"),
    "experiments.run": ("self_s", "cells"),
}

#: Counts that must repeat exactly between two traced runs.
COUNT_SUFFIXES = (
    "calls", "distinct", "records", "hits", "misses", "cycles", "bytes",
    "events", "cells", "geometries", "fallbacks",
)


def engine_label(engine: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "-", engine)


class Tracer:
    """Per-layer span and count recorder for one process."""

    def __init__(self) -> None:
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.distinct: dict[str, set] = defaultdict(set)
        self.unknown_engines: set[str] = set()
        # One frame per open span: [child span time, child layers].
        self._stack: list[list] = []
        self._bookkeeping = 0.0
        self._derived_start: dict | None = None

    # -- spans ------------------------------------------------------------

    def _wrap(self, layer: str, fn, count=None):
        stack = self._stack
        stats = self.counts[layer]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, set()]
            stack.append(frame)
            book = self._bookkeeping
            start = _clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                elapsed = end - start - (self._bookkeeping - book)
                stats["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1].add(layer)
                stats["calls"] += 1
            begin = _clock()
            if count is not None:
                count(self, stats, args, kwargs, return_value, frame[1])
            self._bookkeeping += _clock() - begin
            return return_value

        span.__perfbench_original__ = fn
        return span

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every timed entry point, alias-complete."""
        from repro.trace.derived import derived_cache_info

        self._derived_start = derived_cache_info()
        loaded = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for layer, module_name, qualname, count in _TIMED:
            owner = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(layer, original, count))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(layer, original, count)
            rebound = 0
            for module in loaded:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        rebound += 1
            if rebound == 0:
                raise RuntimeError(f"{module_name}.{qualname} not rebound")

    # -- results ----------------------------------------------------------

    def layer_calls(self) -> dict[str, int]:
        return {
            layer: int(self.counts[layer]["calls"]) for layer in LAYER_METRICS
        }

    def metrics(self) -> dict[str, float]:
        """Flat ``layer.metric -> value`` for every layer in LAYER_METRICS."""
        from repro.trace.derived import derived_cache_info

        derived = derived_cache_info()
        for key in ("hits", "misses"):
            self.counts["trace.derived"][key] = (
                derived[key] - self._derived_start[key]
            )
        for layer in ("trace.synthetic", "trace.stats"):
            self.counts[layer]["distinct"] = len(self.distinct[layer])
        flat = {}
        for layer, suffixes in LAYER_METRICS.items():
            for suffix in suffixes:
                value = self.counts[layer][suffix]
                flat[f"{layer}.{suffix}"] = (
                    value if suffix == "self_s" else int(value)
                )
        return flat


# -- per-layer counters -----------------------------------------------------


def _count_synthetic(tracer, stats, args, kwargs, trace, _children):
    config = args[0] if args else kwargs["config"]
    tracer.distinct["trace.synthetic"].add(repr(config))
    stats["records"] += len(trace)


def _count_stats(tracer, stats, args, kwargs, _result, _children):
    from repro.trace.derived import trace_digest

    trace = args[0] if args else kwargs["trace"]
    tracer.distinct["trace.stats"].add(trace_digest(trace))
    stats["records"] += len(trace)


def _count_io(tracer, stats, args, kwargs, _trace, _children):
    path = args[0] if args else kwargs["path"]
    stats["bytes"] += os.path.getsize(path)


def _count_machine(tracer, stats, args, kwargs, result, _children):
    stats["records"] += result.records_replayed
    label = engine_label(result.engine)
    if label not in ENGINES:
        tracer.unknown_engines.add(label)
    stats[f"engine.{label}"] += 1


def _count_onepass(tracer, stats, args, kwargs, results, children):
    stats["geometries"] += len(results)
    # A fallback family replays each configuration through Machine.run.
    if "sim.machine" in children:
        stats["fallbacks"] += 1


def _count_netsim(tracer, stats, args, kwargs, _result, _children):
    from repro.sim.netsim import OmegaNetworkSimulator

    run = OmegaNetworkSimulator.run.__perfbench_original__
    stats["cycles"] += inspect.signature(run).bind(*args, **kwargs).arguments[
        "cycles"
    ]


def _count_event(tracer, stats, args, kwargs, _result, _children):
    stats["events"] += 1


def _count_checkpoint(tracer, stats, args, kwargs, _result, _children):
    # Manifest lines carry timestamps and wall times, so only the
    # checkpoint payloads give a byte count that repeats exactly.
    payload = args[4] if len(args) > 4 else kwargs["payload"]
    stats["events"] += 1
    stats["bytes"] += len(payload)


def _count_cells(tracer, stats, args, kwargs, results, _children):
    stats["cells"] += len(results)


_TIMED = (
    ("trace.synthetic", "repro.trace.synthetic", "generate_trace",
     _count_synthetic),
    ("trace.stats", "repro.trace.stats", "collect_stats", _count_stats),
    ("trace.stats", "repro.trace.stats", "shared_run_lengths", _count_stats),
    ("trace.flushing", "repro.trace.flushing", "apply_flush_policy", None),
    ("trace.flushing", "repro.trace.flushing", "implied_apl", None),
    ("trace.derived", "repro.trace.derived", "derived_columns", None),
    ("trace.io", "repro.trace.io", "load_trace", _count_io),
    ("sim.machine", "repro.sim.machine", "Machine.run", _count_machine),
    ("sim.onepass", "repro.sim.onepass", "run_geometry_family",
     _count_onepass),
    ("sim.measure", "repro.sim.measure", "measure_workload_params", None),
    ("sim.netsim", "repro.sim.netsim", "OmegaNetworkSimulator.run",
     _count_netsim),
    ("core.bus", "repro.core.bus", "BusSystem.evaluate", None),
    ("core.network", "repro.core.network", "NetworkSystem.evaluate", None),
    ("experiments.surface", "repro.experiments.surface", "sweep_grid", None),
    ("obs", "repro.obs.manifest", "ManifestWriter.event", _count_event),
    ("obs", "repro.obs.checkpoint", "CheckpointWriter.record",
     _count_checkpoint),
    ("experiments.run", "repro.experiments.registry", "Experiment.run", None),
    ("experiments.run", "repro.experiments.parallel", "parallel_map",
     _count_cells),
)
