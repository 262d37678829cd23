"""Measure the model's workload parameters from a trace.

The paper's validation (Section 3) feeds the analytical model with
parameters measured from the same traces the simulator replays.  This
module reproduces that flow:

* reference-mix parameters (``ls``, ``shd``, ``wr``) and the
  run-length parameters (``apl``, ``mdshd``) come straight from the
  trace (:mod:`repro.trace.stats`);
* cache-dependent parameters (``msdat``, ``mains``, ``md``) and the
  snoop parameters (``oclean``, ``opres``, ``nshd``) come from a
  Dragon simulation at the requested cache configuration — Dragon,
  because it is the scheme whose state exposes those events, and its
  miss behaviour matches Base (write-update protocols do not
  invalidate).
"""

from __future__ import annotations

import math

from repro.core.params import WorkloadParams
from repro.sim.machine import Machine, SimulationConfig, SimulationResult
from repro.sim.protocols.dragon import DragonStats
from repro.trace.records import Trace
from repro.trace.stats import collect_stats

__all__ = ["measure_workload_params"]


def measure_workload_params(
    trace: Trace,
    config: SimulationConfig | None = None,
    simulation: SimulationResult | None = None,
) -> WorkloadParams:
    """Workload parameters of ``trace`` at one cache configuration.

    Args:
        trace: the trace to characterise.
        config: cache configuration for the miss-rate measurements.
        simulation: a previously run *Dragon* simulation of the same
            trace/config, to avoid simulating twice.  Must carry
            :class:`~repro.sim.protocols.dragon.DragonStats`.

    Returns:
        A fully populated :class:`~repro.core.params.WorkloadParams`,
        with each value clamped to its legal range.

    Raises:
        ValueError: for an empty trace, which has no parameters to
            measure, or a simulation that is not Dragon's.
    """
    if len(trace) == 0:
        raise ValueError(
            f"cannot measure workload parameters of empty trace "
            f"{trace.name!r}"
        )
    config = config if config is not None else SimulationConfig()
    if simulation is None:
        simulation = Machine("dragon", config).run(trace)
    if not isinstance(simulation.protocol_stats, DragonStats):
        raise ValueError(
            "measurement needs a Dragon simulation (protocol_stats "
            f"missing or wrong type: {type(simulation.protocol_stats).__name__})"
        )

    trace_stats = collect_stats(trace)
    dragon = simulation.protocol_stats

    def finite(name: str, value: float) -> float:
        # NaN slips through min/max clamps unchanged (every comparison
        # with NaN is false), so a corrupt measurement would silently
        # poison the model downstream.  Reject it here, by name.
        if not math.isfinite(value):
            raise ValueError(
                f"measured parameter {name!r} is not finite: {value!r}"
            )
        return value

    def probability(name: str, value: float) -> float:
        return min(max(finite(name, value), 0.0), 1.0)

    return WorkloadParams(
        ls=probability("ls", trace_stats.ls),
        msdat=probability("msdat", simulation.data_miss_rate),
        mains=probability("mains", simulation.instruction_miss_rate),
        md=probability("md", simulation.dirty_victim_fraction),
        shd=probability("shd", trace_stats.shd),
        wr=probability("wr", trace_stats.wr),
        apl=max(finite("apl", trace_stats.apl), 1.0),
        mdshd=probability("mdshd", trace_stats.mdshd),
        oclean=probability("oclean", dragon.oclean),
        opres=probability("opres", dragon.opres),
        nshd=max(finite("nshd", dragon.nshd), 0.0),
    )
