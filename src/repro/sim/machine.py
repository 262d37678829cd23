"""The multiprocessor machine: caches + bus + protocol + trace replay.

Timing model: each processor has a private clock.  An instruction
fetch costs one execution cycle; cache operations add the CPU cycles
of their :class:`~repro.core.operations.Operation` from the machine's
cost table.  Operations with bus time wait for the bus (adding
contention cycles) and then hold it for the operation's bus cycles.
Snoop updates steal one cycle from each holding processor.

References are replayed in trace order, so processor clocks can drift
relative to one another — the same approximation the paper's simulator
makes ("the order of references from different processors may be
slightly distorted"), which it verified to be benign.

Replay engines
--------------

Every engine of ``Machine.run`` produces **identical** statistics,
enforced against the legacy loop by ``tests/sim/test_equivalence.py``,
``tests/sim/test_onepass.py`` and ``tests/sim/test_family.py``:

* ``engine="columnar"`` (default) is a geometry family of one: when
  :func:`repro.sim.onepass.family_support` accepts the run, the
  one-pass engine (Base, No-Cache, Software-Flush) or the epoch engine
  (Dragon, WTI) replays it and the result's ``engine`` records
  ``"onepass"`` or ``"epoch"``.  Every other run — the hybrids, the
  directory, Dragon or WTI above 2-way, non-integral costs or
  arbitration overhead, protocol subclasses — takes the
  array-consuming record loop: block indices and shared-block flags
  are vectorised up front, per-operation costs live in a single
  pre-folded dict of ``(cpu_cycles, bus_cycles, is_miss,
  is_dirty_victim, counter)`` tuples, per-CPU counters are plain local
  lists, and — for protocols declaring ``read_hit_is_free`` — a
  resident instruction fetch or unshared load is handled inline as a
  two-probe LRU touch with no protocol call.
* ``engine="legacy"`` is the original straightforward record loop,
  kept as the executable specification the other engines are tested
  against.
"""

from __future__ import annotations

import heapq
import time
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field

from repro.core.operations import CostTable, Operation
from repro.obs.metrics import note_replay
from repro.sim.bus import (
    ArbitratedBus,
    TimedBus,
    checked_utilization,
    validate_arbitration_cycles,
    validate_discipline,
)
from repro.sim.cache import Cache, CacheGeometry
from repro.sim.protocols import Protocol, protocol_class
from repro.sim.protocols.interface import NO_ACTION
from repro.trace.derived import derived_columns
from repro.trace.records import KIND_MEMBERS, AccessType, Trace

__all__ = ["CpuStats", "Machine", "SimulationConfig", "SimulationResult"]

_MISS_OPERATIONS = frozenset(
    {
        Operation.CLEAN_MISS_MEMORY,
        Operation.DIRTY_MISS_MEMORY,
        Operation.CLEAN_MISS_CACHE,
        Operation.DIRTY_MISS_CACHE,
    }
)
_DIRTY_VICTIM_OPERATIONS = frozenset(
    {Operation.DIRTY_MISS_MEMORY, Operation.DIRTY_MISS_CACHE}
)


@dataclass(frozen=True)
class SimulationConfig:
    """Machine configuration for one simulation run.

    Attributes:
        cache_bytes: per-processor cache size (paper: 16K/64K/256K).
        block_bytes: cache block and bus transfer size (paper: 16).
        associativity: cache associativity.  Two-way by default: with
            the synthetic traces' separate code/data/shared regions, a
            direct-mapped cache suffers conflict misses well above the
            paper's observed miss-rate range, and the paper does not
            pin the traced machine's associativity.
        bus_discipline: bus arbitration discipline, one of
            :data:`repro.sim.bus.DISCIPLINES`.  ``fcfs`` (the default)
            reproduces the pre-discipline simulator; any other value
            routes ``Machine.run`` to the ``arbitrated`` engine.
        bus_arbitration_cycles: fixed overhead per arbitration (per
            grant, or per grant window under ``batched``).
    """

    cache_bytes: int = 65536
    block_bytes: int = 16
    associativity: int = 2
    bus_discipline: str = "fcfs"
    bus_arbitration_cycles: float = 0.0

    def __post_init__(self) -> None:
        validate_discipline(self.bus_discipline)
        validate_arbitration_cycles(self.bus_arbitration_cycles)

    @property
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(
            size_bytes=self.cache_bytes,
            block_bytes=self.block_bytes,
            associativity=self.associativity,
        )


@dataclass
class CpuStats:
    """Per-processor counters accumulated during a run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    flushes: int = 0
    clock: float = 0.0
    wait_cycles: float = 0.0
    stolen_cycles: int = 0

    @property
    def utilization(self) -> float:
        """Productive fraction: one cycle per instruction over elapsed."""
        if self.clock == 0.0:
            return 0.0
        return self.instructions / self.clock


@dataclass
class SimulationResult:
    """Everything a run produced.

    The derived properties mirror the statistics the paper's simulator
    reports: miss rates, contention, utilisation, processing power.
    """

    protocol: str
    trace_name: str
    config: SimulationConfig
    cpus: list[CpuStats] = field(default_factory=list)
    operation_counts: Counter = field(default_factory=Counter)
    fetch_misses: int = 0
    data_misses: int = 0
    dirty_victim_misses: int = 0
    shared_loads: int = 0
    shared_stores: int = 0
    shared_data_misses: int = 0
    bus_busy_cycles: float = 0.0
    bus_transactions: int = 0
    bus_arbitration_cycles: float = 0.0
    protocol_stats: object | None = None
    # Run provenance (not statistics): which engine replayed the trace,
    # how many records it consumed, and the host wall time it took.
    # Excluded from ``repro.verify.differential.stats_signature`` so
    # engine-equivalence checks compare simulation outcomes only.
    engine: str = ""
    records_replayed: int = 0
    run_wall_s: float = 0.0

    # -- reference mix -----------------------------------------------------

    @property
    def instructions(self) -> int:
        return sum(cpu.instructions for cpu in self.cpus)

    @property
    def data_references(self) -> int:
        return sum(cpu.loads + cpu.stores for cpu in self.cpus)

    @property
    def shared_references(self) -> int:
        return self.shared_loads + self.shared_stores

    # -- miss rates ---------------------------------------------------------

    @property
    def total_misses(self) -> int:
        return self.fetch_misses + self.data_misses

    @property
    def instruction_miss_rate(self) -> float:
        """``mains``: instruction misses per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.fetch_misses / self.instructions

    @property
    def data_miss_rate(self) -> float:
        """``msdat``: data misses per data reference.

        For the No-Cache protocol shared references bypass the cache,
        so this is per *cachable* data reference.
        """
        cachable = self.data_references
        if self.protocol == "nocache":
            cachable -= self.shared_references
        if cachable <= 0:
            return 0.0
        return self.data_misses / cachable

    @property
    def dirty_victim_fraction(self) -> float:
        """``md``: fraction of misses replacing a dirty block."""
        if self.total_misses == 0:
            return 0.0
        return self.dirty_victim_misses / self.total_misses

    # -- time ---------------------------------------------------------------

    @property
    def elapsed_cycles(self) -> float:
        return max((cpu.clock for cpu in self.cpus), default=0.0)

    @property
    def wait_cycles(self) -> float:
        return sum(cpu.wait_cycles for cpu in self.cpus)

    @property
    def wait_cycles_per_instruction(self) -> float:
        """Measured counterpart of the model's ``w``."""
        if self.instructions == 0:
            return 0.0
        return self.wait_cycles / self.instructions

    @property
    def cycles_per_instruction(self) -> float:
        """Measured counterpart of the model's ``c + w`` (per CPU mean)."""
        if self.instructions == 0:
            return 0.0
        return sum(cpu.clock for cpu in self.cpus) / self.instructions

    @property
    def utilization(self) -> float:
        """Mean per-processor utilisation."""
        if not self.cpus:
            return 0.0
        return sum(cpu.utilization for cpu in self.cpus) / len(self.cpus)

    @property
    def processing_power(self) -> float:
        """Sum of per-processor utilisations (the paper's metric)."""
        return sum(cpu.utilization for cpu in self.cpus)

    @property
    def bus_utilization(self) -> float:
        """Fraction of elapsed cycles the bus was held for service.

        Raises:
            ValueError: if busy cycles exceed elapsed cycles beyond
                float epsilon — the bus cannot be held for longer than
                the run lasted, so a ratio above 1.0 means bus cycles
                were double-counted (previously clamped silently).
        """
        return checked_utilization(self.bus_busy_cycles, self.elapsed_cycles)


class Machine:
    """A simulated shared-bus multiprocessor.

    Args:
        protocol: protocol name (``base``, ``dragon``, ``nocache``,
            ``swflush``) or a :class:`Protocol` subclass.
        config: cache configuration.
        costs: operation cost table; defaults to the paper's Table 1.
    """

    def __init__(
        self,
        protocol: str | type[Protocol] = "base",
        config: SimulationConfig | None = None,
        costs: CostTable | None = None,
    ):
        if isinstance(protocol, str):
            self.protocol_class = protocol_class(protocol)
        else:
            self.protocol_class = protocol
        self.config = config if config is not None else SimulationConfig()
        self.costs = costs if costs is not None else CostTable.bus()

    def run(
        self,
        trace: Trace,
        cpus: int | None = None,
        order: str = "time",
        engine: str = "columnar",
    ) -> SimulationResult:
        """Replay a trace and return the accumulated statistics.

        Args:
            trace: the reference stream to replay.
            cpus: if given, restrict the trace to its first ``cpus``
                processors (the validation sweeps use this).
            order: ``"time"`` (default) merges the per-CPU streams by
                simulated clock, so bus grants happen in simulated-time
                order; ``"trace"`` replays records exactly in trace
                order, which lets drifted-ahead processors capture the
                bus "from the future" (the distortion the paper
                discusses in Section 3).  Per-CPU program order is
                preserved either way.
            engine: ``"columnar"`` (default) runs the one-pass or
                epoch family engine as a family of one wherever
                :func:`repro.sim.onepass.family_support` accepts the
                run (the result's ``engine`` then records
                ``"onepass"`` or ``"epoch"``), and the fast
                array-consuming replay loop otherwise; ``"legacy"``
                runs the original record loop; ``"segment"`` runs the
                pure-numpy segment-scan kernel (geometry-local
                protocols, associativity 1 or 2, integral costs —
                raises ``ValueError`` otherwise); ``"arbitrated"``
                runs the deferred-grant engine honouring the
                configured bus discipline.  A non-``fcfs``
                ``config.bus_discipline`` forces the arbitrated
                engine (columnar/legacy cannot express it), and the
                result's ``engine`` field records ``"arbitrated"``.
                FCFS engines produce identical statistics.
        """
        if order not in ("time", "trace"):
            raise ValueError(f"order must be 'time' or 'trace', got {order!r}")
        if engine not in ("columnar", "legacy", "segment", "arbitrated"):
            raise ValueError(
                f"engine must be 'columnar', 'legacy', 'segment', or "
                f"'arbitrated', got {engine!r}"
            )
        if cpus is not None and cpus != trace.cpus:
            trace = trace.restricted_to(cpus)
        discipline = self.config.bus_discipline
        arbitrated = engine == "arbitrated" or discipline != "fcfs"
        if engine == "segment":
            # Lazy import: onepass imports this module.  Non-default
            # disciplines raise a structured error inside the gate.
            from repro.sim.onepass import run_segment_engine

            return run_segment_engine(self, trace, order)
        if not arbitrated and engine == "columnar":
            # Lazy import, as above.  The private entry keeps the sweep
            # API (and its fallback bookkeeping) out of per-config runs.
            from repro.sim.onepass import _replay_family, family_support

            family_engine, _ = family_support(
                self.protocol_class,
                self.costs,
                self.config.associativity,
                discipline,
                self.config.bus_arbitration_cycles,
            )
            if family_engine != "fallback":
                size = self.config.cache_bytes
                return _replay_family(
                    family_engine,
                    self.protocol_class.name,
                    trace,
                    {size: self.config},
                    self.costs,
                    order,
                )[size]
        if arbitrated and order == "trace":
            raise ValueError(
                "order='trace' cannot be honoured by the arbitrated "
                "engine: a processor parked on a bus grant would "
                "reorder its later records around other CPUs; "
                "use order='time'"
            )

        geometry = self.config.geometry
        caches = [Cache(geometry) for _ in range(trace.cpus)]
        block_shift = geometry.block_shift
        shared_low = trace.shared_region.start >> block_shift
        shared_high = (
            trace.shared_region.stop + geometry.block_bytes - 1
        ) >> block_shift

        def is_shared_block(block: int) -> bool:
            return shared_low <= block < shared_high

        protocol = self.protocol_class(caches, is_shared_block)
        if arbitrated:
            engine = "arbitrated"
            bus: TimedBus | ArbitratedBus = ArbitratedBus(
                trace.cpus, discipline, self.config.bus_arbitration_cycles
            )
        else:
            bus = TimedBus(self.config.bus_arbitration_cycles)
        result = SimulationResult(
            protocol=protocol.name,
            trace_name=trace.name,
            config=self.config,
            cpus=[CpuStats() for _ in range(trace.cpus)],
        )
        started = time.perf_counter()
        if arbitrated:
            self._run_arbitrated(
                trace, protocol, bus, result, block_shift, is_shared_block,
            )
        elif engine == "columnar":
            self._run_columnar(
                trace, order, caches, protocol, bus, result,
                block_shift, shared_low, shared_high,
            )
        else:
            self._run_legacy(
                trace, order, protocol, bus, result,
                block_shift, is_shared_block,
            )
        result.bus_busy_cycles = bus.busy_cycles
        result.bus_transactions = bus.transactions
        result.bus_arbitration_cycles = bus.arbitration_busy_cycles
        result.protocol_stats = getattr(protocol, "stats", None)
        if engine == "columnar" and self.config.bus_arbitration_cycles:
            # fcfs arbitration overhead is folded into the synchronous
            # TimedBus grants; label the provenance distinctly.
            engine = "columnar+arb"
        result.engine = engine
        result.records_replayed = len(trace)
        result.run_wall_s = time.perf_counter() - started
        note_replay(len(trace), engine)
        return result

    # -- columnar engine (default) --------------------------------------

    def _run_columnar(
        self,
        trace: Trace,
        order: str,
        caches: list[Cache],
        protocol: Protocol,
        bus: TimedBus,
        result: SimulationResult,
        block_shift: int,
        shared_low: int,
        shared_high: int,
    ) -> None:
        """Array-consuming replay loop.

        Works on plain python lists derived from the trace columns:
        block indices and shared-block flags are computed vectorised
        over the whole trace, then the per-record loop touches only
        list indexing, dict probes, and float adds.  Statistics are
        byte-identical to :meth:`_run_legacy` (same arithmetic on the
        same values in the same sequence).
        """
        n = trace.cpus
        if not len(trace):
            return

        # Vectorised preprocessing, memoized per (trace content, block
        # size) in repro.trace.derived: block indices, shared mask,
        # per-CPU stable sort, reference mix, fetch prefix sums.  A
        # geometry sweep holding the block size constant (or any two
        # runs over the same trace — other protocols, the other
        # engine's cross-check, the fuzz harness) reuses one entry.
        derived = derived_columns(trace, block_shift)
        kind_np = trace.kind
        blocks_np = derived.blocks
        mix = derived.mix
        shared_loads = derived.shared_loads
        shared_stores = derived.shared_stores

        # Per-operation info, folded into one dict probe per operation:
        # (cpu_cycles, bus_cycles, is_miss, is_dirty_victim, counter).
        # The counter is a one-element list mutated in place.
        op_info = {
            op: (
                cost.cpu_cycles,
                cost.channel_cycles,
                op in _MISS_OPERATIONS,
                op in _DIRTY_VICTIM_OPERATIONS,
                [0],
            )
            for op, cost in self.costs.items()
        }

        # Replay-dependent accumulators as plain lists/ints (no
        # attribute access in the loop); written back at the end.
        clocks = [0.0] * n
        waits = [0.0] * n
        steals = [0] * n
        fetch_misses = 0
        data_misses = 0
        shared_data_misses = 0
        dirty_victims = 0

        handles_flush = protocol.handles_flush
        fast_hits = protocol.read_hit_is_free
        # Shared loads may use the inline probe only when the protocol
        # caches shared data (all bundled schemes except No-Cache).
        fast_shared_loads = fast_hits and protocol.caches_shared_data
        protocol_access = protocol.access
        protocol_flush = protocol.flush
        transact = bus.transact
        kind_members = KIND_MEMBERS
        line_sets = [cache.line_sets for cache in caches]
        set_mask = caches[0].set_mask if caches else 0

        def slow(
            cpu: int, kind_code: int, block: int, shared: bool, clock: float
        ) -> float:
            """Full protocol path for references the inline fast path
            does not cover (misses, stores, shared loads, flushes).

            Takes and returns the issuing CPU's clock so callers can
            keep it in a local; ``steal_from`` victims are always other
            CPUs, whose clocks live in ``clocks``.
            """
            nonlocal fetch_misses, data_misses, shared_data_misses
            nonlocal dirty_victims
            if kind_code == 3:
                outcome = protocol_flush(cpu, block)
            else:
                outcome = protocol_access(cpu, kind_members[kind_code], block)
            if outcome is NO_ACTION:
                return clock
            for operation in outcome.operations:
                cpu_cycles, bus_cycles, is_miss, is_dirty, counter = op_info[
                    operation
                ]
                counter[0] += 1
                if bus_cycles > 0.0:
                    grant, wait = transact(clock, bus_cycles)
                    clock = grant + cpu_cycles
                    waits[cpu] += wait
                else:
                    clock += cpu_cycles
                if is_miss:
                    if kind_code == 0:
                        fetch_misses += 1
                    else:
                        data_misses += 1
                        if shared:
                            shared_data_misses += 1
                    if is_dirty:
                        dirty_victims += 1
            for victim_cpu in outcome.steal_from:
                clocks[victim_cpu] += 1.0
                steals[victim_cpu] += 1
            return clock

        if order == "trace" or n == 1:
            # NOTE: this record body is duplicated in the time-ordered
            # loop below; keep the two in sync (the equivalence tests
            # exercise both).  The shared flag is only needed on the
            # slow path, so it is computed there (fetch misses, flushes
            # never consult it).
            for cpu, kind_code, block in zip(
                trace.cpu.tolist(), kind_np.tolist(), blocks_np.tolist()
            ):
                if kind_code == 0:
                    clocks[cpu] += 1.0
                    if fast_hits:
                        cache_set = line_sets[cpu][block & set_mask]
                        state = cache_set.pop(block, 0)
                        if state:
                            cache_set[block] = state
                            continue
                    clocks[cpu] = slow(cpu, 0, block, False, clocks[cpu])
                elif kind_code == 1:
                    if fast_shared_loads:
                        cache_set = line_sets[cpu][block & set_mask]
                        state = cache_set.pop(block, 0)
                        if state:
                            cache_set[block] = state
                            continue
                        clocks[cpu] = slow(
                            cpu, 1, block,
                            shared_low <= block < shared_high, clocks[cpu],
                        )
                    elif shared_low <= block < shared_high:
                        clocks[cpu] = slow(cpu, 1, block, True, clocks[cpu])
                    elif fast_hits:
                        cache_set = line_sets[cpu][block & set_mask]
                        state = cache_set.pop(block, 0)
                        if state:
                            cache_set[block] = state
                            continue
                        clocks[cpu] = slow(cpu, 1, block, False, clocks[cpu])
                    else:
                        clocks[cpu] = slow(cpu, 1, block, False, clocks[cpu])
                elif kind_code == 2:
                    clocks[cpu] = slow(
                        cpu, 2, block,
                        shared_low <= block < shared_high, clocks[cpu],
                    )
                else:
                    if handles_flush:
                        clocks[cpu] = slow(cpu, 3, block, False, clocks[cpu])
        else:
            # Time-ordered merge: split the columns into per-CPU
            # streams (stable argsort keeps program order), then merge
            # by processor clock, processing records in the exact
            # lexicographic ``(key, cpu)`` order the legacy engine's
            # heap pops them, where a record's key is the issuing
            # CPU's clock after its previous record.  With a handful of
            # CPUs a linear argmin over the same frozen keys beats heapq
            # -- no tuple allocation, no sift -- and pops in the
            # identical lexicographic order.  Each scan also yields the
            # runner-up key, which bounds how long the chosen CPU may
            # keep running: keys never change during a burst, so the
            # current CPU continues while its clock stays at or below
            # that bound.
            counts = derived.counts
            kinds_sorted = derived.kinds_sorted.tolist()
            blocks_sorted = derived.blocks_sorted.tolist()
            cpu_kinds: list[list[int]] = []
            cpu_blocks: list[list[int]] = []
            offset = 0
            for count in counts:
                cpu_kinds.append(kinds_sorted[offset:offset + count])
                cpu_blocks.append(blocks_sorted[offset:offset + count])
                offset += count
            positions = [0] * n
            infinity = float("inf")
            keys = [0.0] * n
            active = [cpu for cpu in range(n) if counts[cpu]]
            cpu = active[0]
            if len(active) > 1:
                top_clock, top_cpu = 0.0, active[1]
            else:
                top_clock, top_cpu = infinity, -1
            while True:
                # One burst of the current CPU.
                stream_kinds = cpu_kinds[cpu]
                stream_blocks = cpu_blocks[cpu]
                cpu_sets = line_sets[cpu]
                length = counts[cpu]
                position = positions[cpu]
                clock = clocks[cpu]
                exhausted = False
                while True:
                    kind_code = stream_kinds[position]
                    block = stream_blocks[position]
                    position += 1
                    # Same record body as the trace-order loop above.
                    if kind_code == 0:
                        clock += 1.0
                        if fast_hits:
                            cache_set = cpu_sets[block & set_mask]
                            state = cache_set.pop(block, 0)
                            if state:
                                cache_set[block] = state
                            else:
                                clock = slow(cpu, 0, block, False, clock)
                        else:
                            clock = slow(cpu, 0, block, False, clock)
                    elif kind_code == 1:
                        if fast_shared_loads:
                            cache_set = cpu_sets[block & set_mask]
                            state = cache_set.pop(block, 0)
                            if state:
                                cache_set[block] = state
                            else:
                                clock = slow(
                                    cpu, 1, block,
                                    shared_low <= block < shared_high,
                                    clock,
                                )
                        elif shared_low <= block < shared_high:
                            clock = slow(cpu, 1, block, True, clock)
                        elif fast_hits:
                            cache_set = cpu_sets[block & set_mask]
                            state = cache_set.pop(block, 0)
                            if state:
                                cache_set[block] = state
                            else:
                                clock = slow(cpu, 1, block, False, clock)
                        else:
                            clock = slow(cpu, 1, block, False, clock)
                    elif kind_code == 2:
                        clock = slow(
                            cpu, 2, block,
                            shared_low <= block < shared_high, clock,
                        )
                    else:
                        if handles_flush:
                            clock = slow(cpu, 3, block, False, clock)
                    if position == length:
                        exhausted = True
                        break
                    if top_clock < clock or (
                        top_clock == clock and top_cpu < cpu
                    ):
                        break
                positions[cpu] = position
                clocks[cpu] = clock
                if exhausted:
                    active.remove(cpu)
                    if not active:
                        break
                else:
                    keys[cpu] = clock
                # Re-select: argmin of (key, cpu) plus the
                # runner-up.  ``active`` stays sorted, so strict
                # ``<`` comparisons resolve ties toward the lower
                # CPU id, matching the heap's tuple ordering.
                best_key = infinity
                best_cpu = -1
                top_clock = infinity
                top_cpu = -1
                for candidate in active:
                    key = keys[candidate]
                    if key < best_key:
                        top_clock = best_key
                        top_cpu = best_cpu
                        best_key = key
                        best_cpu = candidate
                    elif key < top_clock:
                        top_clock = key
                        top_cpu = candidate
                cpu = best_cpu

        # Write the accumulators back.
        for index in range(n):
            cpu_stats = result.cpus[index]
            cpu_stats.instructions = int(mix[index, 0])
            cpu_stats.loads = int(mix[index, 1])
            cpu_stats.stores = int(mix[index, 2])
            cpu_stats.flushes = int(mix[index, 3])
            cpu_stats.clock = clocks[index]
            cpu_stats.wait_cycles = waits[index]
            cpu_stats.stolen_cycles = steals[index]
        result.operation_counts = Counter(
            {
                op: info[4][0]
                for op, info in op_info.items()
                if info[4][0]
            }
        )
        result.fetch_misses = fetch_misses
        result.data_misses = data_misses
        result.shared_data_misses = shared_data_misses
        result.dirty_victim_misses = dirty_victims
        result.shared_loads = shared_loads
        result.shared_stores = shared_stores

    # -- legacy engine (reference implementation) ------------------------

    def _run_legacy(
        self,
        trace: Trace,
        order: str,
        protocol: Protocol,
        bus: TimedBus,
        result: SimulationResult,
        block_shift: int,
        is_shared_block,
    ) -> None:
        """The original per-record replay loop.

        Kept as the executable specification of the replay semantics;
        ``tests/sim/test_equivalence.py`` asserts the columnar engine
        matches it exactly for every protocol and both orders.
        """
        cpu_cost = {op: cost.cpu_cycles for op, cost in self.costs.items()}
        bus_cost = {op: cost.channel_cycles for op, cost in self.costs.items()}
        stats = result.cpus
        op_counts = result.operation_counts
        handles_flush = protocol.handles_flush
        fetch = AccessType.INST_FETCH
        store = AccessType.STORE
        flush = AccessType.FLUSH

        def process(cpu: int, kind: AccessType, address: int) -> None:
            cpu_stats = stats[cpu]
            block = address >> block_shift
            if kind is flush:
                cpu_stats.flushes += 1
                if not handles_flush:
                    return
                outcome = protocol.flush(cpu, block)
            else:
                if kind is fetch:
                    cpu_stats.instructions += 1
                    cpu_stats.clock += 1.0
                else:
                    shared = is_shared_block(block)
                    if kind is store:
                        cpu_stats.stores += 1
                        if shared:
                            result.shared_stores += 1
                    else:
                        cpu_stats.loads += 1
                        if shared:
                            result.shared_loads += 1
                outcome = protocol.access(cpu, kind, block)

            for operation in outcome.operations:
                hold = bus_cost[operation]
                if hold > 0.0:
                    grant, wait = bus.transact(cpu_stats.clock, hold)
                    cpu_stats.clock = grant + cpu_cost[operation]
                    cpu_stats.wait_cycles += wait
                else:
                    cpu_stats.clock += cpu_cost[operation]
                op_counts[operation] += 1
                if operation in _MISS_OPERATIONS:
                    if kind is fetch:
                        result.fetch_misses += 1
                    else:
                        result.data_misses += 1
                        if is_shared_block(block):
                            result.shared_data_misses += 1
                    if operation in _DIRTY_VICTIM_OPERATIONS:
                        result.dirty_victim_misses += 1

            for victim_cpu in outcome.steal_from:
                stats[victim_cpu].clock += 1.0
                stats[victim_cpu].stolen_cycles += 1

        if order == "trace" or trace.cpus == 1:
            for cpu, kind, address in trace.records:
                process(cpu, kind, address)
        else:
            self._replay_time_ordered(trace, stats, process)

    # -- arbitrated engine (parameterized bus disciplines) ----------------

    def _run_arbitrated(
        self,
        trace: Trace,
        protocol: Protocol,
        bus: ArbitratedBus,
        result: SimulationResult,
        block_shift: int,
        is_shared_block,
    ) -> None:
        """Deferred-grant replay honouring the configured discipline.

        Each processor runs as a generator that parks (``yield "bus"``)
        when one of its operations needs the bus and resumes when the
        bus grants it; the driver advances runnable processors in the
        legacy merge order (lexicographic ``(clock-at-last-boundary,
        cpu)``) and, before every arbitration decision, advances every
        processor that can reach its next reference by the decision
        instant — so the pending pool really contains everyone present
        when the discipline picks a winner.

        Under ``fcfs`` with zero arbitration overhead this reproduces
        ``_run_legacy`` exactly for geometry-local protocols (one bus
        operation per record, no cycle steals — test-pinned).  For
        stealing protocols the engines can diverge on ties: a steal
        landing while the victim is parked is applied when it resumes,
        whereas the legacy loop applies it to the victim's clock
        immediately.  All engines satisfy the verifier's conservation
        invariants exactly.
        """
        cpu_cost = {op: cost.cpu_cycles for op, cost in self.costs.items()}
        bus_cost = {op: cost.channel_cycles for op, cost in self.costs.items()}
        stats = result.cpus
        op_counts = result.operation_counts
        handles_flush = protocol.handles_flush
        fetch = AccessType.INST_FETCH
        store = AccessType.STORE
        flush = AccessType.FLUSH
        n = trace.cpus

        streams: list[list] = [[] for _ in range(n)]
        for record in trace.records:
            streams[record.cpu].append(record)

        parked = [False] * n
        # Steals that landed while the victim was parked on a grant;
        # applied to its clock when the grant arrives.
        deferred_steals = [0] * n

        def stream(cpu: int):
            """One processor's replay as a coroutine.

            Yields ``"bus"`` to park on a posted bus request (the
            driver sends back the grant's service-start cycle) and
            ``None`` at every record boundary (where the driver
            refreezes the merge key).
            """
            cpu_stats = stats[cpu]
            for _, kind, address in streams[cpu]:
                block = address >> block_shift
                if kind is flush:
                    cpu_stats.flushes += 1
                    if not handles_flush:
                        yield None
                        continue
                    outcome = protocol.flush(cpu, block)
                else:
                    if kind is fetch:
                        cpu_stats.instructions += 1
                        cpu_stats.clock += 1.0
                    else:
                        shared = is_shared_block(block)
                        if kind is store:
                            cpu_stats.stores += 1
                            if shared:
                                result.shared_stores += 1
                        else:
                            cpu_stats.loads += 1
                            if shared:
                                result.shared_loads += 1
                    outcome = protocol.access(cpu, kind, block)
                for operation in outcome.operations:
                    hold = bus_cost[operation]
                    if hold > 0.0:
                        ready = cpu_stats.clock
                        bus.request(cpu, ready, hold)
                        start = yield "bus"
                        cpu_stats.wait_cycles += start - ready
                        cpu_stats.clock = start + cpu_cost[operation]
                        if deferred_steals[cpu]:
                            cpu_stats.clock += float(deferred_steals[cpu])
                            deferred_steals[cpu] = 0
                    else:
                        cpu_stats.clock += cpu_cost[operation]
                    op_counts[operation] += 1
                    if operation in _MISS_OPERATIONS:
                        if kind is fetch:
                            result.fetch_misses += 1
                        else:
                            result.data_misses += 1
                            if is_shared_block(block):
                                result.shared_data_misses += 1
                        if operation in _DIRTY_VICTIM_OPERATIONS:
                            result.dirty_victim_misses += 1
                for victim_cpu in outcome.steal_from:
                    if parked[victim_cpu]:
                        deferred_steals[victim_cpu] += 1
                    else:
                        stats[victim_cpu].clock += 1.0
                    stats[victim_cpu].stolen_cycles += 1
                yield None

        generators = [stream(cpu) for cpu in range(n)]
        # Merge keys: the clock frozen at each CPU's last record
        # boundary (steals land on the clock but not the frozen key —
        # the legacy heap's staleness).  ``runnable`` stays sorted so
        # strict ``<`` comparisons tie-break toward the lower CPU id.
        keys = [0.0] * n
        runnable = [cpu for cpu in range(n) if streams[cpu]]
        infinity = float("inf")

        def earliest() -> int:
            best_key = infinity
            best_cpu = -1
            for candidate in runnable:
                key = keys[candidate]
                if key < best_key:
                    best_key = key
                    best_cpu = candidate
            return best_cpu

        def pump(cpu: int, value=None) -> None:
            """Advance ``cpu`` to its next yield and update run state."""
            try:
                token = generators[cpu].send(value)
            except StopIteration:
                token = "done"
            was_parked = parked[cpu]
            if token == "bus":
                parked[cpu] = True
                if not was_parked:
                    runnable.remove(cpu)
            elif token == "done":
                parked[cpu] = False
                if not was_parked:
                    runnable.remove(cpu)
            else:
                parked[cpu] = False
                keys[cpu] = stats[cpu].clock
                if was_parked:
                    insort(runnable, cpu)

        while runnable or bus.has_pending:
            if bus.has_pending:
                decision = bus.next_grant_at()
                # Everyone who reaches their next reference by the
                # arbitration instant gets to post first; new requests
                # can only move the decision earlier, so recompute.
                while runnable:
                    cpu = earliest()
                    if keys[cpu] > decision:
                        break
                    pump(cpu)
                    decision = bus.next_grant_at()
                winner, start, _ = bus.grant_next()
                pump(winner, start)
            else:
                pump(earliest())

    @staticmethod
    def _replay_time_ordered(trace: Trace, stats, process) -> None:
        """Feed records to ``process`` in simulated-time order.

        The per-CPU record streams are merged by each processor's
        current clock (a heap of ``(clock, cpu)``), so the next record
        handled always belongs to the processor that is earliest in
        simulated time.  Per-CPU program order is untouched.
        """
        streams: list[list] = [[] for _ in range(trace.cpus)]
        for record in trace.records:
            streams[record.cpu].append(record)
        positions = [0] * trace.cpus
        heap = [
            (0.0, cpu) for cpu in range(trace.cpus) if streams[cpu]
        ]
        heapq.heapify(heap)
        while heap:
            _, cpu = heapq.heappop(heap)
            _, kind, address = streams[cpu][positions[cpu]]
            positions[cpu] += 1
            process(cpu, kind, address)
            if positions[cpu] < len(streams[cpu]):
                heapq.heappush(heap, (stats[cpu].clock, cpu))
