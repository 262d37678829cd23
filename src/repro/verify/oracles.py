"""Per-line reference state machines that shadow-check every transition.

The oracle mechanism has two halves:

* :func:`shadow_protocol` wraps a real protocol class in a dynamically
  built :class:`~repro.sim.protocols.interface.Protocol` subclass that
  leaves **every fast-path contract flag False** and is not the
  registered class, so no family engine takes it.  The columnar replay
  loop therefore routes every single record through
  ``access()``/``flush()`` — no inline hit probes — and the wrapper
  hands each call plus the caches' post-state to an oracle.  (Because
  the statistics must still be byte-identical to an unshadowed run,
  the shadow run doubles as a differential test of the contract flags
  themselves; :mod:`repro.verify.differential` asserts that.)

* A :class:`ProtocolOracle` per protocol maintains a *mirror* of all
  cache sets plus a version-counter model of memory, and validates
  each observed transition against the protocol's written rules: which
  operations may be charged, which line may be filled/evicted (the
  victim must be the LRU line of a full set), how remote copies may
  change, and — for the coherent protocols — that every read hit and
  every miss fill observes the latest stored version of the block
  (update-protocol copy consistency for Dragon, invalidation
  correctness for WTI).

Counters are conserved end-to-end: the oracle classifies every access
as hit/miss/uncached from its own mirror and ``finalize`` reconciles
those counts — plus the per-operation counts — with the finished
:class:`~repro.sim.machine.SimulationResult`, realising the
``hits + misses = references`` invariant independently of the engine's
own accounting.

Value model
-----------

The simulator stores no data, so "copy consistency" is checked with
version counters: every store to a block increments the block's global
version; copies and memory carry the version they last received.  For
Dragon (write-update) and WTI (write-invalidate) the protocol's whole
point is that a read hit can never observe a stale version — so the
oracle asserts ``copy version == latest version`` on every read hit
and every miss fill.  Base and Software-Flush are *incoherent by
design* under adversarial traces (that is why the paper pairs
Software-Flush with explicit flush discipline), so no value checks
apply to them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.operations import Operation
from repro.sim.cache import Cache, LineState
from repro.sim.protocols import protocol_class
from repro.sim.protocols.interface import Protocol
from repro.trace.records import AccessType

__all__ = ["ORACLES", "OracleViolation", "ProtocolOracle", "shadow_protocol"]

_CLEAN = LineState.CLEAN
_DIRTY = LineState.DIRTY
_SHARED_CLEAN = LineState.SHARED_CLEAN
_SHARED_DIRTY = LineState.SHARED_DIRTY


class OracleViolation(AssertionError):
    """A simulator transition broke the protocol's reference rules."""

    def __init__(self, protocol: str, index: int, message: str):
        super().__init__(f"[{protocol}] access #{index}: {message}")
        self.protocol = protocol
        self.index = index
        self.detail = message


@dataclass
class _Event:
    """One observed transition, pre-diffed against the mirror."""

    cpu: int
    kind: AccessType | None  # None for FLUSH
    block: int
    pre: LineState | None
    outcome: object
    #: (block, state) lines that vanished from the issuer's set.
    removed: list = field(default_factory=list)
    #: (block, state) lines that appeared in the issuer's set.
    added: list = field(default_factory=list)
    #: (block, old, new) state changes within the issuer's set.
    changed: list = field(default_factory=list)
    #: (cpu, old, new) for the accessed block in every *other* cache.
    remote: list = field(default_factory=list)
    #: LRU block of the issuer's set before the access (None if empty).
    lru_block: int | None = None
    #: Occupancy of the issuer's set before the access.
    old_set_len: int = 0


def _name(state: LineState | None) -> str:
    return "INVALID" if state is None else state.name


class ProtocolOracle:
    """Base oracle: mirror bookkeeping, diffing, and counter checks.

    Subclasses implement ``_validate_access`` (and ``_validate_flush``
    for flush-handling protocols) in terms of the ``_expect_*``
    helpers, and declare ``legal_states`` — the only states the
    protocol may ever leave a line in.
    """

    protocol = "abstract"
    legal_states: frozenset = frozenset(
        {_CLEAN, _DIRTY, _SHARED_CLEAN, _SHARED_DIRTY}
    )
    #: Whether read hits / miss fills must observe the latest version.
    checks_value_coherence = False

    def __init__(
        self,
        caches: Sequence[Cache],
        is_shared_block: Callable[[int], bool],
    ):
        self.caches = list(caches)
        self.is_shared_block = is_shared_block
        self.n = len(self.caches)
        geometry = self.caches[0].geometry if self.caches else None
        self.associativity = geometry.associativity if geometry else 1
        self.set_mask = self.caches[0].set_mask if self.caches else 0
        self.mirror: list[list[dict[int, LineState]]] = [
            [{} for _ in range(self.set_mask + 1)] for _ in range(self.n)
        ]
        # Version model (see module docstring).
        self.latest: defaultdict[int, int] = defaultdict(int)
        self.memory: defaultdict[int, int] = defaultdict(int)
        self.copies: list[dict[int, int]] = [{} for _ in range(self.n)]
        # Conservation counters.
        self.index = 0
        self.fetch_hits = 0
        self.fetch_misses = 0
        self.data_hits = 0
        self.data_misses = 0
        self.uncached_refs = 0
        self.flushes = 0
        self.dirty_victim_misses = 0
        self.shared_data_misses = 0
        self.op_counts: Counter = Counter()
        self.steals: int = 0

    # -- failure and expectation helpers ---------------------------------

    def _fail(self, message: str) -> None:
        raise OracleViolation(self.protocol, self.index, message)

    def _expect_outcome(self, ev: _Event, operations, steal=()) -> None:
        actual = tuple(ev.outcome.operations)
        expected = tuple(operations)
        if actual != expected:
            self._fail(
                f"block {ev.block:#x}: expected operations "
                f"{[op.name for op in expected]}, got "
                f"{[op.name for op in actual]}"
            )
        actual_steal = sorted(ev.outcome.steal_from)
        if actual_steal != sorted(steal):
            self._fail(
                f"block {ev.block:#x}: expected steal_from "
                f"{sorted(steal)}, got {actual_steal}"
            )

    def _expect_hit(self, ev: _Event, expected_post: LineState) -> None:
        """The issuer's set changed by at most the accessed block's
        state, which must now be ``expected_post``."""
        if ev.removed:
            self._fail(
                f"hit on block {ev.block:#x} evicted {ev.removed}"
            )
        if ev.added:
            self._fail(
                f"hit on block {ev.block:#x} inserted {ev.added}"
            )
        for block, old, new in ev.changed:
            if block != ev.block:
                self._fail(
                    f"hit on block {ev.block:#x} changed unrelated "
                    f"block {block:#x}: {_name(old)} -> {_name(new)}"
                )
        post = self.caches[ev.cpu].peek(ev.block)
        if post is not expected_post:
            self._fail(
                f"hit on block {ev.block:#x}: expected post-state "
                f"{expected_post.name}, found {_name(post or None)}"
            )

    def _expect_fill(self, ev: _Event, fill_state: LineState):
        """The miss inserted exactly the accessed block; at most one
        (LRU, capacity-justified) eviction.  Returns the victim pair
        or None."""
        if ev.changed:
            self._fail(
                f"miss on block {ev.block:#x} changed resident lines "
                f"{[(b, _name(o), _name(nw)) for b, o, nw in ev.changed]}"
            )
        if len(ev.added) != 1 or ev.added[0][0] != ev.block:
            self._fail(
                f"miss on block {ev.block:#x}: expected exactly that "
                f"block filled, got {ev.added}"
            )
        if ev.added[0][1] is not fill_state:
            self._fail(
                f"miss fill of block {ev.block:#x}: expected state "
                f"{fill_state.name}, got {ev.added[0][1].name}"
            )
        if len(ev.removed) > 1:
            self._fail(f"miss evicted more than one line: {ev.removed}")
        if ev.removed:
            victim_block, victim_state = ev.removed[0]
            if ev.old_set_len < self.associativity:
                self._fail(
                    f"evicted block {victim_block:#x} from a set with "
                    f"{ev.old_set_len}/{self.associativity} ways used"
                )
            if victim_block != ev.lru_block:
                self._fail(
                    f"evicted block {victim_block:#x} but the LRU line "
                    f"was {ev.lru_block:#x}"
                )
            return ev.removed[0]
        return None

    def _expect_remote_unchanged(self, ev: _Event) -> None:
        for other, old, new in ev.remote:
            if old is not new:
                self._fail(
                    f"access to block {ev.block:#x} changed cpu "
                    f"{other}'s copy: {_name(old)} -> {_name(new)}"
                )

    def _expect_remote_states(
        self, ev: _Event, expected: dict[int, LineState | None]
    ) -> None:
        """Remote copies of the accessed block must match ``expected``
        (absent CPUs must be unchanged)."""
        for other, old, new in ev.remote:
            want = expected.get(other, old)
            if new is not want:
                self._fail(
                    f"block {ev.block:#x}: cpu {other}'s copy is "
                    f"{_name(new)}, expected {_name(want)}"
                )

    # -- version model ----------------------------------------------------

    def _drop_copy(self, cpu: int, block: int, state: LineState) -> None:
        """A copy left ``cpu``'s cache (eviction/invalidation/flush);
        dirty copies write their version back to memory."""
        version = self.copies[cpu].pop(block, 0)
        if state.is_dirty:
            self.memory[block] = version

    def _fill_copy(self, ev: _Event) -> None:
        """Assign the version a miss fill observes; coherent protocols
        must observe the latest stored version."""
        version = self._fill_version(ev)
        self.copies[ev.cpu][ev.block] = version
        if self.checks_value_coherence and version != self.latest[ev.block]:
            self._fail(
                f"miss fill of block {ev.block:#x} observed version "
                f"{version}, latest stored is {self.latest[ev.block]} "
                f"(stale data reached a cache)"
            )

    def _fill_version(self, ev: _Event) -> int:
        """Version the fill's supplier holds; memory by default."""
        return self.memory[ev.block]

    def _store_version(self, ev: _Event) -> int:
        """Bump the block's version for a store; returns the new
        version (the caller distributes it to the updated copies)."""
        self.latest[ev.block] += 1
        return self.latest[ev.block]

    def _check_read_hit_version(self, ev: _Event) -> None:
        if not self.checks_value_coherence:
            return
        version = self.copies[ev.cpu].get(ev.block, 0)
        if version != self.latest[ev.block]:
            self._fail(
                f"read hit on block {ev.block:#x} observed version "
                f"{version}, latest stored is {self.latest[ev.block]} "
                f"(stale copy was never updated/invalidated)"
            )

    # -- observation entry points -----------------------------------------

    def observe_access(
        self, cpu: int, kind: AccessType, block: int, outcome
    ) -> None:
        self.index += 1
        ev = self._diff(cpu, kind, block, outcome)
        uncached = self._is_uncached(kind, block)
        if kind is AccessType.INST_FETCH:
            if ev.pre is None:
                self.fetch_misses += 1
            else:
                self.fetch_hits += 1
        elif uncached:
            self.uncached_refs += 1
        elif ev.pre is None:
            self.data_misses += 1
            if self.is_shared_block(block):
                self.shared_data_misses += 1
        else:
            self.data_hits += 1
        self._validate_access(ev)
        if ev.pre is None and not uncached and ev.removed:
            if ev.removed[0][1].is_dirty:
                self.dirty_victim_misses += 1
        self.op_counts.update(ev.outcome.operations)
        self.steals += len(ev.outcome.steal_from)
        self._sync(ev)

    def observe_flush(self, cpu: int, block: int, outcome) -> None:
        self.index += 1
        self.flushes += 1
        ev = self._diff(cpu, None, block, outcome)
        self._validate_flush(ev)
        self.op_counts.update(ev.outcome.operations)
        self.steals += len(ev.outcome.steal_from)
        self._sync(ev)

    # -- diff / sync machinery ---------------------------------------------

    def _diff(self, cpu: int, kind, block: int, outcome) -> _Event:
        set_index = block & self.set_mask
        old_set = self.mirror[cpu][set_index]
        actual_set = self.caches[cpu].line_sets[set_index]
        ev = _Event(
            cpu=cpu,
            kind=kind,
            block=block,
            pre=old_set.get(block),
            outcome=outcome,
            lru_block=next(iter(old_set)) if old_set else None,
            old_set_len=len(old_set),
        )
        for resident, state in old_set.items():
            new = actual_set.get(resident)
            if new is None:
                ev.removed.append((resident, state))
            elif new is not state:
                ev.changed.append((resident, state, new))
        for resident, state in actual_set.items():
            if resident not in old_set:
                ev.added.append((resident, state))
        if len(actual_set) > self.associativity:
            self._fail(
                f"set {set_index} of cpu {cpu} holds {len(actual_set)} "
                f"lines, associativity is {self.associativity}"
            )
        for state in dict(ev.added).values():
            if state not in self.legal_states:
                self._fail(
                    f"line entered illegal state {state.name} for "
                    f"protocol {self.protocol!r}"
                )
        for _, _, new in ev.changed:
            if new not in self.legal_states:
                self._fail(
                    f"line changed to illegal state {new.name} for "
                    f"protocol {self.protocol!r}"
                )
        for other in range(self.n):
            if other == cpu:
                continue
            old = self.mirror[other][set_index].get(block)
            new = self.caches[other].line_sets[set_index].get(block)
            if old is not None or new is not None:
                ev.remote.append((other, old, new))
        return ev

    def _sync(self, ev: _Event) -> None:
        """Fold the validated transition back into the mirror (and the
        version model's drop bookkeeping)."""
        cpu, block = ev.cpu, ev.block
        set_index = block & self.set_mask
        for victim_block, victim_state in ev.removed:
            self._drop_copy(cpu, victim_block, victim_state)
        for other, old, new in ev.remote:
            if old is not None and new is None:
                self._drop_copy(other, block, old)
            self._set_mirror(other, block, new)
        self.mirror[cpu][set_index] = dict(
            self.caches[cpu].line_sets[set_index]
        )

    def _set_mirror(
        self, cpu: int, block: int, state: LineState | None
    ) -> None:
        mirror_set = self.mirror[cpu][block & self.set_mask]
        if state is None:
            mirror_set.pop(block, None)
        else:
            # Preserve the remote set's LRU order: a state change
            # assigns in place, and a (never-occurring) remote insert
            # would land at MRU like the real dict does.
            if block in mirror_set:
                mirror_set[block] = state
            else:
                mirror_set[block] = state

    # -- explorer state hooks -----------------------------------------------

    def model_snapshot(self):
        """Validation-relevant oracle state beyond the mirror and the
        version model (e.g. the hybrid oracles' independent pressure
        model), as a hashable canonical value; ``None`` when the
        standard state fully determines future verdicts.  The explorer
        encodes this into machine states and hands it back through
        :meth:`restore_model` — protocol and oracle snapshots are
        encoded *separately*, so a protocol whose private state drifts
        from the oracle's model shows up as distinct states whose
        divergent verdicts the search then reaches."""
        return None

    def restore_model(self, snapshot) -> None:
        """Adopt a state previously returned by :meth:`model_snapshot`."""
        del snapshot

    # -- hooks --------------------------------------------------------------

    def _is_uncached(self, kind: AccessType, block: int) -> bool:
        """True when the reference legally bypasses the cache."""
        del kind, block
        return False

    def _validate_access(self, ev: _Event) -> None:
        raise NotImplementedError

    def _validate_flush(self, ev: _Event) -> None:
        self._fail(
            f"protocol {self.protocol!r} must never receive FLUSH "
            f"records (handles_flush is False)"
        )

    # -- end-of-run reconciliation ------------------------------------------

    def finalize(self, result) -> None:
        """Counter conservation against the finished run: the oracle's
        independently derived hit/miss classification must reproduce
        the engine's counters exactly, and hits + misses (+ uncached)
        must equal the reference totals."""
        loads = sum(cpu.loads for cpu in result.cpus)
        stores = sum(cpu.stores for cpu in result.cpus)
        checks = [
            (
                "instruction references",
                result.instructions,
                self.fetch_hits + self.fetch_misses,
            ),
            (
                "data references",
                loads + stores,
                self.data_hits + self.data_misses + self.uncached_refs,
            ),
            ("fetch misses", result.fetch_misses, self.fetch_misses),
            ("data misses", result.data_misses, self.data_misses),
            (
                "dirty-victim misses",
                result.dirty_victim_misses,
                self.dirty_victim_misses,
            ),
            (
                "shared data misses",
                result.shared_data_misses,
                self.shared_data_misses,
            ),
            (
                "stolen cycles",
                sum(cpu.stolen_cycles for cpu in result.cpus),
                self.steals,
            ),
        ]
        if self.flushes:
            checks.append(
                (
                    "flush records",
                    sum(cpu.flushes for cpu in result.cpus),
                    self.flushes,
                )
            )
        for name, engine_value, oracle_value in checks:
            if engine_value != oracle_value:
                self._fail(
                    f"counter conservation: {name} — engine reports "
                    f"{engine_value}, oracle derived {oracle_value}"
                )
        if +Counter(result.operation_counts) != +self.op_counts:
            self._fail(
                "counter conservation: operation counts — engine "
                f"{dict(result.operation_counts)}, oracle "
                f"{dict(self.op_counts)}"
            )


# -- concrete oracles -------------------------------------------------------


class BaseOracle(ProtocolOracle):
    """Plain write-back caching: no remote effects, ever."""

    protocol = "base"
    legal_states = frozenset({_CLEAN, _DIRTY})

    def _validate_access(self, ev: _Event) -> None:
        self._expect_remote_unchanged(ev)
        store = ev.kind is AccessType.STORE
        if ev.pre is not None:
            self._expect_hit(ev, _DIRTY if store else ev.pre)
            self._expect_outcome(ev, ())
            if not store:
                self._check_read_hit_version(ev)
            elif self.checks_value_coherence:
                self.copies[ev.cpu][ev.block] = self._store_version(ev)
            return
        victim = self._expect_fill(ev, _DIRTY if store else _CLEAN)
        dirty_victim = victim is not None and victim[1].is_dirty
        self._expect_outcome(
            ev,
            (
                Operation.DIRTY_MISS_MEMORY
                if dirty_victim
                else Operation.CLEAN_MISS_MEMORY,
            ),
        )
        if self.checks_value_coherence:
            self._fill_copy(ev)
            if store:
                self.copies[ev.cpu][ev.block] = self._store_version(ev)


class SoftwareFlushOracle(BaseOracle):
    """Base semantics plus the explicit flush instruction."""

    protocol = "swflush"

    def _validate_flush(self, ev: _Event) -> None:
        self._expect_remote_unchanged(ev)
        if ev.added or ev.changed:
            self._fail(
                f"flush of block {ev.block:#x} added/changed lines: "
                f"added={ev.added} changed={ev.changed}"
            )
        if ev.pre is None:
            if ev.removed:
                self._fail(
                    f"flush of non-resident block {ev.block:#x} "
                    f"removed {ev.removed}"
                )
            self._expect_outcome(ev, (Operation.CLEAN_FLUSH,))
            return
        if ev.removed != [(ev.block, ev.pre)]:
            self._fail(
                f"flush of block {ev.block:#x} (state {ev.pre.name}) "
                f"must remove exactly that line, removed {ev.removed}"
            )
        self._expect_outcome(
            ev,
            (
                Operation.DIRTY_FLUSH
                if ev.pre.is_dirty
                else Operation.CLEAN_FLUSH,
            ),
        )


class NoCacheOracle(BaseOracle):
    """Base semantics for instructions and private data; shared data
    references bypass the cache entirely."""

    protocol = "nocache"

    def _is_uncached(self, kind: AccessType, block: int) -> bool:
        return kind is not AccessType.INST_FETCH and self.is_shared_block(
            block
        )

    def _validate_access(self, ev: _Event) -> None:
        if self._is_uncached(ev.kind, ev.block):
            self._expect_remote_unchanged(ev)
            if ev.removed or ev.added or ev.changed:
                self._fail(
                    f"uncached shared reference to block {ev.block:#x} "
                    f"touched the cache: removed={ev.removed} "
                    f"added={ev.added} changed={ev.changed}"
                )
            self._expect_outcome(
                ev,
                (
                    Operation.WRITE_THROUGH
                    if ev.kind is AccessType.STORE
                    else Operation.READ_THROUGH,
                ),
            )
            return
        super()._validate_access(ev)


class WtiOracle(ProtocolOracle):
    """Write-through-invalidate: all lines clean, stores kill remote
    copies, memory always holds the latest version."""

    protocol = "wti"
    legal_states = frozenset({_CLEAN})
    checks_value_coherence = True

    def _validate_access(self, ev: _Event) -> None:
        if ev.kind is not AccessType.STORE:
            self._expect_remote_unchanged(ev)
            if ev.pre is not None:
                self._expect_hit(ev, ev.pre)
                self._expect_outcome(ev, ())
                self._check_read_hit_version(ev)
                return
            victim = self._expect_fill(ev, _CLEAN)
            if victim is not None and victim[1].is_dirty:
                self._fail(
                    f"write-through cache evicted a dirty line "
                    f"{victim[0]:#x} ({victim[1].name})"
                )
            self._expect_outcome(ev, (Operation.CLEAN_MISS_MEMORY,))
            self._fill_copy(ev)
            return

        # Store: every remote copy of the block must be gone.
        for other, old, new in ev.remote:
            if new is not None:
                self._fail(
                    f"store to block {ev.block:#x} left cpu {other}'s "
                    f"copy alive ({_name(old)} -> {_name(new)}) — "
                    f"missing invalidation"
                )
        if ev.pre is not None:
            self._expect_hit(ev, ev.pre)
            self._expect_outcome(ev, (Operation.WRITE_THROUGH,))
        else:
            victim = self._expect_fill(ev, _CLEAN)
            if victim is not None and victim[1].is_dirty:
                self._fail(
                    f"write-through cache evicted a dirty line "
                    f"{victim[0]:#x} ({victim[1].name})"
                )
            self._expect_outcome(
                ev,
                (Operation.CLEAN_MISS_MEMORY, Operation.WRITE_THROUGH),
            )
        version = self._store_version(ev)
        # Write-through: memory observes the store immediately.
        self.memory[ev.block] = version
        self.copies[ev.cpu][ev.block] = version


class DragonOracle(ProtocolOracle):
    """Write-update snooping: broadcasts keep every copy current."""

    protocol = "dragon"
    checks_value_coherence = True

    def _validate_access(self, ev: _Event) -> None:
        holders = [other for other, old, _ in ev.remote if old is not None]
        if ev.kind is not AccessType.STORE:
            if ev.pre is not None:
                self._expect_remote_unchanged(ev)
                self._expect_hit(ev, ev.pre)
                self._expect_outcome(ev, ())
                self._check_read_hit_version(ev)
            else:
                self._validate_miss(ev, holders, store=False)
        else:
            if ev.pre is not None:
                self._validate_store_hit(ev, holders)
            else:
                self._validate_miss(ev, holders, store=True)
        self._check_block_invariants(ev)

    def _validate_store_hit(self, ev: _Event, holders: list[int]) -> None:
        if ev.pre in (_CLEAN, _DIRTY):
            if holders:
                self._fail(
                    f"block {ev.block:#x} held in exclusive state "
                    f"{ev.pre.name} by cpu {ev.cpu} while cpus "
                    f"{holders} also hold copies"
                )
            self._expect_remote_unchanged(ev)
            self._expect_hit(ev, _DIRTY)
            self._expect_outcome(ev, ())
        elif not holders:
            # A shared-state line with no actual other holders
            # silently collapses to the exclusive dirty state.
            self._expect_remote_unchanged(ev)
            self._expect_hit(ev, _DIRTY)
            self._expect_outcome(ev, ())
        else:
            self._expect_hit(ev, _SHARED_DIRTY)
            self._expect_remote_states(
                ev, {other: _SHARED_CLEAN for other in holders}
            )
            self._expect_outcome(
                ev, (Operation.WRITE_BROADCAST,), steal=holders
            )
        version = self._store_version(ev)
        self.copies[ev.cpu][ev.block] = version
        for other in holders:
            # The broadcast updates every copy in place.
            self.copies[other][ev.block] = version

    def _validate_miss(
        self, ev: _Event, holders: list[int], store: bool
    ) -> None:
        owners = [
            other
            for other, old, _ in ev.remote
            if old is not None and old.is_owner
        ]
        if len(owners) > 1:
            self._fail(
                f"block {ev.block:#x} has multiple owners before the "
                f"miss: cpus {owners}"
            )
        supplied_from_cache = bool(owners)
        if holders:
            expected_remote = {}
            for other, old, _ in ev.remote:
                if old is None:
                    continue
                if store:
                    expected_remote[other] = _SHARED_CLEAN
                elif old is _CLEAN:
                    expected_remote[other] = _SHARED_CLEAN
                elif old is _DIRTY:
                    expected_remote[other] = _SHARED_DIRTY
                else:
                    expected_remote[other] = old
            self._expect_remote_states(ev, expected_remote)
            fill_state = _SHARED_DIRTY if store else _SHARED_CLEAN
        else:
            self._expect_remote_unchanged(ev)
            fill_state = _DIRTY if store else _CLEAN
        victim = self._expect_fill(ev, fill_state)
        dirty_victim = victim is not None and victim[1].is_dirty
        miss_op = _DRAGON_MISS_OPERATION[supplied_from_cache, dirty_victim]
        if store and holders:
            self._expect_outcome(
                ev, (miss_op, Operation.WRITE_BROADCAST), steal=holders
            )
        else:
            self._expect_outcome(ev, (miss_op,))
        self._fill_copy(ev)
        if store:
            version = self._store_version(ev)
            self.copies[ev.cpu][ev.block] = version
            for other in holders:
                self.copies[other][ev.block] = version

    def _fill_version(self, ev: _Event) -> int:
        """The owner supplies the fill when one exists; memory
        otherwise.  All copies of an update-protocol block must agree,
        which :meth:`_fill_copy` then checks against ``latest``."""
        for other, old, _ in ev.remote:
            if old is not None and old.is_owner:
                return self.copies[other].get(ev.block, 0)
        return self.memory[ev.block]

    def _check_block_invariants(self, ev: _Event) -> None:
        """Post-access single-owner and exclusivity invariants for the
        accessed block (the only block whose sharing set changed)."""
        states = [
            (cpu, self.caches[cpu].peek(ev.block)) for cpu in range(self.n)
        ]
        resident = [
            (cpu, state)
            for cpu, state in states
            if state is not LineState.INVALID
        ]
        owners = [cpu for cpu, state in resident if state.is_owner]
        if len(owners) > 1:
            self._fail(
                f"block {ev.block:#x} has multiple owners after the "
                f"access: cpus {owners}"
            )
        for cpu, state in resident:
            if state in (_CLEAN, _DIRTY) and len(resident) > 1:
                self._fail(
                    f"block {ev.block:#x} is exclusive ({state.name}) "
                    f"in cpu {cpu} but {len(resident)} copies exist"
                )


_DRAGON_MISS_OPERATION = {
    (False, False): Operation.CLEAN_MISS_MEMORY,
    (False, True): Operation.DIRTY_MISS_MEMORY,
    (True, False): Operation.CLEAN_MISS_CACHE,
    (True, True): Operation.DIRTY_MISS_CACHE,
}


class HybridOracle(DragonOracle):
    """Adaptive update/invalidate snooping (the hybrid family).

    Dragon's rules, except that on a store each remote holder either
    updates in place or is invalidated according to an *independent*
    pressure model the oracle maintains from observed events alone: a
    copy that has absorbed ``k`` broadcasts without an intervening
    local use (or since its fill, for the non-resetting variant) must
    be gone after the store, all others must survive as SHARED_CLEAN
    with exactly the survivors' cycles stolen.  A simulator whose own
    counters drift — updating a copy that should have died, or killing
    one that should have lived — fails the remote-state expectation on
    the first store where the decisions differ.

    Value coherence holds through both actions: survivors receive the
    new version (update), dead copies cannot be read without a re-fetch
    from the owner or memory (invalidate), so the Dragon version checks
    apply unchanged.
    """

    protocol = "hybrid"
    #: Broadcasts a copy may absorb before the next one kills it.
    k = 4
    #: Whether a local access resets the copy's pressure to zero.
    resets_on_use = True

    def __init__(self, caches, is_shared_block):
        super().__init__(caches, is_shared_block)
        #: Independent pressure model: (cpu, block) -> count >= 1.
        self.pressure: dict[tuple[int, int], int] = {}

    # -- explorer state hooks -------------------------------------------

    def model_snapshot(self):
        return tuple(sorted(self.pressure.items()))

    def restore_model(self, snapshot) -> None:
        self.pressure = dict(snapshot)

    # -- pressure bookkeeping -------------------------------------------

    def _drop_copy(self, cpu: int, block: int, state: LineState) -> None:
        # Any copy leaving a cache (eviction, invalidation) loses its
        # pressure history.
        self.pressure.pop((cpu, block), None)
        super()._drop_copy(cpu, block, state)

    def _broadcast_decision(
        self, block: int, holders: list[int]
    ) -> tuple[list[int], list[int]]:
        """(survivors, doomed) for one observed store, advancing the
        pressure model."""
        survivors, doomed = [], []
        for holder in holders:
            key = (holder, block)
            count = self.pressure.get(key, 0) + 1
            if count >= self.k:
                doomed.append(holder)
                self.pressure.pop(key, None)
            else:
                survivors.append(holder)
                self.pressure[key] = count
        return survivors, doomed

    # -- validation -----------------------------------------------------

    def _validate_access(self, ev: _Event) -> None:
        if (
            self.resets_on_use
            and ev.kind is not AccessType.STORE
            and ev.pre is not None
        ):
            # A local read hit proves the processor still wants the
            # line; pressure restarts.
            self.pressure.pop((ev.cpu, ev.block), None)
        super()._validate_access(ev)

    def _validate_store_hit(self, ev: _Event, holders: list[int]) -> None:
        if self.resets_on_use:
            self.pressure.pop((ev.cpu, ev.block), None)
        survivors: list[int] = []
        if ev.pre in (_CLEAN, _DIRTY):
            if holders:
                self._fail(
                    f"block {ev.block:#x} held in exclusive state "
                    f"{ev.pre.name} by cpu {ev.cpu} while cpus "
                    f"{holders} also hold copies"
                )
            self._expect_remote_unchanged(ev)
            self._expect_hit(ev, _DIRTY)
            self._expect_outcome(ev, ())
        elif not holders:
            # A shared-state line with no actual other holders
            # silently collapses to the exclusive dirty state.
            self._expect_remote_unchanged(ev)
            self._expect_hit(ev, _DIRTY)
            self._expect_outcome(ev, ())
        else:
            survivors, doomed = self._broadcast_decision(ev.block, holders)
            expected: dict[int, LineState | None] = {
                other: _SHARED_CLEAN for other in survivors
            }
            expected.update({other: None for other in doomed})
            self._expect_hit(ev, _SHARED_DIRTY if survivors else _DIRTY)
            self._expect_remote_states(ev, expected)
            self._expect_outcome(
                ev, (Operation.WRITE_BROADCAST,), steal=survivors
            )
        version = self._store_version(ev)
        self.copies[ev.cpu][ev.block] = version
        for other in survivors:
            # The broadcast updates every surviving copy in place; dead
            # copies are dropped by the mirror sync.
            self.copies[other][ev.block] = version

    def _validate_miss(
        self, ev: _Event, holders: list[int], store: bool
    ) -> None:
        if not store:
            # Read and fetch misses are exactly Dragon's.
            super()._validate_miss(ev, holders, store=False)
            return
        owners = [
            other
            for other, old, _ in ev.remote
            if old is not None and old.is_owner
        ]
        if len(owners) > 1:
            self._fail(
                f"block {ev.block:#x} has multiple owners before the "
                f"miss: cpus {owners}"
            )
        supplied_from_cache = bool(owners)
        survivors: list[int] = []
        if holders:
            # The fill's snoop demotions and the follow-up broadcast
            # fold into one observable transition per holder: update
            # to SHARED_CLEAN or death.
            survivors, doomed = self._broadcast_decision(ev.block, holders)
            expected: dict[int, LineState | None] = {
                other: _SHARED_CLEAN for other in survivors
            }
            expected.update({other: None for other in doomed})
            self._expect_remote_states(ev, expected)
            fill_state = _SHARED_DIRTY if survivors else _DIRTY
        else:
            self._expect_remote_unchanged(ev)
            fill_state = _DIRTY
        victim = self._expect_fill(ev, fill_state)
        dirty_victim = victim is not None and victim[1].is_dirty
        miss_op = _DRAGON_MISS_OPERATION[supplied_from_cache, dirty_victim]
        if holders:
            self._expect_outcome(
                ev, (miss_op, Operation.WRITE_BROADCAST), steal=survivors
            )
        else:
            self._expect_outcome(ev, (miss_op,))
        self._fill_copy(ev)
        version = self._store_version(ev)
        self.copies[ev.cpu][ev.block] = version
        for other in survivors:
            self.copies[other][ev.block] = version


class Hybrid2Oracle(HybridOracle):
    protocol = "hybrid-2"
    k = 2
    resets_on_use = True


class Hybrid4Oracle(HybridOracle):
    protocol = "hybrid-4"
    k = 4
    resets_on_use = True


class HybridLimitOracle(HybridOracle):
    protocol = "hybrid-limit"
    k = 3
    resets_on_use = False


class DirectoryOracle(ProtocolOracle):
    """Full-map write-invalidate directory: stores leave exactly one
    (DIRTY) copy; a dirty owner is written back when memory supplies a
    later miss.

    Unlike Dragon, ``CLEAN`` here is a shareable read copy, not an
    exclusive state — the invariant is only that a DIRTY copy is the
    *sole* copy of its block.
    """

    protocol = "directory"
    legal_states = frozenset({_CLEAN, _DIRTY})
    checks_value_coherence = True

    def _validate_access(self, ev: _Event) -> None:
        if ev.kind is AccessType.STORE:
            self._validate_store(ev)
        else:
            self._validate_read(ev)
        self._check_block_invariants(ev)

    def _validate_read(self, ev: _Event) -> None:
        if ev.pre is not None:
            self._expect_remote_unchanged(ev)
            self._expect_hit(ev, ev.pre)
            self._expect_outcome(ev, ())
            self._check_read_hit_version(ev)
            return
        owner = self._owner_writeback(ev)
        # Memory supplies the fill; a dirty owner is downgraded to a
        # clean read copy as part of the transfer, nobody else moves.
        if owner is not None:
            self._expect_remote_states(ev, {owner: _CLEAN})
        else:
            self._expect_remote_unchanged(ev)
        victim = self._expect_fill(ev, _CLEAN)
        self._expect_outcome(ev, (self._miss_operation(victim),))
        self._fill_copy(ev)

    def _validate_store(self, ev: _Event) -> None:
        holders = [other for other, old, _ in ev.remote if old is not None]
        # Invalidation correctness: after any store, no other cache may
        # still hold the block.
        for other, old, new in ev.remote:
            if new is not None:
                self._fail(
                    f"store to block {ev.block:#x} left cpu {other}'s "
                    f"copy alive ({_name(old)} -> {_name(new)}) — "
                    f"missing invalidation"
                )
        if ev.pre is not None:
            self._expect_hit(ev, _DIRTY)
            self._expect_outcome(
                ev, (Operation.INVALIDATE,) if holders else ()
            )
        else:
            self._owner_writeback(ev)
            victim = self._expect_fill(ev, _DIRTY)
            miss_op = self._miss_operation(victim)
            self._expect_outcome(
                ev,
                (miss_op, Operation.INVALIDATE) if holders else (miss_op,),
            )
            self._fill_copy(ev)
        self.copies[ev.cpu][ev.block] = self._store_version(ev)

    def _owner_writeback(self, ev: _Event) -> int | None:
        """Memory observes the dirty owner's version before it serves
        the miss (the write-back is part of the transfer); returns the
        owner CPU or None."""
        owners = [
            other
            for other, old, _ in ev.remote
            if old is not None and old.is_owner
        ]
        if len(owners) > 1:
            self._fail(
                f"block {ev.block:#x} has multiple owners before the "
                f"miss: cpus {owners}"
            )
        if not owners:
            return None
        owner = owners[0]
        self.memory[ev.block] = self.copies[owner].get(ev.block, 0)
        return owner

    def _miss_operation(self, victim) -> Operation:
        if victim is not None and victim[1].is_dirty:
            return Operation.DIRTY_MISS_MEMORY
        return Operation.CLEAN_MISS_MEMORY

    def _check_block_invariants(self, ev: _Event) -> None:
        """Post-access: a DIRTY copy is the sole copy of its block."""
        resident = [
            (cpu, self.caches[cpu].peek(ev.block))
            for cpu in range(self.n)
            if self.caches[cpu].peek(ev.block) is not LineState.INVALID
        ]
        dirty = [cpu for cpu, state in resident if state is _DIRTY]
        if len(dirty) > 1:
            self._fail(
                f"block {ev.block:#x} is DIRTY in several caches after "
                f"the access: cpus {dirty}"
            )
        if dirty and len(resident) > 1:
            self._fail(
                f"block {ev.block:#x} is DIRTY in cpu {dirty[0]} but "
                f"{len(resident)} copies exist"
            )


#: Protocol name -> oracle class.  The paper's four schemes plus the
#: Base, directory, and hybrid extensions.
ORACLES: dict[str, type[ProtocolOracle]] = {
    oracle.protocol: oracle
    for oracle in (
        BaseOracle,
        SoftwareFlushOracle,
        NoCacheOracle,
        WtiOracle,
        DragonOracle,
        Hybrid2Oracle,
        Hybrid4Oracle,
        HybridLimitOracle,
        DirectoryOracle,
    )
}


def shadow_protocol(
    protocol: str | type[Protocol], sink: list | None = None
) -> type[Protocol]:
    """A Protocol subclass that runs ``protocol`` under oracle shadow.

    Every fast-path contract flag is left at its False default, so the
    replay engine routes *all* records through the wrapper; each call
    is forwarded to the wrapped protocol and then validated by the
    oracle against the caches' post-state.  Oracle violations surface
    as :class:`OracleViolation` raised out of ``Machine.run``.

    Args:
        protocol: registry name or Protocol subclass; the oracle is
            chosen by the class's ``name`` (so deliberately broken
            subclasses — mutation tests — are checked against the
            rules of the protocol they claim to be).
        sink: optional list; each constructed oracle instance is
            appended so callers can reach it after ``Machine.run``.
    """
    inner_class = (
        protocol_class(protocol) if isinstance(protocol, str) else protocol
    )
    try:
        oracle_class = ORACLES[inner_class.name]
    except KeyError:
        raise ValueError(
            f"no oracle for protocol {inner_class.name!r}; have "
            f"{sorted(ORACLES)}"
        ) from None

    class ShadowedProtocol(Protocol):
        name = inner_class.name
        handles_flush = inner_class.handles_flush
        # All fast-path contract flags intentionally stay False: the
        # engine must call access()/flush() for every record so the
        # oracle observes every transition.

        def __init__(self, caches, is_shared_block):
            super().__init__(caches, is_shared_block)
            self._inner = inner_class(caches, is_shared_block)
            self.oracle = oracle_class(caches, is_shared_block)
            if sink is not None:
                sink.append(self.oracle)

        @property
        def stats(self):
            return getattr(self._inner, "stats", None)

        def access(self, cpu, kind, block):
            outcome = self._inner.access(cpu, kind, block)
            self.oracle.observe_access(cpu, kind, block, outcome)
            return outcome

        def flush(self, cpu, block):
            outcome = self._inner.flush(cpu, block)
            self.oracle.observe_flush(cpu, block, outcome)
            return outcome

    ShadowedProtocol.__name__ = f"Shadowed({inner_class.__name__})"
    ShadowedProtocol.__qualname__ = ShadowedProtocol.__name__
    return ShadowedProtocol
