"""Dragon-like snoopy write-broadcast protocol.

The four classic Dragon states, using the shared :class:`LineState`
vocabulary:

* ``CLEAN``         — Valid-Exclusive: only copy, matches memory.
* ``DIRTY``         — Dirty: only copy, memory stale.
* ``SHARED_CLEAN``  — possibly other copies; this one not responsible
  for memory.
* ``SHARED_DIRTY``  — possibly other copies; this copy owns the block
  (most recent writer) and must supply it and write it back.

Protocol actions (Section 2.2.4 of the paper):

* A store to a block present in another cache broadcasts the word on
  the bus; every holder updates in place (stealing one processor cycle
  each), the writer becomes SHARED_DIRTY, any previous owner is
  demoted to SHARED_CLEAN.  Memory is *not* updated.
* A miss is supplied by the owning cache if any cache holds the block
  dirty, else by memory.
* Evicting an owner (DIRTY or SHARED_DIRTY) writes the block back.

Invariant (property-tested): at most one cache holds a given block in
an owner state.

The protocol also maintains the measurement counters behind the
model's ``oclean``, ``opres``, and ``nshd`` parameters, which the
paper derives from exactly these events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operations import Operation
from repro.sim.cache import LineState
from repro.sim.protocols.interface import NO_ACTION, AccessOutcome, Protocol
from repro.trace.records import AccessType

__all__ = ["DragonProtocol", "DragonStats"]


@dataclass
class DragonStats:
    """Raw counters behind ``oclean``, ``opres``, and ``nshd``.

    Attributes:
        shared_misses: misses to blocks in the shared region.
        shared_misses_dirty_elsewhere: of those, how many found the
            block dirty in another cache (``1 - oclean``).
        shared_write_hits: stores that hit a shared-region block.
        shared_write_hits_present_elsewhere: of those, how many found
            the block in another cache (``opres``).
        broadcasts: write-broadcast transactions issued.
        broadcast_holders: total holder caches updated across all
            broadcasts (``nshd`` is the mean per broadcast).
    """

    shared_misses: int = 0
    shared_misses_dirty_elsewhere: int = 0
    shared_write_hits: int = 0
    shared_write_hits_present_elsewhere: int = 0
    broadcasts: int = 0
    broadcast_holders: int = 0

    @property
    def oclean(self) -> float:
        """P(block not dirty elsewhere | shared miss); 1.0 if no misses."""
        if self.shared_misses == 0:
            return 1.0
        return 1.0 - self.shared_misses_dirty_elsewhere / self.shared_misses

    @property
    def opres(self) -> float:
        """P(present elsewhere | shared write hit); 0.0 if no writes."""
        if self.shared_write_hits == 0:
            return 0.0
        return (
            self.shared_write_hits_present_elsewhere / self.shared_write_hits
        )

    @property
    def nshd(self) -> float:
        """Mean holder caches updated per broadcast; 1.0 if none."""
        if self.broadcasts == 0:
            return 1.0
        return self.broadcast_holders / self.broadcasts


class DragonProtocol(Protocol):
    """Snoopy write-update coherence (the paper's hardware comparison)."""

    name = "dragon"
    read_hit_is_free = True
    remote_traffic_preserves_residency = True
    may_steal_cycles = True

    def __init__(self, caches, is_shared_block):
        super().__init__(caches, is_shared_block)
        self.stats = DragonStats()

    def access(self, cpu: int, kind: AccessType, block: int) -> AccessOutcome:
        cache = self.caches[cpu]
        state = cache.lookup(block)
        if state is not LineState.INVALID:
            if kind is not AccessType.STORE:
                return NO_ACTION
            return self._write_hit(cpu, block, state)
        return self._miss(cpu, kind, block)

    def _write_hit(
        self, cpu: int, block: int, state: LineState
    ) -> AccessOutcome:
        cache = self.caches[cpu]
        if state is LineState.DIRTY or state is LineState.CLEAN:
            # Exclusive states are provably sole copies: any other
            # cache acquiring the block would have demoted this line
            # to SHARED_CLEAN/SHARED_DIRTY when its fill was snooped,
            # so the holder scan is skipped (hot path: private
            # stores).  The invariant is exercised by the protocol
            # property tests.
            if self.is_shared_block(block):
                self.stats.shared_write_hits += 1
            if state is not LineState.DIRTY:
                cache.set_state(block, LineState.DIRTY)
            return NO_ACTION
        holders = self.holders(block, excluding=cpu)
        if self.is_shared_block(block):
            self.stats.shared_write_hits += 1
            if holders:
                self.stats.shared_write_hits_present_elsewhere += 1
        if not holders:
            # Sole copy: write locally.  A shared-state line with no
            # actual other holders silently collapses to DIRTY.
            if state is not LineState.DIRTY:
                cache.set_state(block, LineState.DIRTY)
            return NO_ACTION
        return self._broadcast(cpu, block, holders)

    def _broadcast(
        self, cpu: int, block: int, holders: list[int]
    ) -> AccessOutcome:
        """Write-broadcast: update all copies, take ownership."""
        self.stats.broadcasts += 1
        self.stats.broadcast_holders += len(holders)
        self.caches[cpu].set_state(block, LineState.SHARED_DIRTY)
        for holder in holders:
            # Every other copy becomes a non-owner shared copy.
            self.caches[holder].set_state(block, LineState.SHARED_CLEAN)
        return AccessOutcome(
            (Operation.WRITE_BROADCAST,), steal_from=tuple(holders)
        )

    def _miss(self, cpu: int, kind: AccessType, block: int) -> AccessOutcome:
        cache = self.caches[cpu]
        holders = self.holders(block, excluding=cpu)
        owner = self._owner(block, holders)
        if self.is_shared_block(block):
            self.stats.shared_misses += 1
            if owner is not None:
                self.stats.shared_misses_dirty_elsewhere += 1

        if holders:
            # The block becomes shared: every existing copy moves to
            # the matching shared state (the snoop observes the fill).
            supplied_from_cache = owner is not None
            fill_state = LineState.SHARED_CLEAN
            for holder in holders:
                holder_cache = self.caches[holder]
                holder_state = holder_cache.peek(block)
                if holder_state is LineState.CLEAN:
                    holder_cache.set_state(block, LineState.SHARED_CLEAN)
                elif holder_state is LineState.DIRTY:
                    holder_cache.set_state(block, LineState.SHARED_DIRTY)
        else:
            supplied_from_cache = False
            fill_state = LineState.CLEAN

        victim = cache.insert(block, fill_state)
        dirty_victim = victim is not None and victim[1].is_dirty
        operations = [_MISS_OPERATION[supplied_from_cache, dirty_victim]]

        if kind is AccessType.STORE:
            if holders:
                follow_up = self._broadcast(cpu, block, holders)
                operations.extend(follow_up.operations)
                return AccessOutcome(
                    tuple(operations), steal_from=follow_up.steal_from
                )
            cache.set_state(block, LineState.DIRTY)
        return AccessOutcome(tuple(operations))

    def _owner(self, block: int, holders: list[int]) -> int | None:
        """The cache holding ``block`` dirty, if any."""
        for holder in holders:
            if self.caches[holder].peek(block).is_owner:
                return holder
        return None


_MISS_OPERATION = {
    # (supplied_from_cache, dirty_victim) -> operation
    (False, False): Operation.CLEAN_MISS_MEMORY,
    (False, True): Operation.DIRTY_MISS_MEMORY,
    (True, False): Operation.CLEAN_MISS_CACHE,
    (True, True): Operation.DIRTY_MISS_CACHE,
}
