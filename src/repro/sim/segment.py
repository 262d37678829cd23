"""Pure-numpy segment-scan classification of LRU reference streams.

The per-record Python loops that remain in the simulator — the
residue walk in :func:`repro.sim.onepass._classify` and the stateful
per-reference replay in ``Machine``'s engines — all answer the same
question: *which references miss, and which block do they evict?*
For caches of associativity one or two that question has a closed
form over **runs** (maximal sequences of consecutive same-block
touches within one ``(cpu, set)`` segment), so the whole
classification collapses to array passes:

* Partition each CPU's touch stream by set (one stable grouped sort),
  then collapse consecutive same-block touches into runs.  Within a
  run every touch after the first is trivially a hit.
* **Associativity 1**: every run *start* misses (the previous run's
  block occupies the single way) and its victim is exactly the
  previous run's block in the segment.
* **Associativity 2**: immediately before run ``r`` starts, the set
  holds exactly the blocks of runs ``r-1`` and ``r-2`` (LRU order:
  ``r-2`` then ``r-1``).  So run ``r`` hits iff its block equals run
  ``r-2``'s, and a missing run's victim is run ``r-2``'s block.
* A block's **true insertion position** (needed for victim-dirtiness
  interval queries) chains through hits: run ``r`` continues the
  residency begun at the most recent run of the same block at stride
  2.  Chains are resolved with one segmented ``maximum.accumulate``
  over runs sorted by ``(segment, block)``.

Victim dirtiness then reduces to "did this CPU issue a cachable store
to the victim's block while it was resident", a batch of interval
queries over composite ``((block, cpu), position)`` keys answered
with two ``searchsorted`` calls — no state machine at all.

The theorem breaks under *handled* flush records (a flush removes a
line mid-run, so the set no longer holds exactly the last two run
blocks) — but only inside the ``(cpu, set)`` segments that actually
contain a flush.  :func:`classify_lru` therefore takes an optional
``flushes`` mask: flush-containing segments are replayed exactly by a
small per-segment Python loop (mirroring the reference classifier's
flush semantics — resident flushed lines record their block and true
insertion position for the dirtiness interval query), while every
flush-free segment keeps the closed form.  :func:`segment_reason`
still gates on the geometry-local protocol contract and integral
costs that every one-pass engine requires; Associativities above two
would need the full stack-distance machinery, so they take the
classic path.

This module is a leaf: it must not import :mod:`repro.sim.machine` or
:mod:`repro.sim.onepass` (both import it, directly or lazily).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.operations import CostTable, Operation
from repro.sim.protocols import Protocol, is_registered_class, protocol_class
from repro.trace.derived import DerivedColumns
from repro.trace.records import Trace

__all__ = [
    "EVENT_OPERATIONS",
    "LruClassification",
    "SEGMENT_PROTOCOLS",
    "classify_lru",
    "dirty_flags",
    "segment_events",
    "segment_reason",
    "stream_positions",
]

#: Geometry-local protocols the segment event builder understands
#: (same membership rationale as ``onepass.ONEPASS_PROTOCOLS``: the
#: builder hard-codes each protocol's miss/through outcome mapping).
SEGMENT_PROTOCOLS = ("base", "nocache", "swflush")

# Event opcodes shared with repro.sim.onepass._account: positions in
# EVENT_OPERATIONS.
CLEAN_MISS = 0
DIRTY_MISS = 1
READ_THROUGH = 2
WRITE_THROUGH = 3
CLEAN_FLUSH = 4
DIRTY_FLUSH = 5

EVENT_OPERATIONS = (
    Operation.CLEAN_MISS_MEMORY,
    Operation.DIRTY_MISS_MEMORY,
    Operation.READ_THROUGH,
    Operation.WRITE_THROUGH,
    Operation.CLEAN_FLUSH,
    Operation.DIRTY_FLUSH,
)


def segment_reason(
    protocol: str | type[Protocol],
    costs: CostTable | None = None,
    associativity: int = 2,
    trace: Trace | None = None,
    bus_discipline: str = "fcfs",
    bus_arbitration_cycles: float = 0.0,
) -> str | None:
    """Why the segment-scan backend is *not* exact here, or None.

    The reason strings are structured ``category:detail`` so the run
    manifest can record them (see ``repro.obs.metrics``).
    """
    if bus_discipline != "fcfs":
        return (
            f"bus-discipline:{bus_discipline} needs the deferred-grant "
            "arbitrated engine"
        )
    if bus_arbitration_cycles != 0.0 and not float(
        bus_arbitration_cycles
    ).is_integer():
        # Integral fcfs overhead folds into the accounting merge's
        # TimedBus exactly; non-integral overhead breaks the batched
        # float-exactness gate.
        return (
            "bus-discipline:arbitration overhead "
            f"{bus_arbitration_cycles:g} cycles is non-integral and "
            "cannot be folded exactly into the segment merge"
        )
    name = protocol if isinstance(protocol, str) else protocol.name
    if name not in SEGMENT_PROTOCOLS:
        return f"protocol:{name} is not geometry-local"
    if not isinstance(protocol, str) and not is_registered_class(protocol):
        # The kernel hard-codes the registered outcomes; a subclass
        # would silently run its parent's rules.
        return (
            f"protocol:{protocol.__name__} is not the registered "
            f"{name!r} class"
        )
    cls = protocol_class(name) if isinstance(protocol, str) else protocol
    if not (
        cls.read_hit_is_free
        and cls.store_hit_is_local
        and cls.remote_traffic_preserves_residency
        and not cls.may_steal_cycles
    ):
        return f"protocol:{name} breaks the geometry-local contract flags"
    if associativity not in (1, 2):
        return (
            f"associativity:{associativity} (the run-collapse theorem "
            "covers 1 and 2)"
        )
    table = costs if costs is not None else CostTable.bus()
    if not all(
        float(cost.cpu_cycles).is_integer()
        and float(cost.channel_cycles).is_integer()
        for _, cost in table.items()
    ):
        return "costs:non-integral operation costs"
    return None


def stream_positions(derived: DerivedColumns) -> np.ndarray:
    """Program-order position within its CPU's stream, per sorted record."""
    counts = np.asarray(derived.counts, dtype=np.int64)
    offsets = np.asarray(derived.offsets, dtype=np.int64)
    total = int(counts.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


@dataclass(frozen=True)
class LruClassification:
    """Hit/miss/victim facts for one geometry, in sorted-record space.

    Attributes:
        miss: True where a touching reference misses its set.
        victim_block: block evicted by each miss (``-1`` when the set
            still had a free way), as int64 block numbers.
        victim_pos: the victim's true insertion position (program
            order within its CPU's stream), carried through the hits
            between insertion and eviction; ``-1`` when no victim.
        prev_same: True where the most recent touch of the same
            ``(cpu, set)`` segment was to the same block — the
            "guaranteed MRU-identity hit" predicate the coupled-family
            engines use for provable skips.
    """

    miss: np.ndarray
    victim_block: np.ndarray
    victim_pos: np.ndarray
    prev_same: np.ndarray


def classify_lru(
    derived: DerivedColumns,
    sets: int,
    associativity: int,
    touches: np.ndarray,
    flushes: np.ndarray | None = None,
) -> LruClassification:
    """Classify every touching reference against an LRU cache family.

    Exact for promote-on-every-touch, insert-on-miss LRU sets of
    associativity 1 or 2 whose membership evolves from the CPU's own
    stream alone (no invalidations among ``touches`` — callers gate).

    ``flushes`` (optional, sorted-record space, a subset of
    ``touches``) marks handled flush records: a flush invalidates its
    block without inserting anything.  The run-collapse closed form
    breaks in segments containing a flush, so those segments are
    replayed exactly by a per-segment loop; a flush of a *resident*
    block records the block and its true insertion position in
    ``victim_block``/``victim_pos`` (with ``miss`` False) so callers
    can issue the flush-dirtiness interval query.
    """
    if associativity not in (1, 2):
        raise ValueError(
            f"segment classification needs associativity 1 or 2, "
            f"got {associativity}"
        )
    total = len(derived.kinds_sorted)
    miss = np.zeros(total, dtype=bool)
    victim_block = np.full(total, -1, dtype=np.int64)
    victim_pos = np.full(total, -1, dtype=np.int64)
    prev_same = np.zeros(total, dtype=bool)
    t_idx = np.flatnonzero(touches)
    if not len(t_idx):
        return LruClassification(miss, victim_block, victim_pos, prev_same)

    t_cpu = derived.cpus_sorted[t_idx].astype(np.int64)
    t_block = derived.blocks_sorted[t_idx]
    segment = t_cpu * sets
    segment += (t_block & np.uint64(sets - 1)).astype(np.int64)
    g_order = np.argsort(segment, kind="stable")
    g_seg = segment[g_order]
    g_block = t_block[g_order]
    g_idx = t_idx[g_order]

    if flushes is not None:
        f_sorted = flushes[g_idx]
        if f_sorted.any():
            # Isolate the flush-containing segments and replay them
            # exactly; the closed form below sees only flush-free
            # segments (runs never span segments, so dropping whole
            # segments preserves every remaining run boundary).
            m = len(g_idx)
            new_seg = np.ones(m, dtype=bool)
            new_seg[1:] = g_seg[1:] != g_seg[:-1]
            seg_id = np.cumsum(new_seg) - 1
            has_flush = np.zeros(int(seg_id[-1]) + 1, dtype=bool)
            has_flush[seg_id[f_sorted]] = True
            replay = has_flush[seg_id]
            spos_all = stream_positions(derived)
            _replay_flush_segments(
                seg_id[replay].tolist(),
                g_block[replay].tolist(),
                g_idx[replay].tolist(),
                f_sorted[replay].tolist(),
                spos_all[g_idx[replay]].tolist(),
                associativity,
                miss,
                victim_block,
                victim_pos,
                prev_same,
            )
            keep = ~replay
            g_seg = g_seg[keep]
            g_block = g_block[keep]
            g_idx = g_idx[keep]
            if not len(g_idx):
                return LruClassification(
                    miss, victim_block, victim_pos, prev_same
                )
    m = len(g_idx)

    same = np.zeros(m, dtype=bool)
    same[1:] = (g_seg[1:] == g_seg[:-1]) & (g_block[1:] == g_block[:-1])
    prev_same[g_idx] = same

    # Collapse to runs of consecutive same-block touches per segment.
    run_start = np.flatnonzero(~same)
    runs = len(run_start)
    run_seg = g_seg[run_start]
    run_block = g_block[run_start]
    run_start_idx = g_idx[run_start]
    spos = stream_positions(derived)
    run_start_pos = spos[run_start_idx]

    if associativity == 1:
        # Every run start misses; the victim is the previous run's
        # block, inserted at that run's own start (every run begins
        # with a miss, so insertion never chains).
        run_hit = np.zeros(runs, dtype=bool)
        has_victim = np.zeros(runs, dtype=bool)
        has_victim[1:] = run_seg[1:] == run_seg[:-1]
        stride = 1
        insert_run = np.arange(runs, dtype=np.int64)
    else:
        # Before run r the set holds exactly the blocks of runs r-1
        # and r-2: hit iff block == run r-2's, victim = run r-2's
        # block on a miss.
        pp_same = np.zeros(runs, dtype=bool)
        pp_same[2:] = run_seg[2:] == run_seg[:-2]
        run_hit = np.zeros(runs, dtype=bool)
        run_hit[2:] = pp_same[2:] & (run_block[2:] == run_block[:-2])
        has_victim = pp_same & ~run_hit
        stride = 2
        # True insertion chains through stride-2 hit runs of the same
        # (segment, block): anchor each chain at its first (missing)
        # run with a segmented running maximum.
        pair_order = np.lexsort((run_block, run_seg))
        chained = np.zeros(runs, dtype=bool)
        if runs > 1:
            a, b = pair_order[1:], pair_order[:-1]
            chained[1:] = (
                (run_seg[a] == run_seg[b])
                & (run_block[a] == run_block[b])
                & (a - b == 2)
            )
        anchor = np.where(~chained, np.arange(runs, dtype=np.int64), 0)
        np.maximum.accumulate(anchor, out=anchor)
        insert_run = np.empty(runs, dtype=np.int64)
        insert_run[pair_order] = pair_order[anchor]

    miss[run_start_idx[~run_hit]] = True
    wv = np.flatnonzero(has_victim)
    if len(wv):
        v_runs = wv - stride
        v_idx = run_start_idx[wv]
        victim_block[v_idx] = run_block[v_runs].astype(np.int64)
        victim_pos[v_idx] = run_start_pos[insert_run[v_runs]]
    return LruClassification(miss, victim_block, victim_pos, prev_same)


def _replay_flush_segments(
    r_seg: list,
    r_block: list,
    r_idx: list,
    r_flush: list,
    r_pos: list,
    associativity: int,
    miss: np.ndarray,
    victim_block: np.ndarray,
    victim_pos: np.ndarray,
    prev_same: np.ndarray,
) -> None:
    """Exact LRU replay of the flush-containing segments.

    Same semantics as the reference classifier's flush branch
    (``onepass._classify``): pop-then-reinsert LRU via an insertion-
    ordered dict mapping block -> true insertion position; a flush
    invalidates without inserting, recording the block and insertion
    position when it was resident (``miss`` stays False — the caller
    distinguishes flush queries by record kind).
    """
    cache: dict = {}
    prev_seg = -1
    prev_block = -1
    prev_left = False
    for seg, block, idx, fl, pos in zip(
        r_seg, r_block, r_idx, r_flush, r_pos
    ):
        if seg != prev_seg:
            cache = {}
            prev_seg = seg
            prev_left = False
        if prev_left and block == prev_block:
            prev_same[idx] = True
        inserted = cache.pop(block, -1)
        if fl:
            if inserted >= 0:
                victim_block[idx] = block
                victim_pos[idx] = inserted
            prev_block = block
            prev_left = False
            continue
        if inserted >= 0:
            cache[block] = inserted
        else:
            miss[idx] = True
            if len(cache) >= associativity:
                victim = next(iter(cache))
                victim_block[idx] = victim
                victim_pos[idx] = cache.pop(victim)
            cache[block] = pos
        prev_block = block
        prev_left = True


def dirty_flags(
    derived: DerivedColumns,
    touches: np.ndarray,
    spos: np.ndarray,
    query_cpu: np.ndarray,
    query_block: np.ndarray,
    query_lo: np.ndarray,
    query_hi: np.ndarray,
) -> np.ndarray:
    """Was a cachable store issued to each queried line while resident?

    Each query asks whether ``query_cpu`` stored to ``query_block`` at
    a stream position in ``[query_lo, query_hi)`` — the interval from
    the line's insertion to its eviction.  Cachable stores are the
    store records among ``touches``.
    """
    if not len(query_cpu):
        return np.zeros(0, dtype=bool)
    store_idx = np.flatnonzero((derived.kinds_sorted == 2) & touches)
    if not len(store_idx):
        return np.zeros(len(query_cpu), dtype=bool)
    n = np.uint64(len(derived.counts))
    s_pair = derived.blocks_sorted[store_idx] * n
    s_pair += derived.cpus_sorted[store_idx].astype(np.uint64)
    q_pair = query_block.astype(np.uint64) * n
    q_pair += query_cpu.astype(np.uint64)
    uniq = np.unique(np.concatenate([s_pair, q_pair]))
    stride = max(derived.counts) + 1
    s_keys = np.sort(
        np.searchsorted(uniq, s_pair) * stride + spos[store_idx]
    )
    q_ids = np.searchsorted(uniq, q_pair) * stride
    lo = q_ids + query_lo
    hi = q_ids + query_hi
    return np.searchsorted(s_keys, hi) > np.searchsorted(s_keys, lo)


def segment_events(
    name: str,
    derived: DerivedColumns,
    n: int,
    geometry,
) -> list[tuple[list[int], list[int]]]:
    """Per-CPU ``(positions, opcodes)`` event lists for one geometry.

    Drop-in replacement for one geometry's slice of
    ``repro.sim.onepass._classify`` — same event contract, consumed by
    the same ``_account`` — built from array passes (plus the exact
    per-segment replay of flush-containing segments for protocols
    that handle flushes).  Callers must have passed the
    :func:`segment_reason` gate.
    """
    kinds = derived.kinds_sorted
    total = len(kinds)
    handles_flush = name == "swflush"
    touches = np.ones(total, dtype=bool)
    uncached = None
    if name == "nocache":
        uncached = ((kinds == 1) | (kinds == 2)) & derived.shared_sorted
        touches &= ~uncached
    flushes: np.ndarray | None = None
    if handles_flush:
        flushes = kinds == 3
        if not flushes.any():
            flushes = None
    else:
        touches &= kinds != 3

    cls = classify_lru(
        derived, geometry.sets, geometry.associativity, touches,
        flushes=flushes,
    )
    spos = stream_positions(derived)
    m_idx = np.flatnonzero(cls.miss)
    opcodes = np.zeros(len(m_idx), dtype=np.int64)  # CLEAN_MISS
    queried = np.flatnonzero(cls.victim_block[m_idx] >= 0)
    if len(queried):
        q_idx = m_idx[queried]
        dirty = dirty_flags(
            derived,
            touches,
            spos,
            derived.cpus_sorted[q_idx],
            cls.victim_block[q_idx],
            cls.victim_pos[q_idx],
            spos[q_idx],
        )
        opcodes[queried[dirty]] = DIRTY_MISS

    if flushes is not None:
        # Every flush is an event (flushing a non-resident block still
        # costs its cycle); resident flushed lines take the dirtiness
        # interval query over [insertion, flush).
        f_idx = np.flatnonzero(flushes)
        f_ops = np.full(len(f_idx), CLEAN_FLUSH, dtype=np.int64)
        resident = np.flatnonzero(cls.victim_block[f_idx] >= 0)
        if len(resident):
            q_idx = f_idx[resident]
            dirty = dirty_flags(
                derived,
                touches,
                spos,
                derived.cpus_sorted[q_idx],
                cls.victim_block[q_idx],
                cls.victim_pos[q_idx],
                spos[q_idx],
            )
            f_ops[resident[dirty]] = DIRTY_FLUSH
        all_idx = np.concatenate([m_idx, f_idx])
        merge = np.argsort(all_idx, kind="stable")
        m_idx = all_idx[merge]
        opcodes = np.concatenate([opcodes, f_ops])[merge]

    offsets = derived.offsets
    counts = derived.counts
    events: list[tuple[list[int], list[int]]] = []
    for cpu in range(n):
        start = offsets[cpu]
        stop = start + counts[cpu]
        lo = int(np.searchsorted(m_idx, start))
        hi = int(np.searchsorted(m_idx, stop))
        pos = m_idx[lo:hi] - start
        ops = opcodes[lo:hi]
        if uncached is not None:
            through_pos = np.flatnonzero(uncached[start:stop])
            if len(through_pos):
                through_ops = np.where(
                    kinds[start:stop][through_pos] == 2,
                    WRITE_THROUGH,
                    READ_THROUGH,
                ).astype(np.int64)
                all_pos = np.concatenate([pos, through_pos])
                merge = np.argsort(all_pos, kind="stable")
                pos = all_pos[merge]
                ops = np.concatenate([ops, through_ops])[merge]
        events.append((pos.tolist(), ops.tolist()))
    return events
