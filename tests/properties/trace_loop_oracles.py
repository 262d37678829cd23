"""Per-record reference loops for the trace statistics and flush
placement kernels.

These are the original record-at-a-time implementations of
:func:`repro.trace.collect_stats`, :func:`repro.trace.shared_run_lengths`,
:func:`repro.trace.apply_flush_policy` and :func:`repro.trace.implied_apl`.
They walk ``trace.records`` one :class:`TraceRecord` at a time, test
sharing with ``trace.is_shared``, and keep one open run per block in a
dict, so they share no code with the numpy run-boundary kernel they
check.
"""

from __future__ import annotations

from collections import defaultdict

from repro.trace.records import AccessType, Trace, TraceRecord
from repro.trace.stats import TraceStats

BLOCK_SHIFT = 4  # 16-byte blocks


def collect_stats_loop(trace: Trace) -> TraceStats:
    stats = TraceStats(per_cpu_records=[0] * trace.cpus)
    # shared block -> (owner cpu, run length, run contains a write)
    open_runs: dict[int, tuple[int, int, bool]] = {}
    shared_blocks: set[int] = set()

    def close(run: tuple[int, int, bool]) -> None:
        _, length, wrote = run
        stats.run_lengths.append(length)
        if wrote:
            stats.write_run_lengths.append(length)

    for cpu, kind, address in trace.records:
        stats.per_cpu_records[cpu] += 1
        if kind is AccessType.INST_FETCH:
            stats.instructions += 1
            continue
        if kind is AccessType.FLUSH:
            stats.flushes += 1
            continue

        is_store = kind is AccessType.STORE
        if is_store:
            stats.stores += 1
        else:
            stats.loads += 1

        if not trace.is_shared(address):
            continue
        if is_store:
            stats.shared_stores += 1
        else:
            stats.shared_loads += 1

        block = address >> BLOCK_SHIFT
        shared_blocks.add(block)
        run = open_runs.get(block)
        if run is None or run[0] != cpu:
            if run is not None:
                close(run)
            open_runs[block] = (cpu, 1, is_store)
        else:
            open_runs[block] = (cpu, run[1] + 1, run[2] or is_store)

    for run in open_runs.values():
        close(run)
    stats.shared_blocks_touched = len(shared_blocks)
    return stats


def shared_run_lengths_loop(trace: Trace) -> dict[int, list[int]]:
    runs: dict[int, list[int]] = defaultdict(list)
    current: dict[int, tuple[int, int]] = {}
    for cpu, kind, address in trace.records:
        if not kind.is_data or not trace.is_shared(address):
            continue
        block = address >> BLOCK_SHIFT
        owner = current.get(block)
        if owner is None or owner[0] != cpu:
            if owner is not None:
                runs[block].append(owner[1])
            current[block] = (cpu, 1)
        else:
            current[block] = (cpu, owner[1] + 1)
    for block, (_, length) in current.items():
        runs[block].append(length)
    return dict(runs)


def apply_flush_policy_loop(trace: Trace, policy: str) -> Trace:
    if policy == "section":
        return trace
    stripped = [
        record for record in trace.records
        if record.kind is not AccessType.FLUSH
    ]
    if policy == "none":
        rewritten = stripped
    elif policy == "eager":
        rewritten = _eager(trace, stripped)
    elif policy == "oracle":
        rewritten = _oracle(trace, stripped)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return Trace(
        name=f"{trace.name}[{policy}]",
        cpus=trace.cpus,
        shared_region=trace.shared_region,
        records=rewritten,
    )


def _flush_of(record: TraceRecord) -> TraceRecord:
    block_address = (record.address >> BLOCK_SHIFT) << BLOCK_SHIFT
    return TraceRecord(record.cpu, AccessType.FLUSH, block_address)


def _eager(trace: Trace, records: list[TraceRecord]) -> list[TraceRecord]:
    rewritten: list[TraceRecord] = []
    for record in records:
        rewritten.append(record)
        if record.kind.is_data and trace.is_shared(record.address):
            rewritten.append(_flush_of(record))
    return rewritten


def _oracle(trace: Trace, records: list[TraceRecord]) -> list[TraceRecord]:
    # A backward pass finds, for each shared reference, the CPU of the
    # next reference to the same block; the forward pass flushes after
    # every reference whose successor is another CPU (or absent).
    next_cpu_of: list[int | None] = [None] * len(records)
    upcoming: dict[int, int] = {}
    for index in range(len(records) - 1, -1, -1):
        record = records[index]
        if not record.kind.is_data or not trace.is_shared(record.address):
            continue
        block = record.address >> BLOCK_SHIFT
        next_cpu_of[index] = upcoming.get(block)
        upcoming[block] = record.cpu

    rewritten: list[TraceRecord] = []
    for index, record in enumerate(records):
        rewritten.append(record)
        if not record.kind.is_data or not trace.is_shared(record.address):
            continue
        successor = next_cpu_of[index]
        if successor is None or successor != record.cpu:
            rewritten.append(_flush_of(record))
    return rewritten


def implied_apl_loop(trace: Trace) -> float:
    shared = 0
    flushes = 0
    for record in trace.records:
        if record.kind is AccessType.FLUSH:
            flushes += 1
        elif record.kind.is_data and trace.is_shared(record.address):
            shared += 1
    if flushes == 0:
        return float("inf")
    return shared / flushes
