"""Trace-level statistics, including the paper's ``apl`` estimator.

These statistics depend only on the reference stream (not on any cache
configuration): reference mix, sharing level, write fractions, and the
run-length structure of shared blocks.  Cache-dependent parameters
(miss rates, ``md``, ``oclean``, ``opres``) are measured by simulation
in :mod:`repro.sim.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.trace.records import AccessType, Trace

__all__ = ["TraceStats", "collect_stats", "shared_run_lengths"]

#: log2 of the block size for run accounting and flush placement.  The
#: paper uses 16-byte blocks throughout and the record format carries
#: no block size, so every trace is accounted at 16 bytes.
BLOCK_SHIFT = 4


@dataclass
class TraceStats:
    """Aggregate counts and derived parameters for one trace.

    All ``*_references`` counts are raw record counts; the derived
    properties map onto the paper's Table 2 parameters where the trace
    alone determines them.
    """

    instructions: int = 0
    flushes: int = 0
    loads: int = 0
    stores: int = 0
    shared_loads: int = 0
    shared_stores: int = 0
    per_cpu_records: list[int] = field(default_factory=list)
    shared_blocks_touched: int = 0
    run_lengths: list[int] = field(default_factory=list)
    write_run_lengths: list[int] = field(default_factory=list)

    @property
    def data_references(self) -> int:
        return self.loads + self.stores

    @property
    def shared_references(self) -> int:
        return self.shared_loads + self.shared_stores

    @property
    def ls(self) -> float:
        """Data references per (non-flush) instruction."""
        if self.instructions == 0:
            return 0.0
        return self.data_references / self.instructions

    @property
    def shd(self) -> float:
        """Fraction of data references that touch shared data."""
        if self.data_references == 0:
            return 0.0
        return self.shared_references / self.data_references

    @property
    def wr(self) -> float:
        """Fraction of shared references that are stores."""
        if self.shared_references == 0:
            return 0.0
        return self.shared_stores / self.shared_references

    @property
    def apl(self) -> float:
        """The paper's optimistic ``apl`` estimate.

        Mean number of references to a shared block by one processor —
        counting only runs containing at least one write — between
        references by another processor (Section 4).  Falls back to
        all runs if no run contains a write; 1.0 for traces without
        shared data.
        """
        lengths = self.write_run_lengths or self.run_lengths
        if not lengths:
            return 1.0
        return sum(lengths) / len(lengths)

    @property
    def mdshd(self) -> float:
        """Fraction of inter-processor runs that modify the block.

        A proxy for "shared block modified before flushed": runs
        containing a write over all runs.
        """
        if not self.run_lengths:
            return 0.0
        return len(self.write_run_lengths) / len(self.run_lengths)


def collect_stats(trace: Trace) -> TraceStats:
    """Statistics over a trace.

    Run-length accounting follows the paper: for each shared block we
    track the current owning CPU and its consecutive reference count;
    a reference by a different CPU closes the run.  Runs still open at
    the end of the trace are closed there.  ``run_lengths`` lists the
    runs in the order they close (see :func:`_shared_runs`).
    """
    counts = np.bincount(trace.kind, minlength=len(AccessType))
    shared = _shared_data_mask(trace)
    shared_stores = int(
        np.count_nonzero(trace.kind[shared] == AccessType.STORE)
    )
    runs = _shared_runs(trace, shared)
    lengths = runs.length[runs.close_order]
    wrote = runs.wrote[runs.close_order]
    return TraceStats(
        instructions=int(counts[AccessType.INST_FETCH]),
        flushes=int(counts[AccessType.FLUSH]),
        loads=int(counts[AccessType.LOAD]),
        stores=int(counts[AccessType.STORE]),
        shared_loads=int(np.count_nonzero(shared)) - shared_stores,
        shared_stores=shared_stores,
        per_cpu_records=trace.per_cpu_counts(),
        shared_blocks_touched=int(np.count_nonzero(runs.opens_block)),
        run_lengths=lengths.tolist(),
        write_run_lengths=lengths[wrote].tolist(),
    )


def shared_run_lengths(trace: Trace) -> dict[int, list[int]]:
    """Run lengths per shared block (diagnostic detail view).

    Returns:
        ``{block_number: [run lengths in order]}`` using 16-byte
        blocks, with blocks in the order their first run closes.
    """
    runs = _shared_runs(trace, _shared_data_mask(trace))
    # Runs are grouped by block, so a block's first run is the one
    # that opens it; its closing rank orders the block's key.
    first_runs = np.flatnonzero(runs.opens_block)
    rank = np.empty_like(runs.close_order)
    rank[runs.close_order] = np.arange(len(rank))
    block_order = np.argsort(rank[first_runs], kind="stable")
    bounds = np.append(first_runs, len(runs.length)).tolist()
    blocks = runs.block[first_runs].tolist()
    lengths = runs.length.tolist()
    return {
        blocks[i]: lengths[bounds[i]:bounds[i + 1]]
        for i in block_order.tolist()
    }


def _shared_data_mask(trace: Trace) -> np.ndarray:
    """Loads and stores whose address lies in the shared region."""
    data = (trace.kind == AccessType.LOAD) | (trace.kind == AccessType.STORE)
    data &= trace.shared_mask()
    return data


class _Runs(NamedTuple):
    """Per-run arrays, runs grouped by block and in time order within."""

    block: np.ndarray  # block number of the run
    opens_block: np.ndarray  # first run of its block
    length: np.ndarray  # references in the run
    wrote: np.ndarray  # the run contains a store
    last: np.ndarray  # trace position of the run's last reference
    close_order: np.ndarray  # run indices in the order a loop closes them


def _shared_runs(trace: Trace, shared: np.ndarray) -> _Runs:
    """Run-boundary kernel over the references selected by ``shared``.

    The selected references are sorted stably by 16-byte block, which
    keeps trace order within a block; a run starts wherever the block
    or the CPU changes.  A forward loop keeping one open run per block
    closes a run at the next run's first reference in the same block,
    so such a run's closing key is that reference's trace position.
    Runs still open at the end close after every other one, in the
    order their blocks were first referenced (``len(trace)`` plus the
    block's first position keeps the keys distinct and ordered).
    """
    positions = np.flatnonzero(shared)
    blocks = trace.address[positions] >> np.uint64(BLOCK_SHIFT)
    by_block = np.argsort(blocks, kind="stable")
    positions = positions[by_block]
    blocks = blocks[by_block]
    cpus = trace.cpu[positions]

    new_block = np.ones(len(positions), dtype=bool)
    np.not_equal(blocks[1:], blocks[:-1], out=new_block[1:])
    new_run = new_block.copy()
    new_run[1:] |= cpus[1:] != cpus[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = len(positions)
    stores = trace.kind[positions] == AccessType.STORE
    wrote = (
        np.logical_or.reduceat(stores, starts)
        if len(starts) else np.zeros(0, dtype=bool)
    )

    opens_block = new_block[starts]
    still_open = np.empty_like(opens_block)
    still_open[:-1] = opens_block[1:]
    still_open[-1:] = True
    close_key = np.empty(len(starts), dtype=np.int64)
    close_key[:-1] = positions[starts[1:]]
    block_first = positions[starts[opens_block]]
    close_key[still_open] = len(trace) + block_first
    return _Runs(
        block=blocks[starts],
        opens_block=opens_block,
        length=ends - starts,
        wrote=wrote,
        last=positions[ends - 1],
        close_order=np.argsort(close_key),
    )
