"""Property-based equivalence: the numpy run-boundary kernel behind
trace statistics and flush placement against the per-record loops in
:mod:`tests.properties.trace_loop_oracles`.

Every comparison is exact: ``TraceStats`` including the order of its
run-length lists, ``shared_run_lengths`` including its dict key order,
the rewritten trace columns byte for byte, and ``implied_apl`` as a
float.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace import (
    apply_flush_policy,
    collect_stats,
    generate_trace,
    implied_apl,
    shared_run_lengths,
)
from repro.trace.records import (
    ADDRESS_DTYPE,
    CPU_DTYPE,
    KIND_DTYPE,
    AccessType,
    AddressRange,
    Trace,
)
from repro.trace.workloads import WORKLOAD_PRESETS, preset

from tests.properties.trace_loop_oracles import (
    apply_flush_policy_loop,
    collect_stats_loop,
    implied_apl_loop,
    shared_run_lengths_loop,
)


@st.composite
def traces(draw):
    """Small traces over a small address space.

    The space is at most a few dozen 16-byte blocks, so runs on one
    block are cut by other CPUs often.  Shared-region bounds are drawn
    freely, so they are usually not block aligned and may be empty.
    """
    cpus = draw(st.integers(min_value=1, max_value=4))
    space = draw(st.sampled_from([16, 48, 256, 1024]))
    start = draw(st.integers(min_value=0, max_value=space))
    stop = draw(st.integers(min_value=start, max_value=space))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=cpus - 1),
                st.sampled_from(list(AccessType)),
                st.integers(min_value=0, max_value=space - 1),
            ),
            max_size=200,
        )
    )
    return Trace.from_arrays(
        name="prop",
        cpus=cpus,
        shared_region=AddressRange(start, stop),
        cpu=np.array([row[0] for row in rows], dtype=CPU_DTYPE),
        kind=np.array([row[1] for row in rows], dtype=KIND_DTYPE),
        address=np.array([row[2] for row in rows], dtype=ADDRESS_DTYPE),
    )


def _trace(cpus, shared, rows):
    return Trace(
        name="example",
        cpus=cpus,
        shared_region=AddressRange(*shared),
        records=rows,
    )


L, S, I, F = (
    AccessType.LOAD,
    AccessType.STORE,
    AccessType.INST_FETCH,
    AccessType.FLUSH,
)
EMPTY = _trace(2, (0, 64), [])
SINGLE_CPU = _trace(1, (0, 64), [(0, L, 0), (0, S, 4), (0, L, 20)])
NO_SHARED_HITS = _trace(2, (64, 128), [(0, S, 0), (1, L, 4), (0, F, 64)])
# Region [4, 20) is not block aligned: addresses 0 and 20 share a
# block with shared addresses but are private by address.
UNALIGNED = _trace(
    2, (4, 20),
    [(0, L, 0), (1, S, 4), (0, L, 8), (1, S, 20), (0, L, 16), (1, L, 0)],
)


def assert_same_columns(actual: Trace, expected: Trace) -> None:
    assert actual.name == expected.name
    assert actual.cpus == expected.cpus
    assert actual.shared_region == expected.shared_region
    for column in ("cpu", "kind", "address"):
        got, want = getattr(actual, column), getattr(expected, column)
        assert got.dtype == want.dtype, column
        assert got.tobytes() == want.tobytes(), column


def check_all(trace: Trace) -> None:
    stats, loop_stats = collect_stats(trace), collect_stats_loop(trace)
    assert stats == loop_stats
    # repr also pins field types (Python ints, not numpy scalars).
    assert repr(stats) == repr(loop_stats)

    runs, loop_runs = shared_run_lengths(trace), shared_run_lengths_loop(trace)
    assert runs == loop_runs
    assert list(runs) == list(loop_runs)

    assert implied_apl(trace) == implied_apl_loop(trace)
    for policy in ("eager", "oracle", "none"):
        rewritten = apply_flush_policy(trace, policy)
        assert_same_columns(rewritten, apply_flush_policy_loop(trace, policy))
        assert implied_apl(rewritten) == implied_apl_loop(rewritten)


class TestKernelMatchesLoops:
    @settings(max_examples=300, deadline=None)
    @given(traces())
    @example(EMPTY)
    @example(SINGLE_CPU)
    @example(NO_SHARED_HITS)
    @example(UNALIGNED)
    def test_random_traces(self, trace):
        check_all(trace)

    @pytest.mark.parametrize("name", sorted(WORKLOAD_PRESETS))
    def test_presets(self, name):
        config = dataclasses.replace(preset(name).config, records_per_cpu=3_000)
        check_all(generate_trace(config))


class TestSharingIsByAddress:
    def test_unaligned_region_counts_addresses_not_blocks(self):
        stats = collect_stats(UNALIGNED)
        # Shared by address: 4, 8, 16 (20 is past the stop).
        assert (stats.shared_loads, stats.shared_stores) == (2, 1)
        assert stats.shared_blocks_touched == 2
        assert shared_run_lengths(UNALIGNED) == {0: [1, 1], 1: [1]}

    def test_empty_trace_has_no_runs(self):
        stats = collect_stats(EMPTY)
        assert stats.run_lengths == stats.write_run_lengths == []
        assert shared_run_lengths(EMPTY) == {}
        assert implied_apl(EMPTY) == float("inf")
