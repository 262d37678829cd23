"""Property-based tests for v2 trace serialisation.

Two contracts:

* **Round-trip** — any well-formed column contents survive a v2
  save/load cycle bit-for-bit.
* **Total error handling** — feeding ``load_trace`` truncated or
  bit-flipped files must either succeed or raise
  :class:`TraceFormatError`; numpy/zipfile/codec internals must never
  escape.

Temporary files are created inside the test bodies (not via
function-scoped fixtures) so Hypothesis can re-run examples freely.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.io import TraceFormatError, load_trace, save_trace
from repro.trace.records import AccessType, AddressRange, Trace


def records(cpus):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=cpus - 1),  # cpu
            st.integers(min_value=0, max_value=len(AccessType) - 1),
            st.integers(min_value=0, max_value=2**64 - 1),  # address
        ),
        max_size=120,
    )


# A CPU count and records whose CPU ids lie below it (a trace refuses
# ids >= cpus); counts reach 2**16 so ids span the whole uint16 column.
cpus_and_records = st.integers(min_value=1, max_value=2**16).flatmap(
    lambda cpus: st.tuples(st.just(cpus), records(cpus))
)

names = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\n\r"
    ),
    max_size=24,
)


def build_trace(name, cpus, shared, contents):
    cpu = [record[0] for record in contents]
    kind = [record[1] for record in contents]
    address = [record[2] for record in contents]
    return Trace.from_arrays(
        name=name,
        cpus=cpus,
        shared_region=AddressRange(*shared),
        cpu=np.asarray(cpu, dtype=np.int64),
        kind=np.asarray(kind, dtype=np.int64),
        address=np.asarray(address, dtype=np.uint64),
    )


def roundtrip(trace):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.npz")
        save_trace(trace, path, format="v2")
        return load_trace(path)


class TestV2RoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        name=names,
        shared=st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=2**40),
        ).map(sorted),
        columns=cpus_and_records,
    )
    def test_arbitrary_columns_survive(self, name, shared, columns):
        cpus, contents = columns
        trace = build_trace(name, cpus, shared, contents)
        loaded = roundtrip(trace)
        assert loaded.name == trace.name
        assert loaded.cpus == trace.cpus
        assert loaded.shared_region == trace.shared_region
        assert loaded.cpu.dtype == trace.cpu.dtype
        assert loaded.kind.dtype == trace.kind.dtype
        assert loaded.address.dtype == trace.address.dtype
        assert np.array_equal(loaded.cpu, trace.cpu)
        assert np.array_equal(loaded.kind, trace.kind)
        assert np.array_equal(loaded.address, trace.address)

    def test_empty_trace_roundtrips(self):
        trace = build_trace("empty", 4, (0, 16), [])
        assert len(roundtrip(trace)) == 0


def _reference_file_bytes():
    trace = build_trace(
        "corruption-target",
        4,
        (0x800000, 0x810000),
        [(i % 4, i % 3, 0x800000 + 16 * i) for i in range(64)],
    )
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.npz")
        save_trace(trace, path, format="v2")
        with open(path, "rb") as stream:
            return stream.read()


_REFERENCE = _reference_file_bytes()


def try_load(data):
    """Write ``data`` to disk and load it; the only acceptable failure
    mode is TraceFormatError."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.npz")
        with open(path, "wb") as stream:
            stream.write(data)
        try:
            load_trace(path)
        except TraceFormatError:
            pass


class TestCorruptionIsHandledCleanly:
    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(_REFERENCE) - 1))
    def test_truncation_never_leaks_internal_errors(self, cut):
        try_load(_REFERENCE[:cut])

    @settings(max_examples=60, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(_REFERENCE) - 1),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_bit_flips_never_leak_internal_errors(self, edits):
        data = bytearray(_REFERENCE)
        for offset, value in edits:
            data[offset] = value
        try_load(bytes(data))

    @settings(max_examples=40, deadline=None)
    @given(junk=st.binary(max_size=256))
    def test_arbitrary_bytes_never_leak_internal_errors(self, junk):
        try_load(junk)

    def test_truncated_archive_raises_trace_format_error(self):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "t.npz")
            with open(path, "wb") as stream:
                stream.write(_REFERENCE[: len(_REFERENCE) // 2])
            try:
                load_trace(path)
            except TraceFormatError:
                pass
            else:
                raise AssertionError(
                    "truncated archive loaded successfully"
                )
