"""Extension: flush-placement policies (the paper's compiler question).

The paper closes on compiler technology: Software-Flush's fate rests
on ``apl``, the references a shared block receives before it is
flushed, and "It remains to be seen whether a compiler can generate
code that takes advantage of these long runs."  This module makes
flush placement a replaceable policy over any trace, so the compiler
design space can be measured instead of speculated about:

* ``eager``    — flush after *every* shared reference (``apl = 1``):
  the paper's worst case, a compiler with no liveness information.
* ``section``  — keep the trace's own FLUSH records (our generator
  emits them at critical-section exits): a compiler that understands
  the locking discipline.
* ``oracle``   — flush a block exactly when its run ends, i.e. just
  before the next reference by a *different* processor: perfect future
  knowledge, the upper bound no real compiler reaches.  The paper's
  ``apl`` estimator ("number of references of a cache-line by one
  processor ... between references by another processor") measures
  precisely this policy's achieved run length, which is why the paper
  calls its estimate *optimistic*.
* ``none``     — strip all flushes (coherence abandoned; useful as a
  Base-equivalent reference).
"""

from __future__ import annotations

import numpy as np

from repro.trace.records import AccessType, Trace
from repro.trace.stats import BLOCK_SHIFT, _shared_data_mask, _shared_runs

__all__ = ["FLUSH_POLICIES", "apply_flush_policy", "implied_apl"]

FLUSH_POLICIES = ("eager", "section", "oracle", "none")


def apply_flush_policy(trace: Trace, policy: str) -> Trace:
    """Rewrite a trace's FLUSH records under a placement policy.

    The data/instruction reference stream is untouched; only FLUSH
    records are removed and/or inserted.  The result is a new trace
    named ``<name>[<policy>]``.

    Raises:
        ValueError: for an unknown policy name.
    """
    if policy not in FLUSH_POLICIES:
        raise ValueError(
            f"policy must be one of {FLUSH_POLICIES}, got {policy!r}"
        )
    if policy == "section":
        return trace

    keep = trace.kind != AccessType.FLUSH
    stripped = Trace.from_arrays(
        name=f"{trace.name}[{policy}]",
        cpus=trace.cpus,
        shared_region=trace.shared_region,
        cpu=trace.cpu[keep],
        kind=trace.kind[keep],
        address=trace.address[keep],
    )
    if policy == "none":
        return stripped
    shared = _shared_data_mask(stripped)
    if policy == "eager":
        # A flush immediately after every shared data reference.
        after = np.flatnonzero(shared)
    else:
        # Oracle: flush exactly at run ends (perfect future knowledge),
        # i.e. after every shared reference whose block is next
        # referenced by another CPU, or never again.
        after = np.sort(_shared_runs(stripped, shared).last)
    return _with_flushes_after(stripped, after)


def _with_flushes_after(trace: Trace, after: np.ndarray) -> Trace:
    """``trace`` with a FLUSH of the referenced block inserted after
    each row in ``after`` (ascending positions), by the same CPU."""
    at = after + 1
    block_address = (
        trace.address[after] >> np.uint64(BLOCK_SHIFT)
    ) << np.uint64(BLOCK_SHIFT)
    return Trace.from_arrays(
        name=trace.name,
        cpus=trace.cpus,
        shared_region=trace.shared_region,
        cpu=np.insert(trace.cpu, at, trace.cpu[after]),
        kind=np.insert(trace.kind, at, AccessType.FLUSH),
        address=np.insert(trace.address, at, block_address),
    )


def implied_apl(trace: Trace) -> float:
    """Shared references per flush: the ``apl`` a trace's flush
    placement actually achieves.

    Returns ``inf`` for a trace without flushes.
    """
    flushes = int(np.count_nonzero(trace.kind == AccessType.FLUSH))
    if flushes == 0:
        return float("inf")
    return int(np.count_nonzero(_shared_data_mask(trace))) / flushes
