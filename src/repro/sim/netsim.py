"""Discrete-time simulator of an unbuffered delta (omega) network.

The paper leans on Patel's probabilistic network model and notes "We
are not aware of any validation of this model against multiprocessor
traces".  This simulator provides the missing check at the level the
model operates on: synthetic processors alternate between thinking and
pushing words through an actual n-stage omega network of 2x2 switches,
with real per-switch collisions and source retransmission — the
behaviour Patel's recursion and the paper's Section 6.2 fixed point
abstract.

Topology: the classic omega network.  Between stages a perfect shuffle
permutes positions; inside a stage, positions ``2k`` and ``2k+1`` form
a switch whose output is selected by the current destination bit (MSB
first).  Two requests mapped to the same output collide; a uniformly
random winner proceeds, the loser is dropped and retried by its source
on the next cycle.  The simulator routes by destination tag: a
request is the integer ``(proc << stages) | dest``, and its output at
stage ``i`` is the bit window ``(request >> (stages - 1 - i)) & mask``.
Each stage shifts the position left one bit (the shuffle's rotation)
and overwrites the bit rotated in with the next destination bit (the
switch), so the composed steps slide a ``stages``-bit window from
``proc`` into ``dest``.

Two service disciplines:

* ``"unit"`` — every word of a transaction is an independent
  single-cycle request with a fresh uniform destination: exactly the
  premise of Patel's unit-request approximation.
* ``"circuit"`` — a transaction first wins a path (setup request),
  then *holds* that path's switch outputs for its full duration:
  closer to the circuit-switched machine the paper describes.

  Known defect, kept because the committed reports and benchmark
  digests depend on it: a path won at cycle ``now`` by a transaction
  with ``r`` words left is released at the start of cycle ``now + r``,
  the cycle in which its last word still transfers.  That word moves
  on switch outputs another request may already have won.

Runs are bit-exact against the original per-cycle loop kept in
``tests/properties/netsim_oracle.py``: the same ``random.Random``
stream, drawn in the same order.  ``randrange(n)`` and a two-way
``choice`` are drawn inline as ``getrandbits`` with rejection, which is
how CPython's ``Random._randbelow`` draws them
(``tests/sim/test_netsim.py`` checks this against the library).

Comparing the measured thinking fraction against
:func:`repro.queueing.delta.closed_loop_utilization` for both
disciplines is the ``extension-network-validation`` experiment.
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from collections.abc import Collection
from dataclasses import dataclass

from repro.queueing.delta import DeltaNetwork, closed_loop_utilization

__all__ = ["NetworkSimResult", "OmegaNetworkSimulator"]

_MODES = ("unit", "circuit")


@dataclass(frozen=True)
class NetworkSimResult:
    """Measurements from one network simulation run.

    Attributes:
        stages: network stages simulated.
        processors: number of processors (``2**stages``).
        cycles: simulated cycles.
        mode: ``"unit"`` or ``"circuit"``.
        thinking_cycles: total processor-cycles spent thinking.
        requesting_cycles: total processor-cycles spent issuing or
            retrying requests (or holding a circuit).
        offered_requests: total requests submitted to stage 0.
        accepted_requests: total requests that reached memory.
    """

    stages: int
    processors: int
    cycles: int
    mode: str
    thinking_cycles: int
    requesting_cycles: int
    offered_requests: int
    accepted_requests: int

    @property
    def thinking_fraction(self) -> float:
        """Measured counterpart of the paper's network ``U``."""
        total = self.thinking_cycles + self.requesting_cycles
        if total == 0:
            return 1.0
        return self.thinking_cycles / total

    @property
    def offered_rate(self) -> float:
        """Requests per processor per cycle offered to the network."""
        if self.cycles == 0:
            return 0.0
        return self.offered_requests / (self.processors * self.cycles)

    @property
    def accepted_rate(self) -> float:
        """Requests per processor per cycle accepted by memory."""
        if self.cycles == 0:
            return 0.0
        return self.accepted_requests / (self.processors * self.cycles)

    @property
    def acceptance_probability(self) -> float:
        if self.offered_requests == 0:
            return 1.0
        return self.accepted_requests / self.offered_requests


class OmegaNetworkSimulator:
    """Synthetic-workload simulator for one omega network.

    Args:
        stages: number of switch stages (``2**stages`` processors).
        seed: RNG seed; runs are deterministic given the seed.
    """

    def __init__(self, stages: int, seed: int = 0):
        stages = _require_int("stages", stages, 1)
        self.stages = stages
        self.processors = 2**stages
        self.seed = seed

    def predicted(self, think_mean: float, message_words: int):
        """The paper's fixed point for this workload (for comparison)."""
        _require_think_mean(think_mean)
        _require_int("message_words", message_words, 1)
        request_rate = message_words / think_mean
        return closed_loop_utilization(
            DeltaNetwork(stages=self.stages), request_rate
        )

    def run(
        self,
        think_mean: float,
        message_words: int,
        cycles: int,
        mode: str = "unit",
    ) -> NetworkSimResult:
        """Simulate ``cycles`` network cycles.

        Args:
            think_mean: mean thinking cycles between transactions
                (geometric), finite and ``> 0``.
            message_words: words per transaction, an integer ``>= 1``.
            cycles: simulated cycles, an integer ``>= 1``.
            mode: ``"unit"`` or ``"circuit"`` (see module docstring).
        """
        _require_think_mean(think_mean)
        message_words = _require_int("message_words", message_words, 1)
        cycles = _require_int("cycles", cycles, 1)
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")

        rng = random.Random((self.seed << 8) ^ 0x0E3A)
        loop = self._run_unit if mode == "unit" else self._run_circuit
        thinking, offered, accepted = loop(
            rng, 1.0 / think_mean, message_words, cycles
        )
        n = self.processors
        return NetworkSimResult(
            stages=self.stages,
            processors=n,
            cycles=cycles,
            mode=mode,
            thinking_cycles=thinking,
            requesting_cycles=n * cycles - thinking,
            offered_requests=offered,
            accepted_requests=accepted,
        )

    def _run_unit(self, rng, think_probability, message_words, cycles):
        """Every word is a fresh single-cycle request.

        A requesting processor offers one request per cycle, so its
        requesting cycles are exactly the offered requests.
        """
        n = self.processors
        stages = self.stages
        k = n.bit_length()
        random_ = rng.random
        getrandbits = rng.getrandbits
        route = self._route
        no_holds = [frozenset()] * stages
        words_left = [0] * n
        offered = 0
        accepted = 0

        for _ in range(cycles):
            requests = []
            for proc, words in enumerate(words_left):
                if words:
                    # randrange(n), inline: fresh destination per word.
                    dest = getrandbits(k)
                    while dest >= n:
                        dest = getrandbits(k)
                    requests.append((proc << stages) | dest)
                elif random_() < think_probability:
                    words_left[proc] = message_words
                    # The transaction's destination is redrawn before
                    # its first word, but this draw still advances
                    # the stream.
                    dest = getrandbits(k)
                    while dest >= n:
                        dest = getrandbits(k)
            offered += len(requests)
            winners = route(requests, getrandbits, no_holds)
            accepted += len(winners)
            for request in winners:
                words_left[request >> stages] -= 1

        return n * cycles - offered, offered, accepted

    def _run_circuit(self, rng, think_probability, message_words, cycles):
        """A transaction wins a path once, then holds it.

        ``state[proc]`` is ``-1`` while the processor retries its path
        setup, otherwise the first cycle at which it thinks again: a
        setup won at ``now`` carries the remaining words on the held
        path in cycles ``now + 1 .. now + message_words - 1``.
        """
        n = self.processors
        stages = self.stages
        mask = n - 1
        k = n.bit_length()
        random_ = rng.random
        getrandbits = rng.getrandbits
        route = self._route
        holds: list[set[int]] = [set() for _ in range(stages)]
        shifts = range(stages - 1, -1, -1)  # stage i reads bit window i
        # Every path is held for the same message_words - 1 cycles, so
        # the winners of one cycle are released together.
        hold = message_words - 1
        releases: dict[int, Collection[int]] = {}
        state = [0] * n
        pending = [0] * n  # request of each processor retrying setup
        offered = 0
        accepted = 0
        held_transfers = 0

        for now in range(cycles):
            expired = releases.pop(now, None)
            if expired:
                for request in expired:
                    for held, shift in zip(holds, shifts):
                        held.remove((request >> shift) & mask)
            requests = []
            for proc, ready in enumerate(state):
                if ready < 0:
                    requests.append(pending[proc])
                elif ready <= now and random_() < think_probability:
                    state[proc] = -1
                    dest = getrandbits(k)  # randrange(n), inline
                    while dest >= n:
                        dest = getrandbits(k)
                    pending[proc] = (proc << stages) | dest
            offered += len(requests)
            winners = route(requests, getrandbits, holds)
            accepted += len(winners)
            done = now + message_words
            for request in winners:
                state[request >> stages] = done
            if hold and winners:
                held_transfers += len(winners) * min(hold, cycles - 1 - now)
                for request in winners:
                    for held, shift in zip(holds, shifts):
                        held.add((request >> shift) & mask)
                releases[now + hold] = winners

        accepted += held_transfers
        return n * cycles - offered - held_transfers, offered, accepted

    @staticmethod
    def _route(requests, getrandbits, holds):
        """One synchronous routing pass.

        Args:
            requests: ``(proc << stages) | dest`` per requesting
                processor, in processor order.
            getrandbits: the run's ``Random.getrandbits``.
            holds: per stage, the switch outputs held by established
                circuits; a request needing one is dropped.

        Returns:
            The requests that reached memory.  A request's output at
            stage ``i`` is the bit window
            ``(request >> (stages - 1 - i)) & mask``.  At each stage
            the contenders for an output are grouped in order of first
            arrival (an output has at most two), and each collision
            draws its winner in that order: ``choice`` of the pair,
            inline.
        """
        stages = len(holds)
        mask = (1 << stages) - 1
        survivors = requests
        for stage, held in enumerate(holds):
            shift = stages - 1 - stage
            first: dict[int, int] = {}
            second: dict[int, int] = {}
            for request in survivors:
                output = (request >> shift) & mask
                if output in first:
                    second[output] = request
                elif output not in held:
                    first[output] = request
            if second:
                for output in first:
                    if output in second:
                        pick = getrandbits(2)
                        while pick > 1:
                            pick = getrandbits(2)
                        if pick:
                            # A new value keeps the key's place.
                            first[output] = second[output]
            survivors = first.values()
        return survivors


def _require_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(
            f"{name} must be an integer, got {type(value).__name__} "
            f"{value!r}"
        )
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return operator.index(value)


def _require_think_mean(think_mean: float) -> None:
    if not math.isfinite(think_mean) or think_mean <= 0.0:
        raise ValueError(
            f"think_mean must be finite and > 0, got {think_mean!r}"
        )
