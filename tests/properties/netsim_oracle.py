"""Reference loop for the omega-network simulator.

This is the original per-cycle loop of
:meth:`repro.sim.netsim.OmegaNetworkSimulator.run` and its ``_route``
pass, kept as the executable specification.  It routes by explicit
perfect shuffle and destination-bit steps, groups contenders per stage
in a dict of lists, draws with ``rng.randrange`` and ``rng.choice``,
and scans every held output every cycle, so it shares no code with
the destination-tag simulator it checks.  Both draw from the same
``random.Random`` stream in the same order; results must be ``==``.
"""

from __future__ import annotations

import random

from repro.sim.netsim import NetworkSimResult


def run_oracle(
    stages: int,
    seed: int,
    think_mean: float,
    message_words: int,
    cycles: int,
    mode: str = "unit",
) -> NetworkSimResult:
    rng = random.Random((seed << 8) ^ 0x0E3A)
    n = 2**stages
    think_probability = 1.0 / think_mean

    # Per-processor state: words left in the current transaction
    # (0 = thinking), current destination, and (circuit mode) how
    # long an established path is still held.
    words_left = [0] * n
    destination = [0] * n
    hold_left = [0] * n
    held_outputs: list[dict[int, int]] = [
        {} for _ in range(stages)
    ]  # stage -> {output position: release cycle}

    thinking_cycles = 0
    requesting_cycles = 0
    offered = 0
    accepted = 0

    for now in range(cycles):
        # Release expired circuits.
        if mode == "circuit":
            for stage_holds in held_outputs:
                expired = [
                    position
                    for position, release in stage_holds.items()
                    if release <= now
                ]
                for position in expired:
                    del stage_holds[position]

        requesters = []
        for proc in range(n):
            if words_left[proc] == 0:
                # Thinking: finish with geometric probability and
                # start a transaction next cycle.
                thinking_cycles += 1
                if rng.random() < think_probability:
                    words_left[proc] = message_words
                    destination[proc] = rng.randrange(n)
                continue
            requesting_cycles += 1
            if mode == "circuit" and hold_left[proc] > 0:
                # Transferring on an established path.
                hold_left[proc] -= 1
                accepted += 1
                words_left[proc] -= 1
                continue
            if mode == "unit":
                # Fresh destination per word: Patel's premise.
                destination[proc] = rng.randrange(n)
            requesters.append(proc)
            offered += 1

        winners = route_oracle(
            stages, requesters, destination, rng, held_outputs, mode
        )

        for proc, path in winners:
            accepted += 1
            words_left[proc] -= 1
            if mode == "circuit":
                # Path established: it delivers the first word now
                # and holds its switch outputs for the remaining
                # words, one per cycle.
                remaining = words_left[proc]
                hold_left[proc] = remaining
                if remaining > 0:
                    release = now + remaining
                    for stage, output in enumerate(path):
                        held_outputs[stage][output] = release

    return NetworkSimResult(
        stages=stages,
        processors=n,
        cycles=cycles,
        mode=mode,
        thinking_cycles=thinking_cycles,
        requesting_cycles=requesting_cycles,
        offered_requests=offered,
        accepted_requests=accepted,
    )


def route_oracle(
    stages: int,
    requesters: list[int],
    destination: list[int],
    rng: random.Random,
    held_outputs: list[dict[int, int]],
    mode: str,
) -> list[tuple[int, list[int]]]:
    """One synchronous routing pass.

    Returns:
        ``(processor, path)`` pairs for requests that reached
        memory, where ``path`` lists the switch output position
        won at each stage (used by circuit mode to reserve links).
    """
    mask = 2**stages - 1
    shift = stages - 1
    survivors = [(proc, proc) for proc in requesters]
    paths: dict[int, list[int]] = {proc: [] for proc in requesters}

    for stage in range(stages):
        contenders: dict[int, list[tuple[int, int]]] = {}
        stage_holds = held_outputs[stage]
        for proc, position in survivors:
            shuffled = ((position << 1) | (position >> shift)) & mask
            bit = (destination[proc] >> (shift - stage)) & 1
            output = (shuffled & ~1) | bit
            if mode == "circuit" and output in stage_holds:
                continue  # blocked by an established circuit
            contenders.setdefault(output, []).append((proc, output))
        survivors = []
        for output, rivals in contenders.items():
            winner = rivals[0] if len(rivals) == 1 else rng.choice(rivals)
            survivors.append(winner)
            paths[winner[0]].append(output)

    return [(proc, paths[proc]) for proc, _ in survivors]
