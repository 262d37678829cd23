"""Unit tests for the flit-level omega network simulator."""

import math
import random

import numpy as np
import pytest

from repro.sim.netsim import OmegaNetworkSimulator


@pytest.fixture(scope="module")
def simulator():
    return OmegaNetworkSimulator(stages=3, seed=11)


class TestConstruction:
    def test_processor_count(self):
        assert OmegaNetworkSimulator(5).processors == 32

    def test_rejects_bad_stages(self):
        with pytest.raises(ValueError):
            OmegaNetworkSimulator(0)

    @pytest.mark.parametrize(
        "stages, message",
        [
            (2.5, "stages must be an integer, got float 2.5"),
            (True, "stages must be an integer, got bool True"),
            ("3", "stages must be an integer, got str '3'"),
            (0, "stages must be >= 1, got 0"),
        ],
    )
    def test_rejects_bad_stages_by_name(self, stages, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            OmegaNetworkSimulator(stages)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (1.5, "seed must be an integer, got float 1.5"),
            ("3", "seed must be an integer, got str '3'"),
            (None, "seed must be an integer, got NoneType None"),
            (True, "seed must be an integer, got bool True"),
        ],
    )
    def test_rejects_bad_seed_by_name(self, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            OmegaNetworkSimulator(3, seed=seed)

    def test_negative_and_numpy_seeds_are_valid(self):
        run = OmegaNetworkSimulator(2, seed=-7).run(4.0, 2, 200)
        again = OmegaNetworkSimulator(2, seed=-7).run(4.0, 2, 200)
        assert run == again
        assert OmegaNetworkSimulator(2, seed=np.int64(5)).seed == 5
        assert type(OmegaNetworkSimulator(2, seed=np.int64(5)).seed) is int


class TestRunValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"think_mean": 0.0, "message_words": 1, "cycles": 10},
            {"think_mean": 5.0, "message_words": 0, "cycles": 10},
            {"think_mean": 5.0, "message_words": 1, "cycles": 0},
            {"think_mean": 5.0, "message_words": 1, "cycles": 10,
             "mode": "wormhole"},
        ],
    )
    def test_rejects_bad_arguments(self, simulator, kwargs):
        with pytest.raises(ValueError):
            simulator.run(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"think_mean": math.nan},
             "think_mean must be finite and > 0, got nan"),
            ({"think_mean": math.inf},
             "think_mean must be finite and > 0, got inf"),
            ({"think_mean": -2.0},
             "think_mean must be finite and > 0, got -2.0"),
            ({"message_words": 2.5},
             "message_words must be an integer, got float 2.5"),
            ({"message_words": True},
             "message_words must be an integer, got bool True"),
            ({"cycles": 100.0},
             "cycles must be an integer, got float 100.0"),
            ({"cycles": False},
             "cycles must be an integer, got bool False"),
            ({"cycles": -1}, "cycles must be >= 1, got -1"),
        ],
    )
    def test_rejects_bad_arguments_by_name(self, simulator, kwargs, message):
        arguments = {"think_mean": 5.0, "message_words": 2, "cycles": 100}
        arguments.update(kwargs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulator.run(**arguments)

    @pytest.mark.parametrize(
        "think_mean, message_words, message",
        [
            (0.0, 4, "think_mean must be finite and > 0, got 0.0"),
            (math.nan, 4, "think_mean must be finite and > 0, got nan"),
            (math.inf, 4, "think_mean must be finite and > 0, got inf"),
            (8.0, 2.5, "message_words must be an integer, got float 2.5"),
            (8.0, True, "message_words must be an integer, got bool True"),
            (8.0, 0, "message_words must be >= 1, got 0"),
        ],
    )
    def test_predicted_rejects_bad_arguments_by_name(
        self, simulator, think_mean, message_words, message
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulator.predicted(think_mean, message_words)

    def test_accepts_numpy_integers(self, simulator):
        assert simulator.run(5.0, np.int64(2), np.int64(100)) == (
            simulator.run(5.0, 2, 100)
        )
        assert OmegaNetworkSimulator(np.int64(3)).processors == 8


class TestConservation:
    def test_cycle_accounting(self, simulator):
        result = simulator.run(10.0, 4, cycles=2_000)
        total = result.thinking_cycles + result.requesting_cycles
        assert total == result.processors * result.cycles

    def test_accepted_never_exceeds_offered_in_unit_mode(self, simulator):
        result = simulator.run(6.0, 4, cycles=2_000, mode="unit")
        assert result.accepted_requests <= result.offered_requests
        assert 0.0 < result.acceptance_probability <= 1.0

    def test_circuit_mode_delivers_words_without_rearbitration(self, simulator):
        """Held-path word transfers count as accepted but not offered,
        so acceptance per setup attempt exceeds one by design."""
        result = simulator.run(6.0, 4, cycles=2_000, mode="circuit")
        assert result.accepted_requests > result.offered_requests

    def test_accepted_bounded_by_memory_ports(self, simulator):
        result = simulator.run(2.0, 8, cycles=2_000)
        assert result.accepted_requests <= result.processors * result.cycles

    def test_determinism(self, simulator):
        first = simulator.run(8.0, 4, cycles=1_000)
        second = simulator.run(8.0, 4, cycles=1_000)
        assert first == second


class TestAgainstModel:
    def test_unit_mode_matches_fixed_point(self):
        simulator = OmegaNetworkSimulator(stages=4, seed=5)
        for think_mean, words in ((20.0, 4), (10.0, 2)):
            predicted = simulator.predicted(think_mean, words)
            measured = simulator.run(
                think_mean, words, cycles=10_000, mode="unit"
            )
            assert measured.thinking_fraction == pytest.approx(
                predicted.thinking_fraction, rel=0.05
            )

    def test_circuit_mode_at_least_as_efficient(self):
        simulator = OmegaNetworkSimulator(stages=4, seed=5)
        predicted = simulator.predicted(10.0, 4)
        measured = simulator.run(10.0, 4, cycles=10_000, mode="circuit")
        assert (
            measured.thinking_fraction
            >= predicted.thinking_fraction - 0.02
        )

    def test_light_load_is_nearly_ideal(self, simulator):
        result = simulator.run(200.0, 1, cycles=20_000)
        # Ideal thinking fraction is z / (z + t) = 200 / 201.
        assert result.thinking_fraction == pytest.approx(
            200.0 / 201.0, abs=0.01
        )

    def test_more_load_less_thinking(self, simulator):
        light = simulator.run(40.0, 4, cycles=5_000)
        heavy = simulator.run(5.0, 4, cycles=5_000)
        assert heavy.thinking_fraction < light.thinking_fraction


def shuffle_route(stages, proc, dest):
    """Output won at each stage, by explicit shuffle and bit steps."""
    mask = 2**stages - 1
    position, outputs = proc, []
    for stage in range(stages):
        shuffled = ((position << 1) | (position >> (stages - 1))) & mask
        bit = (dest >> (stages - 1 - stage)) & 1
        position = (shuffled & ~1) | bit
        outputs.append(position)
    return outputs


def request(stages, proc, dest):
    return (proc << stages) | dest


def outputs(stages, request):
    """Output of ``request`` at each stage: its destination-tag window."""
    mask = 2**stages - 1
    return [
        (request >> (stages - 1 - stage)) & mask for stage in range(stages)
    ]


class TestRoutingCorrectness:
    @pytest.mark.parametrize("stages", [1, 2, 3, 4, 5, 6])
    def test_destination_tag_matches_shuffle_steps(self, stages):
        for proc in range(2**stages):
            for dest in range(2**stages):
                path = outputs(stages, request(stages, proc, dest))
                assert path == shuffle_route(stages, proc, dest)
                # The last stage's output is the memory module.
                assert path[-1] == dest

    def test_unique_outputs_per_stage(self):
        """No two winners may share a switch output at any stage."""
        simulator = OmegaNetworkSimulator(stages=4, seed=1)
        rng = random.Random(2)
        destinations = [rng.randrange(16) for _ in range(16)]
        held = [set() for _ in range(4)]
        winners = simulator._route(
            [request(4, proc, destinations[proc]) for proc in range(16)],
            rng.getrandbits,
            held,
        )
        for stage in range(4):
            stage_outputs = [outputs(4, won)[stage] for won in winners]
            assert len(stage_outputs) == len(set(stage_outputs))

    def test_single_request_always_wins(self):
        simulator = OmegaNetworkSimulator(stages=3, seed=1)
        rng = random.Random(3)
        held = [set() for _ in range(3)]
        winners = simulator._route(
            [request(3, 5, 0)], rng.getrandbits, held
        )
        assert [won >> 3 for won in winners] == [5]

    def test_conflicting_requests_lose_exactly_one_survivor_per_output(self):
        simulator = OmegaNetworkSimulator(stages=3, seed=1)
        rng = random.Random(4)
        held = [set() for _ in range(3)]
        # All eight processors target destination 0: exactly one can
        # reach it.
        winners = simulator._route(
            [request(3, proc, 0) for proc in range(8)],
            rng.getrandbits,
            held,
        )
        assert len(winners) == 1

    def test_held_output_blocks_every_contender(self):
        simulator = OmegaNetworkSimulator(stages=3, seed=1)
        rng = random.Random(5)
        held = [set() for _ in range(3)]
        # Every path to memory module 0 ends on last-stage output 0.
        held[2].add(0)
        winners = simulator._route(
            [request(3, proc, 0) for proc in range(8)],
            rng.getrandbits,
            held,
        )
        assert list(winners) == []


class TestInlineDraws:
    """The simulator draws ``randrange(n)`` and two-way ``choice``
    inline, as ``getrandbits`` with rejection.  That is CPython's
    ``Random._randbelow``; if a Python release changes it, the inline
    draws leave the library's stream and these tests fail."""

    def test_randrange_matches_library(self):
        rng, twin = random.Random(2024), random.Random(2024)
        getrandbits = rng.getrandbits
        for n in range(1, 1025):
            k = n.bit_length()
            for _ in range(4):
                draw = getrandbits(k)
                while draw >= n:
                    draw = getrandbits(k)
                assert draw == twin.randrange(n), n
        assert rng.getstate() == twin.getstate()

    def test_two_way_choice_matches_library(self):
        rng, twin = random.Random(7), random.Random(7)
        getrandbits = rng.getrandbits
        pair = ("first", "second")
        for _ in range(2_000):
            pick = getrandbits(2)
            while pick > 1:
                pick = getrandbits(2)
            assert pair[pick] == twin.choice(pair)
        assert rng.getstate() == twin.getstate()


class TestCircuitHolds:
    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a circuit is released at the start of the "
        "cycle that carries its last word (see repro.sim.netsim)",
    )
    def test_path_stays_reserved_through_last_word(self):
        """Every output of a won path is held in each cycle that
        carries one of the transaction's remaining words."""
        simulator = OmegaNetworkSimulator(stages=3, seed=0)
        route = simulator._route
        calls = []

        def recording_route(requests, getrandbits, holds):
            held_now = [set(held) for held in holds]
            winners = list(route(requests, getrandbits, holds))
            calls.append((held_now, winners))
            return winners

        simulator._route = recording_route
        words = 4
        simulator.run(3.0, words, cycles=300, mode="circuit")
        assert len(calls) == 300
        for won_at, (_, winners) in enumerate(calls):
            for won in winners:
                path = outputs(3, won)
                for now in range(won_at + 1, min(won_at + words, 300)):
                    held_now, _ = calls[now]
                    for stage, held in enumerate(held_now):
                        assert path[stage] in held, (won_at, now, path)
