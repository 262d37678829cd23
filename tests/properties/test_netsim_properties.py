"""Property-based equivalence: the destination-tag omega-network
simulator against the original per-cycle loop in
:mod:`tests.properties.netsim_oracle`.

The comparison is exact: both draw from the same ``random.Random``
stream in the same order, so every count in the
:class:`~repro.sim.netsim.NetworkSimResult` must be ``==``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.netsim import OmegaNetworkSimulator

from tests.properties.netsim_oracle import run_oracle


class TestSimulatorMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        stages=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32),
        think_mean=st.floats(min_value=1.0, max_value=64.0),
        message_words=st.integers(min_value=1, max_value=8),
        cycles=st.integers(min_value=1, max_value=400),
        mode=st.sampled_from(["unit", "circuit"]),
    )
    # Every processor starts a transaction each time it can, so
    # circuits are won, held and released every few cycles.
    @example(3, 0, 1.0, 4, 400, "circuit")
    @example(1, 0, 1.0, 1, 1, "unit")
    @example(6, 3, 8.0, 8, 400, "circuit")
    def test_random_runs(
        self, stages, seed, think_mean, message_words, cycles, mode
    ):
        simulator = OmegaNetworkSimulator(stages, seed=seed)
        assert simulator.run(
            think_mean, message_words, cycles, mode=mode
        ) == run_oracle(
            stages, seed, think_mean, message_words, cycles, mode=mode
        )

    @pytest.mark.parametrize("mode", ["unit", "circuit"])
    def test_experiment_points(self, mode):
        """The fast-scale ``extension-network-validation`` grid."""
        simulator = OmegaNetworkSimulator(4, seed=3)
        for think_mean, words in ((40.0, 1), (20.0, 4), (12.0, 4), (8.0, 4)):
            assert simulator.run(
                think_mean, words, 2_000, mode=mode
            ) == run_oracle(4, 3, think_mean, words, 2_000, mode=mode)
