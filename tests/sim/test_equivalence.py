"""Default-vs-legacy replay engine equivalence.

The default engine is an optimisation, not a re-specification: for
every protocol and both replay orders it must produce statistics
identical — including exact float clocks — to the original record loop
kept as ``Machine._run_legacy``.  The default replays a family protocol
as a family of one (``tests/sim/test_onepass.py`` and
``tests/sim/test_family.py`` cover those engines in depth) and every
other run through the columnar loop in ``Machine._run_columnar``;
``TestColumnarLoop`` pins the loop on the inputs that still reach it.
"""

import pytest

from repro.core.operations import CostTable, Operation, OperationCost
from repro.sim import Machine, SimulationConfig
from repro.trace import TraceConfig, generate_trace
from tests.verify.test_mutation import StingyDragon

PROTOCOLS = [
    "base",
    "dragon",
    "nocache",
    "swflush",
    "wti",
    "directory",
    "hybrid-2",
    "hybrid-4",
    "hybrid-limit",
]
CONFIG = SimulationConfig(cache_bytes=16384, block_bytes=16, associativity=2)


@pytest.fixture(scope="module")
def seeded_trace():
    # Small caches + a real seeded workload: plenty of misses, dirty
    # victims, flushes, and shared traffic to exercise every branch.
    return generate_trace(TraceConfig(cpus=4, records_per_cpu=4_000, seed=7))


def stats_dict(result):
    """Every statistic a run produces, exact (no approx)."""
    return {
        "per_cpu": [
            (
                cpu.instructions,
                cpu.loads,
                cpu.stores,
                cpu.flushes,
                cpu.clock,
                cpu.wait_cycles,
                cpu.stolen_cycles,
            )
            for cpu in result.cpus
        ],
        "operation_counts": dict(result.operation_counts),
        "fetch_misses": result.fetch_misses,
        "data_misses": result.data_misses,
        "dirty_victim_misses": result.dirty_victim_misses,
        "shared_loads": result.shared_loads,
        "shared_stores": result.shared_stores,
        "shared_data_misses": result.shared_data_misses,
        "bus_busy_cycles": result.bus_busy_cycles,
        "bus_transactions": result.bus_transactions,
    }


class TestColumnarMatchesLegacy:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_statistics(self, seeded_trace, protocol, order):
        machine = Machine(protocol, CONFIG)
        columnar = machine.run(seeded_trace, order=order, engine="columnar")
        legacy = machine.run(seeded_trace, order=order, engine="legacy")
        assert stats_dict(columnar) == stats_dict(legacy)

    # The engines must also agree on direct-mapped and
    # highly-associative caches, and on the default configuration the
    # benchmarks use.
    @pytest.mark.parametrize(
        "geometry",
        [
            SimulationConfig(
                cache_bytes=16384, block_bytes=16, associativity=1
            ),
            SimulationConfig(
                cache_bytes=16384, block_bytes=16, associativity=4
            ),
            SimulationConfig(),
        ],
        ids=["direct-mapped", "assoc-4", "default"],
    )
    @pytest.mark.parametrize("protocol", ["base", "dragon", "swflush"])
    def test_identical_across_geometries(
        self, seeded_trace, protocol, geometry
    ):
        machine = Machine(protocol, geometry)
        for order in ("time", "trace"):
            columnar = machine.run(
                seeded_trace, order=order, engine="columnar"
            )
            legacy = machine.run(seeded_trace, order=order, engine="legacy")
            assert stats_dict(columnar) == stats_dict(legacy)

    @pytest.mark.parametrize("protocol", ["dragon", "wti", "directory"])
    def test_identical_protocol_stats(self, seeded_trace, protocol):
        machine = Machine(protocol, CONFIG)
        columnar = machine.run(seeded_trace, engine="columnar")
        legacy = machine.run(seeded_trace, engine="legacy")
        assert columnar.protocol_stats == legacy.protocol_stats

    def test_restriction_matches(self, seeded_trace):
        machine = Machine("dragon", CONFIG)
        columnar = machine.run(seeded_trace, cpus=2, engine="columnar")
        legacy = machine.run(seeded_trace, cpus=2, engine="legacy")
        assert stats_dict(columnar) == stats_dict(legacy)

    def test_rejects_unknown_engine(self, seeded_trace):
        with pytest.raises(ValueError, match="engine"):
            Machine("base", CONFIG).run(seeded_trace, engine="vectorised")


def fractional_costs():
    costs = dict(CostTable.bus().items())
    costs[Operation.CLEAN_MISS_MEMORY] = OperationCost(
        cpu_cycles=19.5, channel_cycles=19.5
    )
    return CostTable(costs, name="fractional")


class TestColumnarLoop:
    """The inputs no family engine accepts keep the columnar loop."""

    @staticmethod
    def assert_columnar_matches_legacy(trace, machine):
        for order in ("time", "trace"):
            columnar = machine.run(trace, order=order)
            assert columnar.engine == "columnar"
            legacy = machine.run(trace, order=order, engine="legacy")
            assert stats_dict(columnar) == stats_dict(legacy)
            assert columnar.protocol_stats == legacy.protocol_stats

    @pytest.mark.parametrize("protocol", ["dragon", "wti"])
    def test_coupled_four_way(self, seeded_trace, protocol):
        config = SimulationConfig(
            cache_bytes=16384, block_bytes=16, associativity=4
        )
        self.assert_columnar_matches_legacy(
            seeded_trace, Machine(protocol, config)
        )

    @pytest.mark.parametrize("protocol", ["base", "swflush", "dragon", "wti"])
    def test_non_integral_costs(self, seeded_trace, protocol):
        self.assert_columnar_matches_legacy(
            seeded_trace, Machine(protocol, CONFIG, fractional_costs())
        )

    def test_mutant_class_runs_its_own_code(self, seeded_trace):
        machine = Machine(StingyDragon, CONFIG)
        self.assert_columnar_matches_legacy(seeded_trace, machine)
        mutant = machine.run(seeded_trace)
        real = Machine("dragon", CONFIG).run(seeded_trace)
        assert real.engine == "epoch"
        assert sum(cpu.stolen_cycles for cpu in real.cpus) > 0
        assert sum(cpu.stolen_cycles for cpu in mutant.cpus) == 0


class TestOrderEquivalence:
    def test_single_cpu_orders_identical(self):
        # With one CPU there is no clock drift to reorder, so the two
        # replay orders must agree on *every* statistic, not just the
        # reference counts.
        trace = generate_trace(
            TraceConfig(cpus=1, records_per_cpu=5_000, seed=11)
        )
        machine = Machine("swflush", CONFIG)
        by_time = machine.run(trace, order="time")
        by_trace = machine.run(trace, order="trace")
        assert stats_dict(by_time) == stats_dict(by_trace)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_single_cpu_orders_identical_all_protocols(self, protocol):
        trace = generate_trace(
            TraceConfig(cpus=1, records_per_cpu=2_000, seed=3)
        )
        machine = Machine(protocol, CONFIG)
        by_time = machine.run(trace, order="time")
        by_trace = machine.run(trace, order="trace")
        assert stats_dict(by_time) == stats_dict(by_trace)
