"""Unit tests for workload-parameter measurement."""

import pytest

from repro.core import WorkloadParams
from repro.sim import Machine, SimulationConfig, measure_workload_params
from repro.trace import TraceConfig, generate_trace
from repro.trace.records import Trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        TraceConfig(cpus=4, records_per_cpu=20_000, seed=13)
    )


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(cache_bytes=16384)


class TestMeasureWorkloadParams:
    def test_returns_valid_params(self, trace, config):
        params = measure_workload_params(trace, config)
        assert isinstance(params, WorkloadParams)  # validation ran

    def test_ls_matches_trace_mix(self, trace, config):
        params = measure_workload_params(trace, config)
        data = sum(1 for r in trace if r.kind.is_data)
        fetches = sum(1 for r in trace if r.kind.name == "INST_FETCH")
        assert params.ls == pytest.approx(data / fetches)

    def test_reuses_supplied_simulation(self, trace, config):
        simulation = Machine("dragon", config).run(trace)
        params = measure_workload_params(trace, config, simulation)
        assert params.msdat == pytest.approx(simulation.data_miss_rate)
        assert params.mains == pytest.approx(simulation.instruction_miss_rate)
        assert params.md == pytest.approx(simulation.dirty_victim_fraction)

    def test_rejects_non_dragon_simulation(self, trace, config):
        simulation = Machine("base", config).run(trace)
        with pytest.raises(ValueError, match="Dragon"):
            measure_workload_params(trace, config, simulation)

    def test_rejects_empty_trace_by_name(self, trace, config):
        empty = Trace.from_arrays(
            name="nothing",
            cpus=2,
            shared_region=trace.shared_region,
            cpu=trace.cpu[:0],
            kind=trace.kind[:0],
            address=trace.address[:0],
        )
        with pytest.raises(
            ValueError,
            match="cannot measure workload parameters of empty trace "
            "'nothing'",
        ):
            measure_workload_params(empty, config)

    def test_measured_values_in_legal_ranges(self, trace, config):
        params = measure_workload_params(trace, config)
        for name, value in params.as_dict().items():
            if name == "apl":
                assert value >= 1.0
            elif name == "nshd":
                assert value >= 0.0
            else:
                assert 0.0 <= value <= 1.0, name

    def test_bigger_cache_lowers_miss_rates(self, trace):
        small = measure_workload_params(
            trace, SimulationConfig(cache_bytes=4096)
        )
        large = measure_workload_params(
            trace, SimulationConfig(cache_bytes=262144)
        )
        assert large.msdat < small.msdat
        assert large.mains <= small.mains

    def test_sharing_measured_from_region(self, trace, config):
        params = measure_workload_params(trace, config)
        assert 0.05 < params.shd < 0.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_measurement_rejected_by_name(
        self, trace, config, monkeypatch, bad
    ):
        """NaN passes straight through a min/max clamp (every NaN
        comparison is false), so a corrupt measurement must be caught
        explicitly — and the error must name the parameter."""
        from repro.sim import measure as measure_module

        real_stats = measure_module.collect_stats(trace)

        class PoisonedStats:
            wr = bad

            def __getattr__(self, name):
                return getattr(real_stats, name)

        monkeypatch.setattr(
            measure_module, "collect_stats", lambda _trace: PoisonedStats()
        )
        with pytest.raises(ValueError, match="'wr' is not finite"):
            measure_workload_params(trace, config)
