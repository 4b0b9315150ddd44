"""Tests for profiling sweeps and the dynamic runner."""

import pytest

from repro.common.errors import SimulationError
from repro.resizing.selective_sets import SelectiveSets
from repro.sim.sweep import DCACHE, ICACHE, Sweep


@pytest.fixture(scope="module")
def sweep(base_system_module, simulator_module, trace_module):
    organization = SelectiveSets(base_system_module.l1d)
    facade = Sweep(simulator_module, warmup_instructions=800)
    baseline = facade.baseline(trace_module)
    profile = facade.profile(trace_module, organization, target=DCACHE, baseline=baseline)
    return organization, baseline, profile


@pytest.fixture(scope="module")
def base_system_module():
    from repro.common.config import SystemConfig

    return SystemConfig()


@pytest.fixture(scope="module")
def simulator_module(base_system_module):
    from repro.sim.simulator import Simulator

    return Simulator(base_system_module)


@pytest.fixture(scope="module")
def trace_module():
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.profiles import get_profile

    return WorkloadGenerator(get_profile("m88ksim")).generate(10_000)


class TestStaticProfile:
    def test_profiles_every_ladder_size(self, sweep):
        organization, _, profile = sweep
        assert len(profile.points) == len(organization.ladder())
        assert set(profile.results) == set(organization.ladder())

    def test_best_config_minimises_energy_delay(self, sweep):
        _, _, profile = sweep
        best = profile.best_point
        assert best.energy_delay == min(point.energy_delay for point in profile.points)

    def test_small_working_set_application_downsizes(self, sweep):
        # m88ksim's working set is ~3K, so the best static size must be well
        # below the full 32K.
        _, _, profile = sweep
        assert profile.best_config.capacity_bytes <= 8 * 1024
        assert profile.size_reduction() >= 50.0
        assert profile.energy_delay_reduction() > 5.0

    def test_reductions_are_relative_to_the_baseline(self, sweep):
        _, baseline, profile = sweep
        expected = profile.best_result.energy_delay_reduction(baseline)
        assert profile.energy_delay_reduction() == pytest.approx(expected)

    def test_dynamic_parameters_derived_from_profile(self, sweep):
        _, _, profile = sweep
        parameters = profile.dynamic_parameters(sense_interval_accesses=512)
        assert parameters.sense_interval_accesses == 512
        assert parameters.miss_bound > 0
        assert parameters.size_bound_bytes <= profile.best_config.capacity_bytes


class TestDynamicRunner:
    def test_dynamic_run_produces_resizes_or_matches_static(
        self, sweep, simulator_module, trace_module
    ):
        organization, baseline, profile = sweep
        parameters = profile.dynamic_parameters(sense_interval_accesses=512)
        result = Sweep(simulator_module, warmup_instructions=800).dynamic(
            trace_module, organization, parameters,
            target=DCACHE, initial_config=profile.best_config,
        )
        assert result.average_l1d_capacity <= result.full_l1d_capacity
        assert result.l1d_accesses == baseline.l1d_accesses

    def test_unknown_target_rejected(self, sweep, simulator_module, trace_module):
        organization, _, profile = sweep
        parameters = profile.dynamic_parameters()
        with pytest.raises(SimulationError):
            Sweep(simulator_module).dynamic(
                trace_module, organization, parameters, target="l3cache"
            )

    def test_icache_target_resizes_the_icache(
        self, base_system_module, simulator_module, trace_module
    ):
        organization = SelectiveSets(base_system_module.l1i)
        profile = Sweep(simulator_module, warmup_instructions=800).profile(
            trace_module, organization, target=ICACHE
        )
        assert profile.best_result.average_l1i_capacity <= profile.best_result.full_l1i_capacity
        assert profile.size_reduction() >= 0.0
