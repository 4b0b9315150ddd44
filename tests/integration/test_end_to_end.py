"""End-to-end integration tests exercising the public API as a user would."""

import pytest

from repro import (
    DynamicResizing,
    HybridSetsAndWays,
    L1Setup,
    SelectiveSets,
    SelectiveWays,
    Simulator,
    StaticResizing,
    Sweep,
    SystemConfig,
    WorkloadGenerator,
    get_profile,
)
from repro.sim.sweep import DCACHE


@pytest.fixture(scope="module")
def environment():
    system = SystemConfig()
    simulator = Simulator(system)
    trace = WorkloadGenerator(get_profile("m88ksim")).generate(10_000)
    baseline = Sweep(simulator, warmup_instructions=1_000).baseline(trace)
    return system, simulator, trace, baseline


def test_quickstart_flow_reduces_energy_delay(environment):
    """The README quickstart: resize a small-working-set application's d-cache."""
    system, simulator, trace, baseline = environment
    organization = SelectiveSets(system.l1d)
    profile = Sweep(simulator, warmup_instructions=1_000).profile(
        trace, organization, target=DCACHE, baseline=baseline,
    )
    assert profile.energy_delay_reduction() > 5.0
    assert profile.best_result.slowdown_vs(baseline) < 0.06


def test_all_three_organizations_run_end_to_end(environment):
    system, simulator, trace, baseline = environment
    reductions = {}
    for factory in (SelectiveWays, SelectiveSets, HybridSetsAndWays):
        organization = factory(system.l1d)
        profile = Sweep(simulator, warmup_instructions=1_000).profile(
            trace, organization, target=DCACHE, baseline=baseline,
        )
        reductions[organization.name] = profile.energy_delay_reduction()
    # The hybrid's size spectrum is a superset of both, so it cannot do
    # meaningfully worse than either basic organization.
    assert reductions["hybrid"] >= (
        max(reductions["selective-ways"], reductions["selective-sets"]) - 1.0
    )


def test_energy_accounting_is_internally_consistent(environment):
    _, simulator, trace, baseline = environment
    parts = (
        baseline.energy.l1d + baseline.energy.l1i + baseline.energy.l2
        + baseline.energy.memory + baseline.energy.core
    )
    assert parts == pytest.approx(baseline.energy.total)
    fractions = sum(
        baseline.energy.fraction(name) for name in ("l1d", "l1i", "l2", "memory", "core")
    )
    assert fractions == pytest.approx(1.0)


def test_resizing_both_caches_is_roughly_additive(environment):
    system, simulator, trace, baseline = environment
    d_org = SelectiveSets(system.l1d)
    i_org = SelectiveSets(system.l1i)
    d_cfg = d_org.config_for_capacity(4 * 1024)
    i_cfg = i_org.config_for_capacity(8 * 1024)
    d_only = simulator.run(
        trace, d_setup=L1Setup(d_org, StaticResizing(d_cfg)), warmup_instructions=1_000
    )
    i_only = simulator.run(
        trace, i_setup=L1Setup(i_org, StaticResizing(i_cfg)), warmup_instructions=1_000
    )
    both = simulator.run(
        trace,
        d_setup=L1Setup(d_org, StaticResizing(d_cfg)),
        i_setup=L1Setup(i_org, StaticResizing(i_cfg)),
        warmup_instructions=1_000,
    )
    stacked = d_only.energy_delay_reduction(baseline) + i_only.energy_delay_reduction(baseline)
    assert both.energy_delay_reduction(baseline) == pytest.approx(stacked, abs=4.0)


def test_dynamic_strategy_runs_through_public_api(environment):
    system, simulator, trace, _ = environment
    organization = SelectiveSets(system.l1d)
    strategy = DynamicResizing(
        miss_bound=25.0, size_bound_bytes=2 * 1024, sense_interval_accesses=512,
    )
    result = simulator.run(
        trace, d_setup=L1Setup(organization, strategy), warmup_instructions=1_000
    )
    assert result.average_l1d_capacity <= result.full_l1d_capacity
    assert result.energy.total > 0
