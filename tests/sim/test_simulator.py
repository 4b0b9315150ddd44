"""Tests for the trace-driven simulator."""

import pytest

from repro.common.config import CoreKind
from repro.common.errors import SimulationError
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.static_strategy import StaticResizing
from repro.sim.predecode import MAX_ROWS
from repro.sim.simulator import L1Setup, Simulator
from repro.workloads.trace import Trace


class TestL1Setup:
    def test_default_setup_is_fixed(self, base_system):
        setup = L1Setup()
        assert not setup.is_resizable
        assert setup.describe() == "fixed"
        cache = setup.build(base_system.l1d, "l1d")
        assert cache.capacity_bytes == base_system.l1d.capacity_bytes

    def test_resizable_setup_builds_resizable_cache(self, base_system):
        organization = SelectiveSets(base_system.l1d)
        setup = L1Setup(organization, StaticResizing(organization.full_config))
        assert setup.is_resizable
        assert "selective-sets/static" == setup.describe()

    def test_strategy_without_organization_rejected(self):
        with pytest.raises(SimulationError):
            L1Setup(strategy=StaticResizing.__new__(StaticResizing))

    def test_geometry_mismatch_rejected(self, base_system, four_way_geometry):
        organization = SelectiveSets(four_way_geometry)
        setup = L1Setup(organization)
        with pytest.raises(SimulationError):
            setup.build(base_system.l1d, "l1d")


class TestBaselineRuns:
    def test_results_are_reproducible(self, simulator, tiny_trace):
        first = simulator.run(tiny_trace)
        second = simulator.run(tiny_trace)
        assert first.cycles == second.cycles
        assert first.energy.total == pytest.approx(second.energy.total)

    def test_counts_are_consistent(self, simulator, tiny_trace):
        result = simulator.run(tiny_trace)
        assert result.instructions == len(tiny_trace)
        assert result.l1d_accesses == tiny_trace.memory_references
        assert 0 < result.l1i_accesses < len(tiny_trace)
        assert result.cycles > 0
        assert result.energy.total > 0

    def test_warmup_excludes_leading_instructions(self, simulator, tiny_trace):
        # Warmup is applied at interval granularity: intervals that end inside
        # the warmup window are excluded from the reported statistics.
        full = simulator.run(tiny_trace, interval_instructions=500)
        warmed = simulator.run(tiny_trace, interval_instructions=500, warmup_instructions=1000)
        assert warmed.instructions == full.instructions - 1000
        assert warmed.l1d_miss_ratio <= full.l1d_miss_ratio

    def test_empty_trace_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.run(Trace("empty", []))

    def test_trace_beyond_the_decode_ceiling_rejected(self, simulator):
        """The decode's 32-bit prefixes hold fewer than MAX_ROWS rows."""

        class HugeTrace(Trace):
            def __len__(self):
                return MAX_ROWS

        with pytest.raises(SimulationError, match="at most"):
            simulator.run(HugeTrace("huge", []))

    def test_invalid_interval_rejected(self, simulator, tiny_trace):
        with pytest.raises(SimulationError):
            simulator.run(tiny_trace, interval_instructions=0)

    def test_average_capacity_equals_full_size_for_fixed_caches(self, simulator, tiny_trace):
        result = simulator.run(tiny_trace)
        assert result.average_l1d_capacity == pytest.approx(result.full_l1d_capacity)
        assert result.average_l1i_capacity == pytest.approx(result.full_l1i_capacity)


class TestResizableRuns:
    def test_static_resizing_reduces_l1d_energy(self, base_system, simulator, short_trace):
        organization = SelectiveSets(base_system.l1d)
        baseline = simulator.run(short_trace)
        resized = simulator.run(
            short_trace,
            d_setup=L1Setup(
                organization, StaticResizing(organization.config_for_capacity(8 * 1024))
            ),
        )
        assert resized.energy.l1d < baseline.energy.l1d
        assert resized.average_l1d_capacity == pytest.approx(8 * 1024)
        assert resized.l1d_label.startswith("32K")

    def test_static_resizing_of_icache_leaves_dcache_untouched(
        self, base_system, simulator, short_trace
    ):
        organization = SelectiveSets(base_system.l1i)
        baseline = simulator.run(short_trace)
        resized = simulator.run(
            short_trace,
            i_setup=L1Setup(
                organization, StaticResizing(organization.config_for_capacity(8 * 1024))
            ),
        )
        assert resized.energy.l1i < baseline.energy.l1i
        assert resized.l1d_accesses == baseline.l1d_accesses
        assert resized.average_l1d_capacity == pytest.approx(resized.full_l1d_capacity)

    def test_aggressive_downsizing_increases_misses_and_cycles(
        self, base_system, simulator, short_trace
    ):
        organization = SelectiveSets(base_system.l1d)
        baseline = simulator.run(short_trace)
        tiny = simulator.run(
            short_trace,
            d_setup=L1Setup(organization, StaticResizing(organization.min_config)),
        )
        assert tiny.l1d_miss_ratio > baseline.l1d_miss_ratio
        assert tiny.cycles > baseline.cycles

    def test_dynamic_resizing_resizes_at_runtime(self, base_system, simulator, short_trace):
        organization = SelectiveSets(base_system.l1d)
        strategy = DynamicResizing(
            miss_bound=30, size_bound_bytes=2 * 1024, sense_interval_accesses=256,
            settle_intervals=0, reversal_backoff_intervals=0,
        )
        result = simulator.run(short_trace, d_setup=L1Setup(organization, strategy))
        assert result.l1d_resizes > 0
        assert result.average_l1d_capacity < result.full_l1d_capacity

    def test_inorder_core_runs_slower_than_ooo(self, base_system, inorder_system, short_trace):
        ooo = Simulator(base_system).run(short_trace)
        inorder = Simulator(inorder_system).run(short_trace)
        assert inorder.cycles > ooo.cycles
        assert inorder.core_kind == CoreKind.IN_ORDER_BLOCKING.value
