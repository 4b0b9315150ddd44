"""Tests for the two-level cache hierarchy."""

import pytest

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy


@pytest.fixture
def hierarchy(base_system) -> CacheHierarchy:
    return CacheHierarchy(
        base_system,
        l1i=Cache(base_system.l1i, name="l1i"),
        l1d=Cache(base_system.l1d, name="l1d"),
    )


class TestDataPath:
    def test_l1_hit_has_one_cycle_latency(self, hierarchy):
        hierarchy.data_access(0x1000, is_write=False)
        outcome = hierarchy.data_access(0x1000, is_write=False)
        assert outcome.l1_hit
        assert outcome.latency == 1
        assert outcome.l2_accesses == 0

    def test_cold_miss_goes_to_memory(self, hierarchy):
        outcome = hierarchy.data_access(0x1000, is_write=False)
        assert not outcome.l1_hit
        assert outcome.l2_hit is False
        assert outcome.memory_accesses == 1
        # 1 (L1) + 12 (L2) + memory latency for a 64-byte L2 block.
        assert outcome.latency == 1 + 12 + 80 + 5 * 8

    def test_l2_hit_after_l1_eviction(self, base_system):
        hierarchy = CacheHierarchy(
            base_system,
            l1i=Cache(base_system.l1i),
            l1d=Cache(base_system.l1d),
        )
        stride = base_system.l1d.num_sets * base_system.l1d.block_bytes
        # Touch three conflicting blocks so the first is evicted from L1 but
        # still resides in the much larger L2.
        hierarchy.data_access(0x0, False)
        hierarchy.data_access(stride, False)
        hierarchy.data_access(2 * stride, False)
        outcome = hierarchy.data_access(0x0, False)
        assert not outcome.l1_hit
        assert outcome.l2_hit is True
        assert outcome.latency == 1 + 12

    def test_dirty_victim_is_written_back_to_l2(self, base_system):
        hierarchy = CacheHierarchy(
            base_system,
            l1i=Cache(base_system.l1i),
            l1d=Cache(base_system.l1d),
        )
        stride = base_system.l1d.num_sets * base_system.l1d.block_bytes
        hierarchy.data_access(0x0, True)
        hierarchy.data_access(stride, True)
        outcome = hierarchy.data_access(2 * stride, True)
        assert outcome.l2_accesses == 2  # fill plus the victim writeback
        assert hierarchy.l2.stats.writes == 1


class TestInstructionPath:
    def test_instruction_fetch_uses_l1i(self, hierarchy):
        hierarchy.instruction_fetch(0x40_0000)
        assert hierarchy.l1i.stats.accesses == 1
        assert hierarchy.l1d.stats.accesses == 0

    def test_instruction_refetch_hits(self, hierarchy):
        hierarchy.instruction_fetch(0x40_0000)
        assert hierarchy.instruction_fetch(0x40_0000).l1_hit


class TestWritebackAbsorption:
    def test_absorb_l1_writebacks_counts_l2_accesses(self, hierarchy):
        accesses = hierarchy.absorb_l1_writebacks([0x100, 0x2000, 0x40000])
        assert accesses == 3
        assert hierarchy.l2.stats.accesses == 3
        assert hierarchy.l2.stats.writes == 3

    def test_absorb_empty_list_is_noop(self, hierarchy):
        assert hierarchy.absorb_l1_writebacks([]) == 0


class TestStats:
    def test_miss_ratios_reports_all_levels(self, hierarchy):
        hierarchy.data_access(0x1000, False)
        ratios = hierarchy.miss_ratios()
        assert set(ratios) == {"l1i", "l1d", "l2"}
        assert ratios["l1d"] == 1.0

    def test_reset_stats_preserves_contents(self, hierarchy):
        hierarchy.data_access(0x1000, False)
        hierarchy.reset_stats()
        assert hierarchy.l1d.stats.accesses == 0
        assert hierarchy.data_access(0x1000, False).l1_hit

    def test_default_l2_built_from_config(self, base_system):
        hierarchy = CacheHierarchy(
            base_system, l1i=Cache(base_system.l1i), l1d=Cache(base_system.l1d)
        )
        assert hierarchy.l2.capacity_bytes == base_system.l2.geometry.capacity_bytes
