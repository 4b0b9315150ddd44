"""Tests for the configuration dataclasses (Table 2 defaults and validation)."""

import pytest

from repro.common.config import (
    CacheGeometry,
    CacheTiming,
    CoreConfig,
    CoreKind,
    L2Config,
    MemoryConfig,
    SystemConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.units import KIB


class TestCacheGeometry:
    def test_base_l1_geometry_matches_table2(self):
        geometry = CacheGeometry(32 * KIB, 2)
        assert geometry.num_sets == 512
        assert geometry.way_bytes == 16 * KIB
        assert geometry.num_subarrays == 32
        assert geometry.blocks_per_subarray == 32
        assert geometry.min_sets == 32

    def test_four_way_geometry(self):
        geometry = CacheGeometry(32 * KIB, 4)
        assert geometry.num_sets == 256
        assert geometry.subarrays_per_way == 8

    def test_sixteen_way_geometry(self):
        geometry = CacheGeometry(32 * KIB, 16)
        assert geometry.num_sets == 64
        assert geometry.subarrays_per_way == 2

    def test_capacity_parses_size_strings(self):
        geometry = CacheGeometry("32K", 2)
        assert geometry.capacity_bytes == 32 * KIB

    def test_index_and_offset_bits(self):
        geometry = CacheGeometry(32 * KIB, 2)
        assert geometry.offset_bits == 5
        assert geometry.index_bits == 9
        assert geometry.tag_bits(32) == 32 - 9 - 5

    def test_three_way_intermediate_geometry_is_valid(self):
        # The hybrid organization enables 3 of 4 ways; that intermediate
        # geometry (24K 3-way) must be expressible.
        geometry = CacheGeometry(24 * KIB, 3)
        assert geometry.num_sets == 256

    def test_invalid_associativity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(32 * KIB, 0)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(32 * KIB, 2, block_bytes=48)

    def test_subarray_smaller_than_block_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(32 * KIB, 2, block_bytes=64, subarray_bytes=32)

    def test_capacity_not_divisible_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(33 * KIB, 2)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(24 * KIB, 2)

    def test_with_capacity_returns_new_geometry(self):
        geometry = CacheGeometry(32 * KIB, 2)
        smaller = geometry.with_capacity(16 * KIB)
        assert smaller.capacity_bytes == 16 * KIB
        assert smaller.associativity == 2
        assert geometry.capacity_bytes == 32 * KIB

    def test_describe_mentions_size_and_ways(self):
        text = CacheGeometry(32 * KIB, 2).describe()
        assert "32K" in text
        assert "2-way" in text


class TestOtherConfigs:
    def test_cache_timing_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            CacheTiming(hit_latency=-1)

    def test_l2_defaults_match_table2(self):
        l2 = L2Config()
        assert l2.geometry.capacity_bytes == 512 * KIB
        assert l2.geometry.associativity == 4
        assert l2.hit_latency == 12

    def test_memory_latency_formula(self):
        memory = MemoryConfig()
        # Table 2: 80 + 5 cycles per 8 bytes; a 64-byte block is 8 chunks.
        assert memory.access_latency(64) == 80 + 5 * 8

    def test_memory_latency_rounds_partial_chunks_up(self):
        memory = MemoryConfig()
        assert memory.access_latency(60) == 80 + 5 * 8

    def test_core_defaults_match_table2(self):
        core = CoreConfig()
        assert core.issue_width == 4
        assert core.rob_entries == 64
        assert core.lsq_entries == 32
        assert core.mshr_entries == 8
        assert core.writeback_buffer_entries == 8
        assert core.is_out_of_order

    def test_inorder_core_flag(self):
        core = CoreConfig(kind=CoreKind.IN_ORDER_BLOCKING)
        assert not core.is_out_of_order

    def test_core_rejects_zero_issue_width(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(issue_width=0)

    def test_core_rejects_zero_rob(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(rob_entries=0)

    def test_core_rejects_zero_writeback_buffer(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(writeback_buffer_entries=0)


class TestSystemConfig:
    def test_defaults_are_consistent(self):
        system = SystemConfig()
        assert system.l1d.capacity_bytes == 32 * KIB
        assert system.l1i.associativity == 2
        assert system.core.is_out_of_order

    def test_with_l1_replaces_only_requested_cache(self):
        system = SystemConfig()
        modified = system.with_l1(l1d=CacheGeometry(32 * KIB, 4))
        assert modified.l1d.associativity == 4
        assert modified.l1i.associativity == 2
        assert system.l1d.associativity == 2

    def test_with_core_replaces_core(self):
        system = SystemConfig().with_core(CoreConfig(kind=CoreKind.IN_ORDER_BLOCKING))
        assert system.core.kind is CoreKind.IN_ORDER_BLOCKING

    def test_describe_matches_table2_contents(self):
        text = SystemConfig().describe()
        assert "4 instrs per cycle" in text
        assert "64 entries / 32 entries" in text
        assert "512K 4-way" in text
        assert "80 + 5" in text

    def test_describe_prints_configured_writeback_buffer(self):
        # Table 2 text only: no engine simulates the write-back buffer.
        text = SystemConfig().with_core(CoreConfig(writeback_buffer_entries=16)).describe()
        assert "writeback buffer / mshr 16 entries / 8 entries" in text

    def test_invalid_address_width_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(address_bits=8)
