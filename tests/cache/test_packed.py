"""Unit tests for the packed-outcome cache kernel.

Covers the encode/decode round trip of both packed layouts (cache access
outcomes and hierarchy outcomes), the packed block representation, the
kernel-vs-wrapper agreement for :class:`Cache`, and the per-cache victim
seeds for RANDOM replacement.  The randomised kernel-vs-object property
suite lives in ``tests/properties/test_property_kernel.py``.
"""

import pytest

from repro.cache.cache import (
    PACKED_FILLED,
    PACKED_HIT,
    PACKED_WRITEBACK_SHIFT,
    PACKED_WRITEBACK_VALID,
    Cache,
    pack_access_result,
    unpack_access_result,
)
from repro.cache.cache_set import pack_block, selector_seed, unpack_block
from repro.cache.hierarchy import (
    HIER_COUNT_MASK,
    HIER_L1_HIT,
    HIER_L2_ACCESSES_SHIFT,
    HIER_L2_CONSULTED,
    HIER_L2_HIT,
    HIER_LATENCY_SHIFT,
    HIER_MEM_ACCESSES_SHIFT,
    CacheHierarchy,
    unpack_hierarchy_outcome,
)
from repro.common.config import CacheGeometry
from repro.common.units import KIB


class TestPackedBlockRoundTrip:
    @pytest.mark.parametrize("address", [0x0, 0x40, 0x1000, 0xFFFF_FFC0, 0x1234_5678_9A40])
    @pytest.mark.parametrize("dirty", [False, True])
    def test_round_trip(self, address, dirty):
        block = unpack_block(pack_block(address, dirty))
        assert block.address == address
        assert block.dirty is dirty

    def test_dirty_bit_is_bit_zero(self):
        assert pack_block(0x40, False) == 0x80
        assert pack_block(0x40, True) == 0x81


class TestAccessResultRoundTrip:
    def test_hit(self):
        result = unpack_access_result(pack_access_result(hit=True))
        assert result.hit and result.writeback_address is None and not result.filled

    def test_miss_without_writeback(self):
        result = unpack_access_result(pack_access_result(hit=False, filled=True))
        assert not result.hit and result.filled and result.writeback_address is None

    @pytest.mark.parametrize("writeback", [0x0, 0x40, 0xFFFF_FFC0, 0x7FFF_FFFF_FFC0])
    def test_miss_with_writeback(self, writeback):
        packed = pack_access_result(hit=False, writeback_address=writeback, filled=True)
        result = unpack_access_result(packed)
        assert not result.hit and result.filled
        assert result.writeback_address == writeback

    def test_writeback_address_zero_is_distinguishable_from_none(self):
        with_wb = pack_access_result(hit=False, writeback_address=0x0, filled=True)
        without = pack_access_result(hit=False, filled=True)
        assert with_wb != without
        assert unpack_access_result(with_wb).writeback_address == 0
        assert unpack_access_result(without).writeback_address is None

    def test_bit_layout_constants(self):
        # The flag bits must all sit below the writeback shift so that a
        # plain right-shift recovers the victim address.
        assert max(PACKED_HIT, PACKED_FILLED, PACKED_WRITEBACK_VALID) < (
            1 << PACKED_WRITEBACK_SHIFT
        )
        packed = pack_access_result(hit=False, writeback_address=0x1040, filled=True)
        assert packed >> PACKED_WRITEBACK_SHIFT == 0x1040


class TestHierarchyOutcomeRoundTrip:
    def _encode(self, hit_bits, l2_accesses, memory_accesses, latency):
        return (
            hit_bits
            | (l2_accesses << HIER_L2_ACCESSES_SHIFT)
            | (memory_accesses << HIER_MEM_ACCESSES_SHIFT)
            | (latency << HIER_LATENCY_SHIFT)
        )

    def test_l1_hit(self):
        outcome = unpack_hierarchy_outcome(self._encode(HIER_L1_HIT, 0, 0, 1))
        assert outcome.l1_hit and outcome.l2_hit is None
        assert outcome.latency == 1
        assert outcome.l2_accesses == 0 and outcome.memory_accesses == 0

    def test_l2_hit(self):
        packed = self._encode(HIER_L2_CONSULTED | HIER_L2_HIT, 1, 0, 13)
        outcome = unpack_hierarchy_outcome(packed)
        assert not outcome.l1_hit and outcome.l2_hit is True
        assert outcome.latency == 13 and outcome.l2_accesses == 1

    @pytest.mark.parametrize("l2_accesses,memory_accesses", [(1, 1), (2, 2), (2, 4)])
    def test_l2_miss_transfer_counts(self, l2_accesses, memory_accesses):
        packed = self._encode(HIER_L2_CONSULTED, l2_accesses, memory_accesses, 133)
        outcome = unpack_hierarchy_outcome(packed)
        assert outcome.l2_hit is False
        assert outcome.l2_accesses == l2_accesses
        assert outcome.memory_accesses == memory_accesses
        assert outcome.latency == 133

    def test_count_fields_hold_the_worst_case(self):
        # Worst case per access: L2 fill miss + fill-victim writeback +
        # L1-victim-induced L2 miss + its victim writeback = 4 transfers,
        # 2 L2 accesses.  Both must fit their 3-bit fields.
        assert 4 <= HIER_COUNT_MASK
        assert 2 <= HIER_COUNT_MASK


class TestKernelMatchesWrapper:
    """access_packed and the object wrapper must describe the same event.

    Two identically configured caches see the same access stream, one
    through each API; every decoded outcome and the final counters must
    agree exactly.
    """

    def test_interleaved_stream(self, small_geometry):
        object_cache = Cache(small_geometry, name="object")
        packed_cache = Cache(small_geometry, name="object")  # same name: same seeds
        stride = small_geometry.num_sets * small_geometry.block_bytes
        stream = [
            (0x0, True), (stride, True), (2 * stride, False), (0x0, False),
            (0x1000, False), (0x1000, True), (3 * stride, True), (stride, False),
        ]
        for address, is_write in stream:
            expected = object_cache.access(address, is_write)
            got = unpack_access_result(packed_cache.access_packed(address, is_write))
            assert got.hit == expected.hit
            assert got.filled == expected.filled
            assert got.writeback_address == expected.writeback_address
        assert object_cache.stats.as_dict() == packed_cache.stats.as_dict()

    def test_hierarchy_packed_matches_object(self, base_system):
        def build():
            return CacheHierarchy(
                base_system,
                l1i=Cache(base_system.l1i, name="l1i"),
                l1d=Cache(base_system.l1d, name="l1d"),
            )

        object_hierarchy, packed_hierarchy = build(), build()
        stride = base_system.l1d.num_sets * base_system.l1d.block_bytes
        stream = [(0x0, True), (stride, True), (2 * stride, True), (0x0, False)]
        for address, is_write in stream:
            expected = object_hierarchy.data_access(address, is_write)
            got = unpack_hierarchy_outcome(
                packed_hierarchy.data_access_packed(address, is_write)
            )
            for field in ("l1_hit", "l2_hit", "latency", "l2_accesses", "memory_accesses"):
                assert getattr(got, field) == getattr(expected, field), field
        assert (
            object_hierarchy.l2.stats.as_dict() == packed_hierarchy.l2.stats.as_dict()
        )
        # Both dirty victims reached the L2.
        assert object_hierarchy.l2.stats.writes == packed_hierarchy.l2.stats.writes == 2


class TestSelectorSeeds:
    def test_seed_is_deterministic_and_name_dependent(self):
        assert selector_seed("l1d") == selector_seed("l1d")
        assert selector_seed("l1d") != selector_seed("l1i")
        assert selector_seed("l1d") != selector_seed("l2")

    def test_distinct_caches_draw_distinct_victim_streams(self):
        geometry = CacheGeometry(2 * KIB, 4, block_bytes=32, subarray_bytes=KIB)
        streams = {}
        for name in ("l1d", "l1i"):
            cache = Cache(geometry, replacement="random", name=name)
            # Overfill every set so each access past the warmup evicts a
            # random victim; the victim choice shows up in what survives.
            for step in range(64):
                cache.access(step * 2 * KIB)
            streams[name] = sorted(
                tag for blocks in cache._set_blocks for tag in blocks
            )
        assert streams["l1d"] != streams["l1i"]
