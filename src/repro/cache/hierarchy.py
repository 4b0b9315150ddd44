"""Two-level cache hierarchy.

The hierarchy wires the (possibly resizable) L1 instruction and data caches
to a unified L2 and main memory, writes dirty L1 victims back into the L2,
and reports per-access latency so the timing models can expose or hide it
depending on the core configuration.

An L1 is a :class:`repro.cache.cache.Cache` or a
:class:`repro.resizing.resizable_cache.ResizableCache`: the hierarchy binds
its packed kernel (``access_packed`` with the :mod:`repro.cache.cache` bit
layout) directly, which is how the resizable caches plug in without the
hierarchy knowing about resizing.

Architecture note — the packed-outcome kernel
---------------------------------------------
:meth:`CacheHierarchy.data_access_packed` and
:meth:`CacheHierarchy.instruction_fetch_packed` are the hot path: they route
one access through L1 → L2 → memory using only packed ints (the L1/L2
kernels return packed access outcomes; victim writebacks are forwarded as
plain block-address ints) and encode the whole outcome in a single int —
zero allocations per access, including misses.

Packed hierarchy-outcome bit layout (``HIER_*`` constants)::

    bit 0    HIER_L1_HIT         1 = the access hit in its L1
    bit 1    HIER_L2_CONSULTED   1 = the L2 was accessed (any L1 miss)
    bit 2    HIER_L2_HIT         valid only when bit 1 is set
    bits 3-5 l2_accesses         L2 accesses performed (fill + writeback)
    bits 6-8 memory_accesses     main-memory block transfers performed
    bits 9+  latency             total cycles seen by the instruction

:meth:`data_access` / :meth:`instruction_fetch` are thin wrappers decoding
the packed int into the historical :class:`HierarchyAccessOutcome`, so the
reference engine, the timing tests and external callers stay bit-identical
by construction.

The fused ladder engine (:mod:`repro.sim.ladder`) inlines the same access:
its dispatch kernel runs each L1 access against the cache's hoisted kernel
state and each miss with the statements of
:meth:`CacheHierarchy._miss_packed` over
:meth:`CacheHierarchy._memory_state`.  Treat those as a stable
intra-package contract: an L1 access followed, on a miss, by
``_miss_packed(packed, addr)`` must remain exactly equivalent to one
``*_packed`` wrapper call.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cache.cache import PACKED_WRITEBACK_SHIFT, PACKED_WRITEBACK_VALID, Cache
from repro.common.config import SystemConfig
from repro.mem.main_memory import MainMemory

#: Packed hierarchy-outcome bits (see the module docstring for the layout).
HIER_L1_HIT = 0b001
HIER_L2_CONSULTED = 0b010
HIER_L2_HIT = 0b100
HIER_L2_ACCESSES_SHIFT = 3
HIER_MEM_ACCESSES_SHIFT = 6
HIER_COUNT_MASK = 0b111
HIER_LATENCY_SHIFT = 9


def unpack_hierarchy_outcome(packed: int) -> "HierarchyAccessOutcome":
    """Decode a packed hierarchy outcome into a :class:`HierarchyAccessOutcome`."""
    l2_hit: Optional[bool] = None
    if packed & HIER_L2_CONSULTED:
        l2_hit = bool(packed & HIER_L2_HIT)
    return HierarchyAccessOutcome(
        l1_hit=bool(packed & HIER_L1_HIT),
        l2_hit=l2_hit,
        latency=packed >> HIER_LATENCY_SHIFT,
        l2_accesses=(packed >> HIER_L2_ACCESSES_SHIFT) & HIER_COUNT_MASK,
        memory_accesses=(packed >> HIER_MEM_ACCESSES_SHIFT) & HIER_COUNT_MASK,
    )


class HierarchyAccessOutcome:
    """Result of one instruction-fetch or data access through the hierarchy.

    Object view of the packed hierarchy outcome (see the module docstring).

    Attributes:
        l1_hit: True when the access hit in its L1 cache.
        l2_hit: True/False when the L2 was consulted, None on an L1 hit.
        latency: total latency in cycles seen by the requesting instruction.
        l2_accesses: number of L2 accesses performed (fills and writebacks).
        memory_accesses: number of main-memory block transfers performed.
    """

    __slots__ = ("l1_hit", "l2_hit", "latency", "l2_accesses", "memory_accesses")

    def __init__(
        self,
        l1_hit: bool,
        l2_hit: Optional[bool],
        latency: int,
        l2_accesses: int,
        memory_accesses: int,
    ) -> None:
        self.l1_hit = l1_hit
        self.l2_hit = l2_hit
        self.latency = latency
        self.l2_accesses = l2_accesses
        self.memory_accesses = memory_accesses

    def __repr__(self) -> str:
        return (
            f"HierarchyAccessOutcome(l1_hit={self.l1_hit}, l2_hit={self.l2_hit}, "
            f"latency={self.latency})"
        )


class CacheHierarchy:
    """L1 instruction + data caches over a unified L2 over main memory."""

    def __init__(
        self,
        config: SystemConfig,
        l1i,
        l1d,
        l2: Optional[Cache] = None,
        memory: Optional[MainMemory] = None,
        with_l2: bool = True,
    ) -> None:
        """``with_l2=False`` leaves ``l2`` and ``memory`` None: only L1 hits
        can be served, as in a fused pass that takes the compulsory-miss
        filter (:mod:`repro.sim.ladder`)."""
        self.config = config
        self.l1i = l1i
        self.l1d = l1d
        if with_l2:
            l2 = l2 if l2 is not None else Cache(config.l2.geometry, name="l2")
            memory = memory if memory is not None else MainMemory(config.memory)
        self.l2 = l2
        self.memory = memory
        self._l1_hit_latency = config.l1_timing.hit_latency
        self._l2_hit_latency = config.l2.hit_latency
        self._l1_block = config.l1d.block_bytes
        self._l2_block = config.l2.geometry.block_bytes
        # Kernel locals: bound packed L1 accessors, the L1-hit outcome as a
        # ready-made constant, and the shared L1+L2 hit latency term.
        self._l1d_packed = l1d.access_packed
        self._l1i_packed = l1i.access_packed
        self._l2_packed = l2.access_packed if l2 is not None else None
        self._packed_l1_hit = HIER_L1_HIT | (self._l1_hit_latency << HIER_LATENCY_SHIFT)
        self._l1_l2_latency = self._l1_hit_latency + self._l2_hit_latency

    # ------------------------------------------------------------------ access
    def data_access_packed(self, address: int, is_write: bool) -> int:
        """Load/store through L1d, L2 and memory; returns a packed outcome."""
        l1_packed = self._l1d_packed(address, is_write)
        if l1_packed & 1:
            return self._packed_l1_hit
        return self._miss_packed(l1_packed, address)

    def instruction_fetch_packed(self, address: int) -> int:
        """Instruction fetch through L1i, L2 and memory; returns a packed outcome."""
        l1_packed = self._l1i_packed(address, False)
        if l1_packed & 1:
            return self._packed_l1_hit
        return self._miss_packed(l1_packed, address)

    def _memory_state(self):
        """Hoistable main-memory counters for the inline dispatch kernel.

        ``(reads, writes, bytes_transferred, l2_block_bytes)`` — the live
        counter objects and the L2 block size, or None when the memory is
        not the stock :class:`MainMemory` (whose block transfers are pure
        counter increments; a substitute model may do more, so the fused
        replay in :mod:`repro.sim.ladder` refuses a hierarchy without
        this state).  With it the dispatch kernel resolves any L1 miss
        entirely inline — L2 fill, victim spill, the dirty victim's
        write-allocate, memory transfer counts: the replay path never
        consumes the returned latency, which is the only other thing
        :meth:`_miss_packed` computes.
        """
        memory = self.memory
        if type(memory) is not MainMemory:
            return None
        return memory._reads, memory._writes, memory._bytes_transferred, self._l2_block

    def _miss_packed(self, l1_packed: int, address: int) -> int:
        """Shared L1-miss path: fill from L2, spill the dirty victim into L2."""
        l2_accesses = 1
        memory_accesses = 0
        # Fill from L2 (the L2 sees a read for the missing block).
        l2_packed = self._l2_packed(address, False)
        latency = self._l1_l2_latency
        if l2_packed & 1:
            hit_bits = HIER_L2_CONSULTED | HIER_L2_HIT
        else:
            hit_bits = HIER_L2_CONSULTED
            memory_accesses = 1
            latency += self.memory.read_block(address, self._l2_block)
        if l2_packed & PACKED_WRITEBACK_VALID:
            memory_accesses += 1
            self.memory.write_block(l2_packed >> PACKED_WRITEBACK_SHIFT, self._l2_block)

        # A dirty L1 victim is written back into L2.
        if l1_packed & PACKED_WRITEBACK_VALID:
            writeback_address = l1_packed >> PACKED_WRITEBACK_SHIFT
            l2_accesses = 2
            wb_packed = self._l2_packed(writeback_address, True)
            if not wb_packed & 1:
                memory_accesses += 1
                self.memory.read_block(writeback_address, self._l2_block)
            if wb_packed & PACKED_WRITEBACK_VALID:
                memory_accesses += 1
                self.memory.write_block(
                    wb_packed >> PACKED_WRITEBACK_SHIFT, self._l2_block
                )

        return (
            hit_bits
            | (l2_accesses << HIER_L2_ACCESSES_SHIFT)
            | (memory_accesses << HIER_MEM_ACCESSES_SHIFT)
            | (latency << HIER_LATENCY_SHIFT)
        )

    def data_access(self, address: int, is_write: bool) -> HierarchyAccessOutcome:
        """Perform a load or store through L1d, L2 and memory as needed."""
        return unpack_hierarchy_outcome(self.data_access_packed(address, is_write))

    def instruction_fetch(self, address: int) -> HierarchyAccessOutcome:
        """Perform an instruction fetch through L1i, L2 and memory as needed."""
        return unpack_hierarchy_outcome(self.instruction_fetch_packed(address))

    # --------------------------------------------------------------- writebacks
    def absorb_l1_writebacks(self, block_addresses: Iterable[int]) -> int:
        """Write a batch of dirty L1 blocks back into L2.

        Used when a resizable L1 flushes blocks on a resize.  Returns the
        number of L2 accesses performed so the caller can charge their
        energy.
        """
        l2_accesses = 0
        l2_packed_access = self._l2_packed
        for block_address in block_addresses:
            l2_accesses += 1
            packed = l2_packed_access(block_address, True)
            if not packed & 1:
                self.memory.read_block(block_address, self._l2_block)
            if packed & PACKED_WRITEBACK_VALID:
                self.memory.write_block(packed >> PACKED_WRITEBACK_SHIFT, self._l2_block)
        return l2_accesses

    # ------------------------------------------------------------ introspection
    def miss_ratios(self) -> dict:
        """Convenience: miss ratios of all three caches."""
        return {
            "l1i": self.l1i.stats.miss_ratio,
            "l1d": self.l1d.stats.miss_ratio,
            "l2": self.l2.stats.miss_ratio,
        }

    def reset_stats(self) -> None:
        """Reset statistics of every level (contents are preserved)."""
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.memory.reset_stats()
