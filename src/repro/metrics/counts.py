"""Per-interval activity counts.

The simulator accumulates one :class:`IntervalCounts` per sense interval and
hands it to the core timing model (which turns it into cycles) and to the
energy model (which turns it plus the cycle count into joules).  Keeping the
counts explicit — rather than having the models read the caches' cumulative
statistics — makes interval-level resizing, per-interval energy accounting
and unit testing straightforward.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IntervalCounts:
    """Activity observed during one simulation interval.

    All fields are raw event counts; rates (miss ratios, IPC) are derived by
    the consumers.
    """

    instructions: int = 0
    #: L1 data-cache accesses (loads + stores).
    l1d_accesses: int = 0
    l1d_stores: int = 0
    l1d_misses: int = 0
    #: Dirty-victim writebacks out of the L1 data cache.
    l1d_writebacks: int = 0
    #: Data-side L2 misses (i.e. accesses that went to main memory).
    l1d_memory_accesses: int = 0
    #: L1 instruction-cache accesses (fetch-block lookups).
    l1i_accesses: int = 0
    l1i_misses: int = 0
    #: Instruction-side L2 misses.
    l1i_memory_accesses: int = 0
    #: Total L2 accesses (fills and writebacks from both L1s).
    l2_accesses: int = 0
    #: Total main-memory block transfers.
    memory_accesses: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    #: Blocks flushed by cache resizing during the interval.
    resize_flush_writebacks: int = 0
    #: Average memory-level parallelism the workload exposes in this interval.
    memory_level_parallelism: float = 1.0

    def merge(self, other: "IntervalCounts") -> None:
        """Accumulate another interval's counts into this one (in place)."""
        weight_self = max(self.instructions, 0)
        weight_other = max(other.instructions, 0)
        total_weight = weight_self + weight_other
        if total_weight > 0:
            self.memory_level_parallelism = (
                self.memory_level_parallelism * weight_self
                + other.memory_level_parallelism * weight_other
            ) / total_weight
        self.instructions += other.instructions
        self.l1d_accesses += other.l1d_accesses
        self.l1d_stores += other.l1d_stores
        self.l1d_misses += other.l1d_misses
        self.l1d_writebacks += other.l1d_writebacks
        self.l1d_memory_accesses += other.l1d_memory_accesses
        self.l1i_accesses += other.l1i_accesses
        self.l1i_misses += other.l1i_misses
        self.l1i_memory_accesses += other.l1i_memory_accesses
        self.l2_accesses += other.l2_accesses
        self.memory_accesses += other.memory_accesses
        self.branches += other.branches
        self.branch_mispredicts += other.branch_mispredicts
        self.resize_flush_writebacks += other.resize_flush_writebacks

    @property
    def l1d_miss_ratio(self) -> float:
        """Data-cache miss ratio during the interval."""
        if self.l1d_accesses == 0:
            return 0.0
        return self.l1d_misses / self.l1d_accesses

    @property
    def l1i_miss_ratio(self) -> float:
        """Instruction-cache miss ratio during the interval."""
        if self.l1i_accesses == 0:
            return 0.0
        return self.l1i_misses / self.l1i_accesses

    def copy(self) -> "IntervalCounts":
        """Return an independent copy of these counts."""
        fresh = IntervalCounts()
        fresh.merge(self)
        fresh.memory_level_parallelism = self.memory_level_parallelism
        return fresh
