"""Configuration dataclasses describing the simulated system.

The defaults reproduce Table 2 of the paper (the "base system
configuration"): a 4-wide core with 64-entry ROB and 32-entry LSQ, 32 KB
2-way L1 instruction and data caches with 1 KB subarrays and 1-cycle hit
latency, a 512 KB 4-way unified L2 with 12-cycle latency, and a main memory
modelled as 80 cycles plus 5 cycles per 8 transferred bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.common.errors import ConfigurationError
from repro.common.units import KIB, format_size, is_power_of_two, log2_int, parse_size


@dataclass(frozen=True)
class CacheGeometry:
    """Physical geometry of a set-associative RAM-tag cache.

    Attributes:
        capacity_bytes: total data capacity of the cache in bytes.
        associativity: number of ways.
        block_bytes: cache block (line) size in bytes.
        subarray_bytes: size of one SRAM subarray.  Resizing enables and
            disables whole subarrays, so this sets the resizing granularity
            (the paper uses 1 KB subarrays for L1 caches).
    """

    capacity_bytes: int
    associativity: int
    block_bytes: int = 32
    subarray_bytes: int = KIB

    def __post_init__(self) -> None:
        capacity = parse_size(self.capacity_bytes)
        object.__setattr__(self, "capacity_bytes", capacity)
        if self.associativity < 1:
            raise ConfigurationError(
                f"associativity must be at least 1, got {self.associativity}"
            )
        if not is_power_of_two(self.block_bytes):
            raise ConfigurationError(
                f"block size must be a power of two, got {self.block_bytes}"
            )
        if not is_power_of_two(self.subarray_bytes):
            raise ConfigurationError(
                f"subarray size must be a power of two, got {self.subarray_bytes}"
            )
        if self.subarray_bytes < self.block_bytes:
            raise ConfigurationError(
                "subarray size must be at least one block: "
                f"{self.subarray_bytes} < {self.block_bytes}"
            )
        if capacity % (self.associativity * self.block_bytes) != 0:
            raise ConfigurationError(
                f"capacity {capacity} is not divisible by "
                f"associativity ({self.associativity}) x block ({self.block_bytes})"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"number of sets must be a power of two, got {self.num_sets}"
            )
        if self.way_bytes % self.subarray_bytes != 0 and self.subarray_bytes % self.way_bytes != 0:
            raise ConfigurationError(
                "a cache way must be a whole number of subarrays (or vice versa): "
                f"way={self.way_bytes} subarray={self.subarray_bytes}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets (capacity / (associativity * block))."""
        return self.capacity_bytes // (self.associativity * self.block_bytes)

    @property
    def way_bytes(self) -> int:
        """Capacity of a single way."""
        return self.capacity_bytes // self.associativity

    @property
    def blocks_per_subarray(self) -> int:
        """Number of blocks held by one subarray."""
        return max(1, self.subarray_bytes // self.block_bytes)

    @property
    def num_subarrays(self) -> int:
        """Total number of data subarrays in the cache."""
        return max(1, self.capacity_bytes // self.subarray_bytes)

    @property
    def subarrays_per_way(self) -> int:
        """Number of subarrays making up one way (at least 1)."""
        return max(1, self.way_bytes // self.subarray_bytes)

    @property
    def min_sets(self) -> int:
        """Smallest number of sets reachable by set resizing.

        Enabling/disabling happens in whole subarrays, so the minimum is one
        subarray per way (the paper makes the same observation in Section 2).
        """
        return max(1, self.subarray_bytes // self.block_bytes)

    @property
    def index_bits(self) -> int:
        """Number of index bits at full size."""
        return log2_int(self.num_sets)

    @property
    def offset_bits(self) -> int:
        """Number of block-offset bits."""
        return log2_int(self.block_bytes)

    def tag_bits(self, address_bits: int = 32) -> int:
        """Number of tag bits for a given physical address width."""
        return address_bits - self.index_bits - self.offset_bits

    def with_capacity(
        self, capacity_bytes: int, associativity: int | None = None
    ) -> "CacheGeometry":
        """Return a copy of this geometry with a different capacity/associativity."""
        return replace(
            self,
            capacity_bytes=capacity_bytes,
            associativity=self.associativity if associativity is None else associativity,
        )

    def describe(self) -> str:
        """Human readable one-liner, e.g. ``"32K 2-way (32B blocks, 1K subarrays)"``."""
        return (
            f"{format_size(self.capacity_bytes)} {self.associativity}-way "
            f"({self.block_bytes}B blocks, {format_size(self.subarray_bytes)} subarrays)"
        )


@dataclass(frozen=True)
class CacheTiming:
    """Access latencies of a cache level, in cycles."""

    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.hit_latency < 0:
            raise ConfigurationError(f"hit latency must be non-negative, got {self.hit_latency}")


@dataclass(frozen=True)
class L2Config:
    """Unified second-level cache configuration (Table 2: 512K 4-way, 12 cycles)."""

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            capacity_bytes=512 * KIB, associativity=4, block_bytes=64, subarray_bytes=4 * KIB
        )
    )
    hit_latency: int = 12

    def __post_init__(self) -> None:
        if self.hit_latency < 1:
            raise ConfigurationError(f"L2 hit latency must be positive, got {self.hit_latency}")


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory latency model (Table 2: 80 + 5 cycles per 8 bytes)."""

    base_latency: int = 80
    cycles_per_chunk: int = 5
    chunk_bytes: int = 8

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.cycles_per_chunk < 0:
            raise ConfigurationError("memory latencies must be non-negative")
        if self.chunk_bytes < 1:
            raise ConfigurationError("memory transfer chunk must be at least one byte")

    def access_latency(self, transfer_bytes: int) -> int:
        """Latency in cycles to transfer ``transfer_bytes`` from memory."""
        chunks = (transfer_bytes + self.chunk_bytes - 1) // self.chunk_bytes
        return self.base_latency + self.cycles_per_chunk * chunks


class CoreKind(str, Enum):
    """The two processor configurations studied in Section 4.2 of the paper."""

    #: In-order issue engine with a blocking data cache: every L1 miss is
    #: fully exposed on the execution critical path.
    IN_ORDER_BLOCKING = "in-order-blocking"

    #: Out-of-order issue engine with a non-blocking data cache: data-cache
    #: miss latency is largely hidden by instruction-level parallelism while
    #: instruction-cache misses remain exposed.
    OUT_OF_ORDER_NONBLOCKING = "out-of-order-nonblocking"


@dataclass(frozen=True)
class CoreConfig:
    """Processor core parameters (Table 2 defaults).

    Attributes:
        kind: which of the two timing models to use.
        issue_width: instructions issued/decoded per cycle.
        rob_entries: reorder-buffer size (bounds memory-level parallelism).
        lsq_entries: load/store queue size.
        writeback_buffer_entries: number of outstanding writebacks.  Table 2
            text that :meth:`SystemConfig.describe` prints; no write-back
            buffer is simulated (dirty L1 victims go straight to the L2).
        mshr_entries: number of outstanding misses for the non-blocking cache.
        branch_mispredict_penalty: cycles lost per mispredicted branch.
    """

    kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING
    issue_width: int = 4
    rob_entries: int = 64
    lsq_entries: int = 32
    writeback_buffer_entries: int = 8
    mshr_entries: int = 8
    branch_mispredict_penalty: int = 7

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ConfigurationError("issue width must be at least 1")
        for name in ("rob_entries", "lsq_entries", "writeback_buffer_entries", "mshr_entries"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.branch_mispredict_penalty < 0:
            raise ConfigurationError("branch mispredict penalty must be non-negative")

    @property
    def is_out_of_order(self) -> bool:
        """True for the out-of-order, non-blocking configuration."""
        return self.kind is CoreKind.OUT_OF_ORDER_NONBLOCKING


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated-system configuration (Table 2 by default)."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(capacity_bytes=32 * KIB, associativity=2)
    )
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(capacity_bytes=32 * KIB, associativity=2)
    )
    l1_timing: CacheTiming = field(default_factory=CacheTiming)
    l2: L2Config = field(default_factory=L2Config)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    address_bits: int = 32

    def __post_init__(self) -> None:
        if self.address_bits < 16 or self.address_bits > 64:
            raise ConfigurationError(
                f"address width must be between 16 and 64 bits, got {self.address_bits}"
            )

    def with_l1(
        self, *, l1d: CacheGeometry | None = None, l1i: CacheGeometry | None = None
    ) -> "SystemConfig":
        """Return a copy with replacement L1 geometries."""
        return replace(
            self,
            l1d=self.l1d if l1d is None else l1d,
            l1i=self.l1i if l1i is None else l1i,
        )

    def with_core(self, core: CoreConfig) -> "SystemConfig":
        """Return a copy with a different core configuration."""
        return replace(self, core=core)

    def describe(self) -> str:
        """Multi-line description mirroring Table 2 of the paper."""
        lines = [
            f"Issue/decode width      {self.core.issue_width} instrs per cycle",
            f"Core model              {self.core.kind.value}",
            f"ROB / LSQ               {self.core.rob_entries} entries "
            f"/ {self.core.lsq_entries} entries",
            f"writeback buffer / mshr {self.core.writeback_buffer_entries} entries "
            f"/ {self.core.mshr_entries} entries",
            f"Base L1 i-cache         {self.l1i.describe()}; {self.l1_timing.hit_latency} cycle",
            f"Base L1 d-cache         {self.l1d.describe()}; {self.l1_timing.hit_latency} cycle",
            f"L2 unified cache        {self.l2.geometry.describe()}; {self.l2.hit_latency} cycles",
            f"Memory access latency   ({self.memory.base_latency} + {self.memory.cycles_per_chunk} "
            f"per {self.memory.chunk_bytes} bytes) cycles",
        ]
        return "\n".join(lines)
