"""Write-back, write-allocate set-associative cache.

:class:`Cache` is the fixed-geometry building block: the L2 cache uses it
directly and the resizable L1 caches (:mod:`repro.resizing.resizable_cache`)
share its sets, blocks and replacement machinery while adding enable/disable
masks on top.

Architecture note — the packed-outcome kernel
---------------------------------------------
The per-access hot path is :meth:`Cache.access_packed`: an allocation-free
integer kernel.  Set state is packed (``tag -> block_address << 1 | dirty``
ints, see :mod:`repro.cache.cache_set`), the tag/index split is done with
shift/mask locals hoisted at construction time, and the outcome of an access
is returned as one packed int (bit layout below) instead of an
:class:`AccessResult` — zero heap allocations per access, hit or miss.

Packed access-outcome bit layout (``PACKED_*`` constants)::

    bit 0   PACKED_HIT              1 = hit, 0 = miss
    bit 1   PACKED_FILLED           1 = a block was allocated (every miss;
                                    write-allocate)
    bit 2   PACKED_WRITEBACK_VALID  1 = a dirty victim was evicted
    bit 3+  victim's block-aligned address (valid only when bit 2 is set)

:meth:`Cache.access` is a thin wrapper that decodes the packed int into the
historical :class:`AccessResult`; everything off the hot path (tests, the
resize/flush machinery, external callers) keeps the object API and stays
bit-identical by construction.  To add a new cache type that plugs into
:class:`repro.cache.hierarchy.CacheHierarchy`, implement ``access_packed``
with this bit layout (plus ``stats``/``flush_all``); ``access`` can be
``unpack_access_result(self.access_packed(...))``.  The fused replay kernel
also reads the cache's :meth:`Cache._kernel_state`, so an L1 type needs
both, as :class:`repro.resizing.resizable_cache.ResizableCache` has.  The
hierarchy binds ``access_packed`` directly; there is no object-API adapter.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.cache_set import CacheSet, make_selector, selector_seed, wrap_sets
from repro.cache.replacement import ReplacementPolicy
from repro.common.config import CacheGeometry
from repro.mem.address import AddressMapper

#: Packed access-outcome bits (see the module docstring for the layout).
PACKED_HIT = 0b001
PACKED_FILLED = 0b010
PACKED_WRITEBACK_VALID = 0b100
PACKED_WRITEBACK_SHIFT = 3

#: The two outcomes with no writeback address, precomputed.
PACKED_HIT_RESULT = PACKED_HIT
PACKED_MISS_RESULT = PACKED_FILLED


def pack_access_result(
    hit: bool, writeback_address: Optional[int] = None, filled: bool = False
) -> int:
    """Encode an access outcome into the packed-int representation."""
    packed = (PACKED_HIT if hit else 0) | (PACKED_FILLED if filled else 0)
    if writeback_address is not None:
        packed |= PACKED_WRITEBACK_VALID | (writeback_address << PACKED_WRITEBACK_SHIFT)
    return packed


def unpack_access_result(packed: int) -> "AccessResult":
    """Decode a packed access outcome into an :class:`AccessResult`."""
    if packed & PACKED_HIT:
        return AccessResult(hit=True)
    writeback = None
    if packed & PACKED_WRITEBACK_VALID:
        writeback = packed >> PACKED_WRITEBACK_SHIFT
    return AccessResult(
        hit=False, writeback_address=writeback, filled=bool(packed & PACKED_FILLED)
    )


class AccessResult:
    """Outcome of a single cache access (object view of the packed outcome).

    Attributes:
        hit: True when the access hit in the cache.
        writeback_address: block address of a dirty victim evicted to make
            room for the fill, or None when nothing needs to be written back.
        filled: True when the access allocated a new block (always the case
            on a miss for a write-allocate cache).
    """

    __slots__ = ("hit", "writeback_address", "filled")

    def __init__(
        self, hit: bool, writeback_address: Optional[int] = None, filled: bool = False
    ) -> None:
        self.hit = hit
        self.writeback_address = writeback_address
        self.filled = filled

    def __repr__(self) -> str:
        outcome = "hit" if self.hit else "miss"
        return f"AccessResult({outcome}, writeback={self.writeback_address}, filled={self.filled})"


class CacheStats:
    """Plain-integer counters kept directly on the cache for speed."""

    __slots__ = (
        "accesses",
        "hits",
        "misses",
        "reads",
        "writes",
        "read_misses",
        "write_misses",
        "writebacks",
        "fills",
        "invalidations",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.reads = 0
        self.writes = 0
        self.read_misses = 0
        self.write_misses = 0
        self.writebacks = 0
        self.fills = 0
        self.invalidations = 0

    @property
    def miss_ratio(self) -> float:
        """misses / accesses (0.0 when the cache has not been accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def as_dict(self) -> dict:
        """Export the counters as a plain dictionary."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"CacheStats(accesses={self.accesses}, misses={self.misses}, "
            f"miss_ratio={self.miss_ratio:.4f})"
        )


class Cache:
    """A conventional write-back, write-allocate set-associative cache."""

    def __init__(
        self,
        geometry: CacheGeometry,
        replacement: ReplacementPolicy = ReplacementPolicy.LRU,
        name: str = "cache",
    ) -> None:
        self.geometry = geometry
        self.name = name
        self.replacement = ReplacementPolicy.parse(replacement)
        # Per-cache seed: two caches (l1i/l1d/l2) never share one victim
        # stream under RANDOM replacement.
        self._selector = make_selector(self.replacement, seed=selector_seed(name))
        self._mapper = AddressMapper(geometry.block_bytes, geometry.num_sets)
        # Kernel locals: the tag/index split as plain shift/mask ints, the
        # per-set packed dicts as a flat list (dict objects are stable for
        # the cache's lifetime), and the replacement mode flags.  Only the
        # dicts exist up front; the CacheSet wrapper objects — needed by
        # nothing on the hot path — materialise lazily via the ``_sets``
        # property.  A fused ladder builds K hierarchies (each with a
        # four-digit-set L2) per job, so eager wrappers are a measurable
        # construction tax for objects most runs never touch.
        self._set_blocks = [{} for _ in range(geometry.num_sets)]
        self._sets_built: Optional[List[CacheSet]] = None
        self.stats = CacheStats()
        self._offset_bits, self._index_bits, self._set_mask = self._mapper.shift_mask()
        self._ways = geometry.associativity
        self._refresh_on_hit = self._selector.refreshes_on_hit
        self._random_victims = self.replacement is ReplacementPolicy.RANDOM

    @property
    def _sets(self) -> List[CacheSet]:
        """CacheSet wrappers over the live packed dicts, built on first use."""
        sets = self._sets_built
        if sets is None:
            sets = self._sets_built = wrap_sets(
                self._ways, self._selector, self._set_blocks
            )
        return sets

    @_sets.setter
    def _sets(self, value: List[CacheSet]) -> None:
        # Subclasses (the resizable caches) construct their sets eagerly —
        # they genuinely resize them — and assign through here.
        self._sets_built = value

    def _kernel_state(self):
        """The access kernel's hoistable state, as one flat tuple.

        ``(stats, set_blocks, offset_bits, index_bits, set_mask, ways,
        refresh_on_hit, random_victims, selector)`` — everything
        :meth:`access_packed` reads per access.  The dispatch kernel in
        :mod:`repro.sim.ladder` (and the pilot builder in
        :mod:`repro.sim.predecode`) hoist these into locals once per
        interval and run the access inline (stat deltas
        are accumulated locally and flushed into ``stats`` before the
        interval closes, so anything observing stats at interval
        boundaries sees exactly the per-call kernel's values).  The tuple
        is only valid until the geometry changes — for this fixed cache,
        forever; the resizable override re-derives it after each resize,
        which is why callers must re-fetch it every interval.
        """
        return (
            self.stats, self._set_blocks, self._offset_bits, self._index_bits,
            self._set_mask, self._ways, self._refresh_on_hit,
            self._random_victims, self._selector,
        )

    # ------------------------------------------------------------------ access
    def access_packed(self, address: int, is_write: bool = False) -> int:
        """Allocation-free access kernel; returns a packed outcome int.

        Same semantics as :meth:`access` (write-allocate, immediate fill on
        miss, dirty victim reported for writeback) with the outcome encoded
        in the ``PACKED_*`` bit layout — no objects are created, hit or
        miss.
        """
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        block = address >> self._offset_bits
        tag = block >> self._index_bits
        blocks = self._set_blocks[block & self._set_mask]
        packed = blocks.get(tag)
        if packed is not None:
            stats.hits += 1
            if is_write:
                packed |= 1
                if self._refresh_on_hit:
                    del blocks[tag]
                blocks[tag] = packed
            elif self._refresh_on_hit:
                del blocks[tag]
                blocks[tag] = packed
            return PACKED_HIT_RESULT

        stats.misses += 1
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1

        victim = None
        if len(blocks) >= self._ways:
            if self._random_victims:
                victim_tag = self._selector.choose_victim(blocks)
            else:
                victim_tag = next(iter(blocks))
            victim = blocks.pop(victim_tag)
        # block << offset_bits is the block-aligned address; the packed
        # block representation is (block_address << 1) | dirty.
        blocks[tag] = (block << (self._offset_bits + 1)) | (1 if is_write else 0)
        stats.fills += 1
        if victim is not None and victim & 1:
            stats.writebacks += 1
            return (
                PACKED_FILLED
                | PACKED_WRITEBACK_VALID
                | ((victim >> 1) << PACKED_WRITEBACK_SHIFT)
            )
        return PACKED_MISS_RESULT

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform a load or store access (object wrapper over the kernel).

        On a miss the block is allocated immediately (write-allocate); if a
        dirty victim is displaced its block address is reported in the
        result so the caller can forward the writeback to the next level.
        """
        return unpack_access_result(self.access_packed(address, is_write))

    def probe(self, address: int) -> bool:
        """Return True when ``address`` is resident, without updating any state."""
        tag, index = self._mapper.split(address)
        return tag in self._set_blocks[index]

    def invalidate(self, address: int) -> Optional[int]:
        """Invalidate a block; returns its address if it was dirty (needs writeback)."""
        tag, index = self._mapper.split(address)
        victim = self._set_blocks[index].pop(tag, None)
        if victim is None:
            return None
        self.stats.invalidations += 1
        if victim & 1:
            self.stats.writebacks += 1
            return victim >> 1
        return None

    def flush_all(self) -> List[int]:
        """Invalidate the whole cache; returns addresses of dirty blocks written back."""
        dirty_addresses: List[int] = []
        stats = self.stats
        for blocks in self._set_blocks:
            for packed in blocks.values():
                stats.invalidations += 1
                if packed & 1:
                    stats.writebacks += 1
                    dirty_addresses.append(packed >> 1)
            blocks.clear()
        return dirty_addresses

    # ------------------------------------------------------------ introspection
    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.geometry.num_sets

    @property
    def associativity(self) -> int:
        """Number of ways in the cache."""
        return self.geometry.associativity

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.geometry.capacity_bytes

    def resident_blocks(self) -> int:
        """Total number of valid blocks currently resident."""
        return sum(len(blocks) for blocks in self._set_blocks)

    def reset_stats(self) -> None:
        """Zero all counters without touching cache contents."""
        self.stats.reset()

    def __repr__(self) -> str:
        return f"Cache({self.name}, {self.geometry.describe()})"
