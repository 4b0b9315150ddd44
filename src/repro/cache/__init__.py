"""Conventional (non-resizable) cache substrate.

This package implements the RAM-tag set-associative caches the paper builds
on: replacement policies, cache sets, SRAM subarray book-keeping, a
write-back/write-allocate cache and the two-level
hierarchy (L1 instruction + data caches over a unified L2 over main memory).

The per-access hot path is an allocation-free packed-integer kernel
(``access_packed`` on the caches, ``data_access_packed`` /
``instruction_fetch_packed`` on the hierarchy); the object-returning APIs
are thin wrappers over it.  See :mod:`repro.cache.cache` and
:mod:`repro.cache.hierarchy` for the packed bit layouts.
"""

from repro.cache.replacement import ReplacementPolicy
from repro.cache.cache_set import CacheSet
from repro.cache.subarray import SubarrayMap
from repro.cache.cache import (
    AccessResult,
    Cache,
    CacheStats,
    pack_access_result,
    unpack_access_result,
)
from repro.cache.hierarchy import (
    CacheHierarchy,
    HierarchyAccessOutcome,
    unpack_hierarchy_outcome,
)

__all__ = [
    "ReplacementPolicy",
    "CacheSet",
    "SubarrayMap",
    "AccessResult",
    "Cache",
    "CacheStats",
    "CacheHierarchy",
    "HierarchyAccessOutcome",
    "pack_access_result",
    "unpack_access_result",
    "unpack_hierarchy_outcome",
]
