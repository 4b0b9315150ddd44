"""Base class and factory for the interval core timing models."""

from __future__ import annotations

from repro.common.config import CoreConfig, CoreKind, SystemConfig
from repro.common.errors import ConfigurationError
from repro.cpu.timing import CoreTimingParameters
from repro.metrics.counts import IntervalCounts


class CoreModel:
    """Turns an interval's activity counts into an execution-time estimate.

    Subclasses implement :meth:`interval_cycles`.  The shared helpers compute
    the L2-hit and memory portions of miss latency so the two models only
    differ in how much of that latency they expose.
    """

    def __init__(self, config: SystemConfig, timing: CoreTimingParameters | None = None) -> None:
        self.config = config
        self.core: CoreConfig = config.core
        self.timing = timing if timing is not None else CoreTimingParameters()
        self._l2_latency = config.l2.hit_latency
        self._memory_latency = config.memory.access_latency(config.l2.geometry.block_bytes)

    # ----------------------------------------------------------------- shared
    def _dcache_miss_latency(self, counts: IntervalCounts) -> float:
        """Total latency (cycles) of the interval's data-side misses, unexposed."""
        l2_portion = counts.l1d_misses * self._l2_latency
        memory_portion = counts.l1d_memory_accesses * self._memory_latency
        return l2_portion + memory_portion

    def _icache_miss_latency(self, counts: IntervalCounts) -> float:
        """Total latency (cycles) of the interval's instruction-side misses."""
        l2_portion = counts.l1i_misses * self._l2_latency
        memory_portion = counts.l1i_memory_accesses * self._memory_latency
        return l2_portion + memory_portion

    def _frontend_cycles(self, counts: IntervalCounts) -> int:
        """Branch misprediction stall cycles."""
        return counts.branch_mispredicts * self.core.branch_mispredict_penalty

    # ------------------------------------------------------------- to override
    def interval_cycles(self, counts: IntervalCounts) -> float:
        """Estimated execution time of the interval, in cycles."""
        raise NotImplementedError

    @property
    def kind(self) -> CoreKind:
        """Which core configuration this model implements."""
        raise NotImplementedError


def make_core_model(config: SystemConfig, timing: CoreTimingParameters | None = None) -> CoreModel:
    """Instantiate the core model matching ``config.core.kind``."""
    from repro.cpu.inorder import InOrderCore
    from repro.cpu.ooo import OutOfOrderCore

    if config.core.kind is CoreKind.IN_ORDER_BLOCKING:
        return InOrderCore(config, timing)
    if config.core.kind is CoreKind.OUT_OF_ORDER_NONBLOCKING:
        return OutOfOrderCore(config, timing)
    raise ConfigurationError(f"unknown core kind {config.core.kind!r}")
