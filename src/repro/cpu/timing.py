"""Core timing parameters.

The interval timing models need a handful of parameters beyond the
structural core configuration: base CPIs and the miss-latency exposure
factors that distinguish the blocking in-order pipeline from the
non-blocking out-of-order one.  They are collected here with documented
defaults so sensitivity studies can vary them in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class CoreTimingParameters:
    """Tunable constants of the interval timing models.

    Attributes:
        inorder_base_cpi: cycles per instruction of the in-order pipeline in
            the absence of cache misses and mispredictions.
        ooo_base_cpi: same for the out-of-order pipeline (lower, because the
            4-wide OoO engine extracts instruction-level parallelism).
        inorder_dcache_exposure: fraction of data-miss latency exposed on the
            critical path of the in-order, *blocking* d-cache pipeline
            (1.0: every miss stalls the core for its full latency).
        ooo_dcache_exposure: fraction of data-miss latency exposed on the
            out-of-order, *non-blocking* pipeline before memory-level
            parallelism is applied.
        ooo_icache_exposure: fraction of instruction-miss latency exposed on
            the out-of-order pipeline (fetch stalls are hard to hide).
        inorder_icache_exposure: same for the in-order pipeline; slightly
            lower than the d-cache exposure there because fetch runs ahead
            of a frequently-stalled back end.
    """

    inorder_base_cpi: float = 1.0
    ooo_base_cpi: float = 0.55
    inorder_dcache_exposure: float = 1.0
    ooo_dcache_exposure: float = 0.30
    ooo_icache_exposure: float = 0.95
    inorder_icache_exposure: float = 0.70

    def __post_init__(self) -> None:
        if self.inorder_base_cpi <= 0 or self.ooo_base_cpi <= 0:
            raise ConfigurationError("base CPI values must be positive")
        for name in (
            "inorder_dcache_exposure",
            "ooo_dcache_exposure",
            "ooo_icache_exposure",
            "inorder_icache_exposure",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
