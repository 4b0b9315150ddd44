"""The trace-driven processor simulator (orchestration shell).

The simulator replays a :class:`repro.workloads.trace.Trace` against a
two-level cache hierarchy, chops execution into fixed-length instruction
intervals, and for each interval

1. asks the core timing model for the interval's cycles,
2. asks the energy accountant for the interval's energy breakdown (which
   depends on how many subarrays each L1 currently has enabled), and
3. gives each resizing strategy the interval's access/miss counts so the
   miss-ratio based dynamic framework can upsize or downsize.

Resizing flushes are routed into the L2 and charged to the following
interval, so the energy and delay costs of resizing the paper discusses in
Section 3 are all accounted for.

The shell here builds each run's accounting state and aggregates its
result; a pluggable, bit-identical :class:`~repro.sim.engine.ReplayEngine`
(:mod:`repro.sim.engine`) walks the trace.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.subarray import SubarrayMap
from repro.common.config import CacheGeometry, SystemConfig
from repro.common.errors import ResizingError, SimulationError
from repro.common.units import format_size
from repro.cpu.core_model import make_core_model
from repro.cpu.timing import CoreTimingParameters
from repro.energy.accounting import EnergyAccountant
from repro.energy.technology import TechnologyParameters
from repro.resizing.organization import ResizingOrganization, SizeConfig, make_config
from repro.resizing.resizable_cache import ResizableCache
from repro.resizing.strategy import ResizingStrategy
from repro.sim.engine import ReplayContext, ReplayEngine, get_engine
from repro.sim.predecode import MAX_ROWS
from repro.sim.results import SimulationResult
from repro.workloads.trace import Trace

#: Engine arguments the simulator accepts: a registry name, a live engine,
#: or None for the session default (see :data:`repro.sim.engine.DEFAULT_ENGINE`).
EngineLike = Union[str, ReplayEngine, None]

#: Per-process memo of fetch-block masks keyed by block size.
#:
#: Invariant (required for multiprocessing safety): the memo is append-only,
#: its values are immutable ints, and it is never shared between processes —
#: under ``fork`` each sweep worker inherits a snapshot and then diverges,
#: under ``spawn`` each worker starts empty.  Entries are never removed or
#: rewritten, so a stale read can at worst recompute a value that is equal
#: by construction.  Do not clear or mutate entries in place.
_BLOCK_MASK_CACHE: dict = {}


def _block_mask(block_bytes: int) -> int:
    """The address mask selecting the fetch block for ``block_bytes`` blocks."""
    mask = _BLOCK_MASK_CACHE.get(block_bytes)
    if mask is None:
        mask = ~(block_bytes - 1)
        _BLOCK_MASK_CACHE[block_bytes] = mask
    return mask


def _ratio_stderr(pairs) -> float:
    """Standard error of a miss ratio estimated from sampled intervals.

    ``pairs`` is one ``(misses, accesses)`` tuple per measured interval.
    The aggregate miss ratio is a ratio estimator ``R = Σm / Σa``; its
    standard error comes from Taylor linearisation over the per-interval
    residuals ``m_i - R·a_i`` (the textbook ratio-estimator variance —
    derivation and caveats in ``docs/SAMPLING.md``).  Degenerate inputs
    (fewer than two intervals, or no accesses at all) report 0.0: there is
    no dispersion to estimate, not an infinitely confident estimate.
    """
    k = len(pairs)
    total_accesses = sum(a for _, a in pairs)
    if k < 2 or total_accesses == 0:
        return 0.0
    ratio = sum(m for m, _ in pairs) / total_accesses
    mean_accesses = total_accesses / k
    residual_ss = sum((m - ratio * a) ** 2 for m, a in pairs)
    return math.sqrt(residual_ss / (k - 1) / k) / mean_accesses


class L1Setup:
    """How one L1 cache is configured for a run.

    ``organization=None`` builds a conventional non-resizable cache (the
    baseline every figure normalises against); otherwise a
    :class:`ResizableCache` with the given organization is built and the
    strategy decides when it resizes.
    """

    def __init__(
        self,
        organization: Optional[ResizingOrganization] = None,
        strategy: Optional[ResizingStrategy] = None,
    ) -> None:
        if organization is None and strategy is not None:
            raise SimulationError("a resizing strategy requires a resizing organization")
        self.organization = organization
        self.strategy = strategy

    @property
    def is_resizable(self) -> bool:
        """True when this setup builds a resizable cache."""
        return self.organization is not None

    def check_geometry(self, geometry: CacheGeometry, name: str) -> None:
        """Reject an organization built for another geometry than ``name``'s."""
        if self.organization is not None and self.organization.geometry != geometry:
            raise SimulationError(
                f"organization geometry {self.organization.geometry.describe()} does not "
                f"match the system's {name} geometry {geometry.describe()}"
            )

    def build(self, geometry: CacheGeometry, name: str):
        """Instantiate the cache object for this setup."""
        if self.organization is None:
            return Cache(geometry, name=name)
        self.check_geometry(geometry, name)
        return ResizableCache(geometry, self.organization, name=name)

    def describe(self) -> str:
        """Short label, e.g. ``"selective-sets/static"`` or ``"fixed"``."""
        if self.organization is None:
            return "fixed"
        strategy_name = self.strategy.name if self.strategy is not None else "none"
        return f"{self.organization.name}/{strategy_name}"


class _L1Runtime:
    """Book-keeping the simulator keeps per L1 cache during a run.

    What the interval close reads is computed from the setup once, and
    again at each resize: the enabled ``config`` (the full geometry for a
    fixed cache), its subarray state, ways, sets and capacity, and the
    extra tag bits.  So are the ``resize_count`` and ``flush_writebacks``
    the result reports (a cold cache's jump to its initial configuration
    is one resize that flushes nothing).  The cache object is built only
    when a replay drives it (:attr:`cache`).
    """

    def __init__(self, setup: L1Setup, geometry: CacheGeometry, name: str) -> None:
        setup.check_geometry(geometry, name)
        self.setup = setup
        self.geometry = geometry
        self.name = name
        self.is_resizable = setup.is_resizable
        self.strategy = setup.strategy
        self._cache = None
        self.capacity_weight = 0.0  # sum of capacity * instructions
        self.resize_count = self.flush_writebacks = 0
        self._subarrays = SubarrayMap(geometry)
        organization = setup.organization
        self.resizing_tag_bits = 0 if organization is None else organization.resizing_tag_bits
        config = make_config(geometry.associativity, geometry.num_sets, geometry.block_bytes)
        if organization is not None:
            config = organization.full_config
        if self.strategy is not None:
            self.strategy.bind(organization)
            initial = self.strategy.initial_config()
            if initial is not None and initial != config:
                if not organization.contains(initial):
                    raise ResizingError(
                        f"{organization.name} does not offer {initial.label} "
                        f"for {geometry.describe()}"
                    )
                config = initial
                self.resize_count = 1
        self._set_config(config)

    def _set_config(self, config: SizeConfig) -> None:
        self.config = config
        self.enabled_ways = config.ways
        self.enabled_sets = config.sets
        self.current_capacity = float(config.capacity_bytes)
        self.subarray_state = self._subarrays.subarrays_for(config.ways, config.sets)

    @property
    def cache(self):
        """The cache object, built cold at the current configuration on first use."""
        cache = self._cache
        if cache is None:
            cache = self._cache = self.setup.build(self.geometry, self.name)
            if self.is_resizable and self.config != cache.current_config:
                cache.resize_to(self.config)
        return cache

    @property
    def label(self) -> str:
        """Label describing the cache configuration for reports."""
        base = f"{format_size(self.geometry.capacity_bytes)} {self.geometry.associativity}-way"
        return f"{base} ({self.setup.describe()})"

    def observe_interval(self, hierarchy: Optional[CacheHierarchy], accesses: int,
                         misses: int) -> int:
        """Run the strategy for one interval; returns flush-writeback count.

        Flushed dirty blocks go into ``hierarchy``'s L2 if it has one.
        """
        if self.strategy is None:
            return 0
        decision = self.strategy.observe_interval(accesses, misses, self.config)
        if decision is None or decision == self.config:
            return 0
        writebacks = self.cache.resize_to(decision).writeback_addresses
        self._set_config(decision)
        self.resize_count += 1
        self.flush_writebacks += len(writebacks)
        if writebacks and hierarchy is not None and hierarchy.l2 is not None:
            hierarchy.absorb_l1_writebacks(writebacks)
        return len(writebacks)


def validate_run(trace: Trace, interval_instructions: int, sample_every: int,
                 sample_warmup: int) -> None:
    """Reject run parameters no replay can honour (shared with fused ladders)."""
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    if len(trace) >= MAX_ROWS:
        raise SimulationError(
            f"cannot simulate a trace of {len(trace)} instructions: the replay "
            f"decode holds at most {MAX_ROWS - 1}"
        )
    if interval_instructions < 1:
        raise SimulationError("interval length must be at least one instruction")
    if sample_every < 1:
        raise SimulationError("sample_every must be at least 1")
    if sample_warmup < 0:
        raise SimulationError("sample_warmup cannot be negative")


class Simulator:
    """Replays traces against a configured system and produces results."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        technology: Optional[TechnologyParameters] = None,
        timing: Optional[CoreTimingParameters] = None,
        engine: EngineLike = None,
    ) -> None:
        self.system = system if system is not None else SystemConfig()
        self.technology = technology if technology is not None else TechnologyParameters()
        self.timing = timing if timing is not None else CoreTimingParameters()
        #: Default replay engine for this simulator's runs (name, instance,
        #: or None for the package default).  Validated eagerly so a typo
        #: fails at construction, not mid-sweep.
        self.engine = engine
        get_engine(engine)

    def run(
        self,
        trace: Trace,
        d_setup: Optional[L1Setup] = None,
        i_setup: Optional[L1Setup] = None,
        interval_instructions: int = 1500,
        warmup_instructions: int = 0,
        engine: EngineLike = None,
        sample_every: int = 1,
        sample_warmup: int = 0,
    ) -> SimulationResult:
        """Simulate ``trace`` and return the aggregated result.

        Args:
            trace: the instruction trace to replay.
            d_setup / i_setup: L1 configurations (None = non-resizable).
            interval_instructions: interval length for timing, energy and
                resizing decisions.
            warmup_instructions: leading instructions excluded from the
                reported statistics (they still warm the caches and drive
                resizing decisions).
            engine: replay engine override for this run (name or instance);
                None uses the simulator's engine, which itself defaults to
                the package default.  All engines are bit-identical — the
                choice affects speed only.
            sample_every: simulate only every Nth interval (1 = exhaustive).
                Sampled runs report per-interval miss-ratio standard errors
                in the result; methodology in ``docs/SAMPLING.md``.
            sample_warmup: instructions replayed (but not measured) before
                each sampled interval to re-warm cache and predictor state.
        """
        validate_run(trace, interval_instructions, sample_every, sample_warmup)
        replay_engine = get_engine(engine if engine is not None else self.engine)
        context = self._prepare_run(
            trace, d_setup, i_setup, interval_instructions, warmup_instructions,
            sample_every=sample_every, sample_warmup=sample_warmup,
        )
        replay_engine.replay(trace, context)
        return self._finalize_run(context)

    def _prepare_run(
        self,
        trace: Trace,
        d_setup: Optional[L1Setup],
        i_setup: Optional[L1Setup],
        interval_instructions: int,
        warmup_instructions: int,
        sample_every: int = 1,
        sample_warmup: int = 0,
    ) -> ReplayContext:
        """Build one run's accounting state and :class:`ReplayContext`.

        Everything :meth:`run` constructs before handing control to the
        replay engine lives here so the fused ladder path
        (:mod:`repro.sim.ladder`) can build K independent contexts against
        the *same* trace and replay them all from one decode pass.  Only
        accounting state is built here: each L1's runtime, the core model,
        the energy accountant and the result.  The context builds its
        caches, hierarchy and predictor when a replay first uses them.
        The caller is responsible for :func:`validate_run` (the fused path
        validates once for the whole ladder).
        """
        system = self.system
        d_runtime = _L1Runtime(
            d_setup if d_setup is not None else L1Setup(), system.l1d, "l1d"
        )
        i_runtime = _L1Runtime(
            i_setup if i_setup is not None else L1Setup(), system.l1i, "l1i"
        )
        accountant = EnergyAccountant(
            system,
            self.technology,
            l1d_resizing_tag_bits=d_runtime.resizing_tag_bits,
            l1i_resizing_tag_bits=i_runtime.resizing_tag_bits,
        )

        result = SimulationResult(
            workload=trace.name,
            core_kind=system.core.kind.value,
            l1d_label=d_runtime.label,
            l1i_label=i_runtime.label,
            full_l1d_capacity=system.l1d.capacity_bytes,
            full_l1i_capacity=system.l1i.capacity_bytes,
        )

        context = ReplayContext(
            system=system,
            core_model=make_core_model(system, self.timing),
            accountant=accountant,
            d_runtime=d_runtime,
            i_runtime=i_runtime,
            result=result,
            interval_instructions=interval_instructions,
            warmup_instructions=warmup_instructions,
            block_mask=_block_mask(system.l1i.block_bytes),
            memory_level_parallelism=trace.memory_level_parallelism,
            sample_every=sample_every,
            sample_warmup=sample_warmup,
        )
        context.total_intervals = (
            len(trace) + interval_instructions - 1
        ) // interval_instructions
        return context

    @staticmethod
    def _finalize_run(context: ReplayContext) -> SimulationResult:
        """Aggregate a replayed context into its :class:`SimulationResult`.

        The exact tail of the historical ``run`` method, split out so the
        fused ladder path finalizes each of its contexts identically.
        """
        d_runtime = context.d_runtime
        i_runtime = context.i_runtime
        result = context.result
        result.instructions = context.measured_instructions
        result.cycles = context.measured_cycles
        if context.measured_instructions > 0:
            result.average_l1d_capacity = (
                d_runtime.capacity_weight / context.measured_instructions
            )
            result.average_l1i_capacity = (
                i_runtime.capacity_weight / context.measured_instructions
            )
        if d_runtime.is_resizable:
            result.l1d_resizes = d_runtime.resize_count
            result.l1d_flush_writebacks = d_runtime.flush_writebacks
        if i_runtime.is_resizable:
            result.l1i_resizes = i_runtime.resize_count
            result.l1i_flush_writebacks = i_runtime.flush_writebacks
        if context.sample_every > 1:
            samples = context.interval_samples
            result.sample_every = context.sample_every
            result.sample_warmup = context.sample_warmup
            result.total_intervals = context.total_intervals
            result.sampled_intervals = len(samples)
            result.l1d_miss_ratio_stderr = _ratio_stderr(
                [(misses, accesses) for accesses, misses, _, _ in samples]
            )
            result.l1i_miss_ratio_stderr = _ratio_stderr(
                [(misses, accesses) for _, _, accesses, misses in samples]
            )
        return result
