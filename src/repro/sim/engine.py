"""Pluggable replay engines: the simulator's per-instruction hot loop.

:class:`repro.sim.simulator.Simulator` is split into a thin orchestration
shell (build each run's accounting state, aggregate the final result) and
a *replay engine* that owns the only per-instruction code in the project;
the :class:`ReplayContext` between them builds its caches on first use.
Engines are interchangeable and must be **bit-identical**: for any trace
and setup, every engine produces exactly the same
:class:`~repro.sim.results.SimulationResult` (``to_dict()`` equality is
enforced by the cross-engine equivalence suite in
``tests/sim/test_engines.py`` and ``tests/properties/test_property_engines.py``).

Two engines ship:

* :class:`ReferenceEngine` — the historical per-record loop: iterate the
  trace's row view, unpack one :class:`InstructionRecord` per instruction.
  Kept as the executable specification (the one oracle) every fast path is
  checked against.
* :class:`ColumnarEngine` (the default) — a single run is a one-rung fused
  ladder (:mod:`repro.sim.ladder`): each segment's cache-operation stream
  is an O(1) slice of the memoized decode of the rows the run's plan
  replays (:mod:`repro.sim.predecode`, branches resolved against a replica
  of the fresh predictor), and one dispatch kernel
  (:func:`repro.sim.ladder.dispatch_cache_ops_fast`) runs each access
  inline against hoisted kernel state, where the reference engine
  exercises the object-returning wrapper path.

Engine selection: ``Simulator(engine=...)`` / ``Simulator.run(engine=...)``
accept an engine name or instance; :class:`~repro.sim.runner.SimJob` carries
the name so sweeps replay with the engine the caller chose (CLI:
``--engine {reference,columnar}``).  Job-layer ladders fuse only under
``columnar``; any other engine replays each rung as its own run (see
:func:`repro.sim.runner.execute_ladder_job`).  Custom engines register
with :func:`register_engine`.

Interval semantics live in :class:`ReplayContext.close_interval`, shared by
every engine, so timing/energy aggregation, warmup accounting and resizing
decisions cannot drift between implementations — an engine only decides how
to walk the trace and feed the caches/predictor in program order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Type, Union

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.cpu.branch import BimodalBranchPredictor
from repro.metrics.counts import IntervalCounts
from repro.workloads.trace import Trace


def sampling_plan(n, interval_instructions, sample_every, sample_warmup):
    """The segment schedule of a run: the row ranges it replays, in order.

    Only every Nth interval of the trace is simulated (interval 0, N, 2N,
    …), each optionally preceded by a warmup prefix of up to
    ``sample_warmup`` instructions replayed to re-warm cache and predictor
    state but excluded from all statistics — the SimPoint-style scheme
    documented in ``docs/SAMPLING.md``.  Returns a list of ``(start, stop,
    measured)`` row ranges in replay order; unmentioned rows are skipped
    entirely.  Warmup ranges are pre-split into chunks of at most
    ``interval_instructions`` rows, so no segment is longer than an
    interval.

    With ``sample_every`` 1 (or less) the plan is exhaustive: every
    interval, contiguous and measured — a warmup has no gap to re-warm.
    """
    segments = []
    prev_end = 0
    index = 0
    start = 0
    while start < n:
        stop = start + interval_instructions
        if stop > n:
            stop = n
        if sample_every <= 1 or index % sample_every == 0:
            warm = max(prev_end, start - sample_warmup)
            while warm < start:
                warm_stop = min(warm + interval_instructions, start)
                segments.append((warm, warm_stop, False))
                warm = warm_stop
            segments.append((start, stop, True))
            prev_end = stop
        start = stop
        index += 1
    return segments


class ReplayContext:
    """Everything an engine needs to replay one run, plus interval closing.

    Built by the simulator shell per run.  Engines mutate :attr:`counts`
    (the open interval's accumulator), keep :attr:`total_seen` current, and
    call :meth:`close_interval` at every interval boundary; the context owns
    the timing/energy aggregation, warmup bookkeeping and resizing decisions
    so those are identical across engines by construction.

    Its hierarchy and branch predictor are built on first use, so a
    fused-ladder rung that drives no cache never builds them.
    """

    __slots__ = (
        "system", "_hierarchy", "_predictor", "core_model", "accountant",
        "d_runtime", "i_runtime", "result",
        "interval_instructions", "warmup_instructions", "block_mask", "mlp",
        "counts", "total_seen", "measured_instructions", "measured_cycles",
        "sample_every", "sample_warmup", "total_intervals", "interval_samples",
    )

    def __init__(
        self,
        system,
        core_model,
        accountant,
        d_runtime,
        i_runtime,
        result,
        interval_instructions: int,
        warmup_instructions: int,
        block_mask: int,
        memory_level_parallelism: float,
        sample_every: int = 1,
        sample_warmup: int = 0,
    ) -> None:
        self.system = system
        self._hierarchy = None
        self._predictor = None
        self.core_model = core_model
        self.accountant = accountant
        self.d_runtime = d_runtime
        self.i_runtime = i_runtime
        self.result = result
        self.interval_instructions = interval_instructions
        self.warmup_instructions = warmup_instructions
        self.block_mask = block_mask
        self.mlp = memory_level_parallelism
        self.counts = IntervalCounts(memory_level_parallelism=memory_level_parallelism)
        self.total_seen = 0
        self.measured_instructions = 0
        self.measured_cycles = 0.0
        self.sample_every = sample_every
        self.sample_warmup = sample_warmup
        self.total_intervals = 0
        #: Per measured interval (sampling only): (l1d_accesses, l1d_misses,
        #: l1i_accesses, l1i_misses) — the raw material of the error bars.
        self.interval_samples = []

    @property
    def hierarchy(self) -> CacheHierarchy:
        """The run's cache hierarchy (see :meth:`build_hierarchy`)."""
        return self.build_hierarchy()

    def build_hierarchy(self, with_l2: bool = True) -> CacheHierarchy:
        """The run's hierarchy over its two L1 caches, built on the first call.

        ``with_l2=False`` leaves the L2 and memory out; a later call returns
        the hierarchy the first one built, whatever it asks for.
        """
        if self._hierarchy is None:
            l1i, l1d = self.i_runtime.cache, self.d_runtime.cache
            self._hierarchy = CacheHierarchy(self.system, l1i, l1d, with_l2=with_l2)
        return self._hierarchy

    @property
    def predictor(self):
        """The run's branch predictor, a fresh default one unless set."""
        if self._predictor is None:
            self._predictor = BimodalBranchPredictor()
        return self._predictor

    @predictor.setter
    def predictor(self, predictor) -> None:
        self._predictor = predictor

    def sampling_plan(self, n: int):
        """The segment schedule of an ``n``-row trace (see :func:`sampling_plan`)."""
        return sampling_plan(
            n, self.interval_instructions, self.sample_every, self.sample_warmup
        )

    def close_interval(self, final: bool = False) -> None:
        """Close the open interval: timing, energy, warmup, resizing.

        Mirrors the pre-split ``Simulator.run`` inner function exactly: a
        non-final close lets each L1's strategy observe the interval and
        charges any resulting flush writebacks to the *next* interval; the
        final close only aggregates.
        """
        counts = self.counts
        if counts.instructions == 0:
            return
        d_runtime, i_runtime, result = self.d_runtime, self.i_runtime, self.result
        cycles = self.core_model.interval_cycles(counts)
        breakdown = self.accountant.interval_breakdown(
            counts,
            cycles,
            l1d_state=d_runtime.subarray_state,
            l1d_ways=d_runtime.enabled_ways,
            l1i_state=i_runtime.subarray_state,
            l1i_ways=i_runtime.enabled_ways,
        )
        in_warmup = self.total_seen <= self.warmup_instructions
        if not in_warmup:
            if self.sample_every > 1:
                self.interval_samples.append((
                    counts.l1d_accesses, counts.l1d_misses,
                    counts.l1i_accesses, counts.l1i_misses,
                ))
            self.measured_instructions += counts.instructions
            self.measured_cycles += cycles
            result.energy.add(breakdown)
            result.l1d_accesses += counts.l1d_accesses
            result.l1d_misses += counts.l1d_misses
            result.l1i_accesses += counts.l1i_accesses
            result.l1i_misses += counts.l1i_misses
            result.l2_accesses += counts.l2_accesses
            result.l2_misses += counts.memory_accesses
            result.branch_mispredicts += counts.branch_mispredicts
            d_runtime.capacity_weight += d_runtime.current_capacity * counts.instructions
            i_runtime.capacity_weight += i_runtime.current_capacity * counts.instructions

        if not final:
            d_flush = d_runtime.observe_interval(
                self._hierarchy, counts.l1d_accesses, counts.l1d_misses
            )
            i_flush = i_runtime.observe_interval(
                self._hierarchy, counts.l1i_accesses, counts.l1i_misses
            )
            counts = IntervalCounts(memory_level_parallelism=self.mlp)
            self.counts = counts
            if d_flush or i_flush:
                counts.resize_flush_writebacks = d_flush + i_flush
                counts.l2_accesses += d_flush + i_flush

    def discard_interval(self) -> None:
        """Drop the open accumulator after replaying a warmup segment.

        Warmup segments of a sampled replay feed the caches and the branch
        predictor (state warms up) but contribute nothing to statistics,
        timing, energy or resizing decisions — they never reach
        :meth:`close_interval`.  The one thing preserved is a resize-flush
        charge carried in from the previous measured interval's close: those
        writebacks are real L2 traffic owed to the *next measured* interval,
        so they survive the discard (see ``docs/SAMPLING.md``).
        """
        carried = self.counts.resize_flush_writebacks
        counts = IntervalCounts(memory_level_parallelism=self.mlp)
        if carried:
            counts.resize_flush_writebacks = carried
            counts.l2_accesses += carried
        self.counts = counts


class ReplayEngine(ABC):
    """Strategy interface for the simulator's per-instruction replay loop."""

    #: Registry name; also what :class:`~repro.sim.runner.SimJob` records.
    name: str = ""

    @abstractmethod
    def replay(self, trace: Trace, ctx: ReplayContext) -> None:
        """Replay ``trace`` through ``ctx``'s hierarchy and predictor.

        Contract: feed every L1i fetch, branch and data access in program
        order, keep ``ctx.counts``/``ctx.total_seen`` current, call
        ``ctx.close_interval()`` after every ``ctx.interval_instructions``
        instructions and ``ctx.close_interval(final=True)`` once at the end.
        """


class ReferenceEngine(ReplayEngine):
    """The historical per-record loop, kept as the executable specification.

    Iterates the trace's row-compatibility view, so it exercises exactly
    the code path (and arithmetic) the project shipped before the columnar
    refactor; the equivalence suite pins :class:`ColumnarEngine` to it.
    """

    name = "reference"

    def replay(self, trace: Trace, ctx: ReplayContext) -> None:
        """Walk the run's sampling plan record by record.

        An exhaustive run's plan is every interval, contiguous and
        measured.  Per segment: the fetch-block dedup state resets across
        a skipped gap (the previous block is unknowable), a measured
        segment of a full interval closes its interval, a warmup segment
        is discarded, and the final partial chunk stays open for the final
        close.
        """
        interval_instructions = ctx.interval_instructions
        block_mask = ctx.block_mask
        data_access = ctx.hierarchy.data_access
        instruction_fetch = ctx.hierarchy.instruction_fetch
        predict = ctx.predictor.predict_and_update
        records = trace.records

        last_fetch_block = -1
        total_seen = 0
        prev_stop = 0
        for start, stop, measured in ctx.sampling_plan(len(trace)):
            if start != prev_stop:
                last_fetch_block = -1
            counts = ctx.counts
            for pc, data_address, is_store, is_branch, taken in records[start:stop]:
                counts.instructions += 1

                fetch_block = pc & block_mask
                if fetch_block != last_fetch_block:
                    last_fetch_block = fetch_block
                    outcome = instruction_fetch(pc)
                    counts.l1i_accesses += 1
                    if not outcome.l1_hit:
                        counts.l1i_misses += 1
                        counts.l2_accesses += outcome.l2_accesses
                        counts.memory_accesses += outcome.memory_accesses
                        counts.l1i_memory_accesses += outcome.memory_accesses

                if is_branch:
                    counts.branches += 1
                    if predict(pc, taken):
                        counts.branch_mispredicts += 1

                if data_address is not None:
                    outcome = data_access(data_address, is_store)
                    counts.l1d_accesses += 1
                    if is_store:
                        counts.l1d_stores += 1
                    if not outcome.l1_hit:
                        counts.l1d_misses += 1
                        counts.l2_accesses += outcome.l2_accesses
                        counts.memory_accesses += outcome.memory_accesses
                        counts.l1d_memory_accesses += outcome.memory_accesses
                        if outcome.l2_accesses > 1:
                            counts.l1d_writebacks += outcome.l2_accesses - 1

            total_seen += stop - start
            prev_stop = stop
            if not measured:
                ctx.discard_interval()
            elif stop - start == interval_instructions:
                ctx.total_seen = total_seen
                ctx.close_interval()

        ctx.total_seen = total_seen
        ctx.close_interval(final=True)


class ColumnarEngine(ReplayEngine):
    """The default engine: a single run is a one-rung fused ladder.

    Replays through :meth:`repro.sim.ladder.LadderEngine.replay_many` with
    the run's context as the only rung, so single runs and profiling
    ladders share one walk and one mode rule (see :mod:`repro.sim.ladder`).
    Every run slices the memoized decode of its plan's rows
    (:mod:`repro.sim.predecode`); a run with a fixed L1d replays the
    reduced stream of the L1d pilot memo its trace's i-cache ladders
    share, and any other run dispatches the full op stream with both L1
    hit paths inline.
    """

    name = "columnar"

    def replay(self, trace: Trace, ctx: ReplayContext) -> None:
        from repro.sim.ladder import LadderEngine  # deferred: ladder imports the simulator stack

        LadderEngine().replay_many(trace, [ctx])


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------

#: The engine used when neither the simulator nor the job names one.
DEFAULT_ENGINE = "columnar"

_ENGINE_REGISTRY: Dict[str, Type[ReplayEngine]] = {
    ReferenceEngine.name: ReferenceEngine,
    ColumnarEngine.name: ColumnarEngine,
}


def register_engine(cls: Type[ReplayEngine]) -> Type[ReplayEngine]:
    """Register a custom replay engine class under its ``name``.

    Same contract as organization registration: the name must be unique
    (re-registering a *different* class under a taken name is rejected,
    since jobs and CLI flags select engines by name), and the class must be
    importable for worker processes to rebuild it.  Usable as a decorator.
    """
    if not cls.name:
        raise SimulationError(f"engine class {cls.__name__} must define a non-empty name")
    existing = _ENGINE_REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise SimulationError(
            f"engine name {cls.name!r} is already registered to {existing.__name__}; "
            f"give {cls.__name__} a distinct name"
        )
    _ENGINE_REGISTRY[cls.name] = cls
    return cls


def available_engines():
    """Sorted names of every registered replay engine."""
    return sorted(_ENGINE_REGISTRY)


def engine_name(engine: Union[str, ReplayEngine, None]) -> Union[str, None]:
    """The registry name for an engine argument (None stays None).

    Validates like :func:`repro.sim.runner.require_registered` does for
    organizations: an instance whose class is not the one registered under
    its name is rejected, because a job spec carries only the name and a
    worker would silently rebuild the registered class instead.
    """
    if engine is None:
        return None
    if isinstance(engine, str):
        get_engine(engine)  # raises on unknown names
        return engine
    if isinstance(engine, ReplayEngine):
        registered = _ENGINE_REGISTRY.get(engine.name)
        if registered is not type(engine):
            raise SimulationError(
                f"engine class {type(engine).__name__} is not registered under "
                f"{engine.name!r}; register it with repro.sim.engine.register_engine"
            )
        return engine.name
    raise SimulationError(
        f"engine must be a name or a ReplayEngine instance, got {type(engine).__name__}"
    )


def get_engine(engine: Union[str, ReplayEngine, None] = None) -> ReplayEngine:
    """Resolve an engine argument (name, instance, or None for the default)."""
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, ReplayEngine):
        return engine
    if isinstance(engine, str):
        cls = _ENGINE_REGISTRY.get(engine)
        if cls is None:
            known = ", ".join(available_engines())
            raise SimulationError(
                f"unknown replay engine {engine!r}; available engines: {known} "
                f"(use repro.sim.engine.register_engine for custom classes)"
            )
        return cls()
    raise SimulationError(
        f"engine must be a name or a ReplayEngine instance, got {type(engine).__name__}"
    )
