"""Profiling sweeps and the unified :class:`Sweep` facade.

Static resizing needs one profiling run per offered configuration (the paper
extracts static sizes "offline through profiling"), and the dynamic
framework's miss-bound / size-bound are derived from the same profile.  The
machinery here expresses those sweeps as batches of
:class:`repro.sim.runner.SimJob` and executes them through a
:class:`repro.sim.runner.SweepRunner`, so a profiling sweep parallelises
across the organization's whole resizing ladder (and hits the on-disk job
cache) when the caller provides a configured runner.  Without one, a serial,
uncached runner is used and the behaviour — including every computed value —
is identical to calling :meth:`repro.sim.simulator.Simulator.run` directly.
Every sweep call runs as jobs: a setup the job layer cannot name (an
unregistered organization class, a strategy subclass) raises
:class:`~repro.common.errors.SimulationError`; call ``Simulator.run`` for
a live, instrumented strategy object.

The canonical entry point is the :class:`Sweep` facade: it binds one
simulator and one runner (plus the run parameters shared by every job) and
exposes each sweep in two shapes —

* **Deferred** (:meth:`Sweep.submit_baseline`, :meth:`Sweep.submit_profile`,
  :meth:`Sweep.submit_dynamic`, :meth:`Sweep.submit_with_setups`): enqueue
  jobs on the runner and return futures, so a caller can lay out an *entire
  evaluation* — every application's profiling ladder, then every
  baseline/dynamic/joint run — before a single simulation starts, and the
  runner executes the whole graph as a couple of pool batches.
* **Eager** (:meth:`Sweep.baseline`, :meth:`Sweep.profile`,
  :meth:`Sweep.dynamic`, :meth:`Sweep.with_setups`): submit and resolve
  immediately — the historical call-and-return interface.  The eager
  methods are thin wrappers over the deferred ones, so both paths compute
  byte-identical results.

Profiling ladders execute **fused**: instead of K jobs that each decode
the same trace, the ladder collapses into one
:class:`repro.sim.runner.LadderJob` whose worker decodes each interval once
and feeds every rung's cache hierarchy in the same pass
(:mod:`repro.sim.ladder`).  Results fan out to the rungs' individual cache
fingerprints, so fused rungs and standalone jobs serve each other's warm
caches and a partially-warm ladder fuses only its missing rungs.  A
simulator configured with a non-default engine (``reference``) replays
each rung of the ladder job standalone under that engine instead — the
debugging path (see :func:`repro.sim.runner.execute_ladder_job`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.resizing.organization import ResizingOrganization, SizeConfig
from repro.resizing.profiler import (
    DynamicParameters,
    ProfilePoint,
    derive_dynamic_parameters,
    select_static_config,
)
from repro.sim.engine import engine_name
from repro.sim.future import SimFuture
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    L1SetupSpec,
    SimJob,
    StrategySpec,
    SweepRunner,
    TraceSpec,
    require_registered,
)
from repro.sim.simulator import L1Setup, Simulator
from repro.workloads.ingest import ExternalTraceSpec
from repro.workloads.trace import Trace

#: Which L1 cache a sweep resizes.
DCACHE = "dcache"
ICACHE = "icache"

#: A sweep accepts a materialised trace or a declarative spec — synthetic
#: (:class:`TraceSpec`) or an external trace file
#: (:class:`~repro.workloads.ingest.ExternalTraceSpec`).
TraceLike = Union[Trace, TraceSpec, ExternalTraceSpec]
SetupLike = Union[L1Setup, L1SetupSpec, None]


def _specs_for(target: str, spec: L1SetupSpec) -> Tuple[L1SetupSpec, L1SetupSpec]:
    """(d_spec, i_spec) with ``spec`` applied to the targeted cache."""
    if target == DCACHE:
        return spec, L1SetupSpec()
    if target == ICACHE:
        return L1SetupSpec(), spec
    raise SimulationError(f"unknown resizing target {target!r}; use 'dcache' or 'icache'")


def _as_setup_spec(setup: SetupLike) -> L1SetupSpec:
    if setup is None:
        return L1SetupSpec()
    if isinstance(setup, L1SetupSpec):
        return setup
    return L1SetupSpec.from_setup(setup)


def make_job(
    simulator: Simulator,
    trace: TraceLike,
    d_setup: SetupLike = None,
    i_setup: SetupLike = None,
    interval_instructions: int = 1500,
    warmup_instructions: int = 0,
    sample_every: int = 1,
    sample_warmup: int = 0,
) -> SimJob:
    """Build the :class:`SimJob` equivalent of one ``simulator.run(...)`` call.

    Prefer a :class:`TraceSpec` over a materialised :class:`Trace` when the
    job will run on a parallel runner: an inline trace is pickled into every
    job that carries it (a 60k-record trace is several MB per job), whereas
    a spec is a few bytes and each worker materialises it once.  The same
    goes for :class:`~repro.workloads.ingest.ExternalTraceSpec`: the job
    carries a path and a digest, and each worker ingests the file once.

    The simulator's replay-engine choice rides along by name, so a sweep
    replays with the engine the caller configured regardless of which
    worker process executes each job.
    """
    return SimJob(
        trace=trace,
        system=simulator.system,
        d_setup=_as_setup_spec(d_setup),
        i_setup=_as_setup_spec(i_setup),
        interval_instructions=interval_instructions,
        warmup_instructions=warmup_instructions,
        technology=simulator.technology,
        timing=simulator.timing,
        engine=engine_name(simulator.engine),
        sample_every=sample_every,
        sample_warmup=sample_warmup,
    )


def _job_label(kind: str, trace: TraceLike) -> str:
    name = trace.name if isinstance(trace, Trace) else trace.application
    return f"{kind}:{name}"


@dataclass
class StaticProfile:
    """Outcome of profiling every configuration an organization offers."""

    organization: ResizingOrganization
    target: str
    baseline: SimulationResult
    points: List[ProfilePoint] = field(default_factory=list)
    results: Dict[SizeConfig, SimulationResult] = field(default_factory=dict)
    max_slowdown: Optional[float] = None

    @property
    def best_point(self) -> ProfilePoint:
        """Profile point with the lowest processor energy-delay."""
        return select_static_config(
            self.points, baseline_cycles=self.baseline.cycles, max_slowdown=self.max_slowdown
        )

    @property
    def best_config(self) -> SizeConfig:
        """Statically selected configuration."""
        return self.best_point.config

    @property
    def best_result(self) -> SimulationResult:
        """Simulation result of the statically selected configuration."""
        return self.results[self.best_config]

    def energy_delay_reduction(self) -> float:
        """Best static energy-delay reduction vs the non-resizable baseline (%)."""
        return self.best_result.energy_delay_reduction(self.baseline)

    def size_reduction(self) -> float:
        """Average cache-size reduction of the statically selected configuration (%)."""
        if self.target == DCACHE:
            return self.best_result.l1d_size_reduction()
        return self.best_result.l1i_size_reduction()

    def dynamic_parameters(
        self, sense_interval_accesses: int = 2048, miss_bound_factor: float = 1.5
    ) -> DynamicParameters:
        """Derive the dynamic framework's parameters from this profile."""
        return derive_dynamic_parameters(
            self.points,
            sense_interval_accesses=sense_interval_accesses,
            miss_bound_factor=miss_bound_factor,
            baseline_cycles=self.baseline.cycles,
            max_slowdown=self.max_slowdown,
        )


def _append_point(profile: StaticProfile, target: str, config, result: SimulationResult) -> None:
    """Record one profiled configuration's result in ``profile``."""
    if target == DCACHE:
        accesses, misses = result.l1d_accesses, result.l1d_misses
    else:
        accesses, misses = result.l1i_accesses, result.l1i_misses
    profile.points.append(
        ProfilePoint(
            config=config,
            energy=result.energy.total,
            cycles=result.cycles,
            l1_accesses=accesses,
            l1_misses=misses,
        )
    )
    profile.results[config] = result


@dataclass
class StaticProfileFuture:
    """A profiling sweep whose ladder runs have been enqueued, not resolved.

    Mirrors :class:`StaticProfile` one level earlier: the baseline and one
    future per ladder configuration are submitted to the runner, and
    :meth:`result` assembles the :class:`StaticProfile` once they resolve
    (draining the runner on first call; memoised afterwards).  The
    :attr:`dependencies` list feeds :meth:`SweepRunner.submit_deferred`, so
    downstream jobs — a dynamic run whose parameters derive from this
    profile — can be enqueued *before* the ladder has simulated.
    """

    organization: ResizingOrganization
    target: str
    baseline: Union[SimFuture, SimulationResult]
    ladder: List[SizeConfig]
    futures: List[SimFuture]
    max_slowdown: Optional[float] = None
    _profile: Optional[StaticProfile] = None

    def done(self) -> bool:
        """True once every underlying simulation has resolved."""
        baseline_done = not isinstance(self.baseline, SimFuture) or self.baseline.done()
        return baseline_done and all(future.done() for future in self.futures)

    @property
    def dependencies(self) -> List[SimFuture]:
        """The futures a job deferred on this profile must wait for."""
        deps = list(self.futures)
        if isinstance(self.baseline, SimFuture):
            deps.append(self.baseline)
        return deps

    def result(self) -> StaticProfile:
        """Resolve (draining the runner if needed) into a StaticProfile."""
        if self._profile is None:
            baseline = (
                self.baseline.result()
                if isinstance(self.baseline, SimFuture)
                else self.baseline
            )
            profile = StaticProfile(
                organization=self.organization,
                target=self.target,
                baseline=baseline,
                max_slowdown=self.max_slowdown,
            )
            for config, future in zip(self.ladder, self.futures):
                _append_point(profile, self.target, config, future.result())
            self._profile = profile
        return self._profile


def _dynamic_job(
    simulator: Simulator,
    trace: TraceLike,
    organization: ResizingOrganization,
    parameters: DynamicParameters,
    target: str,
    initial_config,
    run_kwargs: Dict[str, int],
) -> SimJob:
    """The SimJob for one dynamic-resizing run (shared by both API shapes)."""
    spec = L1SetupSpec(
        organization=organization.name,
        geometry=organization.geometry,
        strategy=StrategySpec.dynamic(
            miss_bound=parameters.miss_bound,
            size_bound_bytes=parameters.size_bound_bytes,
            sense_interval_accesses=parameters.sense_interval_accesses,
            initial_config=initial_config,
        ),
    )
    d_spec, i_spec = _specs_for(target, spec)
    return make_job(simulator, trace, d_setup=d_spec, i_setup=i_spec, **run_kwargs)


class Sweep:
    """One simulator, one runner, every sweep shape — the unified facade.

    A :class:`Sweep` binds the pieces every submission needs (the configured
    simulator, the runner executing the jobs, and the run parameters shared
    across an evaluation — interval/warmup instructions, the sampling
    schedule, the slowdown bound) so call sites name only
    what varies: the trace, the organization, the target.

    Every method accepts the shared parameters as per-call keyword overrides
    (``None`` means "use the sweep's default"), so one facade instance can
    serve an entire evaluation while still expressing the odd special run.

    The ``submit_*`` methods enqueue and return futures (nothing executes
    until :meth:`drain` or a ``result()`` call); their eager counterparts
    (:meth:`baseline`, :meth:`profile`, :meth:`dynamic`,
    :meth:`with_setups`) submit and resolve at once.  Both shapes accept
    only setups the declarative job layer can name: registered
    organization classes and the built-in strategy classes.  Anything else
    raises :class:`~repro.common.errors.SimulationError`.
    """

    def __init__(
        self,
        simulator: Simulator,
        runner: Optional[SweepRunner] = None,
        interval_instructions: int = 1500,
        warmup_instructions: int = 0,
        sample_every: int = 1,
        sample_warmup: int = 0,
        max_slowdown: Optional[float] = None,
    ) -> None:
        self.simulator = simulator
        #: Every job this facade submits executes through this runner, so a
        #: parallel and/or cache-backed runner accelerates the whole sweep.
        #: Serial and uncached when omitted — identical numbers, no reuse.
        self.runner = runner if runner is not None else SweepRunner()
        self.interval_instructions = interval_instructions
        self.warmup_instructions = warmup_instructions
        self.sample_every = sample_every
        self.sample_warmup = sample_warmup
        self.max_slowdown = max_slowdown

    # ------------------------------------------------------------- internals
    def _run_kwargs(
        self,
        interval_instructions: Optional[int],
        warmup_instructions: Optional[int],
        sample_every: Optional[int],
        sample_warmup: Optional[int],
    ) -> Dict[str, int]:
        """Resolve per-call overrides against the facade's defaults."""
        return {
            "interval_instructions": (
                self.interval_instructions
                if interval_instructions is None else interval_instructions
            ),
            "warmup_instructions": (
                self.warmup_instructions
                if warmup_instructions is None else warmup_instructions
            ),
            "sample_every": self.sample_every if sample_every is None else sample_every,
            "sample_warmup": self.sample_warmup if sample_warmup is None else sample_warmup,
        }

    # -------------------------------------------------------------- baseline
    def submit_baseline(
        self,
        trace: TraceLike,
        interval_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        sample_every: Optional[int] = None,
        sample_warmup: Optional[int] = None,
    ) -> SimFuture:
        """Enqueue the non-resizable baseline and return its future."""
        job = make_job(
            self.simulator,
            trace,
            **self._run_kwargs(
                interval_instructions, warmup_instructions, sample_every, sample_warmup
            ),
        )
        return self.runner.submit(job, label=_job_label("baseline", trace))

    def baseline(
        self,
        trace: TraceLike,
        interval_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        sample_every: Optional[int] = None,
        sample_warmup: Optional[int] = None,
    ) -> SimulationResult:
        """Run the non-resizable baseline (both L1 caches fixed at full size)."""
        return self.submit_baseline(
            trace,
            interval_instructions=interval_instructions,
            warmup_instructions=warmup_instructions,
            sample_every=sample_every,
            sample_warmup=sample_warmup,
        ).result()

    # ----------------------------------------------------- arbitrary setups
    def submit_with_setups(
        self,
        trace: TraceLike,
        d_setup: SetupLike = None,
        i_setup: SetupLike = None,
        interval_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        sample_every: Optional[int] = None,
        sample_warmup: Optional[int] = None,
    ) -> SimFuture:
        """Enqueue an arbitrary combination of L1 setups and return its future.

        The setups must be expressible as job specs (registered
        organizations, built-in strategy classes), because a job has to be
        picklable for whichever worker eventually executes it; any other
        setup raises :class:`~repro.common.errors.SimulationError` here.
        """
        job = make_job(
            self.simulator,
            trace,
            d_setup=d_setup,
            i_setup=i_setup,
            **self._run_kwargs(
                interval_instructions, warmup_instructions, sample_every, sample_warmup
            ),
        )
        return self.runner.submit(job, label=_job_label("setups", trace))

    def with_setups(
        self,
        trace: TraceLike,
        d_setup: SetupLike = None,
        i_setup: SetupLike = None,
        interval_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        sample_every: Optional[int] = None,
        sample_warmup: Optional[int] = None,
    ) -> SimulationResult:
        """Run an arbitrary combination of L1 setups (see :meth:`submit_with_setups`).

        The run executes from a spec (a fresh instance, possibly in a
        worker process), so counters on a live strategy object the caller
        passed in (e.g. ``DynamicResizing.upsizes``) are *not* updated; call
        :meth:`repro.sim.simulator.Simulator.run` to instrument a run that
        way.
        """
        return self.submit_with_setups(
            trace,
            d_setup=d_setup,
            i_setup=i_setup,
            interval_instructions=interval_instructions,
            warmup_instructions=warmup_instructions,
            sample_every=sample_every,
            sample_warmup=sample_warmup,
        ).result()

    # ------------------------------------------------------------- profiling
    def submit_profile(
        self,
        trace: TraceLike,
        organization: ResizingOrganization,
        target: str = DCACHE,
        baseline: Union[SimFuture, SimulationResult, None] = None,
        max_slowdown: Optional[float] = None,
        interval_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        sample_every: Optional[int] = None,
        sample_warmup: Optional[int] = None,
    ) -> StaticProfileFuture:
        """Enqueue a whole profiling ladder and return its profile future.

        ``baseline`` may be an already-resolved result, a future from an
        earlier submission (shared across profiles of the same application),
        or None to enqueue the baseline alongside the ladder.  Nothing
        executes until the runner drains.  The organization's class must be
        the one registered under its name (see
        :func:`repro.sim.runner.require_registered`); any other raises
        :class:`~repro.common.errors.SimulationError`.

        The whole ladder — and, when the baseline is enqueued here too, the
        baseline with it (its L1s are fixed, which is exactly the shape the
        fused engine pilots) — reaches the runner as one ladder job whose
        results fan out to the rungs' individual cache fingerprints, so a
        partially-warm ladder only fuses the rungs the cache cannot serve.
        """
        require_registered(organization)
        if max_slowdown is None:
            max_slowdown = self.max_slowdown
        kwargs = self._run_kwargs(
            interval_instructions, warmup_instructions, sample_every, sample_warmup
        )
        ladder = organization.ladder()
        rung_jobs: List[SimJob] = []
        rung_labels: List[str] = []
        for config in ladder:
            spec = L1SetupSpec(
                organization=organization.name,
                strategy=StrategySpec.static(config),
                geometry=organization.geometry,
            )
            d_spec, i_spec = _specs_for(target, spec)
            rung_jobs.append(
                make_job(self.simulator, trace, d_setup=d_spec, i_setup=i_spec, **kwargs)
            )
            rung_labels.append(f"{_job_label('profile', trace)}@{config.label}")

        if baseline is None:
            # The baseline is a rung like any other to the fused engine
            # (fixed L1s on the shared trace), so ride it along in the
            # same pass instead of decoding the trace once more for it.
            rung_jobs.insert(0, make_job(self.simulator, trace, **kwargs))
            rung_labels.insert(0, _job_label("baseline", trace))
            futures = self.runner.submit_ladder(rung_jobs, labels=rung_labels)
            baseline = futures.pop(0)
        else:
            futures = self.runner.submit_ladder(rung_jobs, labels=rung_labels)
        return StaticProfileFuture(
            organization=organization,
            target=target,
            baseline=baseline,
            ladder=ladder,
            futures=futures,
            max_slowdown=max_slowdown,
        )

    def profile(
        self,
        trace: TraceLike,
        organization: ResizingOrganization,
        target: str = DCACHE,
        baseline: Optional[SimulationResult] = None,
        max_slowdown: Optional[float] = None,
        interval_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        sample_every: Optional[int] = None,
        sample_warmup: Optional[int] = None,
    ) -> StaticProfile:
        """Profile every size on the organization's resizing ladder.

        The whole ladder (plus the baseline, when not supplied) executes as
        one *fused* trace pass — decoded once, dispatched to every
        candidate configuration (see :mod:`repro.sim.ladder`) — unless the
        simulator names another engine, which replays each rung standalone.
        The organization must be registered, as for :meth:`submit_profile`.
        """
        return self.submit_profile(
            trace,
            organization,
            target=target,
            baseline=baseline,
            max_slowdown=max_slowdown,
            interval_instructions=interval_instructions,
            warmup_instructions=warmup_instructions,
            sample_every=sample_every,
            sample_warmup=sample_warmup,
        ).result()

    # --------------------------------------------------------------- dynamic
    def submit_dynamic(
        self,
        trace: TraceLike,
        organization: ResizingOrganization,
        profile: StaticProfileFuture,
        target: str = DCACHE,
        sense_interval_accesses: int = 2048,
        miss_bound_factor: float = 1.5,
        start_at_best_config: bool = True,
        interval_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        sample_every: Optional[int] = None,
        sample_warmup: Optional[int] = None,
    ) -> SimFuture:
        """Enqueue a dynamic run whose parameters derive from a pending profile.

        The dynamic job cannot be built yet — its miss-bound and size-bound
        come from the profiling ladder's results — so it is submitted as a
        *deferred* job depending on the profile's futures: the runner
        executes the ladder in one wave, derives the parameters, and runs
        the dynamic job in the next, all within a single
        :meth:`SweepRunner.drain`.

        ``start_at_best_config`` starts the cache at the statically profiled
        size (the shape every experiment uses); pass False to start
        full-size.
        """
        require_registered(organization)
        kwargs = self._run_kwargs(
            interval_instructions, warmup_instructions, sample_every, sample_warmup
        )
        simulator = self.simulator

        def builder() -> SimJob:
            resolved = profile.result()  # dependencies guarantee this is free
            parameters = resolved.dynamic_parameters(
                sense_interval_accesses=sense_interval_accesses,
                miss_bound_factor=miss_bound_factor,
            )
            initial_config = resolved.best_config if start_at_best_config else None
            return _dynamic_job(
                simulator, trace, organization, parameters, target, initial_config, kwargs
            )

        return self.runner.submit_deferred(
            builder, profile.dependencies, label=_job_label("dynamic", trace)
        )

    def dynamic(
        self,
        trace: TraceLike,
        organization: ResizingOrganization,
        parameters: DynamicParameters,
        target: str = DCACHE,
        initial_config=None,
        interval_instructions: Optional[int] = None,
        warmup_instructions: Optional[int] = None,
        sample_every: Optional[int] = None,
        sample_warmup: Optional[int] = None,
    ) -> SimulationResult:
        """Run the miss-ratio based dynamic strategy with profiled parameters.

        ``initial_config`` sets the size the cache starts in (typically the
        statically profiled size, since the dynamic parameters come from the
        same profiling pass); the controller is free to move away from it
        immediately.  The organization must be registered, as for
        :meth:`profile`.
        """
        require_registered(organization)
        kwargs = self._run_kwargs(
            interval_instructions, warmup_instructions, sample_every, sample_warmup
        )
        job = _dynamic_job(
            self.simulator, trace, organization, parameters, target, initial_config, kwargs
        )
        return self.runner.submit(job, label=_job_label("dynamic", trace)).result()

    # ----------------------------------------------------------------- drain
    def drain(self) -> None:
        """Execute every enqueued job now (dependency waves, pool batches)."""
        self.runner.drain()
