"""Shared experiment context.

The context owns the experiment-wide parameters (trace length, warmup,
interval sizes, the slowdown bound) and memoises everything expensive —
generated traces, baseline runs, static profiling sweeps and dynamic runs —
keyed by the parameters that actually influence them.  Figures 4, 5 and 6
share profiling sweeps, and Figure 9 reuses Figure 7/8's static choices, so
running the whole evaluation in one process costs far less than the sum of
its parts.

The memoised units are *futures*, not results: ``baseline_future`` /
``profile_future`` / ``dynamic_future`` / ``joint_static_future`` enqueue
jobs on the context's :class:`repro.sim.runner.SweepRunner` without
executing anything, so an experiment module can lay out its whole figure —
and ``run-all`` the whole evaluation — before the first simulation starts.
The eager accessors (``baseline``, ``static_profile``, ``dynamic_run``,
``joint_static_run``) resolve the same futures, draining the runner on
first use, so call sites keep their historical shape and both paths
produce byte-identical numbers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.common.config import CacheGeometry, CoreConfig, CoreKind, SystemConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import KIB
from repro.cpu.timing import CoreTimingParameters
from repro.energy.technology import TechnologyParameters
from repro.resizing.organization import ResizingOrganization
from repro.sim.future import SimFuture
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    L1SetupSpec,
    StrategySpec,
    SweepRunner,
    TraceSpec,
    organization_class,
    resolve_trace,
)
from repro.sim.simulator import Simulator
from repro.sim.sweep import (
    DCACHE,
    ICACHE,
    StaticProfile,
    StaticProfileFuture,
    Sweep,
    make_job,
)
from repro.workloads.ingest import ExternalTraceSpec
from repro.workloads.profiles import SPEC_APPLICATION_NAMES
from repro.workloads.trace import Trace

#: Organization names accepted by :meth:`ExperimentContext.organization`.
#: Resolution goes through the sweep engine's registry
#: (:func:`repro.sim.runner.register_organization`), so custom organizations
#: registered there are usable in experiments too.
SELECTIVE_WAYS = "selective-ways"
SELECTIVE_SETS = "selective-sets"
HYBRID = "hybrid"


class ExperimentContext:
    """Parameters plus memoisation for the experiment harnesses."""

    def __init__(
        self,
        n_instructions: int = 60_000,
        warmup_fraction: float = 0.10,
        interval_instructions: int = 1500,
        sense_interval_accesses: int = 1024,
        miss_bound_factor: float = 1.5,
        max_slowdown: Optional[float] = None,
        l1_capacity_bytes: int = 32 * KIB,
        applications: Optional[Iterable[str]] = None,
        technology: Optional[TechnologyParameters] = None,
        timing: Optional[CoreTimingParameters] = None,
        runner: Optional[SweepRunner] = None,
        engine: Optional[str] = None,
        trace_files: Optional[Mapping[str, str]] = None,
        sample_every: int = 1,
        sample_warmup: int = 0,
    ) -> None:
        if n_instructions < 1_000:
            raise ConfigurationError("experiments need at least 1000 instructions")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError("warmup fraction must be in [0, 1)")
        if sample_every < 1:
            raise ConfigurationError("sample-every must be >= 1")
        if sample_warmup < 0:
            raise ConfigurationError("sample-warmup must be >= 0")
        self.n_instructions = n_instructions
        self.warmup_instructions = int(n_instructions * warmup_fraction)
        self.interval_instructions = interval_instructions
        self.sense_interval_accesses = sense_interval_accesses
        self.miss_bound_factor = miss_bound_factor
        self.max_slowdown = max_slowdown
        self.l1_capacity_bytes = l1_capacity_bytes
        #: Interval-sampling schedule applied to every run the context owns
        #: (docs/SAMPLING.md).  ``sample_every`` == 1 replays exhaustively.
        self.sample_every = sample_every
        self.sample_warmup = sample_warmup
        #: Workload name -> trace-file path.  Names registered here resolve
        #: to :class:`~repro.workloads.ingest.ExternalTraceSpec` instead of a
        #: synthetic :class:`TraceSpec`, and join the default application
        #: list when ``applications`` is omitted.
        self.trace_files: Dict[str, str] = dict(trace_files) if trace_files else {}
        for name in self.trace_files:
            if name in SPEC_APPLICATION_NAMES:
                raise ConfigurationError(
                    f"external trace name {name!r} shadows a built-in application"
                )
        self.applications: Tuple[str, ...] = (
            tuple(applications)
            if applications is not None
            else SPEC_APPLICATION_NAMES + tuple(sorted(self.trace_files))
        )
        if not self.applications:
            raise ConfigurationError("experiments need at least one application")
        self.technology = technology if technology is not None else TechnologyParameters()
        self.timing = timing if timing is not None else CoreTimingParameters()
        #: Replay engine every simulation of this context uses (None = the
        #: package default).  Engines are bit-identical, so this only
        #: affects speed; it reaches jobs through the memoised simulators.
        #: Profiling ladders fuse under the default and replay rung by rung
        #: under any other engine (see :mod:`repro.sim.ladder`).
        self.engine = engine
        #: Every simulation the context performs goes through this runner, so
        #: handing in a parallel and/or cache-backed SweepRunner accelerates
        #: the whole evaluation without touching any experiment module.
        self.runner = runner if runner is not None else SweepRunner()

        self._traces: Dict[str, Trace] = {}
        self._systems: Dict[Tuple[int, CoreKind], SystemConfig] = {}
        self._simulators: Dict[Tuple[int, CoreKind], Simulator] = {}
        self._sweeps: Dict[Tuple[int, CoreKind], Sweep] = {}
        self._organizations: Dict[Tuple[str, int], ResizingOrganization] = {}
        # Memoised *futures*: enqueued once, shared by every figure that
        # names the same (application, organization, target, assoc, core).
        self._baselines: Dict[Tuple[str, int, CoreKind], SimFuture] = {}
        self._profiles: Dict[Tuple[str, str, str, int, CoreKind], StaticProfileFuture] = {}
        self._dynamic_runs: Dict[Tuple[str, str, str, int, CoreKind], SimFuture] = {}
        self._joint_runs: Dict[Tuple[str, str, int], SimFuture] = {}

    # ----------------------------------------------------------------- basics
    def trace(self, application: str) -> Trace:
        """The (memoised) synthetic trace for one application.

        A per-context reference sits in front of the sweep engine's shared
        per-process memo: materialisation is shared with the runner (no
        duplicate copies), while the context keeps its own traces pinned so
        the engine memo's LRU eviction can never force a regeneration (or
        break identity) within one context's lifetime.
        """
        cached = self._traces.get(application)
        if cached is None:
            cached = resolve_trace(self.trace_spec(application))
            self._traces[application] = cached
        return cached

    def trace_spec(self, application: str) -> Union[TraceSpec, ExternalTraceSpec]:
        """Declarative spec for one application's trace.

        Jobs carry this spec instead of the materialised trace, so submitting
        them to worker processes costs a few bytes of pickling; each worker
        regenerates (and memoises) the identical trace from the profile's
        fixed seed — or, for names registered via ``trace_files``, ingests
        the external file once and memoises it by content digest.
        """
        path = self.trace_files.get(application)
        if path is not None:
            return ExternalTraceSpec(path=path, name=application)
        return TraceSpec(application=application, n_instructions=self.n_instructions)

    def system(
        self,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> SystemConfig:
        """A Table-2 system with the requested L1 associativity and core."""
        key = (associativity, core_kind)
        cached = self._systems.get(key)
        if cached is None:
            geometry = CacheGeometry(self.l1_capacity_bytes, associativity)
            cached = SystemConfig(core=CoreConfig(kind=core_kind), l1d=geometry, l1i=geometry)
            self._systems[key] = cached
        return cached

    def simulator(
        self,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> Simulator:
        """A (memoised) simulator for the requested system."""
        key = (associativity, core_kind)
        cached = self._simulators.get(key)
        if cached is None:
            cached = Simulator(
                self.system(associativity, core_kind),
                self.technology,
                self.timing,
                engine=self.engine,
            )
            self._simulators[key] = cached
        return cached

    def sweep(
        self,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> Sweep:
        """A (memoised) :class:`~repro.sim.sweep.Sweep` facade for one system.

        All facades share the context's runner, so submissions from every
        system configuration still drain as one job graph.
        """
        key = (associativity, core_kind)
        cached = self._sweeps.get(key)
        if cached is None:
            cached = Sweep(
                self.simulator(associativity, core_kind),
                self.runner,
                interval_instructions=self.interval_instructions,
                warmup_instructions=self.warmup_instructions,
                sample_every=self.sample_every,
                sample_warmup=self.sample_warmup,
                max_slowdown=self.max_slowdown,
            )
            self._sweeps[key] = cached
        return cached

    def organization(self, name: str, associativity: int = 2) -> ResizingOrganization:
        """A (memoised) organization for the 32K L1 of the given associativity."""
        key = (name, associativity)
        cached = self._organizations.get(key)
        if cached is None:
            try:
                factory = organization_class(name)
            except SimulationError as exc:
                raise ConfigurationError(str(exc)) from exc
            cached = factory(CacheGeometry(self.l1_capacity_bytes, associativity))
            self._organizations[key] = cached
        return cached

    # -------------------------------------------------- deferred submissions
    def baseline_future(
        self,
        application: str,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> SimFuture:
        """Enqueue (once) the non-resizable baseline run; nothing executes yet."""
        key = (application, associativity, core_kind)
        cached = self._baselines.get(key)
        if cached is None:
            cached = self.sweep(associativity, core_kind).submit_baseline(
                self.trace_spec(application)
            )
            self._baselines[key] = cached
        return cached

    def profile_future(
        self,
        application: str,
        organization_name: str,
        target: str = DCACHE,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> StaticProfileFuture:
        """Enqueue (once) a whole profiling ladder; nothing executes yet."""
        key = (application, organization_name, target, associativity, core_kind)
        cached = self._profiles.get(key)
        if cached is None:
            cached = self.sweep(associativity, core_kind).submit_profile(
                self.trace_spec(application),
                self.organization(organization_name, associativity),
                target=target,
                baseline=self.baseline_future(application, associativity, core_kind),
            )
            self._profiles[key] = cached
        return cached

    def dynamic_future(
        self,
        application: str,
        organization_name: str,
        target: str = DCACHE,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> SimFuture:
        """Enqueue (once) the dynamic run derived from the matching profile.

        The job is *deferred*: its miss-bound/size-bound parameters and
        initial configuration come from the profiling ladder's results, so
        the runner builds it only after the profile's wave completes —
        profile and dynamic runs for every application still fit in one
        drain of two pool batches.
        """
        key = (application, organization_name, target, associativity, core_kind)
        cached = self._dynamic_runs.get(key)
        if cached is None:
            cached = self.sweep(associativity, core_kind).submit_dynamic(
                self.trace_spec(application),
                self.organization(organization_name, associativity),
                self.profile_future(
                    application, organization_name, target, associativity, core_kind
                ),
                target=target,
                sense_interval_accesses=self.sense_interval_accesses,
                miss_bound_factor=self.miss_bound_factor,
            )
            self._dynamic_runs[key] = cached
        return cached

    def joint_static_future(
        self,
        application: str,
        organization_name: str,
        associativity: int = 2,
    ) -> SimFuture:
        """Enqueue (once) the Figure-9 joint run: d- and i-cache resized
        together, each statically fixed at its individually profiled best
        size.  Deferred on both profiles, since the best sizes are not known
        until their ladders resolve."""
        key = (application, organization_name, associativity)
        cached = self._joint_runs.get(key)
        if cached is None:
            d_profile = self.profile_future(
                application, organization_name, DCACHE, associativity
            )
            i_profile = self.profile_future(
                application, organization_name, ICACHE, associativity
            )
            organization = self.organization(organization_name, associativity)
            simulator = self.simulator(associativity)
            trace = self.trace_spec(application)

            def builder():
                d_spec = L1SetupSpec(
                    organization=organization.name,
                    geometry=organization.geometry,
                    strategy=StrategySpec.static(d_profile.result().best_config),
                )
                i_spec = L1SetupSpec(
                    organization=organization.name,
                    geometry=organization.geometry,
                    strategy=StrategySpec.static(i_profile.result().best_config),
                )
                return make_job(
                    simulator,
                    trace,
                    d_setup=d_spec,
                    i_setup=i_spec,
                    interval_instructions=self.interval_instructions,
                    warmup_instructions=self.warmup_instructions,
                    sample_every=self.sample_every,
                    sample_warmup=self.sample_warmup,
                )

            cached = self.runner.submit_deferred(
                builder,
                d_profile.dependencies + i_profile.dependencies,
                label=f"joint:{application}",
            )
            self._joint_runs[key] = cached
        return cached

    def drain(self) -> None:
        """Execute every enqueued job now (dependency waves, one pool batch
        each).  Purely an optimisation point — eager accessors drain on
        demand — that lets a harness separate 'lay out the evaluation' from
        'run it'."""
        self.runner.drain()

    # ------------------------------------------------------------------- runs
    def baseline(
        self,
        application: str,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> SimulationResult:
        """The non-resizable baseline run for (application, associativity, core)."""
        return self.baseline_future(application, associativity, core_kind).result()

    def static_profile(
        self,
        application: str,
        organization_name: str,
        target: str = DCACHE,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> StaticProfile:
        """Profiling sweep of one organization on one cache of one application."""
        return self.profile_future(
            application, organization_name, target, associativity, core_kind
        ).result()

    def dynamic_run(
        self,
        application: str,
        organization_name: str,
        target: str = DCACHE,
        associativity: int = 2,
        core_kind: CoreKind = CoreKind.OUT_OF_ORDER_NONBLOCKING,
    ) -> SimulationResult:
        """Miss-ratio-based dynamic resizing run with profiled parameters."""
        return self.dynamic_future(
            application, organization_name, target, associativity, core_kind
        ).result()

    def joint_static_run(
        self,
        application: str,
        organization_name: str,
        associativity: int = 2,
    ) -> SimulationResult:
        """The Figure-9 joint d+i static run (both caches at profiled best)."""
        return self.joint_static_future(
            application, organization_name, associativity
        ).result()

    # ------------------------------------------------------------- convenience
    def mean_over_applications(self, values: List[float]) -> float:
        """Arithmetic mean used for every 'AVG.' column in the figures."""
        if not values:
            return 0.0
        return sum(values) / len(values)


#: Targets re-exported so experiment modules do not need to import sweep.
D_CACHE = DCACHE
I_CACHE = ICACHE
