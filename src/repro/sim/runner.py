"""The parallel sweep engine.

Every simulation the repo performs — baselines, the per-configuration runs
of a profiling sweep, dynamic-resizing runs, the joint d+i runs of
Figure 9 — is expressed as a declarative, picklable :class:`SimJob`.  A
:class:`SweepRunner` executes batches of jobs, fanning them out over a
``multiprocessing`` pool when ``jobs > 1`` and running them inline when
``jobs == 1`` (the inline path performs exactly the same arithmetic, so
parallel and serial sweeps produce identical results), and memoises
completed jobs in an on-disk :class:`repro.sim.jobcache.JobCache` so that
re-running a sweep only simulates what changed.

A profiling ladder — K configurations of one L1 against the same trace —
can additionally execute as a single *fused* pass: :class:`LadderJob`
bundles the rung specs, one worker replays the shared trace through every
rung's hierarchy in one decode (:mod:`repro.sim.ladder`), and
:meth:`SweepRunner.submit_ladder` fans the results back out to the rungs'
individual cache fingerprints, so a fused rung and a standalone job of the
same rung are interchangeable against the same warm cache.

Jobs can also be *deferred*: :meth:`SweepRunner.submit` enqueues a job and
returns a :class:`repro.sim.future.SimFuture` immediately, and
:meth:`SweepRunner.submit_deferred` enqueues a job that cannot even be
built yet because its parameters derive from other jobs' results (a
dynamic-resizing run derives its miss-bound from the profiling ladder).
:meth:`SweepRunner.drain` then executes the whole accumulated graph in
dependency waves, each wave one pool batch, which is how a full evaluation
reaches the pool as two batches instead of hundreds of single-job calls.

Design notes
------------

* **Jobs are specs, not live objects.**  A job names its trace
  (:class:`TraceSpec`: application, instruction count, seed), its resizing
  setup (:class:`L1SetupSpec`: organization *name* plus a
  :class:`StrategySpec`), and carries the frozen configuration dataclasses
  (:class:`SystemConfig`, :class:`TechnologyParameters`,
  :class:`CoreTimingParameters`).  That makes jobs cheap to pickle, trivial
  to content-hash for the cache, and reconstructible in any worker process.
  Ad-hoc callers may embed a literal :class:`Trace` instead of a spec; such
  jobs are fingerprinted by hashing the trace content.
* **Determinism.**  All randomness lives in trace generation, and each job
  resolves its own RNG seed from its spec (``TraceSpec.seed``, defaulting
  to the workload profile's fixed seed).  Workers share no RNG state, so a
  job's result is a pure function of its spec regardless of which process
  runs it, in which order, or alongside which other jobs.
* **Per-process memoisation.**  Workers memoise materialised traces in
  ``_TRACE_MEMO``, a small LRU (traces are large, so old entries are
  evicted).  Its multiprocessing safety comes from per-process ownership:
  the memo is never shared across processes — each worker populates its own
  copy after fork/spawn — and is only touched from the worker's single
  job-executing thread.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import time
import traceback
import weakref
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

from repro.common.atomicio import atomic_write_json
from repro.common.config import CacheGeometry, SystemConfig
from repro.common.counters import CounterRegistry
from repro.common.errors import (
    JobTimeoutError,
    SimulationError,
    TraceTransportError,
    TransientJobError,
    WorkerCrashError,
)
from repro.cpu.timing import CoreTimingParameters
from repro.energy.technology import TechnologyParameters
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.organization import ResizingOrganization, SizeConfig
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.resizing.static_strategy import StaticResizing
from repro.resizing.strategy import NoResizing, ResizingStrategy
from repro.sim import faults, ladder, predecode
from repro.sim import shm as shm_transport
from repro.sim.engine import DEFAULT_ENGINE, ColumnarEngine
from repro.sim.future import SimFuture
from repro.sim.jobcache import JobCache
from repro.sim.pool import FaultTolerantPool
from repro.sim.results import SimulationResult
from repro.sim.shm import SharedTraceRef
from repro.sim.simulator import L1Setup, Simulator
from repro.sim.tracecache import TraceCache
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.ingest import ExternalTraceSpec
from repro.workloads.profiles import get_profile
from repro.workloads.trace import Trace

#: Fingerprint schema version; bump when the hashed fields change meaning.
#: v2: inline traces are digested from their raw column buffers and the
#: ``engine`` field is deliberately excluded (engines are bit-identical).
#: v3: jobs carry interval-sampling fields (sample_every/sample_warmup) and
#: traces may be external files, fingerprinted by content digest.
_FINGERPRINT_VERSION = 3


# ---------------------------------------------------------------------------
# Organization registry: job specs name organizations, workers rebuild them.
# ---------------------------------------------------------------------------

_ORGANIZATION_REGISTRY: Dict[str, Type[ResizingOrganization]] = {
    SelectiveWays.name: SelectiveWays,
    SelectiveSets.name: SelectiveSets,
    HybridSetsAndWays.name: HybridSetsAndWays,
}


def register_organization(cls: Type[ResizingOrganization]) -> Type[ResizingOrganization]:
    """Register a custom organization class so job specs can name it.

    The class must be importable from a module — worker pools ship the
    registry to each worker by pickling the class *by reference*, so classes
    defined in ``__main__``-less scripts or interactively cannot cross
    process boundaries — and must have a unique ``name``: re-registering a
    *different* class under a taken name is rejected, because cached results
    are keyed by organization name and silently swapping the class behind a
    name would let stale results impersonate the new implementation.
    Usable as a decorator.
    """
    existing = _ORGANIZATION_REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise SimulationError(
            f"organization name {cls.name!r} is already registered to "
            f"{existing.__name__}; give {cls.__name__} a distinct name"
        )
    _ORGANIZATION_REGISTRY[cls.name] = cls
    return cls


def _install_worker_state(
    registry: Dict[str, Type[ResizingOrganization]],
    trace_cache_dir: Optional[str],
    fault_plan_text: Optional[str] = None,
) -> None:
    """Pool-worker initializer: adopt the parent process's registry,
    on-disk trace cache and fault-injection plan.

    Under the ``spawn``/``forkserver`` start methods a worker imports this
    module fresh and would only know the three built-in organizations;
    shipping the parent's registry (classes pickled by reference) restores
    any custom registrations.  Under ``fork`` this is a harmless no-op
    update with identical entries.  The trace cache is shipped as a
    directory path (the cache object itself holds no state worth pickling),
    so workers materialising a :class:`TraceSpec` share the parent's
    on-disk trace memo.  The fault plan is shipped as its source *text*
    (see :mod:`repro.sim.faults`): every worker — including respawned
    replacements after a crash — arms the same plan with fresh occurrence
    counters, which is what keeps injected worker-side faults
    deterministic.
    """
    _ORGANIZATION_REGISTRY.update(registry)
    set_trace_cache(trace_cache_dir)
    faults.install_plan(fault_plan_text)


def organization_class(name: str) -> Type[ResizingOrganization]:
    """Look up a registered organization class by name."""
    try:
        return _ORGANIZATION_REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_ORGANIZATION_REGISTRY))
        raise SimulationError(
            f"unknown resizing organization {name!r}; registered organizations: {known} "
            f"(use repro.sim.runner.register_organization for custom classes)"
        ) from exc


def require_registered(organization: ResizingOrganization) -> str:
    """Return the organization's registry name, validating *class identity*.

    Checking the name alone is not enough: a subclass that inherits ``name``
    from a registered class would be silently rebuilt as the base class in
    worker processes, simulating the wrong organization.  The class object
    itself must be the registered one.
    """
    registered = organization_class(organization.name)
    if registered is not type(organization):
        raise SimulationError(
            f"organization class {type(organization).__name__} is not registered under "
            f"{organization.name!r} (that name resolves to {registered.__name__}); give the "
            f"subclass its own name and register it with repro.sim.runner.register_organization"
        )
    return organization.name


# ---------------------------------------------------------------------------
# Job specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpec:
    """Names a synthetic trace without materialising it.

    Attributes:
        application: workload profile name (see :mod:`repro.workloads.profiles`).
        n_instructions: trace length to generate.
        seed: RNG seed override; None uses the profile's fixed seed, which
            reproduces exactly the trace ``ExperimentContext`` has always
            generated.
    """

    application: str
    n_instructions: int
    seed: Optional[int] = None

    def materialize(self) -> Trace:
        """Generate the trace this spec describes."""
        generator = WorkloadGenerator(get_profile(self.application), seed=self.seed)
        return generator.generate(self.n_instructions)


#: Strategy spec kinds.
STATIC = "static"
DYNAMIC = "dynamic"
NONE = "none"


@dataclass(frozen=True)
class StrategySpec:
    """Declarative description of a resizing strategy.

    ``config`` is the static configuration for ``kind == "static"`` and the
    optional initial configuration for ``kind == "dynamic"``.
    """

    kind: str
    config: Optional[SizeConfig] = None
    miss_bound: float = 0.0
    size_bound_bytes: int = 0
    sense_interval_accesses: int = 16384
    downsize_fraction: float = 1.0
    settle_intervals: int = 2
    reversal_backoff_intervals: int = 8

    @classmethod
    def static(cls, config: SizeConfig) -> "StrategySpec":
        """Spec for :class:`StaticResizing` at ``config``."""
        return cls(kind=STATIC, config=config)

    @classmethod
    def dynamic(
        cls,
        miss_bound: float,
        size_bound_bytes: int,
        sense_interval_accesses: int = 16384,
        initial_config: Optional[SizeConfig] = None,
        downsize_fraction: float = 1.0,
        settle_intervals: int = 2,
        reversal_backoff_intervals: int = 8,
    ) -> "StrategySpec":
        """Spec for :class:`DynamicResizing` with the given parameters."""
        return cls(
            kind=DYNAMIC,
            config=initial_config,
            miss_bound=miss_bound,
            size_bound_bytes=size_bound_bytes,
            sense_interval_accesses=sense_interval_accesses,
            downsize_fraction=downsize_fraction,
            settle_intervals=settle_intervals,
            reversal_backoff_intervals=reversal_backoff_intervals,
        )

    @classmethod
    def from_strategy(cls, strategy: ResizingStrategy) -> "StrategySpec":
        """Convert a live strategy object into a spec.

        Exact classes only — a subclass with overridden behaviour must not be
        silently rebuilt as its base class in a worker, so it raises
        :class:`SimulationError` here.  Run such a strategy with
        :meth:`repro.sim.simulator.Simulator.run`.
        """
        if type(strategy) is StaticResizing:
            return cls.static(strategy.config)
        if type(strategy) is DynamicResizing:
            # The raw constructor argument, not initial_config(): the method
            # falls back to the bound organization's full size, and specs
            # must be convertible before any binding happens.
            return cls.dynamic(
                miss_bound=strategy.miss_bound,
                size_bound_bytes=strategy.size_bound_bytes,
                sense_interval_accesses=strategy.sense_interval_accesses,
                initial_config=strategy.requested_initial_config,
                downsize_fraction=strategy.downsize_fraction,
                settle_intervals=strategy.settle_intervals,
                reversal_backoff_intervals=strategy.reversal_backoff_intervals,
            )
        if type(strategy) is NoResizing:
            return cls(kind=NONE)
        raise SimulationError(
            f"cannot express strategy {type(strategy).__name__} as a job spec; "
            f"supported strategies (exact classes): StaticResizing, DynamicResizing, NoResizing"
        )

    def build(self) -> ResizingStrategy:
        """Instantiate the strategy this spec describes."""
        if self.kind == STATIC:
            if self.config is None:
                raise SimulationError("a static strategy spec requires a configuration")
            return StaticResizing(self.config)
        if self.kind == DYNAMIC:
            return DynamicResizing(
                miss_bound=self.miss_bound,
                size_bound_bytes=self.size_bound_bytes,
                sense_interval_accesses=self.sense_interval_accesses,
                downsize_fraction=self.downsize_fraction,
                settle_intervals=self.settle_intervals,
                reversal_backoff_intervals=self.reversal_backoff_intervals,
                initial_config=self.config,
            )
        if self.kind == NONE:
            return NoResizing()
        raise SimulationError(f"unknown strategy spec kind {self.kind!r}")


@dataclass(frozen=True)
class L1SetupSpec:
    """Declarative counterpart of :class:`repro.sim.simulator.L1Setup`.

    ``organization`` is a registered organization *name*; the worker rebuilds
    the organization on the target cache's geometry, so the spec stays a few
    bytes regardless of the organization's config lattice.  ``geometry``,
    when set, pins the geometry the organization was built on: building the
    spec against a different cache geometry then raises, preserving the
    mismatch guard a live :class:`L1Setup` enforces.
    """

    organization: Optional[str] = None
    strategy: Optional[StrategySpec] = None
    geometry: Optional[CacheGeometry] = None

    @classmethod
    def fixed(cls) -> "L1SetupSpec":
        """Spec for the conventional, non-resizable cache."""
        return cls()

    @classmethod
    def from_setup(cls, setup: Optional[L1Setup]) -> "L1SetupSpec":
        """Convert a live :class:`L1Setup` into a spec."""
        if setup is None or setup.organization is None:
            return cls()
        name = require_registered(setup.organization)
        strategy = None if setup.strategy is None else StrategySpec.from_strategy(setup.strategy)
        return cls(organization=name, strategy=strategy, geometry=setup.organization.geometry)

    def build(self, geometry: CacheGeometry) -> L1Setup:
        """Instantiate the :class:`L1Setup` for a cache of ``geometry``."""
        if self.organization is None:
            if self.strategy is not None:
                # Mirror L1Setup's own guard instead of silently simulating
                # a full-size fixed cache with the strategy dropped.
                raise SimulationError("a resizing strategy requires a resizing organization")
            return L1Setup()
        if self.geometry is not None and self.geometry != geometry:
            raise SimulationError(
                f"organization geometry {self.geometry.describe()} does not match the "
                f"target cache geometry {geometry.describe()}"
            )
        organization = organization_class(self.organization)(geometry)
        strategy = self.strategy.build() if self.strategy is not None else None
        return L1Setup(organization=organization, strategy=strategy)


@dataclass
class SimJob:
    """One complete, self-contained simulation: spec in, result out.

    ``engine`` names the replay engine the executing process should use
    (None = package default).  It is the one field *excluded* from the
    job fingerprint: engines are bit-identical by contract (enforced by
    the cross-engine equivalence suite), so a result computed by either
    engine may serve a job requesting the other — switching ``--engine``
    never invalidates the on-disk cache.

    ``trace`` may be a synthetic :class:`TraceSpec`, an
    :class:`~repro.workloads.ingest.ExternalTraceSpec` naming a trace file
    on disk (fingerprinted by file content), or a literal :class:`Trace`.
    ``sample_every``/``sample_warmup`` select interval sampling (see
    ``docs/SAMPLING.md``); they *are* fingerprinted — a sampled result is
    an estimate and must never serve an exhaustive job or vice versa.
    """

    trace: Union[TraceSpec, ExternalTraceSpec, Trace]
    system: SystemConfig = field(default_factory=SystemConfig)
    d_setup: L1SetupSpec = field(default_factory=L1SetupSpec)
    i_setup: L1SetupSpec = field(default_factory=L1SetupSpec)
    interval_instructions: int = 1500
    warmup_instructions: int = 0
    technology: TechnologyParameters = field(default_factory=TechnologyParameters)
    timing: CoreTimingParameters = field(default_factory=CoreTimingParameters)
    engine: Optional[str] = None
    sample_every: int = 1
    sample_warmup: int = 0

    def fingerprint(self) -> str:
        """Content hash over everything that influences this job's result."""
        return job_fingerprint(self)

    def describe(self) -> dict:
        """Small human-readable summary (stored in cache entries)."""
        if isinstance(self.trace, Trace):
            workload = f"{self.trace.name} ({len(self.trace)} instructions, inline)"
        elif isinstance(self.trace, ExternalTraceSpec):
            workload = f"{self.trace.application} (external: {self.trace.path})"
        else:
            workload = f"{self.trace.application} ({self.trace.n_instructions} instructions)"
        summary = {
            "workload": workload,
            "core": self.system.core.kind.value,
            "d_setup": _describe_setup(self.d_setup),
            "i_setup": _describe_setup(self.i_setup),
            "interval_instructions": self.interval_instructions,
            "warmup_instructions": self.warmup_instructions,
        }
        if self.sample_every > 1:
            summary["sample_every"] = self.sample_every
            summary["sample_warmup"] = self.sample_warmup
        return summary


@dataclass
class LadderJob:
    """One fused multi-configuration pass: K rung specs, one trace decode.

    The executing worker replays the shared trace *once* through every
    rung's cache hierarchy (see :mod:`repro.sim.ladder`) and returns one
    :class:`SimulationResult` per rung, in order — each bit-identical to
    running the rung as a standalone :class:`SimJob`.  The runner fans the
    results out to the rungs' individual job fingerprints, so the on-disk
    cache cannot tell (and need not care) which path computed a result:
    warm caches serve both, and a partially-warm ladder refuses rungs the
    cache already holds (see :meth:`SweepRunner.submit_ladder`).

    Every rung must share the fields the fused pass amortizes — trace,
    system, interval/warmup lengths, technology and timing — and the
    replay engine, which decides whether the ladder fuses at all (see
    :func:`execute_ladder_job`); only the L1 setups may differ.  Validated
    eagerly so a malformed ladder fails at submit time, not in a worker.
    """

    rungs: List[SimJob]

    def __post_init__(self) -> None:
        if not self.rungs:
            raise SimulationError("a ladder job needs at least one rung")
        first = self.rungs[0]
        for rung in self.rungs[1:]:
            shared_trace = rung.trace is first.trace or rung.trace == first.trace
            if not (
                shared_trace
                and rung.system == first.system
                and rung.interval_instructions == first.interval_instructions
                and rung.warmup_instructions == first.warmup_instructions
                and rung.technology == first.technology
                and rung.timing == first.timing
                and rung.sample_every == first.sample_every
                and rung.sample_warmup == first.sample_warmup
                and rung.engine == first.engine
            ):
                raise SimulationError(
                    "every rung of a ladder job must share the trace, system, "
                    "interval/warmup lengths, sampling schedule, technology, "
                    "timing and engine; only the L1 setups may differ between rungs"
                )

    def merge_key(self):
        """What a ladder must share with this one to join its fused pass.

        The sharing contract's fields plus the resized side ("d", "i",
        "both", or None when every rung is fixed): ladders with equal keys
        fold into one :class:`LadderJob` without changing any rung's
        result, and one resized side keeps the merged pass in a pilot
        mode.  None when a field is unhashable (such ladders never merge).
        """
        first = self.rungs[0]
        resizes_d = any(rung.d_setup.organization is not None for rung in self.rungs)
        resizes_i = any(rung.i_setup.organization is not None for rung in self.rungs)
        if resizes_d and resizes_i:
            side = "both"
        else:
            side = "d" if resizes_d else "i" if resizes_i else None
        key = (
            first.trace, first.system, first.interval_instructions,
            first.warmup_instructions, first.technology, first.timing,
            first.sample_every, first.sample_warmup, first.engine, side,
        )
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def fuses(self) -> bool:
        """Whether the rungs replay as one fused pass: only under the
        default ``columnar`` engine (see :func:`execute_ladder_job`)."""
        return (self.rungs[0].engine or DEFAULT_ENGINE) == ColumnarEngine.name

    def describe(self) -> dict:
        """Small human-readable summary (mirrors :meth:`SimJob.describe`)."""
        summary = dict(self.rungs[0].describe())
        summary["fused_rungs"] = [
            f"{_describe_setup(rung.d_setup)} + {_describe_setup(rung.i_setup)}"
            for rung in self.rungs
        ]
        return summary


def execute_ladder_job(job: LadderJob) -> List[SimulationResult]:
    """Run one ladder job to completion (the worker entry point).

    The ladder counterpart of :func:`execute_job`: everything is rebuilt
    from the rung specs and the shared trace is resolved once.  Under the
    default ``columnar`` engine the fused engine replays the trace through
    every rung's hierarchy in a single pass; any other engine the rungs
    name (``reference``, a registered custom engine) replays each rung as
    its own :meth:`Simulator.run`, so ``--engine`` is honoured inside
    ladders too.
    """
    first = job.rungs[0]
    trace = resolve_trace(first.trace)
    simulator = Simulator(first.system, first.technology, first.timing, engine=first.engine)
    setups = [
        (rung.d_setup.build(first.system.l1d), rung.i_setup.build(first.system.l1i))
        for rung in job.rungs
    ]
    kwargs = dict(
        interval_instructions=first.interval_instructions,
        warmup_instructions=first.warmup_instructions,
        sample_every=first.sample_every,
        sample_warmup=first.sample_warmup,
    )
    if not job.fuses():
        return [
            simulator.run(trace, d_setup=d_setup, i_setup=i_setup, **kwargs)
            for d_setup, i_setup in setups
        ]
    return ladder.run_fused(simulator, trace, setups, **kwargs)


def _describe_setup(spec: L1SetupSpec) -> str:
    if spec.organization is None:
        return "fixed"
    strategy = spec.strategy.kind if spec.strategy is not None else "none"
    label = f"{spec.organization}/{strategy}"
    if spec.strategy is not None and spec.strategy.config is not None:
        label += f"@{spec.strategy.config.label}"
    return label


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


#: Content digests of inline traces, keyed weakly by the trace object.
#: Digesting now hashes the trace's raw column buffers (flat ``array``
#: bytes) instead of one repr per record — ~100x cheaper — but a profiling
#: sweep still submits the same Trace object in every ladder job, so the
#: digest is additionally computed once per object instead of once per job.
#: (Traces are treated as immutable once submitted — the same assumption
#: the simulator itself makes.)
_TRACE_DIGEST_MEMO: "weakref.WeakKeyDictionary[Trace, str]" = weakref.WeakKeyDictionary()


def _trace_digest(trace: Trace) -> str:
    cached = _TRACE_DIGEST_MEMO.get(trace)
    if cached is None:
        cached = trace.content_digest()
        _TRACE_DIGEST_MEMO[trace] = cached
    return cached


def _canonical(value):
    """Reduce a spec component to JSON-serialisable canonical form."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Trace):
        return {"__trace__": _trace_digest(value)}
    if isinstance(value, ExternalTraceSpec):
        # Content-addressed, path deliberately excluded: the same trace file
        # moved (or re-downloaded) elsewhere still hits the cache; editing
        # its bytes — or the ingest semantics — always misses.
        return {"__external_trace__": value.fingerprint_payload()}
    if isinstance(value, L1SetupSpec) and value.organization is not None:
        # Bind the name to the class it currently resolves to, so replacing
        # the registered class behind a name changes the fingerprint instead
        # of serving results simulated by the old class.
        cls = organization_class(value.organization)
        canonical = {"__organization_class__": f"{cls.__module__}.{cls.__qualname__}"}
        for spec_field in fields(value):
            canonical[spec_field.name] = _canonical(getattr(value, spec_field.name))
        return canonical
    if isinstance(value, SimJob):
        canonical = {"__type__": "SimJob"}
        for spec_field in fields(value):
            # `engine` is excluded by design: engines are bit-identical, so
            # the cache serves results across engine choices (see SimJob).
            if spec_field.name == "engine":
                continue
            canonical[spec_field.name] = _canonical(getattr(value, spec_field.name))
        return canonical
    if is_dataclass(value) and not isinstance(value, type):
        canonical = {"__type__": type(value).__name__}
        for spec_field in fields(value):
            canonical[spec_field.name] = _canonical(getattr(value, spec_field.name))
        return canonical
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, float):
        # repr round-trips floats exactly, so distinct values never collide.
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise SimulationError(f"cannot fingerprint job component of type {type(value).__name__}")


#: Lazily computed digest of the package's own source files (see
#: :func:`_source_digest`); per-process, so one hash pass per interpreter.
_SOURCE_DIGEST: Optional[str] = None


def _source_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Mixing this into job fingerprints makes stale caches *mechanically*
    impossible: editing any simulation source changes the digest, so every
    cached result computed by the old code misses.  The cost is mild
    over-invalidation (editing e.g. an experiment harness also invalidates)
    and one ~milliseconds hash pass per process.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        import repro
        from pathlib import Path

        digest = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode("utf-8"))
            digest.update(source.read_bytes())
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


#: The canonical encoding every fingerprint hashes: ``json.dumps`` with
#: sorted keys and compact separators, built once instead of per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Spec values whose canonical JSON text is memoized: the frozen job fields
#: a sweep repeats across thousands of jobs.  External trace specs are
#: deliberately absent (their identity is the file's current content).
_MEMOIZED_TYPES = frozenset(
    {SystemConfig, TechnologyParameters, CoreTimingParameters, TraceSpec, L1SetupSpec}
)

#: Per-process memos of canonical JSON text: by :func:`_strict_key` (plus
#: the resolved organization class for resizable setups), and by object
#: identity in front of it so a spec object every job shares skips even
#: the key walk (the memoized types are frozen, and an identity entry holds
#: its object, so the id cannot be reused while the entry lives).  A
#: ``run-all`` holds a few hundred distinct values, so the bound only
#: matters to a long-lived ``serve`` process; failures are never stored.
_CANONICAL_TEXT_MEMO: Dict[object, str] = {}
_CANONICAL_TEXT_BY_ID: Dict[int, Tuple[object, object, str]] = {}
_CANONICAL_TEXT_MEMO_MAX = 1024

#: Dataclass field names per type (None for non-dataclass types).
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _strict_key(value):
    """A hashable, type-strict stand-in for ``value``'s canonical form.

    Equal keys imply byte-identical canonical JSON.  Plain ``==`` does not:
    it merges ``1``, ``1.0`` and ``True``, and ``0.0`` with ``-0.0``, which
    canonicalize differently — keying the memo on the value itself would
    make a digest depend on which of them the process saw first.
    """
    kind = type(value)
    try:
        names = _FIELD_NAMES[kind]
    except KeyError:
        names = _FIELD_NAMES[kind] = (
            tuple(spec_field.name for spec_field in fields(kind)) if is_dataclass(kind) else None
        )
    if names is not None:
        return (kind,) + tuple([_strict_key(getattr(value, name)) for name in names])
    if isinstance(value, float):
        return kind, repr(value)
    if isinstance(value, tuple):
        return (kind,) + tuple([_strict_key(item) for item in value])
    return kind, value


def clear_fingerprint_memo() -> None:
    """Forget every memoized canonical text (digests never depend on it)."""
    _CANONICAL_TEXT_MEMO.clear()
    _CANONICAL_TEXT_BY_ID.clear()


def _memo_put(memo: Dict, key, item) -> None:
    """Insert at the back of a bounded memo, evicting the oldest entries."""
    memo[key] = item
    while len(memo) > _CANONICAL_TEXT_MEMO_MAX:
        memo.pop(next(iter(memo)))


def _canonical_text(value) -> str:
    """``_dumps(_canonical(value))``, memoized for frozen spec values."""
    kind = type(value)
    if kind is int:
        return repr(value)  # exactly what the JSON encoder writes
    if kind not in _MEMOIZED_TYPES:
        return _dumps(_canonical(value))
    # Resolved on every fingerprint: an unregistered name still raises, and
    # re-registering a name misses instead of reusing the old class's text.
    cls = (
        organization_class(value.organization)
        if kind is L1SetupSpec and value.organization is not None
        else None
    )
    seen = _CANONICAL_TEXT_BY_ID.get(id(value))
    if seen is not None and seen[0] is value and seen[1] is cls:
        return seen[2]
    key = (_strict_key(value), cls)
    try:
        hash(key)
    except TypeError:  # an unhashable leaf (list, dict): no memo
        return _dumps(_canonical(value))
    text = _CANONICAL_TEXT_MEMO.pop(key, None)
    if text is None:
        text = _dumps(_canonical(value))
    _memo_put(_CANONICAL_TEXT_MEMO, key, text)  # most recently used at the back
    _memo_put(_CANONICAL_TEXT_BY_ID, id(value), (value, cls, text))
    return text


#: The keys of a job's canonical form in ``sort_keys`` order (``engine`` is
#: excluded by design; see :class:`SimJob`).
_JOB_KEYS = tuple(
    sorted(["__type__"] + [f.name for f in fields(SimJob) if f.name != "engine"])
)


def _job_text(job: SimJob) -> str:
    """``_dumps(_canonical(job))``, joined from per-field canonical text."""
    return "{" + ",".join(
        f'"{name}":' + ('"SimJob"' if name == "__type__" else _canonical_text(getattr(job, name)))
        for name in _JOB_KEYS
    ) + "}"


def job_fingerprint(job: SimJob) -> str:
    """Hex SHA-256 fingerprint of a job spec.

    Two jobs share a fingerprint iff every parameter that influences the
    simulation outcome is identical: the trace (spec fields, or content for
    inline traces), the full :class:`SystemConfig` (geometries, core, L2,
    memory), both L1 setup specs, interval/warmup lengths, and the
    technology and timing constants.

    The package version *and* a digest of the package's source files are
    mixed in, so any change to simulation logic fails safe: a stale cache
    misses instead of reproducing the old numbers.

    The hashed text is exactly ``_dumps`` of ``{"job": _canonical(job),
    "repro_version": ..., "source": ..., "version": ...}``; it is joined from
    memoized per-field fragments so a sweep pays for each distinct spec
    value once per process, not once per job.
    """
    from repro import __version__  # deferred: repro.__init__ imports this module

    tail = _dumps(
        {"repro_version": __version__, "source": _source_digest(), "version": _FINGERPRINT_VERSION}
    )
    payload = '{"job":' + _job_text(job) + "," + tail[1:]
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Job execution (runs in worker processes; must stay module-level picklable)
# ---------------------------------------------------------------------------

#: Per-process memo of materialised traces keyed by TraceSpec fields, with
#: LRU eviction (a 60k-record trace is tens of MB; an unbounded memo would
#: grow for the process lifetime as contexts with different trace lengths
#: come and go).  Values are never mutated after insertion and the memo is
#: never shared between processes (each worker owns its own copy), so no
#: locking is needed under either fork or spawn start methods.
#: Keys are 3-tuples for synthetic specs (application, n_instructions, seed)
#: and 4-tuples for external files ("external", path, name, content digest).
_TRACE_MEMO: Dict[Tuple, Trace] = {}
_TRACE_MEMO_MAX = 16

#: Per-process trace-resolution counters.  ``trace_memo_reads`` counts every
#: spec-form resolution (memo hit, disk hit or fresh materialisation alike)
#: — i.e. every time a process had to *own* a trace rather than attach one —
#: so a sweep whose workers run entirely over shared-memory refs reports
#: zero worker-side reads.  Snapshots are taken around each job execution
#: and the deltas shipped back to the parent (see :func:`_execute_indexed`).
_STATS = CounterRegistry({"trace_memo_reads": 0})


def _stats_snapshot() -> Dict[str, int]:
    """This process's transport/decode counters, merged into one flat dict."""
    snapshot = dict(_STATS)
    snapshot.update(shm_transport.stats_snapshot())
    snapshot.update(predecode.stats_snapshot())
    snapshot.update(ladder.stats_snapshot())
    return snapshot

#: Process-level on-disk trace memo consulted by :func:`resolve_trace` when
#: the in-memory memo misses.  Configured with :func:`set_trace_cache`
#: (directly, by a :class:`SweepRunner`, or by the pool-worker initializer);
#: None disables disk memoisation of traces.
_TRACE_CACHE: Optional[TraceCache] = None


def set_trace_cache(cache: Union[TraceCache, str, None]) -> Optional[TraceCache]:
    """Install (or clear, with None) the process-level on-disk trace cache."""
    global _TRACE_CACHE
    if cache is not None and not isinstance(cache, TraceCache):
        cache = TraceCache(cache)
    _TRACE_CACHE = cache
    return cache


def get_trace_cache() -> Optional[TraceCache]:
    """The process-level on-disk trace cache, or None when disabled."""
    return _TRACE_CACHE


def resolve_trace(
    trace: Union[TraceSpec, ExternalTraceSpec, Trace, SharedTraceRef],
) -> Trace:
    if isinstance(trace, Trace):
        return trace
    if isinstance(trace, SharedTraceRef):
        # Zero-copy path: attach the parent's published segment.  A failed
        # attach (segment evicted, shared memory lost) falls back to the
        # spec the ref carries, bit-identically — the ref is an optimisation,
        # never the only way to the trace unless the trace was inline.
        attached = shm_transport.attach_trace(trace)
        if attached is not None:
            return attached
        if trace.fallback is not None:
            return resolve_trace(trace.fallback)
        # Transient by classification: a retry re-prepares the job in the
        # parent, which re-publishes the segment, so the next attempt can
        # attach again (only inline traces ship refs without a fallback).
        raise TraceTransportError(
            f"shared-memory segment {trace.segment!r} for trace {trace.name!r} "
            f"is gone and the ref carries no fallback spec"
        )
    _STATS["trace_memo_reads"] += 1
    if isinstance(trace, ExternalTraceSpec):
        # 4-tuple key: cannot collide with a TraceSpec's 3-tuple.  The
        # digest in the key makes an edited file miss the in-memory memo;
        # the disk memo below stores the *converted columns* (binary trace
        # format), so a large text trace is parsed once per machine.
        key = ("external", trace.path, trace.name, trace.content_digest())
    else:
        key = (trace.application, trace.n_instructions, trace.seed)
    cached = _TRACE_MEMO.pop(key, None)
    if cached is None:
        disk = _TRACE_CACHE
        if disk is not None:
            cached = disk.get(trace)
            if cached is None:
                cached = trace.materialize()
                disk.put(trace, cached)
        else:
            cached = trace.materialize()
    _TRACE_MEMO[key] = cached  # re-insert at the back: most recently used
    while len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    return cached


def execute_job(job: SimJob) -> SimulationResult:
    """Run one job to completion (the worker entry point).

    Everything is rebuilt from the spec — trace, simulator, setups — so the
    result is a pure function of the job and is identical whether executed
    inline, in a forked worker, or in a spawned worker (and, per the
    engine contract, whichever replay engine the job names).
    """
    trace = resolve_trace(job.trace)
    simulator = Simulator(job.system, job.technology, job.timing, engine=job.engine)
    return simulator.run(
        trace,
        d_setup=job.d_setup.build(job.system.l1d),
        i_setup=job.i_setup.build(job.system.l1i),
        interval_instructions=job.interval_instructions,
        warmup_instructions=job.warmup_instructions,
        sample_every=job.sample_every,
        sample_warmup=job.sample_warmup,
    )


class _JobFailure:
    """Wraps a worker-side exception so sibling results are not lost.

    If a worker raised directly, the pool iteration would surface the
    exception mid-batch and any completed results still queued behind it
    would be dropped before the runner could cache them.  The formatted
    worker traceback rides along (pickling strips ``__traceback__``) so the
    re-raise still shows where inside the simulation the failure happened;
    parent-synthesized failures (worker death, timeout) pass ``""`` — there
    is no worker frame to show.  ``attempts`` records how many executions
    the retry policy spent before giving up (1 for non-retried failures).
    """

    def __init__(
        self,
        error: BaseException,
        worker_traceback: Optional[str] = None,
        attempts: int = 1,
    ) -> None:
        self.error = error
        if worker_traceback is None:
            worker_traceback = traceback.format_exc()
        self.worker_traceback = worker_traceback
        self.attempts = attempts


def _execute_indexed(indexed_job):
    """Pool entry point that tags each result with its batch position, so the
    runner can consume completions out of order.  Dispatches on the job
    kind: a :class:`LadderJob` runs the fused multi-configuration pass and
    yields a result *list*, a :class:`SimJob` a single result.

    ``indexed_job`` is ``(position, job)`` — or ``(position, job,
    directive)`` when the parent's fault plan armed this dispatch; the
    directive executes at entry (crash or hang), *before* the stats
    snapshot, exactly where a real segfault or wedge would strike.

    Returns ``(position, outcome, stats_delta)`` — the delta of this
    process's transport/decode counters across the execution, so the
    parent can aggregate worker-side behaviour (shm attaches, trace memo
    reads, decode memo hits) without sharing state between processes.
    """
    if len(indexed_job) == 3:
        position, job, directive = indexed_job
        faults.execute_directive(directive)
    else:
        position, job = indexed_job
    before = _stats_snapshot()
    try:
        if isinstance(job, LadderJob):
            outcome = execute_ladder_job(job)
        else:
            outcome = execute_job(job)
    except Exception as exc:
        outcome = _JobFailure(exc)
    after = _stats_snapshot()
    delta = {
        key: after[key] - before.get(key, 0)
        for key in after
        if after[key] != before.get(key, 0)
    }
    return position, outcome, delta


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner reacts to *transient* job failures.

    A job attempt that dies with a :class:`TransientJobError` — worker
    death (:class:`WorkerCrashError`), a wall-clock timeout
    (:class:`JobTimeoutError`), a shared-memory attach failure with no
    fallback (:class:`TraceTransportError`) — is re-dispatched up to
    ``max_attempts`` total executions, each retry delayed by exponential
    backoff with *deterministic* jitter: the jitter factor is hashed from
    the job's identity and the attempt number, so two runs of the same
    sweep back off identically (no RNG state, nothing to seed).  Plain
    deterministic failures (a malformed spec, an empty trace, a simulation
    error) are never retried — they would fail identically every time.

    A job that exhausts its attempts is *quarantined*: its futures fail
    with the last transient error, the job is recorded in
    :attr:`SweepRunner.quarantined`, and — crucially — its batch siblings
    and dependents keep resolving; one poisoned job no longer takes a
    drain down with it.

    Args:
        max_attempts: total executions per job (1 = no retries).
        base_delay: backoff before the first retry, seconds.
        max_delay: backoff ceiling, seconds.
        job_timeout: per-job wall-clock budget, seconds; a job over budget
            has its worker killed and counts as a transient failure.
            None (default) disables timeouts.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    job_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.job_timeout is not None and not 0 < self.job_timeout < math.inf:
            raise SimulationError(
                f"job_timeout must be a positive finite number, got {self.job_timeout}"
            )

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether to re-dispatch after ``attempt`` executions failed with
        ``error`` (transient classes only, within the attempt budget)."""
        return attempt < self.max_attempts and isinstance(error, TransientJobError)

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seconds to hold back the retry after ``attempt`` failures.

        Exponential in the attempt number, capped at ``max_delay``, scaled
        by a deterministic jitter factor in [0.5, 1.0) derived from
        ``(key, attempt)`` — so concurrent retries of *different* jobs
        spread out while repeated runs of the *same* sweep stay
        bit-reproducible in their scheduling decisions.
        """
        base = min(self.max_delay, self.base_delay * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return base * (0.5 + 0.5 * jitter)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class _PendingEntry:
    """A concrete job awaiting execution, plus every future tied to it.

    Duplicate submissions (same fingerprint) share one entry; all attached
    futures resolve together when the entry's job completes.
    """

    job: SimJob
    fingerprint: Optional[str]
    futures: List[SimFuture]


@dataclass
class _LadderEntry:
    """A fused ladder awaiting execution: one job, per-rung fan-out.

    ``fingerprints`` and ``futures`` parallel ``job.rungs``: when the fused
    pass completes, each rung's result is cached under that rung's own
    :class:`SimJob` fingerprint and resolves every future attached to that
    rung — exactly the bookkeeping K separate :class:`_PendingEntry`
    objects would have performed, minus K-1 trace decodes.
    """

    job: LadderJob
    fingerprints: List[Optional[str]]
    futures: List[List[SimFuture]]


@dataclass
class _DeferredEntry:
    """A job that can only be built once its dependencies have resolved."""

    builder: Callable[[], SimJob]
    deps: Tuple[SimFuture, ...]
    future: SimFuture


class SweepRunner:
    """Executes batches of :class:`SimJob` with parallelism and caching.

    Args:
        jobs: worker-process count.  1 (the default) executes inline in the
            calling process with zero multiprocessing overhead; results are
            identical either way.
        cache: optional :class:`JobCache`; completed jobs are persisted and
            identical future jobs are served from disk.
        trace_cache: optional :class:`TraceCache` (or directory path) for
            memoising *generated traces* on disk.  Installed as the
            process-level trace cache (see :func:`set_trace_cache`) and
            shipped to pool workers; None keeps whatever the process has
            configured (usually nothing).
        mp_start_method: ``multiprocessing`` start method ("fork", "spawn",
            "forkserver"); None honours the ``REPRO_MP_START_METHOD``
            environment variable, then the platform default.
        retry_policy: how transient failures (worker death, per-job
            timeout, shm attach failure) are retried and when jobs are
            quarantined; None uses the default :class:`RetryPolicy`
            (3 attempts, no timeout).
        checkpoint_path: when set, the runner periodically writes a small
            JSON progress manifest here (atomically) while draining —
            enough for ``--resume`` to report what a killed run had
            completed.  None (default) disables checkpointing.
        checkpoint_interval: minimum seconds between manifest writes.

    Attributes:
        simulate_count: jobs actually simulated by this runner (cache misses).
        cache_hits / cache_misses: on-disk cache lookup statistics.
        dedup_hits: submissions served by an identical job already submitted
            to this runner (in-memory, counted separately from disk hits).
        pool_batches: how many batches were dispatched to the worker pool.
        inline_executions: jobs executed inline in this process (always zero
            when ``jobs > 1`` — every simulation goes through the pool then).
        fused_rungs: rung jobs that joined a fused ladder pass via
            :meth:`submit_ladder` (i.e. were actually simulated fused;
            rungs of a ladder under any engine but ``columnar`` replay one
            by one and are not counted).
        fused_skipped: rung jobs a :meth:`submit_ladder` call resolved at
            submit time instead of fusing — from the on-disk cache or the
            in-memory dedup memo — so a partially-warm ladder fuses only
            its missing rungs.
        trace_bytes_pickled: trace payload bytes shipped to the pool by
            value (pickled) because the shared-memory transport declined
            them; zero when every dispatched trace rode a segment.
        worker_stats: aggregated per-job counter deltas from the executing
            processes (shm attaches, trace memo reads, decode memo hits —
            see ``_stats_snapshot``), for `--stats` reporting and the
            transport's zero-copy acceptance tests.
        retries: transient-failure re-dispatches performed (every retry of
            every job, summed).
        timeouts: jobs whose attempt exceeded the per-job wall-clock budget
            (each timed-out attempt counts once; its worker was killed).
        worker_deaths: pool workers that died mid-job (crash, OOM kill,
            injected fault) and were replaced.
        quarantined: jobs that exhausted their retry budget, as small
            dicts (job description, attempts, last error); their futures
            failed but their siblings and dependents resolved normally.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[JobCache] = None,
        trace_cache: Union[TraceCache, str, None] = None,
        mp_start_method: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint_path: Union[str, Path, None] = None,
        checkpoint_interval: float = 5.0,
    ) -> None:
        if jobs < 1:
            raise SimulationError(f"worker count must be at least 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.checkpoint_path = None if checkpoint_path is None else Path(checkpoint_path)
        self.checkpoint_interval = checkpoint_interval
        self._last_checkpoint = 0.0
        if trace_cache is not None:
            set_trace_cache(trace_cache)
        # Snapshot the process-level cache so the pool initializer ships the
        # same directory whether it was configured here or beforehand.
        self.trace_cache = get_trace_cache()
        if mp_start_method is None:
            mp_start_method = os.environ.get("REPRO_MP_START_METHOD") or None
        self.mp_start_method = mp_start_method
        self.simulate_count = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.dedup_hits = 0
        self.pool_batches = 0
        self.inline_executions = 0
        self.fused_rungs = 0
        self.fused_skipped = 0
        self.trace_bytes_pickled = 0
        self.retries = 0
        self.timeouts = 0
        self.worker_deaths = 0
        self.quarantined: List[dict] = []
        self._interrupted = False
        self.worker_stats: CounterRegistry = CounterRegistry()
        # Shared-memory trace transport: traces dispatched to the pool are
        # published once into this registry and jobs ship SharedTraceRefs.
        # The finalizer unlinks every segment at interpreter exit even when
        # close() is never called (it holds the registry, not the runner,
        # so it does not keep the runner alive).
        self._segments = shm_transport.SegmentRegistry()
        self._segments_finalizer = weakref.finalize(
            self, self._segments.release_all
        )
        self._closing = False
        # One pool for the runner's whole lifetime: workers keep their trace
        # memos warm across batches, so a sweep's trace is generated once per
        # worker instead of once per batch.  The registry snapshot the pool
        # was created with detects late register_organization calls.
        self._pool = None
        self._pool_registry: Dict[str, Type[ResizingOrganization]] = {}
        # Deferred-submission state: concrete jobs (and fused ladders)
        # awaiting the next drain, builder-form jobs awaiting their
        # dependencies, and an in-memory memo of every future this runner
        # ever created (keyed by job fingerprint) so duplicate submissions
        # share one execution.
        self._pending: List[Union[_PendingEntry, _LadderEntry]] = []
        #: Pending ladder entries by :meth:`LadderJob.merge_key`, so a
        #: compatible ladder submitted before the next drain joins one
        #: fused pass; reset whenever the pending batch is taken.
        self._open_ladders: Dict[tuple, _LadderEntry] = {}
        self._deferred: List[_DeferredEntry] = []
        self._memo: Dict[str, SimFuture] = {}
        self._draining = False
        #: Optional observer invoked after every batch entry settles during
        #: a drain, with a small event dict: ``kind`` ("result" or
        #: "failure"), ``jobs`` (rung count for a fused ladder, else 1) and
        #: ``simulated`` (this runner's lifetime execution count).  Runs in
        #: the draining thread; exceptions are swallowed — an observer (the
        #: service layer's progress plumbing) must never wedge a drain.
        self.progress_callback: Optional[Callable[[dict], None]] = None

    # ------------------------------------------------------------- submission
    def submit(self, job: SimJob, label: str = "") -> SimFuture:
        """Enqueue ``job`` and return its future without executing anything.

        The job joins the runner's pending batch; it executes on the next
        :meth:`drain` (or transitively via any future's ``result()``).
        Resolution can happen immediately: an on-disk cache hit, or a
        duplicate of a job already submitted to this runner (same
        fingerprint), returns the already-known future — duplicates within
        a batch simulate exactly once.
        """
        fingerprint = self._try_fingerprint(job)
        if fingerprint is not None:
            existing = self._memo.get(fingerprint)
            # Failures are NOT memoised across submissions: resubmitting a
            # job that failed retries it (the condition may have been
            # transient or since-fixed), exactly as repeated run() calls
            # always re-executed.  _enqueue overwrites the stale entry.
            if existing is not None and not existing.failed():
                self.dedup_hits += 1
                return existing
        future = SimFuture(self, label=label)
        self._enqueue(job, fingerprint, future)
        return future

    def submit_deferred(
        self,
        builder: Callable[[], SimJob],
        deps: Iterable[SimFuture],
        label: str = "",
    ) -> SimFuture:
        """Enqueue a job whose spec depends on other jobs' results.

        ``builder`` is called with no arguments once every future in
        ``deps`` has resolved; it reads the dependency results (via their
        ``result()``, which is then free) and returns the concrete
        :class:`SimJob`.  The returned future resolves when that job does.
        A failed dependency propagates: the deferred future fails with the
        dependency's original exception without the builder ever running.

        This is what lets a dynamic-resizing run — whose miss-bound and
        size-bound parameters are derived from a profiling ladder — be
        enqueued in the same phase as the ladder itself; :meth:`drain`
        executes the ladder in wave one and the dynamic run in wave two.
        """
        future = SimFuture(self, label=label)
        self._deferred.append(_DeferredEntry(builder, tuple(deps), future))
        return future

    def submit_ladder(
        self,
        jobs: Sequence[SimJob],
        labels: Optional[Sequence[str]] = None,
    ) -> List[SimFuture]:
        """Enqueue a ladder of rung jobs to execute as one fused trace pass.

        Returns one future per rung, in order — the same futures
        :meth:`submit` would have produced, resolved from the same per-rung
        cache fingerprints.  Each rung is first checked against the dedup
        memo and the on-disk cache, exactly like an individual submission
        (counted in ``fused_skipped``); only the rungs that actually need
        simulating are fused into a single :class:`LadderJob` (counted in
        ``fused_rungs`` when it really fuses, see :meth:`LadderJob.fuses`),
        so a partially-warm ladder pays one fused pass over its missing
        rungs and a fully-warm ladder executes nothing.

        The fused pass is bit-identical to running every rung standalone
        (see :mod:`repro.sim.ladder`), which is what makes the per-rung
        fan-out sound: a result computed fused may serve a later
        standalone submission of the same rung and vice versa.  Rungs must
        satisfy the :class:`LadderJob` sharing contract (same trace,
        system, interval/warmup, technology, timing, engine).

        A ladder whose :meth:`LadderJob.merge_key` matches one already
        pending (the selective-ways, selective-sets and hybrid ladders of
        one trace and resized side, typically) is folded into that entry:
        the two replay as one pass, which is what lets the fused engine
        share a stack pass and identical geometries across them.
        """
        jobs = list(jobs)
        if labels is None:
            labels = [""] * len(jobs)
        elif len(labels) != len(jobs):
            # zip() would silently truncate, dropping rungs (and their
            # futures) off the end of the ladder.
            raise SimulationError(
                f"submit_ladder got {len(jobs)} job(s) but {len(labels)} label(s)"
            )
        futures: List[SimFuture] = []
        missing_jobs: List[SimJob] = []
        missing_fingerprints: List[Optional[str]] = []
        missing_futures: List[List[SimFuture]] = []
        for job, label in zip(jobs, labels):
            fingerprint = self._try_fingerprint(job)
            if fingerprint is not None:
                existing = self._memo.get(fingerprint)
                # Same retry semantics as submit(): failed futures are not
                # reused — the rung rejoins the fused pass instead.
                if existing is not None and not existing.failed():
                    self.dedup_hits += 1
                    self.fused_skipped += 1
                    futures.append(existing)
                    continue
            future = SimFuture(self, label=label)
            futures.append(future)
            if fingerprint is not None:
                self._memo[fingerprint] = future
                if self.cache is not None:
                    cached = self.cache.get(fingerprint)
                    if cached is not None:
                        self.cache_hits += 1
                        self.fused_skipped += 1
                        future._resolve(cached)
                        continue
                    self.cache_misses += 1
            missing_jobs.append(job)
            missing_fingerprints.append(fingerprint)
            missing_futures.append([future])
        if missing_jobs:
            job = LadderJob(missing_jobs)
            if job.fuses():
                self.fused_rungs += len(missing_jobs)
            key = job.merge_key()
            entry = self._open_ladders.get(key) if key is not None else None
            if entry is not None:
                entry.job = LadderJob(entry.job.rungs + missing_jobs)
                entry.fingerprints.extend(missing_fingerprints)
                entry.futures.extend(missing_futures)
            else:
                entry = _LadderEntry(job, missing_fingerprints, missing_futures)
                self._pending.append(entry)
                if key is not None:
                    self._open_ladders[key] = entry
        return futures

    # -------------------------------------------------------------- execution
    def run(self, jobs: Sequence[SimJob]) -> List[SimulationResult]:
        """Execute ``jobs`` and return their results in input order.

        Implemented on top of :meth:`submit` + :meth:`gather`, so batches
        enjoy the same dedup/caching as deferred submissions.  Any failure
        is re-raised only after the whole batch has drained, so every
        completed sibling result is already persisted to the cache.
        """
        return self.gather([self.submit(job) for job in jobs])

    def run_one(self, job: SimJob) -> SimulationResult:
        """Execute a single job (through the cache and dedup memo)."""
        return self.run([job])[0]

    def gather(self, futures: Iterable[SimFuture]) -> List[SimulationResult]:
        """Drain the runner and return the futures' results, in input order.

        Futures may be gathered in any order relative to submission, and a
        future may appear in several gathers.  The first failed future's
        exception is re-raised (with the worker traceback chained) after
        the drain completes, so sibling results are cached first.
        """
        futures = list(futures)
        self.drain()
        for future in futures:
            if future.failed():
                future.result()  # raises with the worker traceback chained
        return [future.result() for future in futures]

    def drain(self) -> None:
        """Execute everything submitted so far, in dependency waves.

        Each wave sends every currently-buildable job to the pool as one
        batch; results then unlock deferred jobs whose dependencies just
        resolved, forming the next wave.  A profile→dynamic graph therefore
        drains in exactly two pool batches regardless of how many
        applications it spans.  Idempotent: draining an empty runner is a
        no-op.

        Not reentrant: a deferred builder that reads a future it did not
        declare in its deps would recurse into this method; the guard
        converts that into a descriptive per-future failure instead of a
        RecursionError (see :meth:`submit_deferred`).
        """
        if self._draining:
            raise SimulationError(
                "drain() re-entered while a drain is already in progress — a deferred "
                "builder resolved a future it did not declare as a dependency; list "
                "every future the builder reads in submit_deferred(deps=...)"
            )
        self._draining = True
        self._interrupted = False
        try:
            self._drain_waves()
        except KeyboardInterrupt:
            # Ctrl-C containment: kill and reap the pool, unlink every
            # shared-memory segment, and drop the pending graph.  The job
            # cache stays consistent by construction — each entry is one
            # append, made only after a result exists — so everything
            # completed before the interrupt is already persisted and a
            # --resume run re-simulates only what was in flight.
            self._interrupted = True
            self._abort_in_flight()
            raise
        finally:
            self._draining = False
            self._write_checkpoint(final=True)

    def _drain_waves(self) -> None:
        while True:
            self._build_ready_deferred()
            if not self._pending:
                if self._deferred:
                    # Only deferred jobs remain and none became buildable:
                    # their dependencies belong to another runner or form a
                    # cycle.  Fail them so result() reports the problem.
                    stuck, self._deferred = self._deferred, []
                    for entry in stuck:
                        entry.future._fail(
                            SimulationError(
                                f"deferred job {entry.future.label or '<unlabelled>'} depends "
                                f"on futures this runner will never resolve (dependency "
                                f"cycle, or a future from a different runner)"
                            )
                        )
                return
            batch, self._pending = self._pending, []
            self._open_ladders = {}
            self._run_batch(batch)

    def _abort_in_flight(self) -> None:
        """Interrupt cleanup: terminate+join the pool, unlink segments and
        clear the pending/deferred graph (their futures stay pending; the
        caller is unwinding anyway).  Idempotent, like everything it calls."""
        self._close_pool()
        self._segments.release_all()
        self._pending.clear()
        self._open_ladders = {}
        self._deferred.clear()

    def _write_checkpoint(self, final: bool = False) -> None:
        """Atomically persist the progress manifest (rate-limited unless
        ``final``).  Best-effort: a manifest write failure never disturbs
        the sweep — the manifest only feeds progress reporting; resume
        correctness comes from the job cache itself."""
        if self.checkpoint_path is None:
            return
        now = time.monotonic()
        if not final and now - self._last_checkpoint < self.checkpoint_interval:
            return
        self._last_checkpoint = now
        manifest = {
            "version": 1,
            "pid": os.getpid(),
            "done": (
                final and not self._pending and not self._deferred and not self._interrupted
            ),
            "interrupted": self._interrupted,
            "simulated": self.simulate_count,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "fused_rungs": self.fused_rungs,
            "pending": len(self._pending),
            "deferred": len(self._deferred),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "quarantined": self.quarantined,
            "updated_at": time.time(),
        }
        try:
            self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_json(self.checkpoint_path, manifest, indent=2, sort_keys=True)
        except OSError:
            pass

    def ladder_counters(self) -> CounterRegistry:
        """Which fused-ladder replay tier served the rungs this runner simulated.

        The :data:`repro.sim.ladder.TIER_COUNTERS` out of
        :attr:`worker_stats` (absent ones as zero): fused passes, stack
        groups, and every rung counted under exactly one of the stack,
        shared-geometry and per-rung fallback tiers.  ``--stats`` and the
        service's ``GET /metrics`` both render this registry.
        """
        return CounterRegistry(
            {name: self.worker_stats.get(name, 0) for name in ladder.TIER_COUNTERS}
        )

    @property
    def pending_count(self) -> int:
        """Concrete executions queued for the next drain (dedup already
        applied).  A fused ladder counts as one: it reaches the pool as a
        single task however many rungs it carries."""
        return len(self._pending)

    @property
    def deferred_count(self) -> int:
        """Builder-form jobs still waiting on dependencies."""
        return len(self._deferred)

    # --------------------------------------------------------------- internals
    def _try_fingerprint(self, job: SimJob) -> Optional[str]:
        """Fingerprint ``job``, or None for jobs the spec layer cannot hash
        (those skip dedup and caching but still execute)."""
        try:
            return job.fingerprint()
        except SimulationError:
            return None

    def _enqueue(self, job: SimJob, fingerprint: Optional[str], future: SimFuture) -> None:
        """Register a fresh future for ``job``: resolve from the on-disk
        cache when possible, otherwise append to the pending batch."""
        if fingerprint is not None:
            self._memo[fingerprint] = future
            if self.cache is not None:
                cached = self.cache.get(fingerprint)
                if cached is not None:
                    self.cache_hits += 1
                    future._resolve(cached)
                    return
                self.cache_misses += 1
        self._pending.append(_PendingEntry(job, fingerprint, [future]))

    def _build_ready_deferred(self) -> None:
        """Turn every deferred job whose dependencies resolved into a
        concrete pending job (looping, since a build can unlock others)."""
        progress = True
        while progress and self._deferred:
            progress = False
            remaining: List[_DeferredEntry] = []
            for entry in self._deferred:
                failed_dep = next((dep for dep in entry.deps if dep.failed()), None)
                if failed_dep is not None:
                    # Propagate the dependency's original exception so the
                    # root cause surfaces wherever the result is awaited.
                    entry.future._fail(failed_dep._error, failed_dep._worker_traceback)
                    progress = True
                    continue
                if all(dep.done() for dep in entry.deps):
                    try:
                        job = entry.builder()
                    except Exception as exc:
                        entry.future._fail(exc)
                    else:
                        self._attach_built_job(job, entry.future)
                    progress = True
                else:
                    remaining.append(entry)
            self._deferred = remaining

    def _attach_built_job(self, job: SimJob, future: SimFuture) -> None:
        """Enqueue a builder-produced job, aliasing onto an identical job's
        future when one already exists (the deferred future must resolve in
        lockstep with it rather than simulate again)."""
        fingerprint = self._try_fingerprint(job)
        if fingerprint is not None:
            existing = self._memo.get(fingerprint)
            # A failed memo entry is not aliased onto (mirrors submit):
            # fall through and enqueue a fresh attempt instead.
            if existing is not None and existing is not future and not existing.failed():
                self.dedup_hits += 1
                if existing.done():
                    future._resolve(existing.result())
                    return
                for entry in self._pending:
                    if isinstance(entry, _LadderEntry):
                        if fingerprint in entry.fingerprints:
                            rung = entry.fingerprints.index(fingerprint)
                            entry.futures[rung].append(future)
                            return
                    elif entry.fingerprint == fingerprint:
                        entry.futures.append(future)
                        return
                # The memoised future is pending yet has no pending entry
                # (it was itself deferred and not built yet); run our copy
                # independently rather than risk a resolution deadlock.
                self._pending.append(_PendingEntry(job, None, [future]))
                return
        self._enqueue(job, fingerprint, future)

    def _run_batch(self, batch: "List[Union[_PendingEntry, _LadderEntry]]") -> None:
        """Execute one wave of entries as a single (pool) batch.

        Completions are consumed (and cached) one at a time, in whatever
        order they finish; a failing job marks its futures failed rather
        than raising mid-iteration, so every sibling simulation that
        completes is still cached — a warm restart resumes instead of
        starting over.
        """
        for position, outcome, stats in self._execute([entry.job for entry in batch]):
            self.worker_stats.merge(stats)
            self._write_checkpoint()
            entry = batch[position]
            if isinstance(entry, _LadderEntry):
                if isinstance(outcome, _JobFailure):
                    for rung_futures in entry.futures:
                        for future in rung_futures:
                            future._fail(
                                outcome.error,
                                outcome.worker_traceback,
                                attempts=outcome.attempts,
                            )
                    self._notify_progress("failure", len(entry.futures))
                    continue
                # Fan the fused pass's results out to the per-rung
                # fingerprints: the cache ends up exactly as if every rung
                # had executed as its own job.
                self.simulate_count += len(outcome)
                for rung_job, fingerprint, rung_futures, result in zip(
                    entry.job.rungs, entry.fingerprints, entry.futures, outcome
                ):
                    if self.cache is not None and fingerprint is not None:
                        self.cache.put(fingerprint, result, description=rung_job.describe())
                    for future in rung_futures:
                        future._resolve(result)
                self._notify_progress("result", len(outcome))
                continue
            if isinstance(outcome, _JobFailure):
                for future in entry.futures:
                    future._fail(
                        outcome.error, outcome.worker_traceback, attempts=outcome.attempts
                    )
                self._notify_progress("failure", 1)
                continue
            self.simulate_count += 1
            if self.cache is not None and entry.fingerprint is not None:
                self.cache.put(entry.fingerprint, outcome, description=entry.job.describe())
            for future in entry.futures:
                future._resolve(outcome)
            self._notify_progress("result", 1)

    def _notify_progress(self, kind: str, jobs: int) -> None:
        """Fire :attr:`progress_callback` for one settled batch entry."""
        callback = self.progress_callback
        if callback is None:
            return
        try:
            callback({"kind": kind, "jobs": jobs, "simulated": self.simulate_count})
        except Exception:  # pragma: no cover - observer bugs must not wedge drains
            pass

    def _execute(self, pending: List[SimJob]):
        """Yield (position, result, stats) tuples as jobs complete (any order).

        With ``jobs > 1`` every batch — even a single-job one — goes
        through the pool, so parallel runs perform zero inline executions;
        with ``jobs == 1`` everything runs inline in this process.  Pool
        dispatch rewrites each job's trace into a :class:`SharedTraceRef`
        (publishing the segment on first use) so the pickled job carries a
        few hundred bytes instead of the trace; inline execution skips the
        transport entirely — the trace never leaves this process.
        """
        indexed = list(enumerate(pending))
        if self.jobs <= 1:
            self.inline_executions += len(indexed)
            return self._execute_inline(indexed)
        self.pool_batches += 1
        return self._execute_pool(indexed)

    def _execute_pool(self, indexed):
        """Pool execution with crash containment, timeouts and retries.

        Each job is dispatched through the :class:`FaultTolerantPool` with
        its trace rewritten as a shm ref and (when a fault plan is armed)
        a one-shot fault directive.  Worker death and timeout events are
        converted into :class:`TransientJobError`\\ s and — like transient
        errors raised *inside* a worker — re-dispatched per the retry
        policy with deterministic backoff; a job that exhausts its budget
        is quarantined and yielded as a failure, so its siblings' results
        (and everything not depending on it) still flow.
        """
        pool = self._get_pool()
        policy = self.retry_policy
        originals = dict(indexed)
        attempts = {position: 1 for position, _ in indexed}
        tasks = [(position, self._dispatch_payload(position, job)) for position, job in indexed]
        for event in pool.run_batch(tasks, timeout=policy.job_timeout):
            position = event.task_id
            if event.kind == "result":
                _, outcome, stats = event.value
                if isinstance(outcome, _JobFailure) and isinstance(
                    outcome.error, TransientJobError
                ):
                    if self._retry(pool, originals, attempts, position, outcome.error):
                        continue
                    self._quarantine(originals[position], attempts[position], outcome.error)
                    outcome.attempts = attempts[position]
                yield position, outcome, stats
                continue
            if event.kind == "crash":
                self.worker_deaths += 1
                error: TransientJobError = WorkerCrashError(
                    f"sweep worker died (exit code {event.exitcode}) while executing the "
                    f"job at batch position {position} on attempt "
                    f"{attempts[position]}/{policy.max_attempts}"
                )
            else:  # timeout
                self.timeouts += 1
                error = JobTimeoutError(
                    f"job at batch position {position} exceeded its "
                    f"{policy.job_timeout:.1f}s wall-clock budget (ran {event.elapsed:.1f}s; "
                    f"worker killed) on attempt {attempts[position]}/{policy.max_attempts}"
                )
            if self._retry(pool, originals, attempts, position, error):
                continue
            self._quarantine(originals[position], attempts[position], error)
            yield position, _JobFailure(error, "", attempts=attempts[position]), {}

    def _dispatch_payload(self, position, job):
        """The picklable task for one pool dispatch: the position echo, the
        shm-rewritten job, and this dispatch's fault directive (fault plans
        count *dispatches*, so retries draw fresh — usually empty —
        directives instead of re-firing the crash that killed them)."""
        return (position, self._prepare_for_pool(job), faults.directive_for_dispatch())

    def _retry(self, pool, originals, attempts, position, error) -> bool:
        """Re-dispatch ``position`` after a transient failure if the policy
        allows; returns False when the job must be quarantined instead."""
        attempt = attempts[position]
        if not self.retry_policy.should_retry(error, attempt):
            return False
        attempts[position] = attempt + 1
        self.retries += 1
        job = originals[position]
        delay = self.retry_policy.backoff_delay(self._retry_key(job, position), attempt)
        pool.resubmit(position, self._dispatch_payload(position, job), delay=delay)
        return True

    def _retry_key(self, job, position) -> str:
        """Stable identity for backoff jitter: the job fingerprint when the
        spec layer can hash it, the batch position otherwise."""
        fingerprint = self._try_fingerprint(job) if isinstance(job, SimJob) else None
        return fingerprint if fingerprint is not None else f"batch:{position}"

    def _quarantine(self, job, attempts: int, error: BaseException) -> None:
        """Record a job that exhausted its retry budget.

        The entry carries the job's cache *fingerprints* (one per rung for
        a fused ladder) alongside the human-readable description: the
        checkpoint manifest embeds these entries, so a ``--resume`` run can
        name exactly which jobs the previous attempt quarantined instead of
        silently retrying them from scratch.
        """
        try:
            description = job.describe()
        except Exception:
            description = {}
        if isinstance(job, LadderJob):
            rungs = job.rungs
        else:
            rungs = [job]
        fingerprints = [
            fingerprint
            for fingerprint in (self._try_fingerprint(rung) for rung in rungs)
            if fingerprint is not None
        ]
        self.quarantined.append(
            {
                "job": description,
                "attempts": attempts,
                "error": str(error),
                "fingerprints": fingerprints,
            }
        )

    # ---------------------------------------------------- shared-memory dispatch
    def _prepare_for_pool(self, job: "Union[SimJob, LadderJob]"):
        """A pool-bound copy of ``job`` with its trace(s) as shm refs.

        Returns the original job unchanged when the transport declines
        (shared memory unavailable, publish failure) — the classic pickle
        path — and counts the trace bytes that consequently cross the pool
        boundary by value in :attr:`trace_bytes_pickled`.  The entries kept
        by the runner (for caching, describe(), retries) always hold the
        original job; only the dispatched copy is rewritten.
        """
        if isinstance(job, LadderJob):
            rungs = [self._prepare_sim_job(rung) for rung in job.rungs]
            if all(prepared is original for prepared, original in zip(rungs, job.rungs)):
                return job
            return replace(job, rungs=rungs)
        return self._prepare_sim_job(job)

    def _prepare_sim_job(self, job: SimJob) -> SimJob:
        trace = job.trace
        if isinstance(trace, Trace):
            key = ("inline", _trace_digest(trace))
            fallback = None
            pickled_bytes = trace.nbytes
        elif isinstance(trace, ExternalTraceSpec):
            key = ("external", trace.path, trace.name)
            fallback = trace
            pickled_bytes = 0
        else:
            key = (trace.application, trace.n_instructions, trace.seed)
            fallback = trace
            pickled_bytes = 0
        ref = self._segments.lookup(key)
        if ref is None:
            try:
                materialized = resolve_trace(trace)
            except Exception:
                # Unresolvable trace (unknown application, unreadable
                # file): ship the spec unchanged so the error surfaces in
                # the worker as *this job's* failure — publishing eagerly
                # here would abort the whole drain wave and leave sibling
                # futures unresolved.
                self.trace_bytes_pickled += pickled_bytes
                return job
            ref = self._segments.publish(key, materialized, fallback=fallback)
        if ref is None:
            # Transport declined; the job ships its trace the classic way.
            self.trace_bytes_pickled += pickled_bytes
            return job
        return replace(job, trace=ref)

    @property
    def shm_segments(self) -> int:
        """Distinct shared-memory segments published by this runner."""
        return self._segments.published

    def _execute_inline(self, indexed):
        """Inline execution pins this runner's trace-cache snapshot.

        The on-disk trace memo is process-global, so a runner constructed
        later with a different ``trace_cache`` would otherwise silently
        redirect this runner's trace reads/writes mid-life.  Pinning the
        snapshot for the batch (and restoring afterwards) keeps every
        execution of a runner — inline or pooled — on the cache it was
        built with.
        """
        previous = get_trace_cache()
        set_trace_cache(self.trace_cache)
        try:
            for item in indexed:
                yield _execute_indexed(item)
        finally:
            set_trace_cache(previous)

    def _get_pool(self):
        # A pool whose workers predate a register_organization call would
        # reject jobs naming the new class; recreate it on a stale snapshot.
        # _close_pool (not close) so the rebuild terminates AND joins the
        # old workers — discarding the Pool object without joining leaks
        # its processes until interpreter exit — while the runner's
        # published segments stay live for the replacement pool's jobs.
        if self._pool is not None and self._pool_registry != _ORGANIZATION_REGISTRY:
            self._close_pool()
        if self._pool is None:
            context = multiprocessing.get_context(self.mp_start_method)
            self._pool_registry = dict(_ORGANIZATION_REGISTRY)
            trace_cache_dir = (
                None if self.trace_cache is None else str(self.trace_cache.directory)
            )
            self._pool = FaultTolerantPool(
                context,
                processes=self.jobs,
                target=_execute_indexed,
                initializer=_install_worker_state,
                initargs=(self._pool_registry, trace_cache_dir, faults.plan_text()),
            )
        return self._pool

    # ------------------------------------------------------------- lifecycle
    def release_results(self) -> None:
        """Drop every settled future (and its retained result) from the
        in-memory dedup memo.

        A long-lived runner — the sweep service keeps one alive for days —
        otherwise accumulates a :class:`SimFuture` per distinct job it ever
        executed, each pinning its full :class:`SimulationResult`.  Calling
        this between requests bounds the runner's memory to the working set
        of the *current* request; dedup across requests still happens
        through the on-disk job cache, which serves repeated fingerprints
        without re-simulating.  Pending futures (submitted but not yet
        drained) are kept — dropping them would split a duplicate
        submission away from its in-flight execution.
        """
        self._memo = {
            fingerprint: future
            for fingerprint, future in self._memo.items()
            if not future.done()
        }

    def _close_pool(self) -> None:
        """Terminate and join the worker pool (idempotent).

        Joining matters: a terminated-but-unjoined pool leaves zombie
        worker processes behind for the interpreter's lifetime, which is
        exactly what the registry-change rebuild in :meth:`_get_pool` used
        to risk.  Published shared-memory segments are deliberately left
        alone — a successor pool's jobs may still hold refs to them.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def close(self) -> None:
        """Shut down the worker pool and unlink every published
        shared-memory segment (idempotent; the runner stays usable — a
        later batch simply starts a fresh pool and republishes).

        Safe under re-entry: a second Ctrl-C can fire a signal handler (or
        ``__del__``, or the ``weakref.finalize`` backstop at interpreter
        exit) *while* a close is already tearing down, and a naive double
        teardown would race the pool join against the segment unlink.  The
        in-progress flag turns any re-entrant call into a no-op — the
        outer close finishes the job — and every step it performs is
        itself idempotent, so close() after close() is always free.
        """
        if self._closing:
            return
        self._closing = True
        try:
            self._close_pool()
            self._segments.release_all()
        finally:
            self._closing = False

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        cache = "none" if self.cache is None else str(self.cache.directory)
        return (
            f"SweepRunner(jobs={self.jobs}, cache={cache}, "
            f"simulated={self.simulate_count}, hits={self.cache_hits}, "
            f"pending={self.pending_count}, deferred={self.deferred_count})"
        )
