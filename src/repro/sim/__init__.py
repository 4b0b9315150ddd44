"""Simulation driver: ties caches, cores, energy models and workloads together."""

from repro.sim.engine import (
    DEFAULT_ENGINE,
    ColumnarEngine,
    ReferenceEngine,
    ReplayEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.sim.future import SimFuture
from repro.sim.jobcache import JobCache
from repro.sim.ladder import LadderEngine, run_fused
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    L1SetupSpec,
    LadderJob,
    SimJob,
    StrategySpec,
    SweepRunner,
    TraceSpec,
    execute_job,
    execute_ladder_job,
    get_trace_cache,
    job_fingerprint,
    register_organization,
    resolve_trace,
    set_trace_cache,
)
from repro.sim.simulator import L1Setup, Simulator
from repro.sim.tracecache import TraceCache
from repro.sim.sweep import (
    StaticProfile,
    StaticProfileFuture,
    Sweep,
    make_job,
)

__all__ = [
    "SimulationResult",
    "L1Setup",
    "Simulator",
    # the unified sweep facade (canonical entry point)
    "Sweep",
    "StaticProfile",
    "make_job",
    # sweep engine
    "SimJob",
    "TraceSpec",
    "StrategySpec",
    "L1SetupSpec",
    "SweepRunner",
    "JobCache",
    "execute_job",
    "job_fingerprint",
    "register_organization",
    "resolve_trace",
    # deferred-submission job graph
    "SimFuture",
    "StaticProfileFuture",
    # fused ladder replay
    "LadderEngine",
    "LadderJob",
    "execute_ladder_job",
    "run_fused",
    # replay engines
    "ReplayEngine",
    "ReferenceEngine",
    "ColumnarEngine",
    "DEFAULT_ENGINE",
    "available_engines",
    "get_engine",
    "register_engine",
    # trace cache
    "TraceCache",
    "set_trace_cache",
    "get_trace_cache",
]
