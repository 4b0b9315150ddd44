"""repro — resizable cache design-space exploration.

A from-scratch reproduction of *"Exploiting Choice in Resizable Cache Design
to Optimize Deep-Submicron Processor Energy-Delay"* (Yang, Powell, Falsafi,
Vijaykumar — HPCA 2002): trace-driven cache hierarchy simulation, the
selective-ways / selective-sets / hybrid resizing organizations, static and
miss-ratio-based dynamic resizing strategies, Wattch-style energy accounting
and the experiment harnesses that regenerate every table and figure of the
paper's evaluation.

Quickstart::

    from repro import (
        SystemConfig, Simulator, L1Setup, SelectiveSets, StaticResizing,
        WorkloadGenerator, get_profile,
    )

    system = SystemConfig()                       # Table 2 base system
    trace = WorkloadGenerator(get_profile("gcc")).generate(60_000)
    organization = SelectiveSets(system.l1d)
    simulator = Simulator(system)

    baseline = simulator.run(trace)
    resized = simulator.run(
        trace,
        d_setup=L1Setup(organization, StaticResizing(organization.config_for_capacity(16 * 1024))),
    )
    print(resized.energy_delay_reduction(baseline))
"""

from repro.common.config import (
    CacheGeometry,
    CacheTiming,
    CoreConfig,
    CoreKind,
    L2Config,
    MemoryConfig,
    SystemConfig,
)
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    ResizingError,
    SimulationError,
    WorkloadError,
)
from repro.cache.cache import AccessResult, Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.replacement import ReplacementPolicy
from repro.cpu.timing import CoreTimingParameters
from repro.energy.technology import TechnologyParameters
from repro.metrics.breakdown import EnergyBreakdown
from repro.metrics.counts import IntervalCounts
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.organization import ResizingOrganization, SizeConfig
from repro.resizing.profiler import DynamicParameters, ProfilePoint
from repro.resizing.resizable_cache import ResizableCache
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.resizing.static_strategy import StaticResizing
from repro.resizing.strategy import NoResizing, ResizingStrategy
from repro.sim.engine import (
    DEFAULT_ENGINE,
    ColumnarEngine,
    ReferenceEngine,
    ReplayEngine,
    available_engines,
    register_engine,
)
from repro.sim.future import SimFuture
from repro.sim.jobcache import JobCache
from repro.sim.results import SimulationResult
from repro.sim.ladder import LadderEngine, run_fused
from repro.sim.runner import (
    L1SetupSpec,
    LadderJob,
    SimJob,
    StrategySpec,
    SweepRunner,
    TraceSpec,
    register_organization,
    set_trace_cache,
)
from repro.sim.simulator import L1Setup, Simulator
from repro.sim.tracecache import TraceCache
from repro.sim.sweep import (
    StaticProfile,
    StaticProfileFuture,
    Sweep,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import (
    SPEC_APPLICATION_NAMES,
    WorkloadProfile,
    get_profile,
    iter_profiles,
)
from repro.workloads.trace import InstructionRecord, Trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SystemConfig",
    "CacheGeometry",
    "CacheTiming",
    "L2Config",
    "MemoryConfig",
    "CoreConfig",
    "CoreKind",
    "CoreTimingParameters",
    "TechnologyParameters",
    # errors
    "ReproError",
    "ConfigurationError",
    "ResizingError",
    "SimulationError",
    "WorkloadError",
    # cache substrate
    "Cache",
    "AccessResult",
    "CacheHierarchy",
    "ReplacementPolicy",
    # resizing
    "ResizingOrganization",
    "SizeConfig",
    "SelectiveWays",
    "SelectiveSets",
    "HybridSetsAndWays",
    "ResizableCache",
    "ResizingStrategy",
    "NoResizing",
    "StaticResizing",
    "DynamicResizing",
    "ProfilePoint",
    "DynamicParameters",
    # metrics
    "EnergyBreakdown",
    "IntervalCounts",
    # simulation
    "Simulator",
    "L1Setup",
    "SimulationResult",
    # the unified sweep facade (canonical entry point)
    "Sweep",
    "StaticProfile",
    # sweep engine
    "SimJob",
    "TraceSpec",
    "StrategySpec",
    "L1SetupSpec",
    "SweepRunner",
    "JobCache",
    "register_organization",
    # replay engines
    "ReplayEngine",
    "ReferenceEngine",
    "ColumnarEngine",
    "DEFAULT_ENGINE",
    "available_engines",
    "register_engine",
    # trace cache
    "TraceCache",
    "set_trace_cache",
    # deferred-submission job graph
    "SimFuture",
    "StaticProfileFuture",
    # fused ladder replay
    "LadderEngine",
    "LadderJob",
    "run_fused",
    # workloads
    "WorkloadProfile",
    "WorkloadGenerator",
    "Trace",
    "InstructionRecord",
    "get_profile",
    "iter_profiles",
    "SPEC_APPLICATION_NAMES",
]
