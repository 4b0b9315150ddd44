"""Property-based fused-vs-reference equivalence for ladder replay.

Hypothesis drives randomly drawn workload mixes, trace lengths (including
odd-length final intervals), warmup boundaries, sampling schedules,
resizing targets and rung mixes (static ladders, dynamic rungs, a fixed
baseline rung, heterogeneous both-sides rungs) through
:func:`repro.sim.ladder.run_fused` and asserts
byte-identical ``SimulationResult.to_dict()`` payloads against standalone
:meth:`Simulator.run` executions of every rung under the reference engine
(the default engine is itself a one-rung ladder, so it is no oracle here).  Any divergence — a
mis-shared branch outcome, a pilot-side op wrongly dropped, an interval
closed in the wrong order — fails with a shrunken minimal example.

The coalesced property draws whole ladders of several organizations into
one pass over a drawn L1 associativity, with duplicate rungs and FIFO,
RANDOM and dynamic rungs mixed in: that pins the stack-distance tier
(hits, victims, dirty thresholds), the shared geometries and the fallback
selection to standalone runs.

The L2 is drawn too: the default one, which no drawn trace overflows (so
the pass takes the compulsory-miss filter and never simulates it), or one
shrunk until it evicts (so the pass is refused and simulates it).  The
dynamic rung's bound makes it resize, so resize flushes reach both.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.cache.replacement import ReplacementPolicy
from repro.common.config import CacheGeometry, L2Config, SystemConfig
from repro.common.units import KIB
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.resizable_cache import ResizableCache
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.resizing.static_strategy import StaticResizing
from repro.sim.ladder import run_fused
from repro.sim.runner import TraceSpec
from repro.sim.simulator import L1Setup, Simulator

_SYSTEM = SystemConfig()

_APPLICATIONS = st.sampled_from(["gcc", "compress", "swim", "vortex"])

#: Lengths straddle several interval boundaries and deliberately include
#: values that leave an odd-length final interval.
_LENGTHS = st.integers(min_value=1_001, max_value=4_000)

_INTERVALS = st.sampled_from([97, 250, 1_024, 1_500])

_ORGANIZATIONS = st.sampled_from([SelectiveWays, SelectiveSets, HybridSetsAndWays])

#: Ladder shapes: which side resizes (exercising both pilot paths), whether
#: a fixed baseline rung rides along, and whether a rung resizes
#: dynamically.  "both" forces the heterogeneous general path.
_TARGETS = st.sampled_from(["d", "i", "both"])
_WITH_BASELINE = st.booleans()
_WITH_DYNAMIC = st.booleans()

#: Interval sampling: every Nth interval (1 = exhaustive), with no warmup
#: prefix or one of about half an interval.
_SAMPLE_EVERY = st.sampled_from([1, 2, 3, 5])
_SAMPLE_WARMUP_FRACTIONS = st.sampled_from([0.0, 0.5])

#: The default L2 (filtered), or a shrunk one that evicts (refused):
#: (capacity, ways) of a 64-byte-block L2.
_L2S = st.sampled_from([None, (8 * KIB, 1), (16 * KIB, 2), (32 * KIB, 1), (32 * KIB, 2)])


def _system_with_l2(l2):
    if l2 is None:
        return _SYSTEM
    capacity, ways = l2
    return replace(_SYSTEM, l2=L2Config(geometry=CacheGeometry(
        capacity_bytes=capacity, associativity=ways, block_bytes=64, subarray_bytes=KIB,
    )))


def _build_setups(factory, target, with_baseline, with_dynamic):
    """Fresh, stateful setup objects for one ladder (standalone or fused)."""

    def one_side(side):
        geometry = _SYSTEM.l1d if side == "d" else _SYSTEM.l1i
        organization = factory(geometry)
        ladder = organization.ladder()
        rungs = [
            L1Setup(factory(geometry), StaticResizing(config))
            for config in (ladder[0], ladder[min(1, len(ladder) - 1)])
        ]
        if with_dynamic:
            rungs.append(
                L1Setup(
                    factory(geometry),
                    DynamicResizing(
                        miss_bound=60,
                        size_bound_bytes=4 * 1024,
                        sense_interval_accesses=256,
                        settle_intervals=0,
                        reversal_backoff_intervals=0,
                    ),
                )
            )
        return rungs

    if target == "both":
        setups = [
            (d_setup, i_setup)
            for d_setup, i_setup in zip(one_side("d"), one_side("i"))
        ]
    elif target == "d":
        setups = [(setup, None) for setup in one_side("d")]
    else:
        setups = [(None, setup) for setup in one_side("i")]
    if with_baseline:
        setups.insert(0, (None, None))
    return setups


@given(
    application=_APPLICATIONS,
    length=_LENGTHS,
    interval=_INTERVALS,
    warmup_fraction=st.sampled_from([0.0, 0.13, 0.5]),
    factory=_ORGANIZATIONS,
    target=_TARGETS,
    with_baseline=_WITH_BASELINE,
    with_dynamic=_WITH_DYNAMIC,
    sample_every=_SAMPLE_EVERY,
    sample_warmup_fraction=_SAMPLE_WARMUP_FRACTIONS,
    l2=_L2S,
)
@settings(max_examples=15, deadline=None)
def test_fused_ladder_agrees_with_standalone_runs(
    application, length, interval, warmup_fraction, factory, target,
    with_baseline, with_dynamic, sample_every, sample_warmup_fraction, l2,
):
    system = _system_with_l2(l2)
    trace = TraceSpec(application, length).materialize()
    warmup = int(length * warmup_fraction)
    sampling = {
        "sample_every": sample_every,
        "sample_warmup": int(interval * sample_warmup_fraction),
    }

    standalone = [
        Simulator(system, engine="reference").run(
            trace,
            d_setup=d_setup,
            i_setup=i_setup,
            interval_instructions=interval,
            warmup_instructions=warmup,
            **sampling,
        ).to_dict()
        for d_setup, i_setup in _build_setups(factory, target, with_baseline, with_dynamic)
    ]
    fused = [
        result.to_dict()
        for result in run_fused(
            Simulator(system),
            trace,
            _build_setups(factory, target, with_baseline, with_dynamic),
            interval_instructions=interval,
            warmup_instructions=warmup,
            **sampling,
        )
    ]
    assert fused == standalone


class _ReplacementSetup(L1Setup):
    """A resizable L1 under a drawn replacement policy."""

    def __init__(self, organization, strategy, replacement):
        super().__init__(organization, strategy)
        self.replacement = replacement

    def build(self, geometry, name):
        return ResizableCache(geometry, self.organization, self.replacement, name=name)


_FACTORY_SETS = st.lists(_ORGANIZATIONS, min_size=1, max_size=3, unique=True)

#: Extra rungs riding a coalesced pass: a duplicate static rung, rungs
#: under each replacement policy, a dynamic rung.
_EXTRAS = st.lists(
    st.sampled_from(["duplicate", "lru", "fifo", "random", "dynamic"]), max_size=3
)


def _coalesced_setups(system, factories, side, with_baseline, extras):
    geometry = system.l1d if side == "d" else system.l1i
    rungs = [
        L1Setup(factory(geometry), StaticResizing(config))
        for factory in factories
        for config in factory(geometry).ladder()
    ]
    smallest = factories[0](geometry).ladder()[-1]
    for extra in extras:
        if extra == "duplicate":
            rungs.append(L1Setup(factories[0](geometry), StaticResizing(smallest)))
        elif extra == "dynamic":
            rungs.append(L1Setup(
                factories[0](geometry),
                DynamicResizing(0.02, 8 * 1024, sense_interval_accesses=256),
            ))
        else:
            rungs.append(_ReplacementSetup(
                factories[0](geometry), StaticResizing(smallest),
                ReplacementPolicy.parse(extra),
            ))
    setups = [(rung, None) if side == "d" else (None, rung) for rung in rungs]
    if with_baseline:
        setups.insert(0, (None, None))
    return setups


@given(
    application=_APPLICATIONS,
    length=_LENGTHS,
    interval=_INTERVALS,
    associativity=st.sampled_from([1, 2, 4, 8, 16]),
    factories=_FACTORY_SETS,
    side=st.sampled_from(["d", "i"]),
    with_baseline=_WITH_BASELINE,
    extras=_EXTRAS,
)
@settings(max_examples=15, deadline=None)
def test_coalesced_ladders_agree_with_standalone_runs(
    application, length, interval, associativity, factories, side, with_baseline, extras,
):
    system = _SYSTEM.with_l1(
        l1d=_SYSTEM.l1d.with_capacity(_SYSTEM.l1d.capacity_bytes, associativity),
        l1i=_SYSTEM.l1i.with_capacity(_SYSTEM.l1i.capacity_bytes, associativity),
    )
    trace = TraceSpec(application, length).materialize()
    warmup = length // 7

    standalone = [
        Simulator(system, engine="reference").run(
            trace, d_setup=d_setup, i_setup=i_setup,
            interval_instructions=interval, warmup_instructions=warmup,
        ).to_dict()
        for d_setup, i_setup in _coalesced_setups(
            system, factories, side, with_baseline, extras
        )
    ]
    fused = [
        result.to_dict()
        for result in run_fused(
            Simulator(system), trace,
            _coalesced_setups(system, factories, side, with_baseline, extras),
            interval_instructions=interval, warmup_instructions=warmup,
        )
    ]
    assert fused == standalone
