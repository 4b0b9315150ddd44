"""Tests for the fused multi-configuration ladder replay.

Four layers are covered here:

* **Engine equivalence** — :func:`repro.sim.ladder.run_fused` must produce
  ``SimulationResult.to_dict()`` payloads bit-identical to standalone runs
  for every rung, across all three paper organizations, both L1 targets
  (exercising both pilot sides), warmup boundaries, odd final intervals,
  dynamic rungs and the heterogeneous general path — and equal to *both*
  single-run engines, since engines are bit-identical by contract.  The
  coalesced grid replays all three organizations' full ladders in one
  pass at several associativities, so the stack-distance tier, shared
  geometries and every fallback (FIFO, RANDOM, dynamic) ride together.
* **Pilot rule** — which passes pilot which L1: a fixed L1d for any K
  (single runs reusing their trace's memoized pilot), the L1i only from
  two rungs up, sampled plans alike.
* **Job layer** — :class:`LadderJob` validation, worker execution and the
  per-rung cache fan-out of :meth:`SweepRunner.submit_ladder`, including
  the partially-warm case (only missing rungs are fused), the
  ``fused_rungs`` / ``fused_skipped`` counters, and the coalescing of
  compatible ladders submitted before one drain.
* **Sweep integration** — :meth:`Sweep.submit_profile` collapsing a
  ladder into one fused execution while remaining byte-identical to a
  reference-engine ladder, which replays every rung standalone.
"""

from dataclasses import replace

import pytest

from repro.cache.cache import Cache
from repro.cache.replacement import ReplacementPolicy
from repro.common.config import CacheGeometry, CoreConfig, CoreKind, L2Config, SystemConfig
from repro.common.errors import SimulationError
from repro.common.units import KIB
from repro.cpu.branch import BimodalBranchPredictor
from repro.mem.main_memory import MainMemory
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.resizable_cache import ResizableCache
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.resizing.static_strategy import StaticResizing
from repro.sim import ladder, predecode
from repro.sim.jobcache import JobCache
from repro.sim.ladder import LadderEngine, run_fused
from repro.sim.runner import (
    L1SetupSpec,
    LadderJob,
    SimJob,
    StrategySpec,
    SweepRunner,
    TraceSpec,
    execute_ladder_job,
)
from repro.sim.simulator import L1Setup, Simulator
from repro.sim.sweep import DCACHE, ICACHE, Sweep, make_job

ORGANIZATIONS = [SelectiveWays, SelectiveSets, HybridSetsAndWays]


@pytest.fixture(scope="module")
def system():
    return SystemConfig()


@pytest.fixture(scope="module")
def trace():
    return TraceSpec("gcc", 6_000).materialize()


def _ladder_setups(system, factory, target):
    """Baseline rung + one static rung per ladder size, targeting one L1."""
    geometry = system.l1d if target == DCACHE else system.l1i
    setups = [(None, None)]
    for config in factory(geometry).ladder():
        setup = L1Setup(factory(geometry), StaticResizing(config))
        setups.append((setup, None) if target == DCACHE else (None, setup))
    return setups


class _ReplacementSetup(L1Setup):
    """A resizable L1 under a non-LRU replacement policy (no inclusion)."""

    def __init__(self, organization, strategy, replacement):
        super().__init__(organization, strategy)
        self.replacement = replacement

    def build(self, geometry, name):
        return ResizableCache(geometry, self.organization, self.replacement, name=name)


def _resizing(organization, miss_bound=60, size_bound=4 * 1024, sense=256):
    """A dynamic setup that really resizes.

    ``miss_bound`` is misses per sense interval; 60 per 256 accesses is a
    bound the L1s cross on the test traces, and settling and back-off are
    off so every sense interval may act.
    """
    return L1Setup(organization, DynamicResizing(
        miss_bound, size_bound, sense_interval_accesses=sense,
        settle_intervals=0, reversal_backoff_intervals=0,
    ))


def _resizes(payload):
    return payload["l1d_resizes"] + payload["l1i_resizes"]


def _coalesced_setups(system, target):
    """Every organization's full ladder in one pass, plus the fallbacks.

    A fixed baseline rung, a duplicate of the largest selective-ways rung,
    FIFO and RANDOM rungs and a dynamic rung ride along, so one fused pass
    mixes stack groups, shared geometries and per-rung kernels.
    """
    geometry = system.l1d if target == DCACHE else system.l1i
    rungs = []
    for factory in ORGANIZATIONS:
        for config in factory(geometry).ladder():
            rungs.append(L1Setup(factory(geometry), StaticResizing(config)))
    smallest = SelectiveWays(geometry).ladder()[-1]
    rungs.append(L1Setup(SelectiveWays(geometry), StaticResizing(
        SelectiveWays(geometry).ladder()[0]
    )))
    for replacement in (ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM):
        rungs.append(_ReplacementSetup(
            SelectiveWays(geometry), StaticResizing(smallest), replacement
        ))
    rungs.append(_resizing(SelectiveSets(geometry)))
    setups = [(None, None)]
    setups += [(rung, None) if target == DCACHE else (None, rung) for rung in rungs]
    return setups


class TestEngineEquivalence:
    @pytest.mark.parametrize("factory", ORGANIZATIONS)
    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_fused_matches_standalone_grid(self, system, trace, factory, target, engine):
        """The deterministic grid: organizations × targets × engines.

        Warmup deliberately off interval boundaries, and the trace length
        leaves an odd final interval.  The standalone side runs under both
        registered engines — fused output must match each, which pins the
        fused pass to the whole engine-equivalence class at once.
        """
        interval, warmup = 997, 1_234
        standalone = [
            Simulator(system, engine=engine).run(
                trace,
                d_setup=d_setup,
                i_setup=i_setup,
                interval_instructions=interval,
                warmup_instructions=warmup,
            ).to_dict()
            for d_setup, i_setup in _ladder_setups(system, factory, target)
        ]
        fused = [
            result.to_dict()
            for result in run_fused(
                Simulator(system),
                trace,
                _ladder_setups(system, factory, target),
                interval_instructions=interval,
                warmup_instructions=warmup,
            )
        ]
        assert fused == standalone
        # Static rungs must stay mid-run-resize-free in both paths: the
        # only resize is the up-front jump to the profiled configuration,
        # applied to an empty cache (so it can never flush dirty blocks).
        for payload in fused[1:]:
            resizes = payload["l1d_resizes" if target == DCACHE else "l1i_resizes"]
            flushes = payload[
                "l1d_flush_writebacks" if target == DCACHE else "l1i_flush_writebacks"
            ]
            assert resizes <= 1
            assert flushes == 0

    @pytest.mark.parametrize("associativity", [1, 2, 4, 8])
    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    def test_coalesced_ladders_match_standalone(self, trace, associativity, target):
        """All organizations' ladders in one pass, through every replay tier."""
        base = SystemConfig()
        system = base.with_l1(
            l1d=base.l1d.with_capacity(base.l1d.capacity_bytes, associativity),
            l1i=base.l1i.with_capacity(base.l1i.capacity_bytes, associativity),
        )
        interval, warmup = 997, 1_234
        standalone = [
            Simulator(system, engine="reference").run(
                trace, d_setup=d_setup, i_setup=i_setup,
                interval_instructions=interval, warmup_instructions=warmup,
            ).to_dict()
            for d_setup, i_setup in _coalesced_setups(system, target)
        ]
        before = ladder.stats_snapshot()
        fused = [
            result.to_dict()
            for result in run_fused(
                Simulator(system), trace, _coalesced_setups(system, target),
                interval_instructions=interval, warmup_instructions=warmup,
            )
        ]
        tiers = {key: value - before[key] for key, value in ladder.stats_snapshot().items()}
        assert fused == standalone
        # Every rung is served by exactly one tier; FIFO, RANDOM and the
        # dynamic rung always fall back; a direct-mapped cache has one way
        # count per set count, so only associative ladders form stack groups.
        assert tiers["ladder_passes"] == 1
        assert (
            tiers["ladder_stack_rungs"] + tiers["ladder_shared_rungs"]
            + tiers["ladder_fallback_rungs"]
        ) == len(standalone)
        assert tiers["ladder_fallback_rungs"] >= 3
        assert tiers["ladder_shared_rungs"] >= 2  # baseline and duplicate rung
        assert (tiers["ladder_stack_groups"] > 0) == (associativity > 1)
        assert _resizes(fused[-1]) > 0  # the dynamic rung

    def test_fused_matches_standalone_dynamic_rungs(self, system, trace):
        """Dynamic strategies resize mid-run; the pilot path must still agree."""
        def setups():
            return [
                (_resizing(SelectiveSets(system.l1d), 60, 8 * 1024), None),
                (_resizing(SelectiveSets(system.l1d), 120, 16 * 1024, sense=512), None),
                (None, None),
            ]

        standalone = [
            Simulator(system, engine="reference").run(
                trace, d_setup=d, i_setup=i, warmup_instructions=600
            ).to_dict()
            for d, i in setups()
        ]
        fused = [
            result.to_dict()
            for result in run_fused(
                Simulator(system), trace, setups(), warmup_instructions=600
            )
        ]
        assert fused == standalone
        assert all(_resizes(payload) > 0 for payload in fused[:2])

    def test_fused_matches_standalone_heterogeneous(self, system, trace):
        """Rungs resizing *both* L1s take the general path; still identical."""
        def setups():
            return [
                (
                    _resizing(SelectiveSets(system.l1d), 120, 8 * 1024, sense=512),
                    _resizing(SelectiveWays(system.l1i), 120, 8 * 1024, sense=512),
                ),
                (None, None),
                (
                    None,
                    L1Setup(
                        SelectiveWays(system.l1i),
                        StaticResizing(SelectiveWays(system.l1i).ladder()[1]),
                    ),
                ),
            ]

        standalone = [
            Simulator(system, engine="reference").run(trace, d_setup=d, i_setup=i).to_dict()
            for d, i in setups()
        ]
        fused = [r.to_dict() for r in run_fused(Simulator(system), trace, setups())]
        assert fused == standalone
        assert fused[0]["l1d_resizes"] > 0 and fused[0]["l1i_resizes"] > 0

    def test_single_rung_fused_equals_plain_run(self, system, trace):
        fused = run_fused(Simulator(system), trace, [(None, None)])
        assert len(fused) == 1
        assert fused[0].to_dict() == Simulator(system, engine="reference").run(trace).to_dict()

    def test_run_fused_validates_inputs(self, system, trace):
        with pytest.raises(SimulationError, match="at least one rung"):
            run_fused(Simulator(system), trace, [])
        with pytest.raises(SimulationError, match="interval length"):
            run_fused(Simulator(system), trace, [(None, None)], interval_instructions=0)

    def test_replay_many_rejects_mismatched_contexts(self, system, trace):
        simulator = Simulator(system)
        contexts = [
            simulator._prepare_run(trace, None, None, 1_500, 0),
            simulator._prepare_run(trace, None, None, 1_000, 0),
        ]
        with pytest.raises(SimulationError, match="share the interval"):
            LadderEngine().replay_many(trace, contexts)

    @pytest.mark.parametrize("swap", ["fifo-l2", "memory-subclass"])
    def test_replay_many_requires_the_stock_hierarchy(self, system, trace, swap):
        """The dispatch kernel inlines an LRU ``Cache`` L2 over ``MainMemory``;
        any other hierarchy a caller built (here by reading
        ``context.hierarchy``, which builds the stock one) is refused up
        front, never replayed."""

        class CountingMemory(MainMemory):
            pass

        simulator = Simulator(system)
        contexts = [simulator._prepare_run(trace, None, None, 1_500, 0) for _ in range(2)]
        hierarchy = contexts[1].hierarchy
        if swap == "fifo-l2":
            hierarchy.l2 = Cache(system.l2.geometry, ReplacementPolicy.FIFO, name="l2")
        else:
            hierarchy.memory = CountingMemory(system.memory)
        with pytest.raises(SimulationError, match="stock hierarchy"):
            LadderEngine().replay_many(trace, contexts)
        with pytest.raises(SimulationError, match="stock hierarchy"):
            LadderEngine().replay_many(trace, contexts[1:])

    def test_replay_many_accepts_empty_context_list(self, trace):
        LadderEngine().replay_many(trace, [])  # no-op, not an error

    def test_replay_many_requires_fresh_default_predictors(self, system, trace):
        """The memoized decode replicates a fresh default predictor; a rung
        driven by anything else is refused up front, never replayed."""
        simulator = Simulator(system)
        contexts = [simulator._prepare_run(trace, None, None, 1_500, 0) for _ in range(2)]
        contexts[1].predictor.predict_and_update(0x1000, True)
        with pytest.raises(SimulationError, match="branch predictor"):
            LadderEngine().replay_many(trace, contexts)
        contexts[1].predictor = BimodalBranchPredictor(table_entries=1024)
        with pytest.raises(SimulationError, match="branch predictor"):
            LadderEngine().replay_many(trace, contexts[1:])


def _tier_deltas(run):
    before = ladder.stats_snapshot()
    results = run()
    return results, {key: value - before[key] for key, value in ladder.stats_snapshot().items()}


class TestLeanRungs:
    """Only the first rung of each dispatch-kernel unit builds caches."""

    def test_preparing_a_run_builds_no_cache(self, system, trace, cache_builds):
        organization = SelectiveSets(system.l1d)
        setup = L1Setup(organization, StaticResizing(organization.ladder()[-1]))
        context = Simulator(system)._prepare_run(trace, setup, None, 1_500, 0)
        assert cache_builds == []
        assert context._hierarchy is None and context._predictor is None
        assert context.d_runtime.enabled_sets == organization.ladder()[-1].sets

    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    def test_a_filtered_static_ladder_builds_no_l2(self, trace, target, cache_builds):
        base = SystemConfig()
        system = base.with_l1(
            l1d=base.l1d.with_capacity(base.l1d.capacity_bytes, 4),
            l1i=base.l1i.with_capacity(base.l1i.capacity_bytes, 4),
        )
        # Hybrid rungs form stack groups, the last one twice is a shared
        # geometry, and static FIFO and RANDOM rungs each run the kernel.
        geometry = system.l1d if target == DCACHE else system.l1i
        setups = _ladder_setups(system, HybridSetsAndWays, target)
        setups.append(setups[-1])
        for replacement in (ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM):
            rung = _ReplacementSetup(
                SelectiveWays(geometry), StaticResizing(SelectiveWays(geometry).ladder()[-1]),
                replacement,
            )
            setups.append((rung, None) if target == DCACHE else (None, rung))
        _, tiers = _tier_deltas(lambda: run_fused(Simulator(system), trace, setups))
        assert tiers["ladder_l2_filtered_passes"] == 1
        assert tiers["ladder_stack_groups"] > 0 and tiers["ladder_shared_rungs"] > 0
        assert tiers["ladder_fallback_rungs"] > 1
        variant = "l1d" if target == DCACHE else "l1i"
        assert cache_builds.count("l2") == 0
        assert cache_builds.count(variant) == tiers["ladder_fallback_rungs"]
        assert tiers["ladder_hierarchies"] == tiers["ladder_fallback_rungs"] < len(setups)

    def test_a_refused_pass_builds_one_l2_per_driven_geometry(self, trace, cache_builds):
        base = SystemConfig()
        system = replace(base, l2=L2Config(geometry=CacheGeometry(
            capacity_bytes=32 * KIB, associativity=2, block_bytes=64, subarray_bytes=KIB,
        )))
        ladder_configs = HybridSetsAndWays(system.l1d).ladder()
        geometries = {(config.ways, config.sets) for config in ladder_configs}
        geometries.add((system.l1d.associativity, system.l1d.num_sets))  # the baseline
        fused, tiers = _tier_deltas(lambda: [
            result.to_dict() for result in run_fused(
                Simulator(system), trace, _ladder_setups(system, HybridSetsAndWays, DCACHE)
            )
        ])
        assert tiers["ladder_l2_filtered_passes"] == 0 and tiers["ladder_stack_groups"] == 0
        assert cache_builds.count("l2") == tiers["ladder_hierarchies"] == len(geometries)
        assert fused == [
            Simulator(system, engine="reference").run(trace, d_setup=d, i_setup=i).to_dict()
            for d, i in _ladder_setups(system, HybridSetsAndWays, DCACHE)
        ]


def _static(system, side):
    """A static selective-sets setup resizing one L1, as ``run`` keywords."""
    org = SelectiveSets(system.l1d if side == "d" else system.l1i)
    setup = L1Setup(org, StaticResizing(org.config_for_capacity(8 * 1024)))
    return {"d_setup": setup} if side == "d" else {"i_setup": setup}


def _dynamic_both(system):
    return {
        "d_setup": _resizing(SelectiveSets(system.l1d), 120, 8 * 1024, sense=512),
        "i_setup": _resizing(SelectiveWays(system.l1i), 120, 8 * 1024, sense=512),
    }


class TestPilotRule:
    """Which passes pilot: a fixed L1d for any K, a fixed L1i from K = 2, sampled or not."""

    @pytest.fixture
    def fresh(self):
        return TraceSpec("gcc", 6_000).materialize()  # no pilot memo yet

    @pytest.fixture
    def spy(self, monkeypatch):
        """Records the side of every pilot memo lookup."""
        calls = []
        pilot_for = ladder.pilot_for

        def memo(trace, decoded, side, cache):
            calls.append(side)
            return pilot_for(trace, decoded, side, cache)

        monkeypatch.setattr(ladder, "pilot_for", memo)
        return calls

    def test_both_sides_fixed_pilots_the_d_side(self, system, fresh, spy):
        result = Simulator(system).run(fresh)
        assert spy == ["d"]
        assert result.to_dict() == Simulator(system, engine="reference").run(fresh).to_dict()

    def test_single_run_reuses_the_ladders_pilot(self, system, fresh):
        run_fused(Simulator(system), fresh, _ladder_setups(system, SelectiveSets, ICACHE))
        before = predecode.stats_snapshot()
        result = Simulator(system).run(fresh, **_static(system, "i"))
        after = predecode.stats_snapshot()
        assert after["pilot_builds"] - before["pilot_builds"] == 0
        assert after["pilot_memo_hits"] - before["pilot_memo_hits"] == 1
        reference = Simulator(system, engine="reference").run(fresh, **_static(system, "i"))
        assert result.to_dict() == reference.to_dict()

    def test_sampled_runs_follow_the_same_rule(self, system, fresh, spy):
        """A sampled plan pilots from its own memo, and its ladders reach the stack tier."""
        sampled = {"sample_every": 4, "sample_warmup": 600}
        before = predecode.stats_snapshot()
        single = Simulator(system).run(fresh, **_static(system, "i"), **sampled)
        assert spy == ["d"]
        tiers = ladder.stats_snapshot()
        fused = run_fused(
            Simulator(system), fresh, _ladder_setups(system, SelectiveWays, DCACHE), **sampled
        )
        assert spy == ["d", "i"]
        tiers = {key: value - tiers[key] for key, value in ladder.stats_snapshot().items()}
        assert tiers["ladder_stack_groups"] > 0
        after = predecode.stats_snapshot()
        # One sampled decode, shared by both passes; one pilot per side.
        assert after["decode_builds"] - before["decode_builds"] == 1
        assert after["pilot_builds"] - before["pilot_builds"] == 2
        reference = Simulator(system, engine="reference")
        assert single.to_dict() == reference.run(
            fresh, **_static(system, "i"), **sampled
        ).to_dict()
        assert [result.to_dict() for result in fused] == [
            reference.run(fresh, d_setup=d_setup, i_setup=i_setup, **sampled).to_dict()
            for d_setup, i_setup in _ladder_setups(system, SelectiveWays, DCACHE)
        ]

    @pytest.mark.parametrize(
        "setups", [_dynamic_both, lambda system: _static(system, "d")],
        ids=["dynamic-both", "static-d"],
    )
    def test_single_run_resizing_the_l1d_builds_no_pilot(self, system, fresh, spy, setups):
        """Piloting the L1i pays off only when rungs share the pass."""
        result = Simulator(system).run(fresh, **setups(system))
        assert spy == []  # no pilot built or looked up
        reference = Simulator(system, engine="reference").run(fresh, **setups(system))
        assert result.to_dict() == reference.to_dict()
        assert result.to_dict()["l1d_resizes"] > 0


def _rung_jobs(system, organization, interval=500, n_instructions=3_000):
    """Baseline + whole-ladder rung jobs sharing one trace spec."""
    trace = TraceSpec("m88ksim", n_instructions)
    jobs = [SimJob(trace=trace, system=system, interval_instructions=interval)]
    for config in organization.ladder():
        jobs.append(
            SimJob(
                trace=trace,
                system=system,
                d_setup=L1SetupSpec(
                    organization=organization.name,
                    strategy=StrategySpec.static(config),
                ),
                interval_instructions=interval,
            )
        )
    return jobs


@pytest.fixture(scope="module")
def organization(system):
    return SelectiveSets(system.l1d)


@pytest.fixture(scope="module")
def ladder_jobs(system, organization):
    return _rung_jobs(system, organization)


class TestLadderJob:
    def test_rejects_empty_ladder(self):
        with pytest.raises(SimulationError, match="at least one rung"):
            LadderJob([])

    def test_rejects_mismatched_rungs(self, system, ladder_jobs):
        stranger = SimJob(
            trace=TraceSpec("gcc", 3_000), system=system, interval_instructions=500
        )
        with pytest.raises(SimulationError, match="share the trace"):
            LadderJob([ladder_jobs[0], stranger])
        longer_warmup = SimJob(
            trace=TraceSpec("m88ksim", 3_000), system=system,
            interval_instructions=500, warmup_instructions=100,
        )
        with pytest.raises(SimulationError, match="share the trace"):
            LadderJob([ladder_jobs[0], longer_warmup])
        reference = SimJob(
            trace=TraceSpec("m88ksim", 3_000), system=system,
            interval_instructions=500, engine="reference",
        )
        with pytest.raises(SimulationError, match="engine"):
            LadderJob([ladder_jobs[0], reference])

    def test_execute_ladder_job_matches_per_rung_execution(self, ladder_jobs):
        from repro.sim.runner import execute_job

        fused = execute_ladder_job(LadderJob(list(ladder_jobs)))
        standalone = [execute_job(job) for job in ladder_jobs]
        assert [r.to_dict() for r in fused] == [r.to_dict() for r in standalone]

    def test_describe_lists_every_rung(self, ladder_jobs):
        summary = LadderJob(list(ladder_jobs)).describe()
        assert len(summary["fused_rungs"]) == len(ladder_jobs)
        assert summary["fused_rungs"][0] == "fixed + fixed"
        assert "selective-sets/static" in summary["fused_rungs"][1]


class TestSubmitLadder:
    def test_cold_ladder_fuses_every_rung(self, ladder_jobs):
        runner = SweepRunner()
        futures = runner.submit_ladder(ladder_jobs)
        assert runner.pending_count == 1  # one fused execution, K rungs
        results = runner.gather(futures)
        assert runner.fused_rungs == len(ladder_jobs)
        assert runner.fused_skipped == 0
        assert runner.simulate_count == len(ladder_jobs)
        standalone = SweepRunner().run(list(ladder_jobs))
        assert [r.to_dict() for r in results] == [r.to_dict() for r in standalone]

    def test_parallel_fused_identical_to_serial(self, ladder_jobs):
        serial = SweepRunner().gather(SweepRunner().submit_ladder(ladder_jobs))
        with SweepRunner(jobs=2) as runner:
            parallel = runner.gather(runner.submit_ladder(ladder_jobs))
            assert runner.pool_batches == 1
            assert runner.inline_executions == 0
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_fused_results_fan_out_to_per_rung_fingerprints(self, tmp_path, ladder_jobs):
        """A fused pass warms the cache exactly as K standalone jobs would."""
        cache = JobCache(tmp_path / "cache")
        fused = SweepRunner(cache=cache)
        fused.gather(fused.submit_ladder(ladder_jobs))
        assert len(cache) == len(ladder_jobs)

        standalone = SweepRunner(cache=cache)
        standalone.run(list(ladder_jobs))
        assert standalone.simulate_count == 0
        assert standalone.cache_hits == len(ladder_jobs)

    def test_warm_ladder_fuses_nothing(self, tmp_path, ladder_jobs):
        cache = JobCache(tmp_path / "cache")
        cold = SweepRunner(cache=cache)
        cold_results = cold.gather(cold.submit_ladder(ladder_jobs))

        warm = SweepRunner(cache=cache)
        futures = warm.submit_ladder(ladder_jobs)
        assert all(future.done() for future in futures)
        assert warm.fused_skipped == len(ladder_jobs)
        assert warm.fused_rungs == 0
        assert warm.simulate_count == 0
        assert warm.pending_count == 0
        warm_results = warm.gather(futures)
        assert [r.to_dict() for r in warm_results] == [
            r.to_dict() for r in cold_results
        ]

    def test_partially_warm_ladder_fuses_only_missing_rungs(self, tmp_path, ladder_jobs):
        """Per-rung cache consultation at submit time: rungs simulated by an
        earlier standalone run are served from disk, the rest fuse."""
        cache = JobCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(list(ladder_jobs[:2]))

        partial = SweepRunner(cache=cache)
        futures = partial.submit_ladder(ladder_jobs)
        assert partial.fused_skipped == 2
        assert partial.fused_rungs == len(ladder_jobs) - 2
        results = partial.gather(futures)
        assert partial.simulate_count == len(ladder_jobs) - 2
        standalone = SweepRunner().run(list(ladder_jobs))
        assert [r.to_dict() for r in results] == [r.to_dict() for r in standalone]

    def test_duplicate_rungs_share_one_execution(self, system, ladder_jobs):
        runner = SweepRunner()
        futures = runner.submit_ladder([ladder_jobs[0], ladder_jobs[1], ladder_jobs[0]])
        assert futures[0] is futures[2]
        assert runner.fused_skipped == 1  # the duplicate
        assert runner.fused_rungs == 2
        runner.drain()
        assert runner.simulate_count == 2

    def test_compatible_ladders_coalesce_into_one_job(self, system, ladder_jobs):
        """Ladders sharing the contract and resized side fold before a drain."""
        ways_jobs = _rung_jobs(system, SelectiveWays(system.l1d))
        runner = SweepRunner()
        first = runner.submit_ladder(ladder_jobs)
        second = runner.submit_ladder(ways_jobs)
        (entry,) = runner._pending
        # The shared baseline rung dedups; every other rung joins the pass.
        assert second[0] is first[0]
        assert len(entry.job.rungs) == len(ladder_jobs) + len(ways_jobs) - 1
        assert runner.fused_rungs == len(entry.job.rungs)
        results = runner.gather(first + second)
        assert runner.simulate_count == len(entry.job.rungs)
        standalone = SweepRunner().run(list(ladder_jobs) + list(ways_jobs))
        assert [r.to_dict() for r in results] == [r.to_dict() for r in standalone]

    def test_incompatible_ladders_stay_separate(self, system, ladder_jobs):
        """Another resized side, core kind or engine never joins the pass."""
        trace = ladder_jobs[0].trace
        organization = SelectiveSets(system.l1i)
        i_side = [
            SimJob(
                trace=trace, system=system, interval_instructions=500,
                i_setup=L1SetupSpec(
                    organization=organization.name,
                    strategy=StrategySpec.static(config),
                ),
            )
            for config in organization.ladder()
        ]
        in_order = SystemConfig(core=CoreConfig(kind=CoreKind.IN_ORDER_BLOCKING))
        other_core = [
            SimJob(
                trace=job.trace, system=in_order, d_setup=job.d_setup,
                interval_instructions=500,
            )
            for job in ladder_jobs[1:]
        ]
        # Two d-side ladders on a second trace that differ only in engine:
        # a reference ladder replays rung by rung, so it never folds into
        # the fused one.
        second_trace = TraceSpec("m88ksim", 2_500)
        reference = [
            replace(job, trace=second_trace, engine="reference") for job in ladder_jobs
        ]
        fused_ways = [
            replace(job, trace=second_trace)
            for job in _rung_jobs(system, SelectiveWays(system.l1d))[1:]
        ]
        runner = SweepRunner()
        futures = runner.submit_ladder(ladder_jobs)
        futures += runner.submit_ladder(i_side)
        futures += runner.submit_ladder(other_core)
        futures += runner.submit_ladder(reference)
        futures += runner.submit_ladder(fused_ways)
        assert runner.pending_count == 5
        assert [len(entry.job.rungs) for entry in runner._pending] == [
            len(ladder_jobs), len(i_side), len(other_core), len(reference),
            len(fused_ways),
        ]
        results = runner.gather(futures)
        standalone = SweepRunner().run(
            list(ladder_jobs) + i_side + other_core + reference + fused_ways
        )
        assert [r.to_dict() for r in results] == [r.to_dict() for r in standalone]

    def test_ladders_never_join_a_drained_batch(self, ladder_jobs):
        runner = SweepRunner()
        runner.gather(runner.submit_ladder(ladder_jobs[:3]))
        runner.submit_ladder(ladder_jobs[3:])
        (entry,) = runner._pending
        assert len(entry.job.rungs) == len(ladder_jobs) - 3

    def test_ladder_failure_fails_every_missing_rung(self, ladder_jobs):
        from repro.common.errors import WorkloadError

        bad = SimJob(
            trace=TraceSpec("no-such-app", 3_000),
            system=ladder_jobs[0].system,
            interval_instructions=500,
        )
        runner = SweepRunner()
        # The bad rung shares every fused field (trace spec equality is on
        # the spec, which only fails at materialisation time in the worker).
        futures = runner.submit_ladder([bad])
        runner.drain()
        assert futures[0].failed()
        with pytest.raises(WorkloadError):
            futures[0].result()


class TestSweepIntegration:
    @pytest.mark.parametrize("target", [DCACHE, ICACHE])
    def test_profile_static_modes_identical(self, system, organization, target):
        """A fused profile equals a reference-engine one, rung by rung."""
        trace = TraceSpec("m88ksim", 3_000)
        profiles = {}
        for engine in ("columnar", "reference"):
            profiles[engine] = Sweep(
                Simulator(system, engine=engine), SweepRunner(), warmup_instructions=300,
            ).profile(trace, organization, target=target)
        fused, reference = profiles["columnar"], profiles["reference"]
        assert fused.best_config == reference.best_config
        assert fused.baseline.to_dict() == reference.baseline.to_dict()
        for config in organization.ladder():
            assert fused.results[config].to_dict() == reference.results[config].to_dict()

    def test_submit_profile_static_fuses_baseline_and_ladder(self, system, organization):
        runner = SweepRunner()
        profile = Sweep(Simulator(system), runner, warmup_instructions=300).submit_profile(
            TraceSpec("m88ksim", 3_000), organization, target=DCACHE,
        )
        # Baseline + whole ladder ride one fused execution.
        assert runner.pending_count == 1
        assert runner.fused_rungs == len(organization.ladder()) + 1
        profile.result()
        assert runner.simulate_count == len(organization.ladder()) + 1

    def test_shared_baseline_future_is_not_refused(self, system, organization):
        runner = SweepRunner()
        sweep = Sweep(Simulator(system), runner, warmup_instructions=300)
        trace = TraceSpec("m88ksim", 3_000)
        baseline = sweep.submit_baseline(trace)
        profile = sweep.submit_profile(trace, organization, target=DCACHE, baseline=baseline)
        assert profile.baseline is baseline
        profile.result()
        # Baseline simulated once (as its own job), ladder fused.
        assert runner.simulate_count == len(organization.ladder()) + 1
        assert runner.fused_rungs == len(organization.ladder())

    def test_unknown_ladder_mode_rejected(self, system, organization):
        # Ladder modes are retired — the engine decides how a ladder runs —
        # so every ladder_mode argument is now an unknown keyword.
        with pytest.raises(TypeError, match="ladder_mode"):
            Sweep(Simulator(system), ladder_mode="per-config")
        with pytest.raises(TypeError, match="ladder_mode"):
            Sweep(Simulator(system)).submit_profile(
                TraceSpec("m88ksim", 3_000), organization, ladder_mode="fused",
            )

    def test_fused_and_per_config_make_identical_jobs(self, system, organization):
        """A fused rung fingerprints like its standalone job — the cache contract."""
        simulator = Simulator(system)
        trace = TraceSpec("m88ksim", 3_000)
        config = organization.ladder()[0]
        spec = L1SetupSpec(
            organization=organization.name,
            strategy=StrategySpec.static(config),
            geometry=organization.geometry,
        )
        job = make_job(simulator, trace, d_setup=spec, warmup_instructions=300)

        runner = SweepRunner()
        Sweep(simulator, runner, warmup_instructions=300).submit_profile(
            trace, organization, target=DCACHE,
        )
        fingerprints = [
            fp
            for entry in runner._pending
            for fp in entry.fingerprints
        ]
        assert job.fingerprint() in fingerprints
