"""Tests for the parallel sweep engine (SweepRunner + job specs)."""

import dataclasses

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.profiler import DynamicParameters
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.static_strategy import StaticResizing
from repro.sim.jobcache import JobCache
from repro.sim.runner import (
    L1SetupSpec,
    SimJob,
    StrategySpec,
    SweepRunner,
    TraceSpec,
    execute_job,
)
from repro.sim.simulator import L1Setup, Simulator
from repro.sim.sweep import DCACHE, Sweep, make_job


class SpawnSets(SelectiveSets):
    """Module-level custom organization (picklable by reference into workers)."""

    name = "spawn-sets"


class LateSets(SelectiveSets):
    """Registered only after a pool has already started (see test below)."""

    name = "late-sets"


@pytest.fixture(scope="module")
def system():
    return SystemConfig()


@pytest.fixture(scope="module")
def organization(system):
    return SelectiveSets(system.l1d)


@pytest.fixture(scope="module")
def ladder_jobs(system, organization):
    """A baseline job plus one static job per ladder size (small trace)."""
    trace = TraceSpec("m88ksim", 3_000)
    jobs = [SimJob(trace=trace, system=system, interval_instructions=500)]
    for config in organization.ladder():
        jobs.append(
            SimJob(
                trace=trace,
                system=system,
                d_setup=L1SetupSpec(
                    organization=organization.name, strategy=StrategySpec.static(config)
                ),
                interval_instructions=500,
            )
        )
    return jobs


def results_equal(a, b) -> bool:
    return dataclasses.asdict(a) == dataclasses.asdict(b)


class TestSpecs:
    def test_trace_spec_materialises_deterministically(self):
        spec = TraceSpec("gcc", 2_000)
        first, second = spec.materialize(), spec.materialize()
        assert first.records == second.records
        assert first.memory_level_parallelism == second.memory_level_parallelism

    def test_setup_spec_roundtrip_static(self, system, organization):
        config = organization.ladder()[-1]
        setup = L1Setup(organization, StaticResizing(config))
        spec = L1SetupSpec.from_setup(setup)
        assert spec.organization == organization.name
        assert spec.strategy.kind == "static"
        rebuilt = spec.build(system.l1d)
        assert rebuilt.organization.configs == organization.configs
        assert rebuilt.strategy.config == config

    def test_setup_spec_roundtrip_dynamic(self, system, organization):
        strategy = DynamicResizing(
            miss_bound=3.5, size_bound_bytes=4096, sense_interval_accesses=512
        )
        spec = L1SetupSpec.from_setup(L1Setup(organization, strategy))
        rebuilt = spec.build(system.l1d).strategy
        assert isinstance(rebuilt, DynamicResizing)
        assert rebuilt.miss_bound == 3.5
        assert rebuilt.size_bound_bytes == 4096
        assert rebuilt.sense_interval_accesses == 512

    def test_unregistered_organization_rejected(self, system):
        class Exotic(SelectiveSets):
            name = "exotic-sets"

        with pytest.raises(SimulationError):
            L1SetupSpec.from_setup(L1Setup(Exotic(system.l1d), None))

    def test_subclass_inheriting_registered_name_rejected(self, system):
        # A subclass that *inherits* "selective-sets" must not be silently
        # rebuilt as plain SelectiveSets in workers.
        class ShadowSets(SelectiveSets):
            pass

        with pytest.raises(SimulationError, match="not registered"):
            L1SetupSpec.from_setup(L1Setup(ShadowSets(system.l1d), None))

    def test_geometry_mismatch_preserved_through_spec(self, system):
        # An organization built on a different geometry than the target cache
        # must still be rejected after the spec round-trip (the live
        # L1Setup.build guard this replaces).
        from repro.common.config import CacheGeometry

        big_org = SelectiveSets(CacheGeometry(64 * 1024, 2))
        with pytest.raises(SimulationError, match="does not match"):
            Sweep(Simulator(system)).with_setups(
                TraceSpec("gcc", 2_000), d_setup=L1Setup(big_org, None)
            )

    def test_custom_registration_reaches_spawned_workers(self, system):
        # Spawned workers import runner.py fresh; the pool initializer must
        # restore custom registrations.  (Module-level class so it pickles
        # by reference into the spawn worker.)
        from repro.sim.runner import register_organization

        register_organization(SpawnSets)
        job = SimJob(
            trace=TraceSpec("gcc", 1_500),
            system=system,
            d_setup=L1SetupSpec(organization="spawn-sets"),
            interval_instructions=500,
        )
        jobs = [job, SimJob(trace=TraceSpec("gcc", 1_500), system=system,
                            interval_instructions=500)]
        with SweepRunner(jobs=2, mp_start_method="spawn") as runner:
            results = runner.run(jobs)
        assert results[0].l1d_label.endswith("(spawn-sets/none)")

    def test_conflicting_registration_rejected(self):
        from repro.sim.runner import register_organization

        class ImposterSets(SelectiveSets):
            name = "selective-sets"  # taken by the real SelectiveSets

        with pytest.raises(SimulationError, match="already registered"):
            register_organization(ImposterSets)
        # Re-registering the same class is a no-op, not a conflict.
        register_organization(SelectiveSets)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SimulationError):
            SweepRunner(jobs=0)

    def test_trace_memo_is_bounded(self):
        from repro.sim import runner as runner_module

        for n in range(1_000, 1_000 + 2 * runner_module._TRACE_MEMO_MAX):
            runner_module.resolve_trace(TraceSpec("gcc", n))
        assert len(runner_module._TRACE_MEMO) <= runner_module._TRACE_MEMO_MAX


class TestSweepRunner:
    def test_parallel_results_equal_serial(self, ladder_jobs):
        serial = SweepRunner(jobs=1).run(ladder_jobs)
        parallel = SweepRunner(jobs=2).run(ladder_jobs)
        assert len(serial) == len(parallel) == len(ladder_jobs)
        for left, right in zip(serial, parallel):
            assert results_equal(left, right)

    def test_results_keep_input_order(self, ladder_jobs):
        runner = SweepRunner(jobs=2)
        results = runner.run(ladder_jobs)
        # The baseline (first job) is the only fixed/fixed run.
        assert results[0].l1d_label.endswith("(fixed)")
        assert runner.simulate_count == len(ladder_jobs)

    def test_cache_serves_second_batch(self, tmp_path, ladder_jobs):
        cache = JobCache(tmp_path / "cache")
        cold = SweepRunner(jobs=2, cache=cache)
        first = cold.run(ladder_jobs)
        assert cold.simulate_count == len(ladder_jobs)
        assert cold.cache_hits == 0

        warm = SweepRunner(jobs=2, cache=cache)
        second = warm.run(ladder_jobs)
        assert warm.simulate_count == 0
        assert warm.cache_hits == len(ladder_jobs)
        for left, right in zip(first, second):
            assert results_equal(left, right)

    def test_mixed_hit_miss_batch(self, tmp_path, ladder_jobs):
        cache = JobCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(ladder_jobs[:2])
        runner = SweepRunner(cache=cache)
        runner.run(ladder_jobs)
        assert runner.cache_hits == 2
        assert runner.simulate_count == len(ladder_jobs) - 2

    def test_registration_after_pool_start_reaches_workers(self, system, ladder_jobs):
        # Registering an organization after the pool exists must recreate
        # the pool so workers see the new class.
        from repro.sim.runner import register_organization

        with SweepRunner(jobs=2) as runner:
            runner.run(ladder_jobs[:2])  # starts the pool
            register_organization(LateSets)
            late_jobs = [
                SimJob(
                    trace=TraceSpec("gcc", 1_500), system=system,
                    d_setup=L1SetupSpec(organization="late-sets"),
                    interval_instructions=500,
                ),
                SimJob(trace=TraceSpec("gcc", 1_500), system=system,
                       interval_instructions=500),
            ]
            results = runner.run(late_jobs)
        assert results[0].l1d_label.endswith("(late-sets/none)")

    def test_failed_job_does_not_discard_sibling_results(self, tmp_path, system, ladder_jobs):
        # One bad job in a batch must raise — but only after every completed
        # sibling simulation has been cached.
        from repro.common.errors import WorkloadError

        cache = JobCache(tmp_path / "cache")
        bad = SimJob(trace=TraceSpec("no-such-app", 1_500), system=system)
        batch = [ladder_jobs[0], bad, *ladder_jobs[1:3]]
        runner = SweepRunner(jobs=2, cache=cache)
        with pytest.raises(WorkloadError):
            runner.run(batch)
        assert runner.simulate_count == len(batch) - 1

        warm = SweepRunner(cache=cache)
        warm.run([ladder_jobs[0], *ladder_jobs[1:3]])
        assert warm.simulate_count == 0  # siblings were all persisted

    def test_run_one_matches_execute_job(self, ladder_jobs):
        direct = execute_job(ladder_jobs[0])
        via_runner = SweepRunner().run_one(ladder_jobs[0])
        assert results_equal(direct, via_runner)


    def test_reference_ladder_replays_every_rung_standalone(
        self, ladder_jobs, monkeypatch
    ):
        # --engine reference is honoured inside ladders: one ReferenceEngine
        # replay per rung, no fused pass, and the fused results unchanged.
        from repro.sim import ladder
        from repro.sim.engine import ReferenceEngine

        replays = []
        original = ReferenceEngine.replay

        def counting_replay(self, trace, ctx):
            replays.append(ctx)
            return original(self, trace, ctx)

        monkeypatch.setattr(ReferenceEngine, "replay", counting_replay)
        rungs = [dataclasses.replace(job, engine="reference") for job in ladder_jobs]
        passes = ladder.stats_snapshot()["ladder_passes"]
        runner = SweepRunner()
        results = runner.gather(runner.submit_ladder(rungs))
        assert len(replays) == len(rungs)
        assert ladder.stats_snapshot()["ladder_passes"] == passes
        fused = SweepRunner().gather(SweepRunner().submit_ladder(ladder_jobs))
        assert [r.to_dict() for r in results] == [r.to_dict() for r in fused]

    def test_fused_rungs_count_only_columnar_ladders(self, ladder_jobs):
        # A reference-engine ladder replays rung by rung: nothing is fused,
        # although every rung is still simulated.
        rungs = [dataclasses.replace(job, engine="reference") for job in ladder_jobs]
        runner = SweepRunner()
        runner.gather(runner.submit_ladder(rungs))
        assert runner.fused_rungs == 0
        assert runner.simulate_count == len(rungs)
        columnar = SweepRunner()
        columnar.gather(columnar.submit_ladder(ladder_jobs))
        assert columnar.fused_rungs == len(ladder_jobs)


class TestSweepIntegration:
    """The sweep functions produce identical numbers through any runner."""

    @pytest.fixture(scope="class")
    def sim_and_trace(self, system):
        return Simulator(system), TraceSpec("m88ksim", 3_000)

    def test_profile_static_serial_vs_parallel(self, sim_and_trace, organization):
        simulator, trace = sim_and_trace
        serial = Sweep(simulator, warmup_instructions=300).profile(
            trace, organization, target=DCACHE
        )
        parallel = Sweep(simulator, SweepRunner(jobs=2), warmup_instructions=300).profile(
            trace, organization, target=DCACHE
        )
        assert serial.best_config == parallel.best_config
        assert results_equal(serial.baseline, parallel.baseline)
        for config in organization.ladder():
            assert results_equal(serial.results[config], parallel.results[config])

    def test_profile_matches_direct_simulator_run(self, sim_and_trace, organization):
        simulator, trace = sim_and_trace
        profile = Sweep(simulator, warmup_instructions=300).profile(
            trace, organization, target=DCACHE
        )
        config = organization.ladder()[-1]
        direct = simulator.run(
            trace.materialize(),
            d_setup=L1Setup(organization, StaticResizing(config)),
            warmup_instructions=300,
        )
        assert results_equal(profile.results[config], direct)

    @pytest.mark.parametrize(
        "call", ["strategy-subclass", "custom-strategy", "profile", "dynamic"]
    )
    def test_setups_the_job_layer_cannot_name_raise(self, system, organization, call):
        # A strategy subclass or an unregistered organization subclass is
        # never silently rebuilt as its base class, nor run on a side path:
        # every sweep call raises before anything simulates.
        from repro.resizing.strategy import ResizingStrategy

        class CountingDynamic(DynamicResizing):
            def observe_interval(self, accesses, misses, current):
                return super().observe_interval(accesses, misses, current)

        class AlwaysSmallest(ResizingStrategy):
            name = "always-smallest"

            def initial_config(self):
                return self.organization.min_config

        class PrivateSets(SelectiveSets):
            name = "private-sets"

        sweep = Sweep(Simulator(system), warmup_instructions=200)
        trace = TraceSpec("gcc", 2_000)
        private = PrivateSets(system.l1d)
        calls = {
            "strategy-subclass": lambda: sweep.with_setups(
                trace,
                d_setup=L1Setup(
                    organization,
                    CountingDynamic(
                        miss_bound=5.0, size_bound_bytes=4096, sense_interval_accesses=256
                    ),
                ),
            ),
            "custom-strategy": lambda: sweep.with_setups(
                trace, d_setup=L1Setup(organization, AlwaysSmallest()),
            ),
            "profile": lambda: sweep.profile(trace, private),
            "dynamic": lambda: sweep.dynamic(
                trace, private, DynamicParameters(5.0, 4096, 512)
            ),
        }
        with pytest.raises(SimulationError):
            calls[call]()
        assert sweep.runner.simulate_count == 0

    def test_inline_trace_jobs_supported(self, system, organization):
        simulator = Simulator(system)
        trace = TraceSpec("gcc", 2_000).materialize()
        baseline = Sweep(simulator, warmup_instructions=200).baseline(trace)
        job = make_job(simulator, trace, warmup_instructions=200)
        assert results_equal(baseline, execute_job(job))
