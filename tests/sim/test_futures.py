"""Tests for the deferred-submission job graph (SimFuture + SweepRunner).

Covers the futures contract the experiment pipeline is built on:
out-of-order gather, duplicate-job dedup within a batch, dependency
ordering (profile -> dynamic), and exception propagation from a failed
worker job into direct, sibling and dependent futures.
"""

import dataclasses

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError, WorkloadError
from repro.resizing.selective_sets import SelectiveSets
from repro.sim.jobcache import JobCache
from repro.sim.runner import L1SetupSpec, SimJob, StrategySpec, SweepRunner, TraceSpec
from repro.sim.simulator import Simulator
from repro.sim.sweep import DCACHE, Sweep


@pytest.fixture(scope="module")
def system():
    return SystemConfig()


@pytest.fixture(scope="module")
def organization(system):
    return SelectiveSets(system.l1d)


def make_jobs(system, organization, n=3):
    """A baseline job plus static-ladder jobs (small trace, distinct specs)."""
    trace = TraceSpec("m88ksim", 3_000)
    jobs = [SimJob(trace=trace, system=system, interval_instructions=500)]
    for config in organization.ladder()[: n - 1]:
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


class TestSubmitAndGather:
    def test_submit_is_lazy_until_drain(self, system, organization):
        runner = SweepRunner()
        futures = [runner.submit(job) for job in make_jobs(system, organization)]
        assert all(not future.done() for future in futures)
        assert runner.simulate_count == 0
        assert runner.pending_count == len(futures)
        runner.drain()
        assert all(future.done() for future in futures)
        assert runner.simulate_count == len(futures)
        assert runner.pending_count == 0

    def test_out_of_order_gather(self, system, organization):
        jobs = make_jobs(system, organization)
        reference = SweepRunner().run(jobs)

        runner = SweepRunner(jobs=2)
        futures = [runner.submit(job) for job in jobs]
        # Gather in reverse order of submission: results must follow the
        # *gather* order, matching each future's own job.
        reversed_results = runner.gather(list(reversed(futures)))
        for result, expected in zip(reversed_results, reversed(reference)):
            assert results_equal(result, expected)
        # A future can be gathered again (and mixed into a new order).
        again = runner.gather([futures[1], futures[0]])
        assert results_equal(again[0], reference[1])
        assert results_equal(again[1], reference[0])

    def test_result_matches_serial_execution(self, system, organization):
        jobs = make_jobs(system, organization)
        serial = SweepRunner().run(jobs)
        runner = SweepRunner(jobs=2)
        futures = [runner.submit(job) for job in jobs]
        # Resolving the *last* future drains the whole graph in one batch.
        assert results_equal(futures[-1].result(), serial[-1])
        assert runner.pool_batches == 1
        assert runner.inline_executions == 0
        for future, expected in zip(futures, serial):
            assert results_equal(future.result(), expected)

    def test_duplicate_submissions_share_one_execution(self, system, organization):
        runner = SweepRunner()
        job = make_jobs(system, organization)[0]
        twin = SimJob(
            trace=TraceSpec("m88ksim", 3_000), system=system, interval_instructions=500
        )
        first, second = runner.submit(job), runner.submit(twin)
        assert first is second  # identical spec -> identical future
        assert runner.pending_count == 1
        assert runner.dedup_hits == 1
        runner.drain()
        assert runner.simulate_count == 1

    def test_duplicates_within_run_batch_simulate_once(self, system, organization):
        jobs = make_jobs(system, organization)
        runner = SweepRunner()
        results = runner.run([jobs[0], jobs[1], jobs[0]])
        assert runner.simulate_count == 2
        assert results_equal(results[0], results[2])

    def test_cache_hit_resolves_at_submit_time(self, tmp_path, system, organization):
        cache = JobCache(tmp_path / "cache")
        jobs = make_jobs(system, organization)
        SweepRunner(cache=cache).run(jobs)

        warm = SweepRunner(cache=cache)
        future = warm.submit(jobs[0])
        assert future.done()  # resolved from disk, no drain needed
        assert warm.cache_hits == 1
        assert warm.simulate_count == 0


class TestDependencies:
    def test_profile_then_dynamic_drains_in_two_batches(self, system, organization):
        simulator = Simulator(system)
        trace = TraceSpec("m88ksim", 3_000)
        runner = SweepRunner(jobs=2)
        sweep = Sweep(simulator, runner, warmup_instructions=300)
        profile = sweep.submit_profile(trace, organization, target=DCACHE)
        dynamic = sweep.submit_dynamic(
            trace, organization, profile, target=DCACHE, sense_interval_accesses=2048,
        )
        assert not dynamic.done()
        assert runner.deferred_count == 1
        runner.drain()
        assert runner.deferred_count == 0
        # Ladder+baseline in wave one, the dynamic job in wave two.
        assert runner.pool_batches == 2
        assert runner.inline_executions == 0

        # Byte-identical to the eager path that derives parameters by hand.
        resolved = profile.result()
        eager = Sweep(simulator, warmup_instructions=300).dynamic(
            trace, organization,
            resolved.dynamic_parameters(sense_interval_accesses=2048),
            target=DCACHE, initial_config=resolved.best_config,
        )
        assert results_equal(dynamic.result(), eager)

    def test_deferred_builder_runs_after_dependencies(self, system, organization):
        runner = SweepRunner()
        dep = Sweep(Simulator(system), runner).submit_baseline(TraceSpec("gcc", 2_000))
        seen = []

        def builder():
            seen.append(dep.done())  # must already be resolved
            return SimJob(trace=TraceSpec("gcc", 2_000), system=system,
                          interval_instructions=500)

        deferred = runner.submit_deferred(builder, [dep])
        assert not seen  # builder is lazy
        deferred.result()
        assert seen == [True]

    def test_deferred_dedups_against_identical_concrete_job(self, system):
        runner = SweepRunner()
        concrete = runner.submit(
            SimJob(trace=TraceSpec("gcc", 2_000), system=system, interval_instructions=500)
        )
        dep = Sweep(Simulator(system), runner).submit_baseline(TraceSpec("m88ksim", 2_000))
        deferred = runner.submit_deferred(
            lambda: SimJob(trace=TraceSpec("gcc", 2_000), system=system,
                           interval_instructions=500),
            [dep],
        )
        runner.drain()
        # The deferred job's spec was identical to the concrete one: they
        # resolve to the same result without simulating twice.
        assert results_equal(deferred.result(), concrete.result())
        assert runner.dedup_hits >= 1
        assert runner.simulate_count == 2  # gcc job + m88ksim dependency

    def test_unresolvable_dependency_fails_cleanly(self, system):
        other = SweepRunner()
        foreign_dep = other.submit(
            SimJob(trace=TraceSpec("gcc", 1_500), system=system, interval_instructions=500)
        )
        runner = SweepRunner()
        stuck = runner.submit_deferred(
            lambda: SimJob(trace=TraceSpec("gcc", 1_500), system=system,
                           interval_instructions=500),
            [foreign_dep],
        )
        runner.drain()  # must terminate, not spin
        with pytest.raises(SimulationError, match="never resolve"):
            stuck.result()

    def test_orphan_future_never_reads_as_success(self, system):
        # A future its runner does not know about (library misuse or a
        # discarded runner) must raise from BOTH result() and exception()
        # rather than letting exception() == None imply success.
        from repro.sim.future import SimFuture

        orphan = SimFuture(SweepRunner())
        with pytest.raises(SimulationError, match="not resolved"):
            orphan.result()
        with pytest.raises(SimulationError, match="not resolved"):
            orphan.exception()


class TestFailurePropagation:
    def bad_job(self, system):
        return SimJob(trace=TraceSpec("no-such-app", 1_500), system=system)

    def test_failed_job_raises_from_future(self, system, organization):
        runner = SweepRunner()
        good = runner.submit(make_jobs(system, organization)[0])
        bad = runner.submit(self.bad_job(system))
        with pytest.raises(WorkloadError):
            bad.result()
        # The sibling completed and is unaffected.
        assert good.done() and not good.failed()
        assert bad.exception() is not None
        assert good.exception() is None

    def test_gather_raises_after_draining_siblings(self, system, organization):
        runner = SweepRunner(jobs=2)
        futures = [runner.submit(job) for job in make_jobs(system, organization)]
        bad = runner.submit(self.bad_job(system))
        with pytest.raises(WorkloadError):
            runner.gather([*futures, bad])
        assert all(future.done() for future in futures)

    def test_dependent_future_inherits_dependency_failure(self, system):
        runner = SweepRunner()
        bad = runner.submit(self.bad_job(system))
        calls = []

        def builder():
            calls.append("built")
            return SimJob(trace=TraceSpec("gcc", 1_500), system=system)

        dependent = runner.submit_deferred(builder, [bad])
        runner.drain()
        assert not calls  # builder never ran
        assert dependent.failed()
        with pytest.raises(WorkloadError):  # the *original* error type
            dependent.result()

    def test_builder_reading_undeclared_future_fails_diagnosably(self, system, organization):
        # A builder that resolves a future it did not declare as a dep
        # reenters drain(); the guard converts that into a clear
        # per-future error instead of a RecursionError.  `undeclared` is
        # itself deferred (and queued after the sneaky builder), so it is
        # still pending when the sneaky builder reads it.
        runner = SweepRunner()
        declared = runner.submit(make_jobs(system, organization)[0])

        def sneaky_builder():
            undeclared.result()  # still pending, not in deps -> reentrant drain
            return SimJob(trace=TraceSpec("gcc", 2_000), system=system,
                          interval_instructions=500)

        sneaky = runner.submit_deferred(sneaky_builder, [declared])
        undeclared = runner.submit_deferred(
            lambda: SimJob(trace=TraceSpec("m88ksim", 2_000), system=system,
                           interval_instructions=500),
            [declared],
        )
        runner.drain()  # must terminate and keep siblings healthy
        assert declared.done() and not declared.failed()
        assert undeclared.done() and not undeclared.failed()
        with pytest.raises(SimulationError, match="did not declare"):
            sneaky.result()

    def test_failed_job_is_retried_on_resubmission(self, system):
        # Failures are not memoised: resubmitting the identical job on the
        # same runner gets a fresh attempt (the failing condition may have
        # been transient), matching how repeated run() calls always
        # re-executed.
        from repro.common.config import CacheGeometry

        runner = SweepRunner()
        bad = SimJob(
            trace=TraceSpec("gcc", 1_500),
            system=system,
            # Registered organization, wrong geometry: fingerprints fine,
            # fails at build time inside the worker.
            d_setup=L1SetupSpec(
                organization="selective-sets", geometry=CacheGeometry(64 * 1024, 2)
            ),
        )
        first = runner.submit(bad)
        with pytest.raises(SimulationError, match="does not match"):
            first.result()
        second = runner.submit(bad)
        assert second is not first  # fresh future, not the stale failure
        with pytest.raises(SimulationError, match="does not match"):
            second.result()

    def test_builder_exception_fails_only_its_future(self, system, organization):
        runner = SweepRunner()
        dep = runner.submit(make_jobs(system, organization)[0])

        def exploding_builder():
            raise ValueError("builder bug")

        broken = runner.submit_deferred(exploding_builder, [dep])
        runner.drain()
        assert dep.done() and not dep.failed()
        with pytest.raises(ValueError, match="builder bug"):
            broken.result()
