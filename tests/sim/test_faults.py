"""Chaos suite: deterministic fault injection across the sweep stack.

The contract under test (docs/ROBUSTNESS.md): **any fault plan yields
results byte-identical to a clean run.**  Worker crashes and hangs are
retried, shared-memory failures fall back to the pickle transport, corrupt
cache entries self-heal into misses — so injected faults may cost time and
retries, never correctness.  Each scenario runs under both fork and spawn
start methods where a pool is involved, and checks that no shared-memory
segments or worker processes leak.
"""

import dataclasses
import glob
import gc
import multiprocessing
import os
import time

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import (
    ConfigurationError,
    JobTimeoutError,
    SimulationError,
    TransientJobError,
    WorkerCrashError,
)
from repro.sim import faults, shm
from repro.sim.jobcache import JobCache
from repro.sim.pool import FaultTolerantPool
from repro.sim.runner import (
    L1SetupSpec,
    RetryPolicy,
    SimJob,
    StrategySpec,
    SweepRunner,
    TraceSpec,
)
from repro.sim.tracecache import TraceCache

START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    """No plan leaks into or out of any test (env included)."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def small_jobs():
    """Four small jobs: a baseline plus three resized-cache variants."""
    from repro.resizing.selective_sets import SelectiveSets

    system = SystemConfig()
    trace = TraceSpec("m88ksim", 3_000)
    organization = SelectiveSets(system.l1d)
    jobs = [SimJob(trace=trace, system=system, interval_instructions=500)]
    for config in organization.ladder()[:3]:
        jobs.append(
            SimJob(
                trace=trace,
                system=system,
                d_setup=L1SetupSpec(
                    organization=organization.name,
                    strategy=StrategySpec.static(config),
                ),
                interval_instructions=500,
            )
        )
    return jobs


@pytest.fixture(scope="module")
def clean_results(small_jobs):
    """The reference: the same jobs executed serially with no plan."""
    faults.reset()
    runner = SweepRunner(jobs=1)
    futures = [runner.submit(job) for job in small_jobs]
    results = [future.result() for future in futures]
    runner.close()
    return [dataclasses.asdict(result) for result in results]


def _live_segments():
    gc.collect()
    return sorted(
        os.path.basename(path)
        for path in glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}_{os.getpid()}_*")
    )


def run_under_plan(jobs, plan, start_method, **runner_kwargs):
    """Execute ``jobs`` on a 2-worker pool with ``plan`` armed; returns
    (results-as-dicts, runner) with the pool closed and leak checks done."""
    faults.install_plan(plan)
    before_children = len(multiprocessing.active_children())
    runner = SweepRunner(jobs=2, mp_start_method=start_method, **runner_kwargs)
    try:
        futures = [runner.submit(job) for job in jobs]
        results = [dataclasses.asdict(future.result()) for future in futures]
    finally:
        runner.close()
        faults.reset()
    assert _live_segments() == []
    assert len(multiprocessing.active_children()) <= before_children
    return results, runner


class TestPlanGrammar:
    def test_parse_full_plan(self):
        plan = faults.parse_plan(
            "worker_crash:job=3;hang:job=7,seconds=120;"
            "shm_publish_fail:segment=1;cache_corrupt:shard=2"
        )
        assert plan.fire("worker_crash") is None  # occurrence 1
        assert plan.fire("worker_crash") is None  # occurrence 2
        spec = plan.fire("worker_crash")  # occurrence 3 fires
        assert spec is not None and spec.ordinal == 3
        assert plan.fire("worker_crash") is None  # one-shot

    def test_ordinal_key_name_is_documentation_only(self):
        for clause in ("worker_crash:job=1", "worker_crash:n=1", "worker_crash:x=1"):
            plan = faults.parse_plan(clause)
            assert plan.fire("worker_crash") is not None

    def test_hang_seconds_argument(self):
        plan = faults.parse_plan("hang:job=1,seconds=2.5")
        spec = plan.fire("hang")
        assert spec.seconds == 2.5
        assert faults.parse_plan("hang:job=1").fire("hang").seconds == 3600.0

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:job=1",  # unknown kind
            "worker_crash",  # no ordinal clause
            "worker_crash:job=0",  # ordinal must be >= 1
            "worker_crash:job=-2",
            "worker_crash:job=soon",  # non-integer ordinal
            "hang:seconds=5",  # only the reserved arg, no ordinal
            "worker_crash:job",  # malformed pair
        ],
    )
    def test_malformed_plans_fail_loudly(self, bad):
        with pytest.raises(ConfigurationError):
            faults.parse_plan(bad)

    def test_install_reinstall_rearms_counters(self):
        plan = faults.install_plan("cache_corrupt:shard=1")
        assert faults.fire("cache_corrupt") is not None
        assert faults.fire("cache_corrupt") is None
        faults.install_plan(plan)  # fresh counters
        assert faults.fire("cache_corrupt") is not None

    def test_env_plan_loads_lazily_and_reset_forgets(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "cache_corrupt:shard=1")
        faults.reset()
        assert faults.plan_text() == "cache_corrupt:shard=1"
        assert faults.fire("cache_corrupt") is not None
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        faults.reset()
        assert faults.active_plan() is None
        assert faults.fire("cache_corrupt") is None

    def test_empty_plan_means_no_plan(self):
        assert faults.install_plan("") is None
        assert faults.install_plan("   ") is None


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, max_delay=1.0)
        for attempt in (1, 2, 3):
            first = policy.backoff_delay("job-key", attempt)
            assert first == policy.backoff_delay("job-key", attempt)
            ceiling = min(policy.max_delay, policy.base_delay * 2 ** (attempt - 1))
            assert ceiling / 2 <= first < ceiling
        # Different jobs (and attempts) jitter apart.
        assert policy.backoff_delay("a", 1) != policy.backoff_delay("b", 1)
        assert policy.backoff_delay("a", 1) != policy.backoff_delay("a", 2)

    def test_only_transient_errors_retry_within_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(WorkerCrashError("died"), 1)
        assert policy.should_retry(JobTimeoutError("slow"), 2)
        assert not policy.should_retry(JobTimeoutError("slow"), 3)  # budget spent
        assert not policy.should_retry(SimulationError("deterministic"), 1)
        assert not policy.should_retry(ValueError("deterministic"), 1)

    def test_transient_errors_are_simulation_errors(self):
        # Existing `except SimulationError` handlers must keep catching them.
        assert issubclass(TransientJobError, SimulationError)
        assert issubclass(WorkerCrashError, TransientJobError)
        assert issubclass(JobTimeoutError, TransientJobError)

    def test_invalid_policy_rejected(self):
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(job_timeout=0.0)
        for timeout in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                RetryPolicy(job_timeout=timeout)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestChaosContract:
    """Injected faults never change results — only counters."""

    def test_worker_crash_is_retried_transparently(
        self, small_jobs, clean_results, start_method
    ):
        results, runner = run_under_plan(
            small_jobs, "worker_crash:job=2", start_method
        )
        assert results == clean_results
        assert runner.worker_deaths == 1
        assert runner.retries == 1
        assert runner.quarantined == []

    def test_hang_is_killed_and_retried(self, small_jobs, clean_results, start_method):
        results, runner = run_under_plan(
            small_jobs,
            "hang:job=1",  # wedges (default 3600s) until the timeout kills it
            start_method,
            retry_policy=RetryPolicy(job_timeout=1.5),
        )
        assert results == clean_results
        assert runner.timeouts == 1
        assert runner.retries == 1

    def test_shm_attach_failure_falls_back(self, small_jobs, clean_results, start_method):
        results, runner = run_under_plan(
            small_jobs, "shm_attach_fail:attach=1", start_method
        )
        assert results == clean_results
        assert runner.retries == 0  # a fallback, not a failure
        assert runner.worker_stats.get("shm_attach_failures", 0) >= 1

    def test_shm_publish_failure_falls_back(
        self, small_jobs, clean_results, start_method
    ):
        before = shm.stats_snapshot()["shm_publish_failures"]
        results, runner = run_under_plan(
            small_jobs, "shm_publish_fail:segment=1", start_method
        )
        assert results == clean_results
        # The declined publish was counted in the parent; the jobs shipped
        # their trace in spec form and the workers re-materialised it.
        assert shm.stats_snapshot()["shm_publish_failures"] == before + 1
        assert runner.retries == 0  # a fallback, not a failure

    def test_combined_plan_still_byte_identical(
        self, small_jobs, clean_results, start_method
    ):
        results, runner = run_under_plan(
            small_jobs,
            "worker_crash:job=3;hang:job=1;shm_publish_fail:segment=1",
            start_method,
            retry_policy=RetryPolicy(job_timeout=1.5),
        )
        assert results == clean_results
        assert runner.worker_deaths == 1
        assert runner.timeouts == 1
        assert runner.retries == 2


#: A worker start slower than the job budget below: the job clock must not
#: count it.
SLOW_START_S = 1.3


def _slow_start(seconds):
    time.sleep(seconds)


def _serve(payload):
    """A pool target: echo, hard-exit the worker, or hang until killed."""
    if payload == "crash":
        os._exit(faults.CRASH_EXIT_CODE)
    if payload == "hang":
        time.sleep(3600)
    return payload


@pytest.mark.parametrize("start_method", START_METHODS)
class TestJobClock:
    """``job_timeout`` times the job, not the worker's start (docs/ROBUSTNESS.md)."""

    def test_slow_worker_starts_are_not_timeouts(self, start_method):
        pool = FaultTolerantPool(
            multiprocessing.get_context(start_method), 1, _serve,
            initializer=_slow_start, initargs=(SLOW_START_S,),
        )
        try:
            # The crash leaves the replacement worker to start lazily, and
            # slowly, under the next job's budget.
            events = list(pool.run_batch(
                [(0, "a"), (1, "crash"), (2, "b"), (3, "c")], timeout=1.0
            ))
            assert [(event.kind, event.value) for event in events] == [
                ("result", "a"), ("crash", None), ("result", "b"), ("result", "c"),
            ]
            # A hung job still times out, exactly once, and its slowly
            # started replacement serves the next job.
            events = list(pool.run_batch([(4, "hang"), (5, "d")], timeout=1.0))
            assert [(event.kind, event.task_id) for event in events] == [
                ("timeout", 4), ("result", 5),
            ]
        finally:
            pool.terminate()
            pool.join()


@pytest.mark.parametrize("start_method", START_METHODS)
class TestQuarantine:
    def test_exhausted_retries_quarantine_without_poisoning_siblings(
        self, small_jobs, clean_results, start_method
    ):
        # Crash the 2nd dispatch *and* both of its retries: attempts are
        # fresh dispatches, so they draw the next ordinals of their own.
        faults.install_plan("worker_crash:job=2;worker_crash:job=5;worker_crash:job=6")
        runner = SweepRunner(
            jobs=2,
            mp_start_method=start_method,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
        )
        try:
            futures = [runner.submit(job) for job in small_jobs]
            runner.drain()
            outcomes = [future.failed() for future in futures]
            assert outcomes.count(True) == 1
            victim = futures[outcomes.index(True)]
            with pytest.raises(WorkerCrashError):
                victim.result()
            assert victim.attempts == 3
            # Siblings resolved, and to the clean-run values.
            survivors = [
                dataclasses.asdict(future.result())
                for future in futures
                if not future.failed()
            ]
            expected = [
                clean for clean, failed in zip(clean_results, outcomes) if not failed
            ]
            assert survivors == expected
            assert len(runner.quarantined) == 1
            assert runner.quarantined[0]["attempts"] == 3
            assert runner.worker_deaths == 3
            assert runner.retries == 2
        finally:
            runner.close()
        assert _live_segments() == []

    def test_no_retries_policy_fails_fast(self, small_jobs, start_method):
        faults.install_plan("worker_crash:job=1")
        runner = SweepRunner(
            jobs=2,
            mp_start_method=start_method,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        try:
            futures = [runner.submit(job) for job in small_jobs]
            runner.drain()
            failed = [future for future in futures if future.failed()]
            assert len(failed) == 1
            assert failed[0].attempts == 1
            assert runner.retries == 0
        finally:
            runner.close()


class TestCacheCorruption:
    def test_job_cache_torn_write_self_heals(self, small_jobs, clean_results, tmp_path):
        faults.install_plan("cache_corrupt:shard=1")
        first = SweepRunner(jobs=1, cache=JobCache(tmp_path / "cache"))
        results = [
            dataclasses.asdict(first.submit(job).result()) for job in small_jobs
        ]
        first.close()
        assert results == clean_results
        faults.reset()

        # A fresh runner over the damaged cache: the torn entry reads as a
        # corrupt miss, is deleted, and exactly one job re-simulates.
        second = SweepRunner(jobs=1, cache=JobCache(tmp_path / "cache"))
        healed = [
            dataclasses.asdict(second.submit(job).result()) for job in small_jobs
        ]
        assert healed == clean_results
        assert second.cache.corrupt_entries == 1
        assert second.simulate_count == 1
        assert second.cache_hits == len(small_jobs) - 1
        second.close()

        # The heal rewrote the entry: a third pass is all cache hits.
        third = SweepRunner(jobs=1, cache=JobCache(tmp_path / "cache"))
        for job in small_jobs:
            third.submit(job)
        third.drain()
        assert third.simulate_count == 0
        assert third.cache.corrupt_entries == 0
        third.close()

    def test_trace_cache_torn_write_self_heals(self, tmp_path):
        spec = TraceSpec("gcc", 2_000)
        reference = spec.materialize()

        faults.install_plan("trace_corrupt:entry=1")
        cache = TraceCache(tmp_path / "traces")
        cache.put(spec, reference)  # lands torn on disk
        faults.reset()

        assert cache.get(spec) is None  # self-healing miss
        assert cache.corrupt_entries == 1
        assert cache.misses == 1

        cache.put(spec, reference)  # regenerate-and-rewrite
        restored = cache.get(spec)
        assert restored is not None
        assert restored.records == reference.records

    def test_decoded_stream_torn_write_self_heals(self, tmp_path):
        cache = TraceCache(tmp_path / "traces")
        payload = b"decoded-columns" * 64

        faults.install_plan("trace_corrupt:entry=1")
        cache.put_decoded("digest", 63, payload)
        faults.reset()

        assert cache.get_decoded("digest", 63) is None
        assert cache.corrupt_entries == 1
        cache.put_decoded("digest", 63, payload)
        assert cache.get_decoded("digest", 63) == payload


class TestCheckpointAndInterrupt:
    def test_drain_writes_a_final_manifest(self, small_jobs, tmp_path):
        manifest_path = tmp_path / "checkpoint.json"
        runner = SweepRunner(jobs=1, checkpoint_path=manifest_path)
        for job in small_jobs:
            runner.submit(job)
        runner.drain()
        runner.close()

        import json

        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == 1
        assert manifest["done"] is True
        assert manifest["interrupted"] is False
        assert manifest["simulated"] == len(small_jobs)
        assert manifest["pending"] == 0 and manifest["deferred"] == 0
        assert manifest["quarantined"] == []

    def test_interrupt_aborts_cleanly_and_marks_manifest(
        self, small_jobs, tmp_path, monkeypatch
    ):
        manifest_path = tmp_path / "checkpoint.json"
        runner = SweepRunner(jobs=2, checkpoint_path=manifest_path)
        for job in small_jobs:
            runner.submit(job)
        monkeypatch.setattr(
            runner,
            "_run_batch",
            lambda batch: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        with pytest.raises(KeyboardInterrupt):
            runner.drain()

        # Pool gone, segments unlinked, graph dropped; manifest says so.
        assert runner._pool is None
        assert runner.shm_segments == 0
        assert runner.pending_count == 0 and runner.deferred_count == 0
        assert _live_segments() == []

        import json

        manifest = json.loads(manifest_path.read_text())
        assert manifest["interrupted"] is True
        assert manifest["done"] is False

        # The runner stays usable: a fresh drain completes and clears the
        # interrupted marker.
        futures = [runner.submit(job) for job in small_jobs]
        monkeypatch.undo()
        runner.drain()
        assert all(not future.failed() for future in futures)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["done"] is True and manifest["interrupted"] is False
        runner.close()


@pytest.mark.parametrize("start_method", START_METHODS)
class TestFaultDeterminism:
    def test_same_plan_fires_identically_across_runs(
        self, small_jobs, start_method
    ):
        counters = []
        for _ in range(2):
            before = shm.stats_snapshot()["shm_publish_failures"]
            _, runner = run_under_plan(
                small_jobs, "worker_crash:job=2;shm_publish_fail:segment=1", start_method
            )
            counters.append(
                (
                    runner.worker_deaths,
                    runner.retries,
                    shm.stats_snapshot()["shm_publish_failures"] - before,
                )
            )
        assert counters[0] == counters[1] == (1, 1, 1)
