"""Interval-sampling tests: plan construction, engine parity, error bars.

Sampling's contracts (docs/SAMPLING.md): the segment plan is a pure
function of (trace length, interval size, N, W); every engine — reference,
columnar, fused ladder — walks the same plan bit-identically; sampling
fields are part of job fingerprints; and the sampled miss ratio lands
within the documented 95% error bar of the exhaustive truth on the
committed fixture.
"""

import os
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.static_strategy import StaticResizing
from repro.sim.engine import sampling_plan
from repro.sim.jobcache import JobCache
from repro.sim.ladder import run_fused
from repro.sim.runner import SweepRunner, TraceSpec
from repro.sim.results import SimulationResult
from repro.sim.simulator import L1Setup, Simulator
from repro.sim.sweep import make_job
from repro.workloads.ingest import ExternalTraceSpec, read_text_trace

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "sample.rtxt"
)


@pytest.fixture(scope="module")
def system():
    return SystemConfig()


@pytest.fixture(scope="module")
def trace():
    return TraceSpec("gcc", 9_000).materialize()


@pytest.fixture(scope="module")
def fixture_trace():
    return read_text_trace(FIXTURE)


class TestPlan:
    def test_exhaustive_runs_have_no_plan(self):
        """An exhaustive plan is every interval, contiguous and measured."""
        every_interval = [
            (start, min(start + 1500, 10_000), True) for start in range(0, 10_000, 1500)
        ]
        assert sampling_plan(10_000, 1500, 1, 0) == every_interval
        # No gap to re-warm, whatever the warmup; below 1 reads as 1.
        assert sampling_plan(10_000, 1500, 1, 500) == every_interval
        assert sampling_plan(10_000, 1500, 0, 500) == every_interval
        assert sampling_plan(0, 1500, 1, 0) == []

    def test_measured_intervals_are_every_nth(self):
        plan = sampling_plan(9_000, 1500, 3, 0)
        # 6 intervals, every 3rd measured: 0 and 3
        assert plan == [(0, 1500, True), (4500, 6000, True)]

    def test_warmup_prefixes_cover_the_gap_tail(self):
        plan = sampling_plan(9_000, 1500, 3, 500)
        assert plan == [
            (0, 1500, True),
            (4000, 4500, False),   # 500 warmup instructions before interval 3
            (4500, 6000, True),
        ]

    def test_warmup_never_replays_twice_or_crosses_measured(self):
        # N=2: the gap is one interval; a huge W clamps to the whole gap,
        # so every instruction up to the last measured interval replays
        # exactly once and trailing skipped intervals are dropped.
        plan = sampling_plan(9_000, 1500, 2, 10_000_000)
        assert plan == [
            (0, 1500, True), (1500, 3000, False), (3000, 4500, True),
            (4500, 6000, False), (6000, 7500, True),
        ]

    def test_plan_ends_with_a_measured_segment(self):
        for n, every, warm in [(9_000, 3, 0), (10_000, 4, 800), (4_500, 2, 100)]:
            plan = sampling_plan(n, 1500, every, warm)
            assert plan[-1][2] is True

    def test_warmup_segments_are_interval_bounded(self):
        plan = sampling_plan(100_000, 1500, 10, 9_000)
        assert any(not measured for _, _, measured in plan)
        for start, stop, measured in plan:
            assert stop - start <= 1500  # bounded decode chunks

    def test_ragged_tail_interval_is_skipped_when_not_scheduled(self):
        # 5 intervals (the last ragged at 100 instructions); only index 0
        # hits the every-5 schedule, so the plan is one measured segment.
        assert sampling_plan(6_100, 1500, 5, 0) == [(0, 1500, True)]
        # with every=4 the ragged tail interval itself is scheduled
        plan = sampling_plan(6_100, 1500, 4, 0)
        assert plan == [(0, 1500, True), (6000, 6100, True)]


class TestEngineParity:
    @pytest.mark.parametrize("every,warmup", [(2, 0), (3, 500), (4, 1500)])
    def test_reference_and_columnar_identical(self, system, trace, every, warmup):
        results = []
        for engine in ("reference", "columnar"):
            org = SelectiveSets(system.l1d)
            setup = L1Setup(org, StaticResizing(org.config_for_capacity(8 * 1024)))
            result = Simulator(system, engine=engine).run(
                trace, d_setup=setup, sample_every=every, sample_warmup=warmup
            )
            results.append(result.to_dict())
        assert results[0] == results[1]

    def test_fused_ladder_matches_single_runs(self, system, trace):
        org = SelectiveSets(system.l1d)
        configs = [org.config_for_capacity(c) for c in (8 * 1024, 16 * 1024)]
        simulator = Simulator(system)

        singles = [
            simulator.run(
                trace,
                d_setup=L1Setup(SelectiveSets(system.l1d), StaticResizing(config)),
                sample_every=3,
                sample_warmup=500,
            ).to_dict()
            for config in configs
        ]
        fused = run_fused(
            simulator,
            trace,
            [
                (L1Setup(SelectiveSets(system.l1d), StaticResizing(config)), None)
                for config in configs
            ],
            sample_every=3,
            sample_warmup=500,
        )
        assert [result.to_dict() for result in fused] == singles

    def test_sample_every_one_is_verbatim_exhaustive(self, system, trace):
        simulator = Simulator(system)
        assert (
            simulator.run(trace, sample_every=1).to_dict()
            == simulator.run(trace).to_dict()
        )

    def test_invalid_sampling_parameters_are_rejected(self, system, trace):
        simulator = Simulator(system)
        with pytest.raises(SimulationError):
            simulator.run(trace, sample_every=0)
        with pytest.raises(SimulationError):
            simulator.run(trace, sample_warmup=-1)


class TestAccuracy:
    def test_sampled_miss_ratio_within_error_bar_on_fixture(self, fixture_trace):
        """docs/SAMPLING.md's acceptance bound, on the committed fixture."""
        simulator = Simulator(SystemConfig())
        # small intervals so the fixture yields enough samples for a bar
        full = simulator.run(fixture_trace, interval_instructions=300)
        sampled = simulator.run(
            fixture_trace,
            interval_instructions=300,
            sample_every=3,
            sample_warmup=150,
        )
        assert sampled.sampled_intervals == 5
        assert sampled.total_intervals == 15
        assert sampled.l1d_miss_ratio_stderr > 0.0
        for cache in ("l1d", "l1i"):
            err = abs(
                getattr(sampled, f"{cache}_miss_ratio")
                - getattr(full, f"{cache}_miss_ratio")
            )
            bar = getattr(sampled, f"{cache}_miss_ratio_error_bar")
            assert err <= bar, f"{cache}: |{err}| > bar {bar}"

    def test_exhaustive_results_have_zero_error_bars(self, system, trace):
        result = Simulator(system).run(trace)
        assert result.sample_every == 1
        assert result.l1d_miss_ratio_stderr == 0.0
        assert result.l1d_miss_ratio_error_bar == 0.0

    def test_sampling_fields_round_trip_through_json(self, system, trace):
        result = Simulator(system).run(trace, sample_every=3, sample_warmup=500)
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.sample_every == 3
        assert rebuilt.sample_warmup == 500

    def test_pre_sampling_payloads_deserialise_as_exhaustive(self, system, trace):
        payload = Simulator(system).run(trace).to_dict()
        for key in (
            "sample_every", "sample_warmup", "total_intervals",
            "sampled_intervals", "l1d_miss_ratio_stderr", "l1i_miss_ratio_stderr",
        ):
            del payload[key]
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.sample_every == 1
        assert rebuilt.l1d_miss_ratio_error_bar == 0.0


class TestJobLayer:
    def test_sampling_is_fingerprinted(self, system):
        simulator = Simulator(system)
        spec = TraceSpec("gcc", 6_000)
        plain = make_job(simulator, spec)
        sampled = make_job(simulator, spec, sample_every=3, sample_warmup=500)
        assert plain.fingerprint() != sampled.fingerprint()
        assert (
            sampled.fingerprint()
            != make_job(simulator, spec, sample_every=3).fingerprint()
        )

    def test_describe_mentions_sampling_only_when_active(self, system):
        simulator = Simulator(system)
        spec = TraceSpec("gcc", 6_000)
        assert "sample_every" not in make_job(simulator, spec).describe()
        described = make_job(simulator, spec, sample_every=4).describe()
        assert described["sample_every"] == 4

    def test_runner_executes_sampled_jobs_and_caches_them(self, system, tmp_path):
        simulator = Simulator(system)
        job = make_job(simulator, TraceSpec("gcc", 6_000), sample_every=3)
        direct = simulator.run(
            TraceSpec("gcc", 6_000).materialize(), sample_every=3
        )
        with SweepRunner(cache=JobCache(str(tmp_path))) as runner:
            cold = runner.submit(job).result()
        with SweepRunner(cache=JobCache(str(tmp_path))) as runner:
            warm = runner.submit(job).result()
            assert runner.cache_hits == 1
        assert cold.to_dict() == direct.to_dict() == warm.to_dict()

    def test_external_trace_jobs_round_trip_cold_and_warm(self, system, tmp_path):
        """A real trace file replays bit-identically across engines and
        across cold/warm trace-memo runs (the PR's acceptance criterion)."""
        spec = ExternalTraceSpec(path=FIXTURE)
        trace_cache = str(tmp_path / "traces")
        results = []
        for engine in ("reference", "columnar"):
            simulator = Simulator(system, engine=engine)
            for _ in ("cold", "warm"):
                with SweepRunner(
                    cache=JobCache(str(tmp_path / "jobs")), trace_cache=trace_cache
                ) as runner:
                    results.append(
                        runner.submit(make_job(simulator, spec)).result().to_dict()
                    )
        assert all(payload == results[0] for payload in results[1:])
        assert results[0]["workload"] == "sample"

    def test_external_trace_fingerprint_is_content_addressed(self, system, tmp_path):
        simulator = Simulator(system)
        moved = tmp_path / "same-bytes-other-path.rtxt"
        moved.write_bytes(Path(FIXTURE).read_bytes())
        original = make_job(simulator, ExternalTraceSpec(path=FIXTURE))
        relocated = make_job(simulator, ExternalTraceSpec(path=str(moved)))
        assert original.fingerprint() == relocated.fingerprint()

        edited = tmp_path / "edited.rtxt"
        edited.write_text(Path(FIXTURE).read_text() + "0x999999 I\n")
        assert (
            make_job(simulator, ExternalTraceSpec(path=str(edited))).fingerprint()
            != original.fingerprint()
        )

    def test_ladder_job_requires_shared_sampling_schedule(self, system):
        simulator = Simulator(system)
        spec = TraceSpec("gcc", 6_000)
        from repro.sim.runner import LadderJob

        with pytest.raises(SimulationError, match="sampling"):
            LadderJob(
                rungs=[
                    make_job(simulator, spec, sample_every=2),
                    make_job(simulator, spec, sample_every=3),
                ]
            )
