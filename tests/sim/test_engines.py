"""Replay-engine tests: registry behaviour and cross-engine equivalence.

The equivalence class here is the project's core new invariant: every
registered replay engine must produce **byte-identical**
``SimulationResult.to_dict()`` output for the same job.  The deterministic
grid below covers fixed and resizable setups, warmup boundaries that do not
align with interval boundaries, odd-length final intervals, and both L1
targets; the randomised companion lives in
``tests/properties/test_property_engines.py``.
"""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.resizing.static_strategy import StaticResizing
from repro.sim.engine import (
    DEFAULT_ENGINE,
    ColumnarEngine,
    ReferenceEngine,
    ReplayEngine,
    available_engines,
    engine_name,
    get_engine,
    register_engine,
)
from repro.sim import ladder
from repro.sim.jobcache import JobCache
from repro.sim.runner import SimJob, SweepRunner, TraceSpec
from repro.sim.simulator import L1Setup, Simulator
from repro.sim.sweep import make_job


@pytest.fixture(scope="module")
def system():
    return SystemConfig()


@pytest.fixture(scope="module")
def trace():
    return TraceSpec("gcc", 6_000).materialize()


def _resizing(organization, miss_bound, sense_interval_accesses):
    """A dynamic setup whose bound (misses per sense interval) the L1 crosses,
    so it resizes; settling and back-off are off so every interval may act."""
    return L1Setup(organization, DynamicResizing(
        miss_bound, 8 * 1024, sense_interval_accesses=sense_interval_accesses,
        settle_intervals=0, reversal_backoff_intervals=0,
    ))


def _build_setups(system, kind):
    """Fresh setups per run: strategies and organizations are stateful."""
    if kind == "fixed":
        return None, None
    if kind == "sets-static-d":
        org = SelectiveSets(system.l1d)
        return L1Setup(org, StaticResizing(org.config_for_capacity(8 * 1024))), None
    if kind == "ways-static-i":
        org = SelectiveWays(system.l1i)
        return None, L1Setup(org, StaticResizing(org.config_for_capacity(16 * 1024)))
    if kind == "hybrid-dynamic-d":
        return _resizing(HybridSetsAndWays(system.l1d), 60, 256), None
    if kind == "dynamic-both":
        return (
            _resizing(SelectiveSets(system.l1d), 120, 512),
            _resizing(SelectiveWays(system.l1i), 120, 512),
        )
    raise AssertionError(kind)


class TestRegistry:
    def test_builtin_engines_are_listed(self):
        assert available_engines() == ["columnar", "reference"]
        assert DEFAULT_ENGINE == "columnar"

    def test_get_engine_resolves_names_instances_and_default(self):
        assert isinstance(get_engine(), ColumnarEngine)
        assert isinstance(get_engine("reference"), ReferenceEngine)
        live = ColumnarEngine()
        assert get_engine(live) is live

    def test_get_engine_rejects_unknown_names(self):
        with pytest.raises(SimulationError, match="unknown replay engine"):
            get_engine("vectorized")

    def test_engine_name_validates(self):
        assert engine_name(None) is None
        assert engine_name("reference") == "reference"
        assert engine_name(ReferenceEngine()) == "reference"
        with pytest.raises(SimulationError):
            engine_name("nope")

        class Impostor(ReplayEngine):
            name = "columnar"  # claims a taken name without being registered

            def replay(self, trace, ctx):
                raise AssertionError("never runs")

        with pytest.raises(SimulationError, match="not registered"):
            engine_name(Impostor())

    def test_register_engine_rejects_name_collisions(self):
        class Clone(ReplayEngine):
            name = "reference"

            def replay(self, trace, ctx):
                raise AssertionError("never runs")

        with pytest.raises(SimulationError, match="already registered"):
            register_engine(Clone)
        # Re-registering the same class is a no-op, not an error.
        assert register_engine(ReferenceEngine) is ReferenceEngine

    def test_simulator_validates_engine_eagerly(self, system):
        with pytest.raises(SimulationError):
            Simulator(system, engine="typo")


SETUP_KINDS = ["fixed", "sets-static-d", "ways-static-i", "hybrid-dynamic-d", "dynamic-both"]


class TestEquivalence:
    @pytest.mark.parametrize("kind", SETUP_KINDS)
    @pytest.mark.parametrize(
        "interval,warmup",
        [
            (1500, 0),
            (997, 1234),  # odd interval, warmup not on an interval boundary
            (6_000 + 1, 0),  # single partial interval (interval > trace)
        ],
    )
    def test_engines_are_bit_identical(self, system, kind, interval, warmup):
        trace = TraceSpec("gcc", 6_000).materialize()  # fresh: no memo hits

        def run(engine):
            d_setup, i_setup = _build_setups(system, kind)
            return Simulator(system, engine=engine).run(
                trace,
                d_setup=d_setup,
                i_setup=i_setup,
                interval_instructions=interval,
                warmup_instructions=warmup,
            ).to_dict()

        reference = run("reference")
        tiers = ladder.stats_snapshot()
        assert run("columnar") == reference
        if "dynamic" in kind and interval < len(trace):
            # Only non-final interval closes resize.
            assert reference["l1d_resizes"] > 0
            if kind == "dynamic-both":
                assert reference["l1i_resizes"] > 0
        # A single run is a one-rung ladder, not a fused pass on the ladder
        # tier counters.
        assert ladder.stats_snapshot() == tiers

    def test_run_level_engine_override_beats_simulator_default(self, system, trace):
        simulator = Simulator(system, engine="reference")
        default = simulator.run(trace).to_dict()
        overridden = simulator.run(trace, engine="columnar").to_dict()
        assert default == overridden  # and neither path raises


class TestJobIntegration:
    def test_make_job_carries_the_simulator_engine(self, system):
        job = make_job(Simulator(system, engine="reference"), TraceSpec("gcc", 2_000))
        assert job.engine == "reference"
        default_job = make_job(Simulator(system), TraceSpec("gcc", 2_000))
        assert default_job.engine is None

    def test_fingerprint_ignores_the_engine_choice(self, system):
        reference = SimJob(trace=TraceSpec("gcc", 2_000), system=system, engine="reference")
        columnar = SimJob(trace=TraceSpec("gcc", 2_000), system=system, engine="columnar")
        unset = SimJob(trace=TraceSpec("gcc", 2_000), system=system)
        assert reference.fingerprint() == columnar.fingerprint() == unset.fingerprint()

    def test_cache_serves_results_across_engines(self, system, tmp_path):
        """A result simulated by one engine is a warm hit for the other."""
        cache = JobCache(tmp_path / "jobs")
        with SweepRunner(cache=cache) as runner:
            first = runner.run_one(
                SimJob(trace=TraceSpec("gcc", 2_000), system=system, engine="reference")
            )
        assert len(cache) == 1
        with SweepRunner(cache=cache) as runner:
            second = runner.run_one(
                SimJob(trace=TraceSpec("gcc", 2_000), system=system, engine="columnar")
            )
            assert runner.simulate_count == 0
            assert runner.cache_hits == 1
        assert first.to_dict() == second.to_dict()

    def test_sweep_results_identical_across_engines(self, system, tmp_path):
        """Whole submitted batches agree between engines (no cache)."""
        outputs = {}
        for engine in ("reference", "columnar"):
            org = SelectiveSets(system.l1d)
            jobs = [
                make_job(
                    Simulator(system, engine=engine),
                    TraceSpec("compress", 3_000),
                    d_setup=L1Setup(org, StaticResizing(config)),
                    warmup_instructions=300,
                )
                for config in org.ladder()[:3]
            ]
            with SweepRunner() as runner:
                outputs[engine] = [r.to_dict() for r in runner.run(jobs)]
        assert outputs["reference"] == outputs["columnar"]
