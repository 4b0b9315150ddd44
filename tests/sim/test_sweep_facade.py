"""The unified ``Sweep`` facade — the one sweep API.

The facade is the canonical entry point: one object binds the simulator,
runner and shared run parameters, with deferred ``submit_*`` methods and
eager counterparts.  The historical module-level helpers
(``run_baseline``, ``profile_static``, ``submit_profile_static`` and the
rest) are gone; ``Sweep`` methods replace each of them.
"""

import pytest

from repro.common.config import SystemConfig
from repro.resizing.selective_sets import SelectiveSets
from repro.sim.runner import SweepRunner, TraceSpec, resolve_trace
from repro.sim.simulator import Simulator
from repro.sim.sweep import DCACHE, Sweep

TRACE = TraceSpec("gcc", 1500)


@pytest.fixture()
def simulator():
    return Simulator(SystemConfig())


class TestFacade:
    def test_eager_baseline_matches_legacy_helper(self, simulator):
        # The pre-facade path: a direct Simulator.run of the same trace.
        facade = Sweep(simulator).baseline(TRACE)
        legacy = simulator.run(resolve_trace(TRACE))
        assert facade.cycles == legacy.cycles
        assert facade.energy.total == legacy.energy.total

    def test_instance_defaults_bind_run_parameters(self, simulator):
        # warmup bound at construction must equal warmup passed per call.
        bound = Sweep(simulator, warmup_instructions=150).baseline(TRACE)
        explicit = Sweep(simulator).baseline(TRACE, warmup_instructions=150)
        assert bound.cycles == explicit.cycles

    def test_per_call_override_beats_instance_default(self, simulator):
        sweep = Sweep(simulator, warmup_instructions=150)
        overridden = sweep.baseline(TRACE, warmup_instructions=0)
        assert overridden.cycles == Sweep(simulator).baseline(TRACE).cycles

    def test_deferred_and_eager_profiles_agree(self, simulator):
        organization = SelectiveSets(SystemConfig().l1d)
        eager = Sweep(simulator).profile(TRACE, organization, target=DCACHE)
        with SweepRunner(jobs=1) as runner:
            sweep = Sweep(simulator, runner)
            baseline = sweep.submit_baseline(TRACE)
            future = sweep.submit_profile(
                TRACE, organization, target=DCACHE, baseline=baseline
            )
            sweep.drain()
            deferred = future.result()
        assert deferred.best_config == eager.best_config
        assert deferred.energy_delay_reduction() == eager.energy_delay_reduction()

    def test_facade_is_exported_from_the_package_roots(self):
        import repro
        import repro.sim

        assert repro.Sweep is Sweep
        assert repro.sim.Sweep is Sweep


class TestRetiredAliases:
    def test_module_level_aliases_are_gone(self):
        import repro
        import repro.sim
        import repro.sim.sweep

        retired = (
            "submit_baseline", "run_baseline", "submit_with_setups", "run_with_setups",
            "submit_profile_static", "profile_static", "submit_dynamic", "run_dynamic",
        )
        for module in (repro, repro.sim, repro.sim.sweep):
            assert [name for name in retired if hasattr(module, name)] == []
