"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not figures from the paper; they probe the sensitivity of the
reproduction to its own knobs:

* subarray size (resizing granularity),
* the slowdown bound applied when selecting static sizes,
* the dynamic controller's miss-bound factor.
"""

from bench_utils import bench_instructions, run_once

from repro.common.config import CacheGeometry, SystemConfig
from repro.common.units import KIB
from repro.experiments.context import D_CACHE, SELECTIVE_SETS, ExperimentContext
from repro.resizing.selective_sets import SelectiveSets
from repro.sim.simulator import Simulator
from repro.sim.sweep import Sweep
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import get_profile

_APPS = ("ammp", "compress", "gcc", "m88ksim", "vpr")


def _mean_reduction_for_subarray(subarray_bytes: int) -> float:
    """Mean static selective-sets d-cache reduction for a given subarray size."""
    geometry = CacheGeometry(32 * KIB, 2, subarray_bytes=subarray_bytes)
    system = SystemConfig().with_l1(l1d=geometry, l1i=CacheGeometry(32 * KIB, 2))
    simulator = Simulator(system)
    organization = SelectiveSets(geometry)
    n_instructions = min(bench_instructions(), 40_000)
    warmup = n_instructions // 10
    reductions = []
    for application in _APPS:
        trace = WorkloadGenerator(get_profile(application)).generate(n_instructions)
        sweep = Sweep(simulator, warmup_instructions=warmup)
        baseline = sweep.baseline(trace)
        profile = sweep.profile(trace, organization, target=D_CACHE, baseline=baseline)
        reductions.append(profile.energy_delay_reduction())
    return sum(reductions) / len(reductions)


def test_bench_ablation_subarray_size(benchmark):
    """Coarser subarrays shrink the size spectrum and the achievable savings."""

    def sweep():
        return {size: _mean_reduction_for_subarray(size) for size in (KIB, 4 * KIB, 16 * KIB)}

    results = run_once(benchmark, sweep)
    print()
    for size, reduction in results.items():
        print(f"subarray {size // KIB:>2}K: mean d-cache E*D reduction {reduction:5.1f}%")
    # 16K subarrays leave only 32K/16K as selectable sizes, so they cannot do
    # better than the fine-grained 1K subarrays of the paper.
    assert results[KIB] >= results[16 * KIB] - 0.5


def test_bench_ablation_slowdown_bound(benchmark, experiment_context):
    """Bounding the tolerated slowdown trades a little energy-delay for latency safety."""

    def sweep():
        bounded_context = ExperimentContext(
            n_instructions=min(bench_instructions(), 40_000),
            applications=_APPS,
            max_slowdown=0.02,
        )
        unbounded_context = ExperimentContext(
            n_instructions=min(bench_instructions(), 40_000),
            applications=_APPS,
            max_slowdown=None,
        )
        outcome = {}
        for label, context in (("slowdown<=2%", bounded_context), ("unbounded", unbounded_context)):
            reductions = []
            slowdowns = []
            for application in context.applications:
                profile = context.static_profile(application, SELECTIVE_SETS, D_CACHE, 2)
                reductions.append(profile.energy_delay_reduction())
                slowdowns.append(profile.best_result.slowdown_vs(profile.baseline))
            outcome[label] = (
                sum(reductions) / len(reductions),
                max(slowdowns),
            )
        return outcome

    results = run_once(benchmark, sweep)
    print()
    for label, (reduction, worst_slowdown) in results.items():
        print(
            f"{label:>14}: mean E*D reduction {reduction:5.1f}%, "
            f"worst slowdown {worst_slowdown:5.3f}"
        )
    # The bounded selection can never achieve a larger reduction than the
    # unbounded one, and must respect its slowdown ceiling.
    assert results["slowdown<=2%"][0] <= results["unbounded"][0] + 0.5
    assert results["slowdown<=2%"][1] <= 0.02 + 1e-9


def test_bench_ablation_dynamic_miss_bound(benchmark):
    """Sensitivity of the dynamic controller to its miss-bound factor."""

    def sweep():
        outcome = {}
        for factor in (1.0, 1.5, 3.0):
            context = ExperimentContext(
                n_instructions=min(bench_instructions(), 40_000),
                applications=("ammp", "gcc", "vpr"),
                miss_bound_factor=factor,
            )
            reductions = []
            for application in context.applications:
                baseline = context.baseline(application, 2)
                dynamic = context.dynamic_run(application, SELECTIVE_SETS, D_CACHE, 2)
                reductions.append(dynamic.energy_delay_reduction(baseline))
            outcome[factor] = sum(reductions) / len(reductions)
        return outcome

    results = run_once(benchmark, sweep)
    print()
    for factor, reduction in results.items():
        print(f"miss-bound factor {factor:3.1f}: mean dynamic E*D reduction {reduction:5.1f}%")
    assert len(results) == 3
