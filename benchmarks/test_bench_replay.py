"""Raw replay-throughput microbenchmark for the simulator hot loop.

Unlike the figure benchmarks (which time whole experiment harnesses —
profiling ladders, cache machinery, result assembly), these benchmarks time
*one* ``Simulator.run`` per engine on a fixed trace, so the perf gate
watches the per-instruction replay cost itself: a regression in the decode
pass, the op-stream dispatch or the record iterator shows up here first,
un-diluted by orchestration time.

The trace length is fixed (not ``REPRO_BENCH_INSTRUCTIONS``) so the
measured loop is the same workload everywhere; the committed baseline means
in ``benchmarks/baseline.json`` gate both engines, and
``test_columnar_faster_than_reference`` loosely asserts the speedup the
columnar engine exists to provide (>=1.5x on the same host since the
packed-outcome cache kernel landed, a conservative floor well under the
~2.3x it measures on an idle machine — CI containers are noisy and
single-core).  ``test_columnar_beats_pr3_baseline`` additionally pins the
packed kernel's end-to-end win against the frozen PR-3 columnar time,
normalizing out host speed through the reference engine.
"""

from __future__ import annotations

import time

import pytest

from bench_utils import bench_instructions  # noqa: F401  (keeps sys.path bootstrap)

from repro.common.config import SystemConfig
from repro.sim.runner import TraceSpec
from repro.sim.simulator import Simulator

#: Fixed microbenchmark trace length: long enough that per-run setup (cache
#: construction, interval bookkeeping) is noise, short enough for CI.
REPLAY_INSTRUCTIONS = 30_000

#: Loose speedup floor asserted for the columnar engine (see module docstring).
MIN_SPEEDUP = 1.5

#: Best-of-three wall times for this fixed workload as measured at PR 3
#: (pre-packed-kernel), frozen here as the yardstick for the kernel's
#: end-to-end win.  Both engines were measured on the same host, so the
#: reference entry doubles as that host's speed calibration.
PR3_BASELINE_SECONDS = {"reference": 0.0746, "columnar": 0.0524}

#: Required end-to-end columnar speedup over the PR-3 columnar baseline.
MIN_KERNEL_SPEEDUP_VS_PR3 = 1.25


@pytest.fixture(scope="module")
def replay_trace():
    """One fixed gcc trace shared by every replay benchmark."""
    return TraceSpec("gcc", REPLAY_INSTRUCTIONS).materialize()


def _replay(trace, engine, **sampling):
    return Simulator(SystemConfig(), engine=engine).run(trace, **sampling)


def _bench_engine(benchmark, trace, engine, **sampling):
    result = benchmark.pedantic(
        _replay, args=(trace, engine), kwargs=sampling, rounds=3, iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["instructions_per_second"] = round(
        len(trace) / benchmark.stats.stats.mean
    )
    if not sampling:
        assert result.instructions == len(trace)
    return result


def test_bench_replay_reference(benchmark, replay_trace):
    _bench_engine(benchmark, replay_trace, "reference")


def test_bench_replay_columnar(benchmark, replay_trace):
    # Both L1s are fixed, so after the warmup round this times the
    # warm-pilot path: the L1d pilot comes from the memo.
    _bench_engine(benchmark, replay_trace, "columnar")


def test_bench_replay_columnar_sampled(benchmark, replay_trace):
    # A sampled plan replays from its own memoized decode and L1d pilot, so
    # after the warmup round this times the warm-pilot path over the
    # plan's rows, as the exhaustive benchmark does over every row.
    _bench_engine(benchmark, replay_trace, "columnar", sample_every=4, sample_warmup=600)


def _measure_speedup(trace):
    """Best-of-three speedup, interleaved so both engines see the same
    machine state; the best (minimum) time per engine is the most
    noise-robust statistic on shared CI hardware.  Also asserts the two
    engines stay bit-identical — the speedup is worthless if they diverge.
    """
    reference_times = []
    columnar_times = []
    reference_result = columnar_result = None
    for _ in range(3):
        started = time.perf_counter()
        reference_result = _replay(trace, "reference")
        reference_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        columnar_result = _replay(trace, "columnar")
        columnar_times.append(time.perf_counter() - started)
    assert reference_result.to_dict() == columnar_result.to_dict()
    return min(reference_times) / min(columnar_times)


def test_columnar_faster_than_reference(replay_trace):
    """The columnar engine must beat the reference loop on the same host.

    This test runs inside the tier-1 matrix on shared CI runners, so a
    single noisy measurement must not fail the build: the ~1.4x engine is
    given three independent attempts to clear the deliberately loose 1.2x
    floor, and only a host where it *repeatedly* measures slower fails —
    i.e. a genuine hot-loop regression, not a scheduling hiccup.
    """
    speedups = []
    for _ in range(3):
        speedups.append(_measure_speedup(replay_trace))
        if speedups[-1] >= MIN_SPEEDUP:
            return
    raise AssertionError(
        f"columnar engine stayed under {MIN_SPEEDUP}x the reference engine in "
        f"{len(speedups)} attempts: " + ", ".join(f"{s:.2f}x" for s in speedups)
    )


def _measure_pr3_speedup(trace):
    """Columnar speedup vs the frozen PR-3 columnar time, host-normalized.

    The host's speed relative to the PR-3 measurement machine is estimated
    from the reference engine (whose baseline was taken in the same PR-3
    session); dividing it out makes the assertion portable across CI
    hardware.  The estimate is conservative: the reference engine itself
    got ~15% faster from the packed kernel's wrapper path, which *deflates*
    the computed speedup, so clearing the floor here under-reports the
    real end-to-end win.
    """
    reference_times = []
    columnar_times = []
    for _ in range(3):
        started = time.perf_counter()
        _replay(trace, "reference")
        reference_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        _replay(trace, "columnar")
        columnar_times.append(time.perf_counter() - started)
    hardware_factor = min(reference_times) / PR3_BASELINE_SECONDS["reference"]
    normalized_columnar = min(columnar_times) / hardware_factor
    return PR3_BASELINE_SECONDS["columnar"] / normalized_columnar


def test_columnar_beats_pr3_baseline(replay_trace):
    """The packed kernel must hold >=1.25x end-to-end over the PR-3 columnar
    engine (ISSUE 4's acceptance floor; ~1.6x measured after normalization,
    ~1.9x raw on the PR-3 measurement host).  Same noise protocol as the
    cross-engine test: three independent attempts, any one clearing the
    floor passes.
    """
    speedups = []
    for _ in range(3):
        speedups.append(_measure_pr3_speedup(replay_trace))
        if speedups[-1] >= MIN_KERNEL_SPEEDUP_VS_PR3:
            return
    raise AssertionError(
        f"columnar engine stayed under {MIN_KERNEL_SPEEDUP_VS_PR3}x the frozen "
        f"PR-3 baseline in {len(speedups)} attempts: "
        + ", ".join(f"{s:.2f}x" for s in speedups)
    )
