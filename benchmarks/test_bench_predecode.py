"""Pre-decode microbenchmarks: the whole-trace decode pass and its memo.

The configuration-invariant decode (:mod:`repro.sim.predecode`) is the
phase every replay and fused ladder now amortizes, so its cost is gated
directly: ``test_bench_predecode_build`` times one whole-trace build on the
fixed microbenchmark workload and ``test_bench_pilot_build`` one sparse
fused-ladder pilot memo per L1 side over it (the committed baseline means
in ``benchmarks/baseline.json`` gate both like the replay benchmarks), and two
speedup floors assert the reasons the module exists — the NumPy builder
must beat the bit-identical stdlib builder when NumPy is importable, and a
memo hit must be effectively free next to a rebuild.

Both floors use the suite's 3-attempt noise pattern: any one attempt
clearing the floor passes, so only a host that *repeatedly* measures under
it fails.
"""

from __future__ import annotations

import time

import pytest

from bench_utils import bench_instructions  # noqa: F401  (keeps sys.path bootstrap)

from repro.cache.replacement import ReplacementPolicy
from repro.common.config import SystemConfig
from repro.sim import predecode
from repro.sim.runner import TraceSpec
from repro.sim.vector import numpy_or_none

#: Fixed microbenchmark trace length (matches the replay benchmarks).
DECODE_INSTRUCTIONS = 30_000

#: Required NumPy-over-stdlib build speedup (measures ~3-4x on an idle
#: single-core host; deliberately loose for noisy CI runners).
MIN_VECTOR_SPEEDUP = 1.5

#: Required build-over-memo-hit ratio: a hit is a dict lookup, so even a
#: very loose floor catches the memo silently rebuilding.
MIN_MEMO_SPEEDUP = 20.0

_BLOCK_MASK = ~(SystemConfig().l1i.block_bytes - 1)


@pytest.fixture(scope="module")
def decode_trace():
    """One fixed gcc trace shared by every pre-decode benchmark."""
    return TraceSpec("gcc", DECODE_INSTRUCTIONS).materialize()


def test_bench_predecode_build(benchmark, decode_trace):
    decoded = benchmark.pedantic(
        predecode.build_decoded,
        args=(decode_trace, _BLOCK_MASK),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["builder"] = (
        "numpy" if numpy_or_none() is not None else "scalar"
    )
    benchmark.extra_info["instructions_per_second"] = round(
        len(decode_trace) / benchmark.stats.stats.mean
    )
    assert decoded is not None and decoded.n == len(decode_trace)


def _build_pilots(decoded):
    system = SystemConfig()
    return [
        predecode.build_pilot(decoded, side, geometry, ReplacementPolicy.LRU, f"l1{side}")
        for side, geometry in (("i", system.l1i), ("d", system.l1d))
    ]


def test_bench_pilot_build(benchmark, decode_trace):
    decoded = predecode.build_decoded(decode_trace, _BLOCK_MASK)
    pilots = benchmark.pedantic(
        _build_pilots, args=(decoded,), rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["misses"] = {pilot.side: len(pilot.op_index) for pilot in pilots}
    assert [pilot.side for pilot in pilots] == ["i", "d"]


def _best_of(fn, rounds=3):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


@pytest.mark.skipif(numpy_or_none() is None, reason="NumPy unavailable")
def test_vectorized_build_speedup(decode_trace):
    np = numpy_or_none()
    speedups = []
    for _ in range(3):
        scalar = _best_of(
            lambda: predecode._build_scalar(decode_trace, _BLOCK_MASK)
        )
        vectorized = _best_of(
            lambda: predecode._build_numpy(decode_trace, _BLOCK_MASK, np)
        )
        speedups.append(scalar / vectorized)
        if speedups[-1] >= MIN_VECTOR_SPEEDUP:
            break
    else:
        raise AssertionError(
            f"NumPy builder stayed under {MIN_VECTOR_SPEEDUP}x the stdlib "
            f"builder in {len(speedups)} attempts: "
            + ", ".join(f"{s:.2f}x" for s in speedups)
        )


def test_memo_hit_is_free(decode_trace):
    speedups = []
    for _ in range(3):
        build = _best_of(
            lambda: predecode.build_decoded(decode_trace, _BLOCK_MASK)
        )
        predecode.decoded_for(decode_trace, _BLOCK_MASK)
        hit = _best_of(lambda: predecode.decoded_for(decode_trace, _BLOCK_MASK))
        speedups.append(build / hit)
        if speedups[-1] >= MIN_MEMO_SPEEDUP:
            break
    else:
        raise AssertionError(
            f"decode memo hit stayed under {MIN_MEMO_SPEEDUP}x cheaper than "
            f"a rebuild in {len(speedups)} attempts: "
            + ", ".join(f"{s:.0f}x" for s in speedups)
        )
