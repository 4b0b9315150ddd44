"""Warm-path microbenchmarks: job fingerprinting and job-cache entry I/O.

A warm sweep simulates nothing; what it pays per job is a fingerprint and
a cache read, and a cold sweep adds a cache write per job.  These time
those two layers directly, un-diluted by replay:

* ``test_bench_jobcache_fingerprints`` fingerprints every job of one
  figure's profiling ladders (Figure 4's grid: 12 applications, 2/4/8/16-way
  bases, d- and i-cache ladders of both organizations) with the
  fingerprint memo cleared first, as a fresh process would;
* ``test_bench_jobcache_roundtrip`` puts ``ROUNDTRIP_ENTRIES`` results into
  an empty cache directory and reads every one back.

Both workloads are fixed (not ``REPRO_BENCH_INSTRUCTIONS``) so the
committed ``benchmarks/baseline.json`` means are comparable everywhere.
"""

from __future__ import annotations

import shutil
import tempfile

from bench_utils import bench_instructions  # noqa: F401  (keeps sys.path bootstrap)

from repro.common.config import CacheGeometry, SystemConfig
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.sim import runner
from repro.sim.jobcache import JobCache
from repro.sim.runner import L1SetupSpec, SimJob, StrategySpec, TraceSpec, execute_job
from repro.workloads.profiles import SPEC_APPLICATION_NAMES

#: Figure 4's grid axes.
ASSOCIATIVITIES = (2, 4, 8, 16)
ORGANIZATIONS = (SelectiveWays, SelectiveSets)

#: Entries per put-then-get round trip.
ROUNDTRIP_ENTRIES = 400


def _figure_ladder_jobs():
    """Every job of Figure 4's profiling ladders, baselines included."""
    jobs = []
    for application in SPEC_APPLICATION_NAMES:
        trace = TraceSpec(application, 20_000)
        for associativity in ASSOCIATIVITIES:
            geometry = CacheGeometry(32 * 1024, associativity)
            system = SystemConfig(l1d=geometry, l1i=geometry)
            jobs.append(SimJob(trace=trace, system=system))
            for side in ("d_setup", "i_setup"):
                for cls in ORGANIZATIONS:
                    organization = cls(geometry)
                    for config in organization.ladder():
                        spec = L1SetupSpec(
                            organization=organization.name,
                            strategy=StrategySpec.static(config),
                            geometry=geometry,
                        )
                        jobs.append(SimJob(trace=trace, system=system, **{side: spec}))
    return jobs


def _fingerprint_all(jobs):
    return [job.fingerprint() for job in jobs]


def test_bench_jobcache_fingerprints(benchmark):
    jobs = _figure_ladder_jobs()
    fingerprints = benchmark.pedantic(
        _fingerprint_all,
        args=(jobs,),
        setup=runner.clear_fingerprint_memo,
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["jobs"] = len(jobs)
    assert len(set(fingerprints)) == len(jobs)


def _roundtrip(result, fingerprints):
    directory = tempfile.mkdtemp(prefix="bench-jobcache-")
    try:
        cache = JobCache(directory)
        for fingerprint in fingerprints:
            cache.put(fingerprint, result, description={"workload": "bench"})
        return sum(cache.get(fingerprint) is not None for fingerprint in fingerprints)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_bench_jobcache_roundtrip(benchmark):
    result = execute_job(SimJob(trace=TraceSpec("gcc", 2_000), interval_instructions=500))
    fingerprints = [f"{index:064x}" for index in range(ROUNDTRIP_ENTRIES)]
    hits = benchmark.pedantic(
        _roundtrip, args=(result, fingerprints), rounds=3, iterations=1, warmup_rounds=1
    )
    assert hits == ROUNDTRIP_ENTRIES
