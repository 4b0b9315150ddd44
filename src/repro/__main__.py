"""``python -m repro`` — reproduce the paper's evaluation from the shell.

Examples::

    # One figure, four worker processes, cached under .repro-cache/
    python -m repro run-figure figure4 --jobs 4

    # The whole evaluation (Tables 1-2, Figures 4-9)
    python -m repro run-all --jobs 8

    # Quick smoke run: one application, short traces, no cache
    python -m repro run-figure figure4 --jobs 2 --instructions 2000 \
        --applications gcc --no-cache

    # Replay through the historical per-record loop instead of the
    # columnar fast path, profiling ladders included: each rung then runs
    # on its own (results are bit-identical either way)
    python -m repro run-figure figure4 --engine reference

    # Run a declarative experiment spec (yours or a committed one) through
    # the design-of-experiments orchestrator
    python -m repro run-spec my_sweep.yaml --jobs 4
    python -m repro run-spec src/repro/experiments/specs/figure4.yaml

    # Gate pytest-benchmark results against the committed perf baseline
    python -m repro bench-compare benchmark-results.json

Experiments execute through the two-phase pipeline: every module first
*enqueues* its whole job set on the shared sweep runner (profiling ladders
and baselines as concrete jobs, dynamic/combined runs as deferred jobs
depending on their profiles), then one drain executes the entire graph in
dependency waves — each wave a single pool batch — so ``--jobs N`` scales
across the whole evaluation.

Because completed simulations are memoised in the job cache (``--cache-dir``,
default ``.repro-cache``), a second invocation of any overlapping sweep only
simulates what changed; a fully warm re-run performs zero new simulations.
Generated traces are memoised alongside under ``<cache-dir>/traces`` in the
binary trace format, so warm runs skip trace generation too; ``--no-cache``
bypasses both memos.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.benchgate import (
    DEFAULT_TOLERANCE,
    compare_benchmarks,
    load_baseline,
    load_benchmark_means,
    write_baseline,
)
from repro.common.errors import ConfigurationError, ReproError
from repro.sim.engine import DEFAULT_ENGINE, available_engines
from repro.experiments import (
    DoEOrchestrator,
    ExperimentContext,
    builtin_spec_names,
    builtin_spec_path,
    load_spec,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
    table2,
)
from repro.common.atomicio import atomic_write_json
from repro.sim.jobcache import JobCache
from repro.sim.runner import RetryPolicy, SweepRunner, get_trace_cache, set_trace_cache
from repro.workloads.profiles import get_profile

#: Experiment registry: name -> module with run() returning a result object
#: exposing rows() and format_table().  table1 is purely analytic (no
#: simulations) and ignores the context.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
}

#: CLI default for the on-disk job cache location.
DEFAULT_CACHE_DIR = ".repro-cache"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse CLI arguments (exposed separately for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures with the parallel sweep engine.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--jobs", "-j", type=int, default=1,
            help="worker processes for the sweep engine (default: 1, serial)",
        )
        sub.add_argument(
            "--cache-dir", default=DEFAULT_CACHE_DIR,
            help=f"cache directory: completed jobs at its top level, generated "
                 f"traces (binary trace format) under traces/ (default: {DEFAULT_CACHE_DIR})",
        )
        sub.add_argument(
            "--no-cache", action="store_true",
            help="disable the on-disk caches entirely (both the job-result "
                 "cache and the generated-trace memo)",
        )
        sub.add_argument(
            "--engine", choices=available_engines(), default=None,
            help=f"replay engine for the simulator hot loop (default: "
                 f"{DEFAULT_ENGINE}); engines are bit-identical, the choice "
                 f"only affects speed.  Under {DEFAULT_ENGINE} a profiling "
                 f"ladder is one fused trace pass feeding every rung; any "
                 f"other engine replays each rung as its own run",
        )
        sub.add_argument(
            "--instructions", type=int, default=60_000,
            help="trace length per application (default: 60000)",
        )
        sub.add_argument(
            "--applications", default=None,
            help="comma-separated application subset (default: all twelve, "
                 "plus any --trace-file workloads)",
        )
        sub.add_argument(
            "--trace-file", action="append", default=[], metavar="[NAME=]PATH",
            help="replay a real trace file (.rtxt text or .rtrc2 binary — see "
                 "docs/TRACE_FORMAT.md) as a workload named NAME (default: the "
                 "file's stem); repeatable.  External workloads join the "
                 "application list and run through every figure like the "
                 "synthetic ones",
        )
        sub.add_argument(
            "--sample-every", type=int, default=1, metavar="N",
            help="interval sampling: simulate every Nth interval instead of "
                 "all of them (default: 1 = exhaustive); sampled results "
                 "carry miss-ratio error bars (docs/SAMPLING.md)",
        )
        sub.add_argument(
            "--sample-warmup", type=int, default=0, metavar="W",
            help="instructions replayed (but not measured) ahead of each "
                 "sampled interval to re-warm cache state after a sampling "
                 "gap (default: 0)",
        )
        sub.add_argument(
            "--output", default=None,
            help="also write every experiment's rows to this JSON file "
                 "(written atomically: readers never observe a torn file)",
        )
        sub.add_argument(
            "--resume", action="store_true",
            help="resume an interrupted run: report the previous attempt's "
                 "checkpoint manifest (<cache-dir>/checkpoint.json), then "
                 "replay the job graph against the job cache so only the "
                 "residue — jobs that had not completed — is simulated.  "
                 "Results are byte-identical to an uninterrupted run.  "
                 "Requires the cache (incompatible with --no-cache)",
        )
        sub.add_argument(
            "--job-timeout", type=float, default=None, metavar="SECONDS",
            help="per-job wall-clock budget; a job over budget has its "
                 "worker killed and is retried like any transient failure "
                 "(default: no timeout).  Only enforced with --jobs > 1",
        )
        sub.add_argument(
            "--job-retries", type=int, default=2, metavar="N",
            help="re-dispatches allowed per job after transient failures — "
                 "worker death, timeout, trace-transport loss (default: 2); "
                 "0 disables retries; a job exhausting its budget is "
                 "quarantined and reported while its batch siblings finish",
        )
        sub.add_argument(
            "--profile", action="store_true",
            help="run the evaluation under cProfile and print the top-20 "
                 "cumulative-time functions (most useful with --jobs 1 "
                 "--no-cache: worker processes and cache hits are invisible "
                 "to the parent's profile)",
        )
        sub.add_argument(
            "--stats", action="store_true",
            help="also print the transport/decode and resilience counter "
                 "lines after the run summary: shared-memory segments "
                 "published, trace bytes pickled to the pool, dedup hits, "
                 "the decode memo / segment-attach counters aggregated from "
                 "the workers, plus retries, timeouts, worker deaths, "
                 "quarantined jobs and self-healed corrupt cache entries",
        )

    run_figure = subparsers.add_parser(
        "run-figure", help="regenerate one or more tables/figures"
    )
    run_figure.add_argument(
        "figures", nargs="+", choices=sorted(EXPERIMENTS), metavar="FIGURE",
        help=f"which experiments to run (choose from: {', '.join(sorted(EXPERIMENTS))})",
    )
    add_common(run_figure)

    run_all = subparsers.add_parser(
        "run-all", help="regenerate the full evaluation (Tables 1-2, Figures 4-9)"
    )
    add_common(run_all)

    run_spec = subparsers.add_parser(
        "run-spec",
        help="run declarative experiment spec files (.yaml/.json) through "
             "the design-of-experiments orchestrator",
    )
    run_spec.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="spec files to run (see docs/EXPERIMENTS.md for the schema; the "
             "committed paper specs live under src/repro/experiments/specs/)",
    )
    add_common(run_spec)

    subparsers.add_parser("list", help="list the available experiments")

    serve = subparsers.add_parser(
        "serve",
        help="run the crash-safe async sweep server (HTTP; docs/SERVICE.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1, loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port to bind; 0 picks a free port and prints it (default: 8765)",
    )
    serve.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the sweep engine (default: 1, serial)",
    )
    serve.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"cache directory; also holds the service's handle manifests "
             f"under service/handles/ (default: {DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="bounded admission queue size; a full queue answers 429 with "
             "Retry-After instead of buffering (default: 64)",
    )
    serve.add_argument(
        "--tenant-queue-limit", type=int, default=None,
        help="per-tenant (X-Tenant header) queue bound inside the global "
             "limit, so one tenant cannot monopolise admission "
             "(default: the global --queue-limit)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="transient failures (worker deaths + quarantined jobs) within "
             "the window that open the circuit breaker (default: 5)",
    )
    serve.add_argument(
        "--breaker-window", type=float, default=60.0,
        help="sliding failure-counting window in seconds (default: 60)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=15.0,
        help="seconds an open breaker sheds new work before half-opening "
             "for a probe request (default: 15)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds a SIGTERM drain waits for the in-flight request "
             "before closing the runner forcefully (default: 10)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget, as in the batch CLI; request "
             "deadlines (deadline_seconds) tighten it per request "
             "(default: no timeout)",
    )
    serve.add_argument(
        "--job-retries", type=int, default=2, metavar="N",
        help="re-dispatches allowed per job after transient failures "
             "(default: 2)",
    )
    serve.add_argument(
        "--instructions", type=int, default=60_000,
        help="trace length per application for spec runs; part of a spec "
             "handle's identity (default: 60000)",
    )
    serve.add_argument(
        "--max-body-kib", type=int, default=256,
        help="largest request body accepted, in KiB (default: 256)",
    )

    bench = subparsers.add_parser(
        "bench-compare",
        help="gate pytest-benchmark results against the committed perf baseline",
    )
    bench.add_argument(
        "results", help="pytest-benchmark JSON output (--benchmark-json=...)"
    )
    bench.add_argument(
        "--baseline", default="benchmarks/baseline.json",
        help="committed baseline file (default: benchmarks/baseline.json)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"relative slowdown tolerated before failing "
             f"(default: {DEFAULT_TOLERANCE:.2f} = ±{DEFAULT_TOLERANCE:.0%})",
    )
    bench.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from these results instead of gating",
    )
    bench.add_argument(
        "--absolute", action="store_true",
        help="compare raw means without dividing out the suite-wide "
             "hardware-speed factor (the median measured/baseline ratio)",
    )
    bench.add_argument(
        "--max-scale", type=float, default=None,
        help="widest hardware-speed factor normalization may absorb before "
             "the gate fails outright (default: 4.0)",
    )

    return parser.parse_args(argv)


def bench_compare(args: argparse.Namespace) -> int:
    """The ``bench-compare`` subcommand: gate results or refresh the baseline."""
    try:
        means = load_benchmark_means(args.results)
        if args.update:
            write_baseline(args.baseline, means)
            print(f"baseline {args.baseline} updated with {len(means)} benchmark(s)")
            return 0
        extra = {} if args.max_scale is None else {"max_scale": args.max_scale}
        comparison = compare_benchmarks(
            means, load_baseline(args.baseline),
            tolerance=args.tolerance, normalize=not args.absolute, **extra,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(comparison.format_report())
    return 0 if comparison.ok else 1


def serve_command(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the sweep service until drained."""
    from repro.service import ServeConfig, serve  # deferred: asyncio stack

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            queue_limit=args.queue_limit,
            tenant_queue_limit=args.tenant_queue_limit,
            breaker_threshold=args.breaker_threshold,
            breaker_window=args.breaker_window,
            breaker_cooldown=args.breaker_cooldown,
            drain_grace=args.drain_grace,
            job_timeout=args.job_timeout,
            job_retries=args.job_retries,
            instructions=args.instructions,
            max_body_kib=args.max_body_kib,
        )
        return serve(config)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def experiment_names(args: argparse.Namespace) -> List[str]:
    """The experiments an invocation asks for, in canonical order."""
    if args.command == "run-all":
        return list(EXPERIMENTS)
    return list(dict.fromkeys(args.figures))  # de-duplicate, keep order


def parse_trace_files(entries: List[str]) -> Dict[str, str]:
    """Parse ``--trace-file [NAME=]PATH`` entries into a name -> path map."""
    trace_files: Dict[str, str] = {}
    for entry in entries:
        name, sep, path = entry.partition("=")
        if not sep:
            name, path = "", entry
        name = name.strip()
        path = path.strip()
        if not path:
            raise ConfigurationError(f"--trace-file needs a path: {entry!r}")
        if not name:
            name = os.path.splitext(os.path.basename(path))[0]
        if not name:
            raise ConfigurationError(f"cannot derive a workload name from {entry!r}")
        if name in trace_files:
            raise ConfigurationError(f"duplicate --trace-file name {name!r}")
        if not os.path.isfile(path):
            raise ConfigurationError(f"--trace-file {name}: no such file: {path}")
        trace_files[name] = path
    return trace_files


def checkpoint_path_for(cache_dir: str) -> str:
    """Where a run's progress manifest lives (beside the job cache)."""
    return os.path.join(cache_dir, "checkpoint.json")


def build_context(args: argparse.Namespace) -> ExperimentContext:
    """Build the experiment context (runner, caches, applications) for a run."""
    if args.no_cache:
        if getattr(args, "resume", False):
            raise ConfigurationError(
                "--resume needs the job cache (it replays the job graph "
                "against completed entries); it cannot be combined with "
                "--no-cache"
            )
        cache = None
        # Clear any process-level trace memo too: --no-cache means *no*
        # on-disk state is consulted or written, traces included.
        set_trace_cache(None)
        trace_cache = None
        checkpoint = None
    else:
        cache = JobCache(args.cache_dir)
        trace_cache = os.path.join(args.cache_dir, "traces")
        checkpoint = checkpoint_path_for(args.cache_dir)
    if args.job_retries < 0:
        raise ConfigurationError(f"--job-retries must be >= 0, got {args.job_retries}")
    retry_policy = RetryPolicy(
        max_attempts=args.job_retries + 1,
        job_timeout=args.job_timeout,
    )
    runner = SweepRunner(
        jobs=args.jobs,
        cache=cache,
        trace_cache=trace_cache,
        retry_policy=retry_policy,
        checkpoint_path=checkpoint,
    )
    trace_files = parse_trace_files(args.trace_file)
    applications = None
    if args.applications:
        applications = tuple(
            name.strip() for name in args.applications.split(",") if name.strip()
        )
        for name in applications:
            if name not in trace_files:  # external workloads have no profile
                get_profile(name)  # typos fail in milliseconds, not mid-evaluation
    return ExperimentContext(
        n_instructions=args.instructions,
        applications=applications,
        runner=runner,
        engine=args.engine,
        trace_files=trace_files,
        sample_every=args.sample_every,
        sample_warmup=args.sample_warmup,
    )


def prepare_experiments(names: List[str], context: ExperimentContext, echo=print) -> None:
    """Lay out the whole evaluation, then execute it as dependency waves.

    Every named experiment enqueues its full job set on the context's
    runner — profiling ladders and baselines as concrete jobs (phase 1),
    dynamic and combined runs as deferred jobs depending on their profiles
    (phase 2) — before a single simulation starts.  One drain then executes
    phase 1 as one pool batch and phase 2 as another, so ``run-all --jobs
    N`` parallelises across the *entire* figure set instead of one ladder
    at a time.
    """
    started = time.time()
    for name in names:
        module = EXPERIMENTS[name]
        prepare = getattr(module, "prepare", None)
        if prepare is not None:
            prepare(context)
    runner = context.runner
    echo(
        f"two-phase pipeline: {runner.pending_count} profile/baseline execution(s) in "
        f"phase 1 ({runner.fused_rungs} ladder rung(s) riding fused passes), "
        f"{runner.deferred_count} dependent job(s) in phase 2 "
        f"({runner.cache_hits} already served from cache)"
    )
    context.drain()
    echo(
        f"drained in {time.time() - started:.1f}s: {runner.simulate_count} simulated "
        f"across {runner.pool_batches} pool batch(es) on {runner.jobs} worker(s)"
    )


def run_experiments(names: List[str], context: ExperimentContext, echo=print) -> Dict[str, object]:
    """Run the named experiments against ``context``; returns result objects."""
    prepare_experiments(names, context, echo=echo)
    results: Dict[str, object] = {}
    for name in names:
        module = EXPERIMENTS[name]
        started = time.time()
        if name == "table1":
            result = module.run()  # analytic, simulation-free
        else:
            result = module.run(context)
        elapsed = time.time() - started
        echo(f"\n{'=' * 72}\n{name}   [{elapsed:.1f}s]\n{'=' * 72}")
        echo(result.format_table())
        results[name] = result
    return results


def run_spec_experiments(
    paths: List[str], context: ExperimentContext, echo=print
) -> Dict[str, object]:
    """Run declarative spec files through the orchestrator; returns stores.

    Mirrors :func:`run_experiments`'s two-phase shape: every spec's plan is
    enqueued on the shared context before a single simulation starts, one
    drain executes the whole job graph, then each spec is analyzed in turn.
    """
    # Load and validate every file up front so a typo in the last spec
    # fails in milliseconds instead of after the first spec's simulations.
    specs = []
    sources: Dict[str, str] = {}
    for path in paths:
        spec = load_spec(path)
        if spec.name in sources:
            raise ConfigurationError(
                f"duplicate spec name {spec.name!r}: declared by both "
                f"{sources[spec.name]} and {path}"
            )
        sources[spec.name] = path
        specs.append(spec)

    started = time.time()
    orchestrator = DoEOrchestrator(context)
    plans = []
    for spec in specs:
        plan = orchestrator.plan(spec)
        echo(f"{spec.name}: {plan.describe()}  [spec {spec.fingerprint()[:12]}]")
        orchestrator.enqueue(plan)
        plans.append(plan)
    runner = context.runner
    echo(
        f"two-phase pipeline: {runner.pending_count} profile/baseline execution(s) in "
        f"phase 1 ({runner.fused_rungs} ladder rung(s) riding fused passes), "
        f"{runner.deferred_count} dependent job(s) in phase 2 "
        f"({runner.cache_hits} already served from cache)"
    )
    context.drain()
    echo(
        f"drained in {time.time() - started:.1f}s: {runner.simulate_count} simulated "
        f"across {runner.pool_batches} pool batch(es) on {runner.jobs} worker(s)"
    )

    results: Dict[str, object] = {}
    for plan in plans:
        started = time.time()
        store = orchestrator.analyze(orchestrator.run(plan))
        elapsed = time.time() - started
        echo(f"\n{'=' * 72}\n{plan.spec.name}   [{elapsed:.1f}s]\n{'=' * 72}")
        echo(store.format_table())
        results[plan.spec.name] = store
    return results


def _spec_axes_summary(spec) -> str:
    """Compact one-line rendering of a spec's design axes for ``list``."""
    axes = spec.axes
    parts = [",".join(axes.strategies)]
    if axes.organizations:
        parts.append(",".join(axes.organizations))
    parts.append("+".join(axes.targets))
    parts.append("assoc " + ",".join(str(a) for a in axes.associativities))
    if len(axes.core_kinds) > 1:
        parts.append("both cores")
    return " | ".join(parts)


def list_output() -> str:
    """The full ``python -m repro list`` text.

    This is the single source for the CLI inventory: ``main`` prints it and
    ``tools/sync_readme_cli.py`` embeds it verbatim into the README, so the
    two can never drift.
    """
    lines: List[str] = []
    lines.append("experiments (run-figure FIGURE / run-all):")
    for name in EXPERIMENTS:
        lines.append(f"  {name}")
    lines.append(
        "declarative specs (run-spec SPEC; schema in docs/EXPERIMENTS.md):"
    )
    planner = DoEOrchestrator()  # planning never simulates
    for name in builtin_spec_names():
        spec = load_spec(builtin_spec_path(name))
        plan = planner.plan(spec)
        jobs = "analytic" if not plan.cells else f"{plan.job_count} job(s)"
        lines.append(f"  {name:<9} {jobs:>10}  {_spec_axes_summary(spec)}")
    lines.append("replay engines (--engine NAME; bit-identical results, speed only):")
    for name in available_engines():
        suffix = "  [default]" if name == DEFAULT_ENGINE else ""
        lines.append(f"  {name}{suffix}")
    lines.append("ladder modes (chosen by --engine; bit-identical results, speed only):")
    lines.append(f"  fused     {DEFAULT_ENGINE}: one trace pass feeds a whole profiling ladder")
    lines.append("  per-rung  any other engine: each ladder rung replays on its own")
    lines.append(
        "external traces (--trace-file [NAME=]PATH; docs/TRACE_FORMAT.md):\n"
        "  .rtxt   text records, one per line\n"
        "  .rtrc2  binary records, endian-tagged header"
    )
    lines.append(
        "interval sampling (--sample-every N --sample-warmup W; docs/SAMPLING.md):\n"
        "  N > 1 simulates every Nth interval, replaying W warmup\n"
        "  instructions before each; results carry miss-ratio error bars"
    )
    lines.append(
        "caches: completed jobs live in --cache-dir, generated traces in\n"
        "  --cache-dir/traces (binary trace format); --no-cache disables both"
    )
    lines.append(
        "service (serve; crash-safe async sweep server, docs/SERVICE.md):\n"
        "  POST /jobs and /specs return fingerprint-derived handles\n"
        "  (duplicates share one execution); GET /jobs/HANDLE polls,\n"
        "  /jobs/HANDLE/stream streams progress, /metrics exposes counters;\n"
        "  bounded admission answers 429 + Retry-After, SIGTERM drains\n"
        "  gracefully and a restarted server resumes handles from cache"
    )
    return "\n".join(lines)


def resume_note(args: argparse.Namespace) -> Optional[str]:
    """The ``--resume`` banner: what the interrupted attempt had finished.

    The manifest is informational — resume *correctness* comes from the job
    cache (completed jobs replay as cache hits, only the residue
    simulates) — so a missing or unreadable manifest degrades to a note,
    never an error.
    """
    if not getattr(args, "resume", False):
        return None
    path = checkpoint_path_for(args.cache_dir)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        manifest = None
    if not isinstance(manifest, dict):  # missing, unparsable, or not an object
        return (
            f"resume: no checkpoint manifest at {path}; replaying the job "
            f"graph against the cache from scratch"
        )
    status = "completed" if manifest.get("done") else "interrupted"
    note = (
        f"resume: previous run ({status}) had simulated "
        f"{manifest.get('simulated', 0)} job(s) with {manifest.get('cache_hits', 0)} "
        f"cache hit(s), {manifest.get('pending', 0)} pending and "
        f"{manifest.get('deferred', 0)} deferred at its last checkpoint; "
        f"completed jobs replay from cache, only the residue simulates"
    )
    quarantined = manifest.get("quarantined") or []
    if quarantined:
        lines = [
            note,
            f"resume: the previous attempt quarantined {len(quarantined)} job(s) "
            f"after exhausting their retry budget; they will retry from scratch:",
        ]
        for entry in quarantined:
            if not isinstance(entry, dict):
                continue
            fingerprints = entry.get("fingerprints") or []
            workload = (entry.get("job") or {}).get("workload", "<unknown workload>")
            shown = ", ".join(str(fp)[:12] for fp in fingerprints) or "<no fingerprint>"
            lines.append(
                f"resume:   {workload} [{shown}] after {entry.get('attempts', '?')} "
                f"attempt(s): {entry.get('error', '')}"
            )
        note = "\n".join(lines)
    return note


def resilience_stats_line(runner: SweepRunner) -> str:
    """The fault-tolerance counter line printed with ``--stats``."""
    corrupt = 0
    if runner.cache is not None:
        corrupt += runner.cache.corrupt_entries
    trace_cache = get_trace_cache()
    if trace_cache is not None:
        corrupt += trace_cache.corrupt_entries
    return (
        f"resilience: {runner.retries} retrie(s), {runner.timeouts} timeout(s), "
        f"{runner.worker_deaths} worker death(s), {len(runner.quarantined)} "
        f"quarantined job(s), {corrupt} corrupt cache entr(ies) self-healed"
    )


def transport_stats_line(runner: SweepRunner) -> str:
    """The ``--stats`` counter line for a drained runner.

    Parent-side counters (segments published, trace bytes pickled, dedup
    hits) come straight off the runner; the per-process counters — decode
    and pilot memo builds and hits, shared-memory attaches, trace-memo
    reads — come from
    :attr:`~repro.sim.runner.SweepRunner.worker_stats`, which aggregates
    the per-job deltas reported by whichever process executed each job
    (the workers under ``--jobs N``, this process for inline execution).
    """
    worker = runner.worker_stats
    return (
        f"transport: {runner.shm_segments} shm segment(s) published, "
        f"{runner.trace_bytes_pickled} trace byte(s) pickled, "
        f"{runner.dedup_hits} dedup hit(s); workers: "
        f"{worker.get('shm_attached', 0)} segment attach(es) "
        f"(+{worker.get('shm_attach_reuses', 0)} reuse(s), "
        f"{worker.get('shm_attach_failures', 0)} failure(s)), "
        f"{worker.get('trace_memo_reads', 0)} trace-memo read(s), "
        f"{worker.get('decode_builds', 0)} decode build(s), "
        f"{worker.get('decode_memo_hits', 0)} decode memo hit(s), "
        f"{worker.get('decode_disk_hits', 0)} decode disk hit(s), "
        f"{worker.get('pilot_builds', 0)} pilot build(s), "
        f"{worker.get('pilot_memo_hits', 0)} pilot memo hit(s)"
    )


def ladder_stats_line(runner: SweepRunner) -> str:
    """The ``--stats`` line naming the fused-ladder tier that served each rung."""
    tiers = runner.ladder_counters()
    return (
        f"ladder: {tiers['ladder_passes']} fused pass(es), "
        f"{tiers['ladder_stack_groups']} stack group(s); rungs by tier: "
        f"{tiers['ladder_stack_rungs']} stack, {tiers['ladder_shared_rungs']} shared, "
        f"{tiers['ladder_fallback_rungs']} per-rung; "
        f"{tiers['ladder_l2_filtered_passes']} L2-filtered"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = parse_args(argv)

    if args.command == "list":
        print(list_output())
        return 0

    if args.command == "bench-compare":
        return bench_compare(args)

    if args.command == "serve":
        return serve_command(args)

    if args.command == "run-spec":
        names = list(dict.fromkeys(args.specs))  # de-duplicate, keep order
    else:
        names = experiment_names(args)
    if args.output:
        # Fail fast on an unwritable output path instead of discarding a
        # possibly hours-long evaluation at the final write.  The probe file
        # is removed again so a later failure leaves no empty artifact.
        existed = os.path.exists(args.output)
        try:
            with open(args.output, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: {exc}", file=sys.stderr)
            return 2
        if not existed:
            try:
                os.remove(args.output)
            except OSError:
                pass

    started = time.time()
    profiler = None
    if args.profile:
        # Profile the whole prepare-and-drain pipeline (simulations, trace
        # generation, result assembly) so future perf work can read the next
        # bottleneck straight off the report instead of ad-hoc scripts.
        import cProfile

        if args.jobs > 1:
            print(
                "--profile note: with --jobs > 1 the simulations run in worker "
                "processes and will not appear in this profile; use --jobs 1.",
                file=sys.stderr,
            )
        profiler = cProfile.Profile()
    context = None
    try:
        context = build_context(args)
        note = resume_note(args)
        if note is not None:
            print(note)

        def execute() -> Dict[str, object]:
            if args.command == "run-spec":
                return run_spec_experiments(names, context)
            return run_experiments(names, context)

        if profiler is not None:
            profiler.enable()
            try:
                results = execute()
            finally:
                profiler.disable()
        else:
            results = execute()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Graceful Ctrl-C: the runner already killed and reaped its pool and
        # unlinked every shared-memory segment (drain's interrupt handler);
        # the job cache holds every completed job, written atomically.  One
        # summary line, no traceback, and the conventional 128+SIGINT code.
        runner = context.runner if context is not None else None
        if runner is not None:
            print(
                f"\ninterrupted: {runner.simulate_count} simulated, "
                f"{runner.cache_hits} served from cache; completed jobs are "
                f"persisted — rerun with --resume to simulate only the rest",
                file=sys.stderr,
            )
        else:
            print("\ninterrupted before any simulation started", file=sys.stderr)
        return 130
    finally:
        # Unlink every published shared-memory segment (and join any pool)
        # even when the evaluation errors out, so no /dev/shm space
        # outlives the process.
        if context is not None:
            context.runner.close()
    elapsed = time.time() - started

    if profiler is not None:
        import pstats

        print(f"\n{'=' * 72}\ncProfile: top 20 by cumulative time\n{'=' * 72}")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(20)

    runner = context.runner
    cache_note = "disabled" if runner.cache is None else str(runner.cache.directory)
    print(
        f"\n{len(names)} experiment(s) in {elapsed:.1f}s with {runner.jobs} worker(s): "
        f"{runner.simulate_count} simulated, {runner.cache_hits} served from cache "
        f"(cache: {cache_note}), {runner.pool_batches} pool batch(es), "
        f"{runner.inline_executions} inline, {runner.fused_rungs} ladder rung(s) fused"
    )
    if args.stats:
        print(transport_stats_line(runner))
        print(ladder_stats_line(runner))
        print(resilience_stats_line(runner))
    if runner.quarantined:
        print(
            f"warning: {len(runner.quarantined)} job(s) quarantined after "
            f"exhausting their retry budget (see --stats)",
            file=sys.stderr,
        )

    if args.output:
        payload = {name: result.rows() for name, result in results.items()}
        try:
            atomic_write_json(args.output, payload, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: {exc}", file=sys.stderr)
            return 2
        print(f"rows written to {args.output}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
