"""Tests for the ``python -m repro`` CLI and end-to-end sweep caching.

The warm-cache test is the acceptance check for the sweep engine: a full
``run-all`` against a warm job cache must perform **zero** new simulations,
and must reproduce the cold run's outputs exactly.
"""

import json
import os
import re

import pytest

from repro.__main__ import (
    EXPERIMENTS,
    build_context,
    experiment_names,
    list_output,
    main,
    parse_args,
    parse_trace_files,
    resume_note,
    run_experiments,
    run_spec_experiments,
)
from repro.common.errors import ConfigurationError

#: Tiny-but-valid evaluation: one application, short traces.
TINY = ["--instructions", "1500", "--applications", "gcc"]


def tiny_args(command, cache_dir, *extra):
    return parse_args([command, *extra, *TINY, "--cache-dir", str(cache_dir)])


class TestArgs:
    def test_run_figure_requires_known_names(self, capsys):
        with pytest.raises(SystemExit):
            parse_args(["run-figure", "figure99"])

    def test_run_all_selects_every_experiment(self, tmp_path):
        args = tiny_args("run-all", tmp_path / "cache")
        assert experiment_names(args) == list(EXPERIMENTS)

    def test_run_figure_deduplicates(self, tmp_path):
        args = parse_args(["run-figure", "table2", "figure4", "table2", *TINY])
        assert experiment_names(args) == ["table2", "figure4"]

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure4" in out and "table1" in out
        # The listing documents the replay engines and the cache layout.
        assert "columnar" in out and "reference" in out
        assert "--engine" in out and "--no-cache" in out

    def test_engine_flag_parses_and_rejects_unknown(self, capsys):
        assert parse_args(["run-all", "--engine", "reference"]).engine == "reference"
        assert parse_args(["run-all"]).engine is None
        with pytest.raises(SystemExit):
            parse_args(["run-all", "--engine", "vectorized"])

    def test_run_figure_help_documents_engine_and_trace_cache(self, capsys):
        with pytest.raises(SystemExit):
            parse_args(["run-figure", "--help"])
        out = capsys.readouterr().out
        assert "--engine" in out and "columnar" in out
        assert "traces" in out  # the trace-memo side of --cache-dir
        assert "fused trace pass" in out and "each rung" in out
        assert "--ladder-mode" not in out

    def test_ladder_mode_flag_is_retired(self):
        # The engine decides how ladders run; the separate flag is gone.
        assert not hasattr(parse_args(["run-all"]), "ladder_mode")
        with pytest.raises(SystemExit):
            parse_args(["run-all", "--ladder-mode", "fused"])

    def test_list_documents_ladder_modes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ladder modes (chosen by --engine" in out
        assert "fused" in out and "per-rung" in out
        assert "--ladder-mode" not in out


class TestResilienceFlags:
    def test_defaults_build_a_retrying_policy_with_checkpoint(self, tmp_path):
        cache_dir = tmp_path / "cache"
        context = build_context(tiny_args("run-all", cache_dir))
        policy = context.runner.retry_policy
        assert policy.max_attempts == 3 and policy.job_timeout is None
        assert context.runner.checkpoint_path == cache_dir / "checkpoint.json"

    def test_flags_reach_the_policy(self, tmp_path):
        args = tiny_args(
            "run-all", tmp_path / "cache", "--job-timeout", "7.5", "--job-retries", "0"
        )
        policy = build_context(args).runner.retry_policy
        assert policy.max_attempts == 1 and policy.job_timeout == 7.5

    def test_no_cache_disables_the_checkpoint(self):
        context = build_context(parse_args(["run-all", *TINY, "--no-cache"]))
        assert context.runner.checkpoint_path is None

    def test_resume_requires_the_cache(self, capsys):
        assert main(["run-figure", "table2", *TINY, "--no-cache", "--resume"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_negative_retries_rejected(self, capsys):
        assert main(["run-figure", "table2", *TINY, "--no-cache",
                     "--job-retries", "-1"]) == 2
        assert "--job-retries" in capsys.readouterr().err

    def test_resume_reports_checkpoint_and_simulates_only_residue(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        assert main(["run-figure", "table2", *TINY,
                     "--cache-dir", str(cache_dir)]) == 0
        assert (cache_dir / "checkpoint.json").is_file()
        capsys.readouterr()

        assert main(["run-figure", "table2", *TINY,
                     "--cache-dir", str(cache_dir), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: previous run (completed)" in out
        assert "0 simulated" in out  # warm cache: the residue is empty

    def test_resume_without_manifest_degrades_to_a_note(self, tmp_path, capsys):
        assert main(["run-figure", "table2", *TINY,
                     "--cache-dir", str(tmp_path / "fresh"), "--resume"]) == 0
        assert "no checkpoint manifest" in capsys.readouterr().out

    @pytest.mark.parametrize("content", ["[]", "null", "5", '"x"'])
    def test_resume_with_a_non_object_manifest_degrades_to_a_note(self, tmp_path, content):
        # Valid JSON that is not an object is as unusable as a torn file.
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "checkpoint.json").write_text(content)
        args = parse_args(["run-figure", "table2", *TINY,
                           "--cache-dir", str(cache_dir), "--resume"])
        assert "no checkpoint manifest" in resume_note(args)

    def test_stats_prints_the_resilience_line(self, tmp_path, capsys):
        assert main(["run-figure", "table2", *TINY,
                     "--cache-dir", str(tmp_path / "cache"), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "0 retrie(s)" in out and "0 worker death(s)" in out
        assert "0 quarantined job(s)" in out and "self-healed" in out

    def test_stats_prints_the_pilot_counters(self, tmp_path, capsys):
        assert main(["run-figure", "figure4", *TINY,
                     "--cache-dir", str(tmp_path / "cache"), "--stats"]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines() if line.startswith("transport:"))
        match = re.search(r"(\d+) pilot build\(s\), \d+ pilot memo hit\(s\)", line)
        # figure4's d-cache ladders pilot the fixed L1i of each trace.
        assert int(match.group(1)) > 0

    def test_stats_names_the_ladder_tier_of_every_rung(self, tmp_path, capsys):
        assert main(["run-figure", "figure4", *TINY,
                     "--cache-dir", str(tmp_path / "cache"), "--stats"]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines() if line.startswith("ladder:"))
        fused = int(re.search(r"(\d+) ladder rung\(s\) fused", out).group(1))
        tiers = re.search(r"(\d+) stack, (\d+) shared, (\d+) per-rung", line)
        assert sum(int(count) for count in tiers.groups()) == fused
        assert "0 stack group(s)" not in line
        built = int(re.search(r"(\d+) cache hierarchies built", line).group(1))
        assert 0 < built < fused

    def test_every_cold_run_all_pass_takes_the_l2_filter(self, tmp_path, capsys):
        # No paper trace overflows an L2 set, so every fused pass reads its
        # L2 traffic from the compulsory-miss filter.
        assert main(["run-all", *TINY, "--cache-dir", str(tmp_path / "cache"), "--stats"]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("ladder:")
        )
        passes = int(re.search(r"(\d+) fused pass\(es\)", line).group(1))
        assert passes > 0
        assert f"; {passes} L2-filtered" in line

    def test_resume_names_quarantined_fingerprints(self, tmp_path, capsys):
        # A checkpoint whose previous attempt quarantined a job: --resume
        # names the job and its cache fingerprints instead of silently
        # retrying it from scratch.
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "checkpoint.json").write_text(json.dumps({
            "version": 1,
            "done": False,
            "simulated": 3,
            "cache_hits": 1,
            "pending": 2,
            "deferred": 0,
            "quarantined": [{
                "job": {"workload": "gcc (1500 instructions)"},
                "attempts": 3,
                "error": "worker crashed on every attempt",
                "fingerprints": ["ab12cd34ef56" + "0" * 52],
            }],
        }))
        assert main(["run-figure", "table2", *TINY,
                     "--cache-dir", str(cache_dir), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 job(s)" in out
        assert "gcc (1500 instructions)" in out
        assert "ab12cd34ef56" in out  # the truncated fingerprint
        assert "after 3 attempt(s)" in out
        assert "worker crashed on every attempt" in out

    def test_injected_faults_leave_rows_byte_identical(self, tmp_path, monkeypatch):
        from repro.sim import faults

        clean = tmp_path / "clean.json"
        assert main(["run-figure", "table2", *TINY, "--no-cache", "--jobs", "2",
                     "--output", str(clean)]) == 0

        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", "worker_crash:job=1;shm_publish_fail:segment=1"
        )
        faults.reset()  # pick the env plan up lazily, like a fresh process
        faulted = tmp_path / "faulted.json"
        try:
            assert main(["run-figure", "table2", *TINY, "--no-cache", "--jobs", "2",
                         "--output", str(faulted)]) == 0
        finally:
            monkeypatch.delenv("REPRO_FAULT_PLAN")
            faults.reset()
        assert clean.read_bytes() == faulted.read_bytes()


class TestMain:
    def test_run_figure_writes_output_json(self, tmp_path, capsys):
        output = tmp_path / "rows.json"
        code = main(
            ["run-figure", "table2", *TINY, "--no-cache", "--output", str(output)]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert set(payload) == {"table2"}
        assert payload["table2"]  # non-empty rows
        out = capsys.readouterr().out
        assert "1 simulated" in out

    def test_unwritable_output_fails_before_running(self, tmp_path, capsys):
        code = main(
            ["run-figure", "table2", *TINY, "--no-cache",
             "--output", str(tmp_path / "no" / "such" / "dir" / "rows.json")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot write --output" in captured.err
        # Failed fast: no experiment output was produced first.
        assert "table2" not in captured.out

    def test_parallel_flag_produces_identical_rows(self, tmp_path):
        outputs = {}
        for jobs in ("1", "2"):
            output = tmp_path / f"rows-{jobs}.json"
            main(
                ["run-figure", "figure4", *TINY, "--no-cache",
                 "--jobs", jobs, "--output", str(output)]
            )
            outputs[jobs] = output.read_text()
        assert outputs["1"] == outputs["2"]

    def test_engines_produce_identical_rows(self, tmp_path):
        """The CLI-level cross-engine acceptance check (uncached)."""
        outputs = {}
        for engine in ("reference", "columnar"):
            output = tmp_path / f"rows-{engine}.json"
            main(
                ["run-figure", "figure4", *TINY, "--no-cache",
                 "--engine", engine, "--output", str(output)]
            )
            outputs[engine] = output.read_text()
        assert outputs["reference"] == outputs["columnar"]

    def test_ladder_modes_produce_identical_rows(self, tmp_path, capsys):
        """Fused ladders (columnar) vs per-rung ladders (reference), uncached."""
        from repro.sim import ladder

        outputs = {}
        passes = {}
        summaries = {}
        for engine in ("columnar", "reference"):
            output = tmp_path / f"rows-{engine}.json"
            before = ladder.stats_snapshot()["ladder_passes"]
            main(
                ["run-figure", "figure6", *TINY, "--no-cache",
                 "--engine", engine, "--output", str(output)]
            )
            passes[engine] = ladder.stats_snapshot()["ladder_passes"] - before
            outputs[engine] = output.read_bytes()
            summaries[engine] = capsys.readouterr().out
        assert outputs["columnar"] == outputs["reference"]
        # --engine reference is honoured inside ladders: no fused pass runs,
        # and the summary does not claim any rung rode one.
        assert passes["columnar"] > 0
        assert passes["reference"] == 0
        fused = {
            engine: int(re.search(r"(\d+) ladder rung\(s\) fused", out).group(1))
            for engine, out in summaries.items()
        }
        assert fused["columnar"] > 0
        assert fused["reference"] == 0
        assert "(0 ladder rung(s) riding fused passes)" in summaries["reference"]

    def test_fused_run_reports_fused_rungs(self, tmp_path, capsys):
        import re

        assert main(["run-figure", "figure4", *TINY, "--no-cache"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"(\d+) ladder rung\(s\) fused", out)
        assert match is not None
        # figure4 is ladder-dominated: the fused default must fuse rungs.
        assert int(match.group(1)) > 0

    def test_modes_share_the_job_cache_both_ways(self, tmp_path):
        """A fused run warms a per-rung (reference) run's cache and vice versa."""
        cache_dir = tmp_path / "cache"
        sink = lambda *args, **kwargs: None  # noqa: E731

        fused = build_context(tiny_args("run-figure", cache_dir, "figure4"))
        run_experiments(["figure4"], fused, echo=sink)
        assert fused.runner.simulate_count > 0

        per_rung = build_context(
            tiny_args("run-figure", cache_dir, "figure4", "--engine", "reference")
        )
        run_experiments(["figure4"], per_rung, echo=sink)
        assert per_rung.runner.simulate_count == 0

        fused_again = build_context(tiny_args("run-figure", cache_dir, "figure4"))
        run_experiments(["figure4"], fused_again, echo=sink)
        assert fused_again.runner.simulate_count == 0
        assert fused_again.runner.fused_rungs == 0
        assert fused_again.runner.fused_skipped > 0


class TestRunSpec:
    """The declarative entry point: ``run-spec`` and the spec-aware list."""

    USER_SPEC = (
        "spec: 1\n"
        "name: probe-sweep\n"
        "axes:\n"
        "  targets: [icache]\n"
        "  organizations: [hybrid]\n"
        "  associativities: [8]\n"
        "  strategies: [static]\n"
        "  applications: [gcc]\n"
        "analysis:\n"
        "  kind: grid\n"
    )

    def write_spec(self, tmp_path, text=None, stem="probe"):
        path = tmp_path / f"{stem}.yaml"
        path.write_text(text if text is not None else self.USER_SPEC)
        return str(path)

    def test_parse_run_spec_collects_paths_and_common_flags(self):
        args = parse_args(["run-spec", "a.yaml", "b.yaml", "--jobs", "2"])
        assert args.command == "run-spec"
        assert args.specs == ["a.yaml", "b.yaml"]
        assert args.jobs == 2 and args.engine is None

    def test_user_spec_runs_end_to_end(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        output = tmp_path / "rows.json"
        code = main(["run-spec", spec_path, *TINY, "--no-cache",
                     "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text())
        assert set(payload) == {"probe-sweep"}
        assert payload["probe-sweep"]
        out = capsys.readouterr().out
        # The plan line, the pipeline echoes and the summary all print.
        assert "probe-sweep:" in out and "cell(s)" in out and "[spec " in out
        assert "two-phase pipeline:" in out
        assert "1 experiment(s) in" in out

    def test_malformed_spec_fails_fast(self, tmp_path, capsys):
        bad = self.write_spec(
            tmp_path, self.USER_SPEC.replace("kind: grid", "kind: mystery"),
        )
        assert main(["run-spec", bad, *TINY, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert "mystery" in captured.err
        assert "two-phase pipeline" not in captured.out  # nothing ran

    def test_missing_spec_file_fails_fast(self, tmp_path, capsys):
        assert main(["run-spec", str(tmp_path / "ghost.yaml"),
                     *TINY, "--no-cache"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_duplicate_spec_names_rejected(self, tmp_path):
        first = self.write_spec(tmp_path, stem="first")
        second = self.write_spec(tmp_path, stem="second")
        context = build_context(
            parse_args(["run-spec", first, second, *TINY, "--no-cache"])
        )
        sink = lambda *args, **kwargs: None  # noqa: E731
        with pytest.raises(ConfigurationError, match="duplicate spec name"):
            run_spec_experiments([first, second], context, echo=sink)

    def test_specs_share_one_drain(self, tmp_path, capsys):
        # Two specs over the same axes: the second dedups onto the first's
        # futures, and the whole batch drains before any table prints.
        first = self.write_spec(tmp_path, stem="first")
        second = self.write_spec(
            tmp_path, self.USER_SPEC.replace("probe-sweep", "other-sweep"),
            stem="second",
        )
        context = build_context(
            parse_args(["run-spec", first, second, *TINY, "--no-cache"])
        )
        sink = lambda *args, **kwargs: None  # noqa: E731
        results = run_spec_experiments([first, second], context, echo=sink)
        assert set(results) == {"probe-sweep", "other-sweep"}
        assert results["probe-sweep"].rows() == results["other-sweep"].rows()

    def test_committed_spec_matches_run_figure(self, tmp_path):
        committed = os.path.join(
            "src", "repro", "experiments", "specs", "table2.yaml"
        )
        legacy_out = tmp_path / "legacy.json"
        spec_out = tmp_path / "spec.json"
        assert main(["run-figure", "table2", *TINY, "--no-cache",
                     "--output", str(legacy_out)]) == 0
        assert main(["run-spec", committed, *TINY, "--no-cache",
                     "--output", str(spec_out)]) == 0
        assert legacy_out.read_bytes() == spec_out.read_bytes()

    def test_list_enumerates_committed_specs_with_job_counts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "run-spec" in out and "docs/EXPERIMENTS.md" in out
        # Every committed spec appears with a planned job count (table1 is
        # analytic and says so instead).
        assert "analytic" in out
        import re

        assert re.search(r"figure4\s+\d+ job\(s\)", out)

    def test_list_output_is_the_single_source_for_the_listing(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == list_output() + "\n"


class TestTraceCacheWiring:
    def test_cache_dir_hosts_the_trace_memo(self, tmp_path):
        from repro.sim.runner import _TRACE_MEMO

        _TRACE_MEMO.clear()  # force materialisation so the disk memo is written
        cache_dir = tmp_path / "cache"
        context = build_context(tiny_args("run-figure", cache_dir, "table2"))
        sink = lambda *args, **kwargs: None  # noqa: E731
        run_experiments(["table2"], context, echo=sink)
        trace_dir = cache_dir / "traces"
        assert trace_dir.is_dir()
        assert list(trace_dir.glob("*/*.trace"))

    def test_no_cache_bypasses_the_trace_memo_too(self, tmp_path, monkeypatch):
        from repro.sim import runner as runner_module

        # Even with a process-level trace cache left over from earlier work,
        # --no-cache must clear it: no trace may be read from or written to
        # disk during the run.
        leftover = tmp_path / "leftover"
        runner_module.set_trace_cache(str(leftover))
        monkeypatch.chdir(tmp_path)
        assert main(["run-figure", "table2", *TINY, "--no-cache"]) == 0
        assert runner_module.get_trace_cache() is None
        assert not list(leftover.glob("*/*.trace"))
        assert not (tmp_path / ".repro-cache").exists()


class TestWarmCacheAcceptance:
    def test_run_all_second_invocation_simulates_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"

        cold_args = tiny_args("run-all", cache_dir)
        cold_context = build_context(cold_args)
        sink = lambda *args, **kwargs: None  # noqa: E731 - silence table output
        cold = run_experiments(experiment_names(cold_args), cold_context, echo=sink)
        assert cold_context.runner.simulate_count > 0
        assert cold_context.runner.cache_hits == 0

        warm_args = tiny_args("run-all", cache_dir)
        warm_context = build_context(warm_args)
        warm = run_experiments(experiment_names(warm_args), warm_context, echo=sink)
        # The acceptance criterion: a warm cache means zero new simulations.
        assert warm_context.runner.simulate_count == 0
        assert warm_context.runner.cache_hits == cold_context.runner.simulate_count

        # And the outputs are identical, figure by figure, byte for byte.
        for name in EXPERIMENTS:
            assert cold[name].format_table() == warm[name].format_table()
            assert cold[name].rows() == warm[name].rows()

    def test_cache_invalidates_on_parameter_change(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sink = lambda *args, **kwargs: None  # noqa: E731

        first = build_context(tiny_args("run-figure", cache_dir, "table2"))
        run_experiments(["table2"], first, echo=sink)

        # Longer traces -> different job fingerprints -> full re-simulation.
        changed_args = parse_args(
            ["run-figure", "table2", "--instructions", "2500",
             "--applications", "gcc", "--cache-dir", str(cache_dir)]
        )
        changed = build_context(changed_args)
        run_experiments(["table2"], changed, echo=sink)
        assert changed.runner.cache_hits == 0
        assert changed.runner.simulate_count == first.runner.simulate_count


class TestTraceFileAndSamplingFlags:
    FIXTURE = os.path.join(
        os.path.dirname(os.path.dirname(__file__)), "data", "sample.rtxt"
    )

    def test_parse_trace_files_names_and_stems(self, tmp_path):
        other = tmp_path / "capture.rtxt"
        other.write_text("#RTXT 1\n0x10 I\n")
        parsed = parse_trace_files([f"ref={self.FIXTURE}", str(other)])
        assert parsed == {"ref": self.FIXTURE, "capture": str(other)}

    def test_parse_trace_files_rejects_duplicates_and_missing(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_trace_files([f"a={self.FIXTURE}", f"a={self.FIXTURE}"])
        with pytest.raises(ConfigurationError, match="no such file"):
            parse_trace_files(["ghost=/nonexistent/trace.rtxt"])
        with pytest.raises(ConfigurationError, match="needs a path"):
            parse_trace_files(["name="])

    def test_build_context_registers_external_workloads(self, tmp_path):
        args = parse_args(
            ["run-figure", "table2", "--no-cache",
             "--trace-file", f"sample={self.FIXTURE}"]
        )
        context = build_context(args)
        # external names join the default application list…
        assert "sample" in context.applications
        # …and resolve to a content-addressed external spec, not a profile
        spec = context.trace_spec("sample")
        assert spec.application == "sample"
        assert context.trace("sample").name == "sample"
        assert len(context.trace("sample")) == 4500

    def test_applications_flag_accepts_external_names(self):
        args = parse_args(
            ["run-figure", "table2", "--no-cache",
             "--trace-file", f"sample={self.FIXTURE}",
             "--applications", "gcc,sample"]
        )
        context = build_context(args)
        assert context.applications == ("gcc", "sample")

    def test_unknown_application_still_fails_fast(self):
        args = parse_args(
            ["run-figure", "table2", "--no-cache", "--applications", "sample"]
        )
        with pytest.raises(Exception, match="sample"):
            build_context(args)

    def test_sampling_flags_reach_the_context(self):
        args = parse_args(
            ["run-all", "--sample-every", "4", "--sample-warmup", "600", *TINY]
        )
        assert args.sample_every == 4 and args.sample_warmup == 600
        context = build_context(
            parse_args(["run-all", "--no-cache", "--sample-every", "4",
                        "--sample-warmup", "600", *TINY])
        )
        assert context.sample_every == 4
        assert context.sample_warmup == 600

    def test_external_trace_runs_a_figure_end_to_end(self, tmp_path, capsys):
        output = tmp_path / "rows.json"
        code = main(
            ["run-figure", "table2", "--no-cache",
             "--trace-file", f"sample={self.FIXTURE}",
             "--applications", "sample",
             "--sample-every", "2", "--sample-warmup", "300",
             "--output", str(output)]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert any("sample" in str(row) for row in payload["table2"])

    def test_list_documents_trace_files_and_sampling(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "--trace-file" in out and ".rtxt" in out and ".rtrc2" in out
        assert "--sample-every" in out and "error bars" in out
