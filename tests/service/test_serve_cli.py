"""CLI-level tests for ``python -m repro serve``: flags and SIGTERM drain."""

import json
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.__main__ import parse_args, serve_command


class TestParseArgs:
    def test_defaults(self):
        args = parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8765
        assert args.queue_limit == 64
        assert args.breaker_threshold == 5
        assert args.job_retries == 2

    def test_flags_round_trip(self):
        args = parse_args([
            "serve", "--port", "0", "--queue-limit", "4",
            "--tenant-queue-limit", "2", "--breaker-threshold", "3",
            "--drain-grace", "2.5", "--job-timeout", "30",
            "--instructions", "5000", "--max-body-kib", "64",
        ])
        assert args.port == 0
        assert args.queue_limit == 4
        assert args.tenant_queue_limit == 2
        assert args.drain_grace == 2.5
        assert args.job_timeout == 30.0
        assert args.max_body_kib == 64

    @pytest.mark.parametrize(
        "flags",
        [
            ["--queue-limit", "0"], ["--job-retries", "-1"],
            ["--instructions", "999"], ["--max-body-kib", "0"],
            ["--tenant-queue-limit", "0"], ["--breaker-threshold", "0"],
            ["--breaker-window", "nan"], ["--breaker-cooldown", "0"],
            ["--breaker-cooldown", "inf"], ["--drain-grace", "-1"],
            ["--drain-grace", "nan"], ["--job-timeout", "nan"],
        ],
    )
    def test_invalid_values_exit_2(self, flags, tmp_path):
        args = parse_args(["serve", "--cache-dir", str(tmp_path), *flags])
        assert serve_command(args) == 2


class TestSubprocessDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--cache-dir", str(tmp_path / "cache"),
                "--instructions", "2000", "--drain-grace", "10",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"serving on ([\d.]+):(\d+)", banner)
            assert match, f"no serving banner in {banner!r}"
            host, port = match.group(1), int(match.group(2))
            assert port != 0

            # The server is genuinely up: submit one job and poll it done,
            # so SIGTERM lands on a server with completed state to drain.
            base = f"http://{host}:{port}"
            request = urllib.request.Request(
                f"{base}/jobs",
                data=json.dumps(
                    {"trace": {"application": "gcc", "n_instructions": 1500}}
                ).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 202
                handle = json.loads(response.read())["handle"]
            deadline = time.monotonic() + 60
            state = None
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"{base}/jobs/{handle}?wait=5", timeout=30
                ) as response:
                    state = json.loads(response.read())["state"]
                if state in ("done", "failed"):
                    break
            assert state == "done"

            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=60)
            assert process.returncode == 0, stdout
            assert "draining on signal" in stdout
            assert "exit 0" in stdout
            # The runner wrote its final checkpoint manifest on close.
            checkpoint = tmp_path / "cache" / "checkpoint.json"
            assert checkpoint.is_file()
            manifest = json.loads(checkpoint.read_text())
            assert manifest["simulated"] >= 1
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
