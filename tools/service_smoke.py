#!/usr/bin/env python3
"""End-to-end smoke test for the sweep service (``python -m repro serve``).

Boots the server as a real subprocess and drives the robustness story the
service exists for (docs/SERVICE.md) through plain HTTP:

1. **dedup** — several concurrent clients submit the identical job; every
   one must get the same ``202`` body, the settled responses must be
   byte-identical, and the ``service_deduped`` counter must prove exactly
   one admission happened.  A submission whose ``deadline_seconds`` is
   ``NaN`` must be refused with a ``400``.
2. **busy reads** — fresh jobs are submitted and, while they execute,
   the settled handle is read over and over; every read must answer
   ``200`` with the bytes of the first read.  The stage prints the read
   p50 and maximum: reads of settled work must not wait for simulation.
3. **drain** — a second job is submitted and the server is SIGTERMed
   immediately, so the signal lands with work queued or in flight; the
   process must exit 0 with the handle's manifest persisted on disk.
4. **restart** — a fresh server on the same ``--cache-dir`` must serve the
   first handle from its manifest byte-identically without simulating,
   settle the drained handle, and collapse a resubmission onto the warm
   job cache (zero new simulations).

CI runs this twice: clean, and as a chaos leg with ``REPRO_FAULT_PLAN``
worker crashes and ``--jobs 2`` (fault injection needs the pool path).
Faults may cost time, never bytes: the ``--result-out`` files of the two
legs must compare equal.

Exit status: 0 on success, 1 with a ``smoke: FAIL`` message otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BANNER = re.compile(r"serving on ([\d.]+):(\d+)")


#: The busy-reads stage's fresh jobs: one trace each, long enough that the
#: settled handle is read many times while they execute.
BUSY_APPLICATIONS = ("swim", "vortex", "vpr", "ijpeg")
BUSY_INSTRUCTIONS = 20_000


class SmokeFailure(Exception):
    """An assertion about the service's behaviour did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


class Server:
    """One ``python -m repro serve`` subprocess plus an HTTP client for it."""

    def __init__(self, cache_dir: str, jobs: int, instructions: int) -> None:
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-dir", cache_dir,
                "--jobs", str(jobs),
                "--instructions", str(instructions),
                "--drain-grace", "60",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        assert self.process.stdout is not None
        banner = self.process.stdout.readline()
        match = BANNER.search(banner)
        check(match is not None, f"no serving banner, got {banner!r}")
        assert match is not None
        self.base = f"http://{match.group(1)}:{match.group(2)}"

    # ------------------------------------------------------------- client
    def request(
        self, method: str, path: str, body: dict | None = None, timeout: float = 30.0
    ) -> tuple[int, bytes]:
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(self.base + path, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def post(self, path: str, body: dict) -> tuple[int, bytes]:
        return self.request("POST", path, body)

    def get(self, path: str) -> tuple[int, bytes]:
        return self.request("GET", path)

    def wait_done(self, handle: str, timeout: float = 300.0) -> bytes:
        """Long-poll a handle until it settles ``done``; returns the body."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.request("GET", f"/jobs/{handle}?wait=5", timeout=35)
            check(status == 200, f"poll of {handle} answered {status}: {body!r}")
            state = json.loads(body)["state"]
            if state == "done":
                return body
            check(
                state != "failed",
                f"{handle} failed: {json.loads(body).get('error')}",
            )
        raise SmokeFailure(f"{handle} did not settle within {timeout:.0f}s")

    def metrics(self) -> dict[str, float]:
        status, body = self.get("/metrics")
        check(status == 200, f"/metrics answered {status}")
        values: dict[str, float] = {}
        for line in body.decode().splitlines():
            name, _, value = line.partition(" ")
            if value:
                values[name] = float(value)
        return values

    # ---------------------------------------------------------- lifecycle
    def sigterm(self, timeout: float = 120.0) -> tuple[int, str]:
        """SIGTERM the server; returns (exit code, remaining stdout)."""
        self.process.send_signal(signal.SIGTERM)
        stdout, _ = self.process.communicate(timeout=timeout)
        return self.process.returncode, stdout

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.communicate(timeout=10)


def busy_reads(server: Server, handle: str, settled: bytes) -> None:
    """Read a settled handle while fresh jobs execute; print p50 and max."""
    fresh = []
    for application in BUSY_APPLICATIONS:
        job = {"trace": {"application": application, "n_instructions": BUSY_INSTRUCTIONS}}
        status, body = server.post("/jobs", job)
        check(status == 202, f"busy-stage submission answered {status}: {body!r}")
        fresh.append(json.loads(body)["handle"])
    settled_all = threading.Event()
    errors: list[BaseException] = []

    def wait_fresh() -> None:
        try:
            for fresh_handle in fresh:
                server.wait_done(fresh_handle)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            settled_all.set()

    waiter = threading.Thread(target=wait_fresh, daemon=True)
    waiter.start()
    latencies = []
    while not settled_all.is_set():
        started = time.perf_counter()
        status, body = server.get(f"/jobs/{handle}")
        latencies.append(1000.0 * (time.perf_counter() - started))
        check(status == 200, f"busy read answered {status}: {body!r}")
        check(body == settled, "a read during fresh work changed the settled bytes")
    waiter.join()
    if errors:
        raise errors[0]
    check(latencies, "the fresh jobs settled before a single read was made")
    print(
        f"smoke: busy reads ok — {len(latencies)} reads while {len(fresh)} fresh "
        f"jobs ran, p50 {statistics.median(latencies):.1f} ms, "
        f"max {max(latencies):.1f} ms",
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cache-dir", required=True,
        help="cache directory for both server boots (fresh per leg)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="engine worker processes (use >= 2 for the chaos leg: "
             "REPRO_FAULT_PLAN is inert on the inline path)",
    )
    parser.add_argument(
        "--instructions", type=int, default=2_000,
        help="trace length of the smoke jobs (default: 2000)",
    )
    parser.add_argument(
        "--clients", type=int, default=6,
        help="concurrent duplicate submitters in the dedup stage (default: 6)",
    )
    parser.add_argument(
        "--result-out", default=None,
        help="write the settled first-handle response body here, so CI can "
             "cmp the clean and chaos legs byte for byte",
    )
    args = parser.parse_args(argv)

    job_a = {"trace": {"application": "gcc", "n_instructions": args.instructions}}
    job_b = {"trace": {"application": "m88ksim", "n_instructions": args.instructions}}
    plan = os.environ.get("REPRO_FAULT_PLAN")
    print(f"smoke: fault plan {plan!r}" if plan else "smoke: clean leg", flush=True)

    server = Server(args.cache_dir, args.jobs, args.instructions)
    try:
        # ---- stage 1: concurrent dedup -------------------------------
        print(f"smoke: dedup — {args.clients} concurrent identical POSTs", flush=True)
        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            responses = list(
                pool.map(lambda _: server.post("/jobs", job_a), range(args.clients))
            )
        statuses = {status for status, _ in responses}
        check(statuses == {202}, f"expected all 202, got {sorted(statuses)}")
        bodies = {body for _, body in responses}
        check(len(bodies) == 1, f"202 bodies diverged: {bodies}")
        handle_a = json.loads(bodies.pop())["handle"]
        settled = server.wait_done(handle_a)
        metrics = server.metrics()
        deduped = metrics.get("service_deduped", 0)
        check(
            deduped == args.clients - 1,
            f"expected {args.clients - 1} deduped submissions, got {deduped}",
        )
        _, again = server.request("GET", f"/jobs/{handle_a}")
        check(again == settled, "repeated polls of a done handle diverged")
        # json.dumps writes a NaN float as the non-standard constant NaN,
        # which the codec must refuse at the boundary, not run deadline-free.
        status, body = server.post("/jobs", {**job_a, "deadline_seconds": float("nan")})
        code = json.loads(body).get("error", {}).get("code") if status == 400 else None
        check(
            code == "invalid-request",
            f"a NaN deadline answered {status}: {body!r}, not a 400 invalid-request",
        )
        if args.result_out:
            with open(args.result_out, "wb") as sink:
                sink.write(settled)
        print(f"smoke: dedup ok — one admission for {handle_a[:20]}…", flush=True)

        # ---- stage 2: settled reads while fresh work executes --------
        print("smoke: busy reads — settled handle read during fresh jobs", flush=True)
        busy_reads(server, handle_a, settled)

        # ---- stage 3: SIGTERM with work outstanding ------------------
        status, body = server.post("/jobs", job_b)
        check(status == 202, f"second submission answered {status}: {body!r}")
        handle_b = json.loads(body)["handle"]
        print("smoke: drain — SIGTERM with a request queued or in flight", flush=True)
        code, tail = server.sigterm()
        check(code == 0, f"drain exited {code}, not 0:\n{tail}")
        check("exit 0" in tail, f"no drain epilogue in output:\n{tail}")
        manifest = os.path.join(
            args.cache_dir, "service", "handles", f"{handle_b}.json"
        )
        check(os.path.isfile(manifest), f"no persisted manifest at {manifest}")
        print("smoke: drain ok — exit 0, manifest persisted", flush=True)
    except BaseException:
        server.kill()
        raise

    # ---- stage 4: restart serves from disk ---------------------------
    print("smoke: restart — same cache dir, fresh process", flush=True)
    server = Server(args.cache_dir, args.jobs, args.instructions)
    try:
        status, from_disk = server.get(f"/jobs/{handle_a}")
        check(status == 200, f"restarted poll answered {status}")
        check(
            from_disk == settled,
            "restart changed a completed handle's bytes:\n"
            f"  before {settled!r}\n  after  {from_disk!r}",
        )
        server.wait_done(handle_b)  # resumed: finishes from cache or residue
        baseline = server.metrics()["runner_simulated"]
        status, body = server.post("/jobs", job_a)
        check(status == 202, f"resubmission answered {status}: {body!r}")
        check(
            json.loads(body)["handle"] == handle_a,
            "resubmission minted a new handle for identical work",
        )
        server.wait_done(handle_a)
        metrics = server.metrics()
        check(
            metrics["runner_simulated"] == baseline,
            "resubmitting completed work re-simulated "
            f"({metrics['runner_simulated']} > {baseline})",
        )
        check(
            metrics.get("service_deduped", 0) + metrics.get("service_cache_hits", 0)
            >= 1,
            "resubmission neither deduped nor cache-resolved",
        )
        code, tail = server.sigterm()
        check(code == 0, f"final drain exited {code}, not 0:\n{tail}")
        print("smoke: restart ok — byte-identical from disk, 0 re-simulations", flush=True)
    except BaseException:
        server.kill()
        raise

    print("smoke: ok", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as failure:
        print(f"smoke: FAIL — {failure}", file=sys.stderr, flush=True)
        sys.exit(1)
