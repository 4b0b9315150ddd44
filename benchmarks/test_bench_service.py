"""Serve-path microbenchmark: settled reads while the runner thread simulates.

``serve --jobs 1`` replays jobs on the runner thread, in the interpreter
that also runs the asyncio loop, so a read of a settled handle (a dict
lookup and one JSON render) competes with the simulation for the GIL.
``test_bench_service_settled_read_busy_runner`` boots a real service on a real
socket in a background thread, inside
:func:`~repro.service.server.serving_interpreter` as ``serve`` does, and
settles one job.  A client process (this file run as a script) then keeps
the runner thread busy with back-to-back fresh jobs and, on each timed
round, makes ``READS_PER_ROUND`` sequential ``GET`` requests of the
settled handle.  The client lives in its own process, as real clients do,
so only the event loop and the runner thread share the server's GIL.

The workload is fixed (not ``REPRO_BENCH_INSTRUCTIONS``) so the committed
``benchmarks/baseline.json`` mean is comparable everywhere.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

from bench_utils import bench_instructions  # noqa: F401  (keeps sys.path bootstrap)

from repro.service import ServeConfig, SweepService
from repro.service.server import serving_interpreter

#: Sequential reads of the settled handle per timed round.
READS_PER_ROUND = 40

#: Trace length of every job, the settled one and the fresh ones.
JOB_INSTRUCTIONS = 20_000


def _job(index: int) -> dict:
    """A d-side dynamic job; ``index`` keeps every fingerprint distinct."""
    return {
        "trace": {"application": "gcc", "n_instructions": JOB_INSTRUCTIONS},
        "associativity": 4,
        "d_setup": {
            "organization": "selective-ways",
            "strategy": {"kind": "dynamic", "miss_bound": 0.05},
        },
        "warmup_instructions": index,
    }


def _request(port: int, method: str, path: str, payload=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _submit(port: int, payload: dict) -> str:
    status, body = _request(port, "POST", "/jobs", payload)
    assert status == 202, body
    return json.loads(body)["handle"]


def _wait_done(port: int, handle: str) -> None:
    while True:
        status, body = _request(port, "GET", f"/jobs/{handle}?wait=30")
        assert status == 200, body
        state = json.loads(body)["state"]
        assert state != "failed", body
        if state == "done":
            return


@contextmanager
def _running(service: SweepService):
    """Serve ``service`` on a background event loop; yields its port."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_until_complete, args=(service.serve_forever(),), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10
    while service.bound_port is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert service.bound_port is not None, "server failed to bind"
    try:
        yield service.bound_port
    finally:
        asyncio.run_coroutine_threadsafe(service.shutdown(), loop).result(60)
        thread.join(60)
        loop.close()


def _client(port: int, handle: str) -> None:
    """The client process: fresh jobs in the background, reads on ``go``.

    Prints ``ready`` once the first fresh job is queued, then answers every
    ``go`` line on stdin with ``ok`` after ``READS_PER_ROUND`` reads that
    all returned the first read's status and bytes (``mismatch`` if not).
    EOF stops the fresh jobs; the last one settles before the exit.
    """
    first = _request(port, "GET", f"/jobs/{handle}")
    stop = threading.Event()
    pending = [_submit(port, _job(1))]

    def keep_runner_busy() -> None:
        # One job ahead, so the runner never waits on this client.
        index = 1
        while not stop.is_set():
            index += 1
            following = _submit(port, _job(index))
            _wait_done(port, pending[0])
            pending[0] = following

    busy = threading.Thread(target=keep_runner_busy)
    busy.start()
    print("ready", flush=True)
    for _ in sys.stdin:
        reads = [_request(port, "GET", f"/jobs/{handle}") for _ in range(READS_PER_ROUND)]
        print("ok" if reads == [first] * READS_PER_ROUND else "mismatch", flush=True)
    stop.set()
    busy.join()
    _wait_done(port, pending[0])


def _read_round(client: subprocess.Popen) -> None:
    client.stdin.write("go\n")
    client.stdin.flush()
    assert client.stdout.readline().strip() == "ok", "a settled read changed"


def test_bench_service_settled_read_busy_runner(benchmark, tmp_path):
    config = ServeConfig(
        port=0, cache_dir=str(tmp_path / "cache"), instructions=JOB_INSTRUCTIONS
    )
    service = SweepService(config)
    with serving_interpreter(), _running(service) as port:
        handle = _submit(port, _job(0))
        _wait_done(port, handle)
        client = subprocess.Popen(
            [sys.executable, __file__, str(port), handle],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert client.stdout.readline().strip() == "ready"
            benchmark.pedantic(
                _read_round, args=(client,), rounds=5, iterations=1, warmup_rounds=1
            )
        finally:
            client.stdin.close()
            client.wait(120)
        simulated = service.runner.simulate_count
    benchmark.extra_info["fresh_jobs_simulated"] = simulated - 1
    assert client.returncode == 0
    assert simulated > 1, "the runner thread never simulated a fresh job"


if __name__ == "__main__":
    _client(int(sys.argv[1]), sys.argv[2])
