"""Integration tests: a real SweepService on a real socket.

Each test boots the server via the ``service_factory`` fixture (see
``conftest.py``), talks to it over HTTP with ``urllib``, and asserts the
ISSUE's acceptance properties: bounded admission with clean 429s, duplicate
submissions sharing one execution with byte-identical responses, graceful
drain with exit code 0, and crash-safe restart that never re-simulates
completed work.
"""

import concurrent.futures
import gc
import json
import socket
import sys
import time
import urllib.request

import pytest

from repro.service import server
from repro.service.server import SERVE_SWITCH_INTERVAL, serving_interpreter


def job_payload(**overrides):
    """A tiny single-job payload; vary a field to make distinct work."""
    payload = {"trace": {"application": "gcc", "n_instructions": 1_500}}
    payload.update(overrides)
    return payload


class TestHealthAndErrors:
    def test_health_ready_and_metrics(self, service_factory):
        harness = service_factory()
        status, body, _ = harness.get("/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}
        status, body, _ = harness.get("/readyz")
        assert status == 200 and json.loads(body) == {"status": "ready"}
        metrics = harness.metrics()
        assert metrics["service_accepted"] == 0
        assert metrics["runner_simulated"] == 0
        assert metrics["queue_depth"] == 0
        # The fused-ladder tier counters render from the runner's registry
        # even when no ladder ever ran.
        assert metrics["runner_ladder_passes"] == 0
        assert metrics["runner_ladder_stack_rungs"] == 0
        assert metrics["runner_ladder_l2_filtered_passes"] == 0
        assert metrics["runner_pilot_builds"] == 0
        assert metrics["runner_pilot_memo_hits"] == 0

    def test_metrics_render_the_workers_pilot_counters(self, service_factory):
        harness = service_factory()
        harness.service.runner.worker_stats.update(pilot_builds=3, pilot_memo_hits=7)
        metrics = harness.metrics()
        assert metrics["runner_pilot_builds"] == 3
        assert metrics["runner_pilot_memo_hits"] == 7

    def test_protocol_errors(self, service_factory):
        harness = service_factory()
        # 400: not a JSON object.
        status, body, _ = harness.request("POST", "/jobs", body=None)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "invalid-request"
        # 400: valid JSON, invalid job.
        status, body, _ = harness.post("/jobs", {"trace": {"application": "nope"}})
        assert status == 400
        # 400: a strategy its own class would refuse in the runner.
        for strategy in (
            {"kind": "dynamic", "downsize_fraction": "abc"},
            {"kind": "dynamic", "downsize_fraction": 7.5},
            {"kind": "static", "ways": 3, "sets": 7},
        ):
            setup = {"organization": "selective-sets", "strategy": strategy}
            status, body, _ = harness.post("/jobs", job_payload(d_setup=setup))
            assert status == 400, strategy
            assert json.loads(body)["error"]["code"] == "invalid-request"
        assert harness.metrics()["service_accepted"] == 0
        # 404: unknown handle.
        status, body, _ = harness.get("/jobs/job-" + "0" * 40)
        assert status == 404
        assert json.loads(body)["error"]["code"] == "unknown-handle"
        # 404: unknown endpoint; 405: wrong method.
        assert harness.get("/no-such")[0] == 404
        assert harness.request("DELETE", "/jobs")[0] == 405
        assert harness.post("/healthz", {})[0] == 405

    def test_oversized_head_is_answered_431(self, service_factory):
        harness = service_factory()
        head = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: "
            + b"x" * 70_000 + b"\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", harness.service.bound_port), 10) as peer:
            peer.sendall(head)
            reply = b""
            try:
                while chunk := peer.recv(65536):
                    reply += chunk
            except ConnectionResetError:
                pass  # closed with the unread rest of the head still pending
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 431 Request Header Fields Too Large"
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert body["error"]["code"] == "bad-request"
        # The server survives and still answers ordinary requests.
        assert harness.get("/healthz")[0] == 200

    def test_oversized_body_is_rejected_with_413(self, service_factory):
        harness = service_factory(max_body_kib=1)
        status, body, _ = harness.post("/jobs", {"pad": "x" * 4096})
        assert status == 413


class TestExecutionAndDedup:
    def test_submit_poll_complete(self, service_factory):
        harness = service_factory()
        status, body, _ = harness.submit_job(job_payload())
        assert status == 202
        handle = json.loads(body)["handle"]
        assert handle.startswith("job-")
        document = harness.wait_done(handle)
        assert document["state"] == "done"
        result = document["result"]
        assert result["instructions"] >= 1_500
        metrics = harness.metrics()
        assert metrics["service_accepted"] == 1
        assert metrics["service_completed"] == 1
        assert metrics["runner_simulated"] >= 1
        # A baseline single run pilots its fixed L1d: one pilot memo lookup,
        # a build or a hit depending on what this process replayed before.
        assert metrics["runner_pilot_builds"] + metrics["runner_pilot_memo_hits"] == 1

    def test_duplicates_share_one_execution_and_bytes(self, service_factory):
        harness = service_factory()
        payload = job_payload()

        def submit(_):
            return harness.submit_job(payload)

        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(submit, range(6)))
        statuses = {status for status, _, _ in responses}
        assert statuses == {202}
        bodies = {body for _, body, _ in responses}
        assert len(bodies) == 1, "duplicate submissions must get byte-identical bodies"
        handle = json.loads(bodies.pop())["handle"]
        harness.wait_done(handle)

        # Completed: every client polls the same bytes back.
        polls = {harness.get(f"/jobs/{handle}")[1] for _ in range(4)}
        assert len(polls) == 1

        metrics = harness.metrics()
        assert metrics["service_accepted"] == 1
        assert metrics["service_deduped"] == 5
        # Exactly one execution for six submissions.
        assert metrics["runner_simulated"] == 1

    def test_deadline_expired_in_queue_fails_with_504_not_a_simulation(
        self, service_factory
    ):
        harness = service_factory()
        harness.call_on_loop(harness.service.pause)
        status, body, _ = harness.submit_job(job_payload(deadline_seconds=0.05))
        assert status == 202
        handle = json.loads(body)["handle"]
        time.sleep(0.2)  # let the deadline rot while the worker is paused
        harness.call_on_loop(harness.service.resume)
        document = harness.wait_done(handle)
        assert document["state"] == "failed"
        assert document["error"]["code"] == "deadline-exceeded"
        assert harness.metrics()["runner_simulated"] == 0

    def test_spec_submission_runs_the_orchestrator(self, service_factory):
        harness = service_factory(instructions=1_500)
        spec = {
            "spec": 1,
            "name": "svc-probe",
            "axes": {
                "targets": ["icache"],
                "organizations": ["hybrid"],
                "associativities": [8],
                "strategies": ["static"],
                "applications": ["gcc"],
            },
            "analysis": {"kind": "grid"},
        }
        status, body, _ = harness.post("/specs", spec)
        assert status == 202
        handle = json.loads(body)["handle"]
        assert handle.startswith("spec-")
        document = harness.wait_done(handle, timeout=120)
        assert document["state"] == "done"
        assert "svc-probe" in document["result"]
        assert document["result"]["svc-probe"], "spec run produced no rows"
        # Same spec again: dedup, no new handle, no new simulation.
        simulated = harness.metrics()["runner_simulated"]
        status, body2, _ = harness.post("/specs", spec)
        assert status == 202 and body2 == body
        assert harness.metrics()["runner_simulated"] == simulated


class TestBackpressure:
    def test_overload_sheds_cleanly_with_retry_after(self, service_factory):
        queue_limit = 3
        extra = 2
        harness = service_factory(queue_limit=queue_limit)
        harness.call_on_loop(harness.service.pause)

        # Capacity under pause is queue_limit + 1: the paused worker holds
        # the first item it already took off the queue.
        capacity = queue_limit + 1
        accepted = []
        for index in range(capacity):
            status, body, _ = harness.submit_job(job_payload(sample_warmup=index))
            assert status == 202, body
            accepted.append(json.loads(body)["handle"])
        assert len(set(accepted)) == capacity

        # Q full: the next k distinct submissions shed with 429 + Retry-After.
        for index in range(extra):
            status, body, headers = harness.submit_job(
                job_payload(sample_warmup=capacity + index)
            )
            assert status == 429, body
            assert json.loads(body)["error"]["code"] == "queue-full"
            assert int(headers["Retry-After"]) >= 1

        metrics = harness.metrics()
        assert metrics["service_accepted"] == capacity
        assert metrics["service_shed"] == extra
        assert metrics["queue_depth"] == queue_limit

        # Zero lost handles: every accepted handle resolves after resume.
        harness.call_on_loop(harness.service.resume)
        for handle in accepted:
            assert harness.wait_done(handle)["state"] == "done"

    def test_draining_refuses_new_work_with_503(self, service_factory):
        harness = service_factory()

        def start_drain():
            harness.service.draining = True

        harness.call_on_loop(start_drain)
        status, body, _ = harness.submit_job(job_payload())
        assert status == 503
        assert json.loads(body)["error"]["code"] == "draining"
        assert harness.get("/readyz")[0] == 503
        assert harness.get("/healthz")[0] == 200  # liveness is not readiness

        def stop_drain():
            harness.service.draining = False

        harness.call_on_loop(stop_drain)
        assert harness.get("/readyz")[0] == 200

    def test_open_breaker_sheds_submissions_with_503(self, service_factory):
        harness = service_factory(breaker_threshold=1, breaker_cooldown=60)

        def trip():
            harness.service.breaker.record_failures(1)

        harness.call_on_loop(trip)
        status, body, headers = harness.submit_job(job_payload())
        assert status == 503
        assert json.loads(body)["error"]["code"] == "circuit-open"
        assert int(headers["Retry-After"]) >= 1
        assert harness.get("/readyz")[0] == 503
        metrics = harness.metrics()
        assert metrics["service_shed"] == 1
        assert metrics["breaker_open"] == 1


class TestDrainAndRestart:
    def test_graceful_drain_exits_zero_and_persists_queued_work(
        self, service_factory, tmp_path
    ):
        cache_dir = str(tmp_path / "drain-cache")
        harness = service_factory(cache_dir=cache_dir)
        harness.call_on_loop(harness.service.pause)
        handles = []
        for index in range(2):
            status, body, _ = harness.submit_job(job_payload(sample_warmup=index))
            assert status == 202
            handles.append(json.loads(body)["handle"])

        exit_code = harness.shutdown()
        assert exit_code == 0
        # One item was still queued (the other was held by the paused
        # worker); both manifests persist as queued work for the next boot.
        assert harness.service.counters["drained"] == 1
        for handle in handles:
            manifest = json.loads(
                (tmp_path / "drain-cache" / "service" / "handles" / f"{handle}.json")
                .read_text()
            )
            assert manifest["state"] == "queued"

        # A restarted server on the same cache dir resumes and finishes both.
        revived = service_factory(cache_dir=cache_dir)
        for handle in handles:
            assert revived.wait_done(handle)["state"] == "done"
        assert revived.metrics()["service_resumed"] == 2

    def test_restart_serves_completed_work_from_cache(self, service_factory, tmp_path):
        cache_dir = str(tmp_path / "restart-cache")
        first = service_factory(cache_dir=cache_dir)
        status, body, _ = first.submit_job(job_payload())
        handle = json.loads(body)["handle"]
        first.wait_done(handle)
        done_bytes = first.get(f"/jobs/{handle}")[1]
        assert first.shutdown() == 0

        second = service_factory(cache_dir=cache_dir)
        # Completed work: the restarted server answers from its manifest,
        # byte-identical, without a single simulation.
        status, body, _ = second.get(f"/jobs/{handle}")
        assert status == 200
        assert body == done_bytes
        # Resubmitting the same payload resolves straight from the job
        # cache: accepted, done immediately, still zero simulations.
        status, body, _ = second.submit_job(job_payload())
        assert status == 202
        assert json.loads(body)["handle"] == handle
        metrics = second.metrics()
        assert metrics["runner_simulated"] == 0
        assert metrics["service_deduped"] == 1  # resolved before any cache probe

    def test_shutdown_is_idempotent(self, service_factory):
        harness = service_factory()
        assert harness.shutdown() == 0
        # A second shutdown call must not hang or error.
        assert harness.exit_code == 0


class TestStreaming:
    def test_stream_emits_terminal_event(self, service_factory):
        harness = service_factory()
        status, body, _ = harness.submit_job(job_payload())
        handle = json.loads(body)["handle"]
        harness.wait_done(handle)
        with urllib.request.urlopen(
            f"{harness.base_url}/jobs/{handle}/stream", timeout=30
        ) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            raw = response.read().decode()
        events = [
            json.loads(line[len("data: "):])
            for line in raw.splitlines()
            if line.startswith("data: ")
        ]
        assert events
        assert events[-1]["state"] == "done"


class TestServingInterpreter:
    def test_sets_and_restores_the_switch_interval_and_freeze(self):
        before_interval = sys.getswitchinterval()
        before_frozen = gc.get_freeze_count()
        assert before_frozen == 0
        with serving_interpreter():
            assert sys.getswitchinterval() == pytest.approx(SERVE_SWITCH_INTERVAL)
            assert gc.get_freeze_count() > 0
        assert sys.getswitchinterval() == before_interval
        assert gc.get_freeze_count() == before_frozen

    def test_restores_both_on_an_exception(self):
        before_interval = sys.getswitchinterval()
        with pytest.raises(RuntimeError, match="boom"):
            with serving_interpreter():
                raise RuntimeError("boom")
        assert sys.getswitchinterval() == before_interval
        assert gc.get_freeze_count() == 0

    def test_leaves_a_heap_frozen_by_the_caller_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with serving_interpreter():
                assert sys.getswitchinterval() == pytest.approx(SERVE_SWITCH_INTERVAL)
                assert gc.get_freeze_count() == frozen
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_serve_runs_its_loop_inside_the_helper(self, monkeypatch, tmp_path):
        seen = {}

        async def fake_serve_forever(self):
            seen["interval"] = sys.getswitchinterval()
            seen["frozen"] = gc.get_freeze_count()
            return 0

        monkeypatch.setattr(server.SweepService, "serve_forever", fake_serve_forever)
        before_interval = sys.getswitchinterval()
        config = server.ServeConfig(port=0, cache_dir=str(tmp_path / "cache"))
        assert server.serve(config) == 0
        assert seen["interval"] == pytest.approx(SERVE_SWITCH_INTERVAL)
        assert seen["frozen"] > 0
        assert sys.getswitchinterval() == before_interval
        assert gc.get_freeze_count() == 0
