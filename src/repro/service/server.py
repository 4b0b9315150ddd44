"""The crash-safe async sweep server (``python -m repro serve``).

A long-running, stdlib-only HTTP/1.1 service over the existing sweep
stack: clients POST validated :class:`~repro.sim.runner.SimJob` payloads
or :class:`~repro.experiments.spec.ExperimentSpec` documents, receive
fingerprint-derived handles, and poll (or stream) until the work is done.
``docs/SERVICE.md`` is the API reference; the robustness properties are:

* **bounded admission** — a :class:`~repro.service.queue.FairQueue` with
  per-tenant fair scheduling; a full queue answers ``429`` +
  ``Retry-After``, never buffers unbounded requests;
* **request dedup** — handles are content fingerprints, so N clients
  submitting the same work share one execution and receive byte-identical
  responses; completed fingerprints resolve straight from the job cache;
* **deadlines** — a payload's ``deadline_seconds`` maps onto the retry
  policy's per-job timeout and is enforced before and after execution;
* **circuit breaking** — when the transient-failure rate (worker deaths +
  quarantined jobs) spikes, new submissions shed with ``503`` until a
  cooldown and a successful half-open probe;
* **graceful drain** — SIGTERM/SIGINT stop admissions (``/readyz`` goes
  503), let the in-flight request finish within ``--drain-grace``,
  persist every handle manifest, close the runner (checkpoint manifest,
  pool and shared-memory teardown) and exit 0;
* **crash-safe restart** — handle manifests under
  ``<cache-dir>/service/handles/`` re-admit unfinished work on boot,
  while finished work is served from its manifest (or the warm job
  cache) without re-simulating: at-most-once simulation, never a 500
  for completed work.

The HTTP layer is deliberately minimal (``asyncio.start_server``, one
request per connection, ``Connection: close``): the service's value is
the robustness semantics, not protocol features.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.common.counters import CounterRegistry
from repro.common.errors import (
    AdmissionFullError,
    CircuitOpenError,
    ConfigurationError,
    InvalidRequestError,
    ReproError,
    ServiceDrainingError,
    ServiceError,
)
from repro.service import codec
from repro.service.bridge import RunnerBridge, threadsafe_progress
from repro.service.handles import FAILED, QUEUED, Handle, HandleStore
from repro.service.queue import DEFAULT_TENANT, CircuitBreaker, FairQueue
from repro.sim.jobcache import JobCache
from repro.sim.runner import RetryPolicy, SweepRunner

#: Longest ``?wait=`` long-poll the server honours, seconds.
MAX_WAIT_SECONDS = 30.0

#: The connection reader's buffer limit (asyncio's default), bytes: a
#: request head that does not end within it is answered ``431``.
_STREAM_LIMIT = 64 * 1024

#: Progress events are streamed at most this often, seconds.
STREAM_INTERVAL = 0.5

#: GIL switch interval while serving, seconds.  The runner thread replays
#: simulations in this interpreter; a thread that wants the GIL waits one
#: interval before it can force a hand-off (CPython's default is 5 ms), so
#: this bounds how long the event loop waits to answer a settled read.
SERVE_SWITCH_INTERVAL = 0.0005

#: The collector's oldest-generation threshold while serving: a full
#: collection runs after this many gen-1 collections (CPython's default is
#: 10).  A full pass walks every live object with the GIL held, and the
#: handle table keeps up to 4096 settled handles of about eight tracked
#: objects each, so a pass grows to several ms as handles settle.  At the
#: default a busy runner thread set one off about every half second, and
#: about 1% of settled reads waited behind one.
SERVE_FULL_COLLECTION_THRESHOLD = 100

_STATUS_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` configures."""

    host: str = "127.0.0.1"
    port: int = 8765
    jobs: int = 1
    cache_dir: str = ".repro-cache"
    queue_limit: int = 64
    tenant_queue_limit: Optional[int] = None
    breaker_threshold: int = 5
    breaker_window: float = 60.0
    breaker_cooldown: float = 15.0
    drain_grace: float = 10.0
    job_timeout: Optional[float] = None
    job_retries: int = 2
    instructions: int = 60_000
    max_body_kib: int = 256
    context_options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Refuse a configuration the server would only fail on after binding."""
        minimums = {
            "instructions": 1000,
            "max_body_kib": 1,
            "queue_limit": 1,
            "tenant_queue_limit": 1,
            "breaker_threshold": 1,
            "job_retries": 0,
        }
        for name, minimum in minimums.items():
            value = getattr(self, name)
            if value is not None and value < minimum:
                raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
        for name in ("breaker_window", "breaker_cooldown"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigurationError(f"{name} must be a positive finite number, got {value}")
        if not 0 <= self.drain_grace < math.inf:
            raise ConfigurationError(
                f"drain_grace must be a non-negative finite number, got {self.drain_grace}"
            )


class _QueueItem:
    """One admitted unit of work: the handle plus how to execute it."""

    __slots__ = ("handle", "work", "expires")

    def __init__(self, handle: Handle, work: Any, expires: Optional[float]) -> None:
        self.handle = handle
        self.work = work  # SimJob | ExperimentSpec
        # Absolute monotonic expiry: the deadline clock starts at admission,
        # so time spent queued counts against the request's budget.
        self.expires = expires


class SweepService:
    """The server: admission control, the worker loop, and the HTTP front."""

    def __init__(self, config: ServeConfig, runner: Optional[SweepRunner] = None) -> None:
        self.config = config
        cache_dir = config.cache_dir
        self.cache = JobCache(cache_dir)
        if runner is None:
            runner = SweepRunner(
                jobs=config.jobs,
                cache=self.cache,
                trace_cache=f"{cache_dir}/traces",
                retry_policy=RetryPolicy(
                    max_attempts=config.job_retries + 1,
                    job_timeout=config.job_timeout,
                ),
                checkpoint_path=f"{cache_dir}/checkpoint.json",
            )
        self.runner = runner
        context_options = dict(config.context_options)
        context_options.setdefault("n_instructions", config.instructions)
        self.bridge = RunnerBridge(runner, context_options)
        self.handles = HandleStore(f"{cache_dir}/service/handles")
        self.queue = FairQueue(config.queue_limit, config.tenant_queue_limit)
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            window=config.breaker_window,
            cooldown=config.breaker_cooldown,
        )
        self.counters = CounterRegistry({
            "accepted": 0, "completed": 0, "deduped": 0, "drained": 0,
            "failed": 0, "requests": 0, "shed": 0, "cache_hits": 0,
            "resumed": 0,
        })
        self.draining = False
        self.bound_port: Optional[int] = None
        self.started = asyncio.Event()
        self._stopped = asyncio.Event()
        self._worker_task: Optional[asyncio.Task] = None
        self._inflight: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        # Test hook: while paused the worker loop takes nothing, so tests
        # can fill the queue deterministically before asserting 429s.
        self._unpaused = asyncio.Event()
        self._unpaused.set()
        self._exit_code = 0

    # ------------------------------------------------------------ lifecycle
    async def serve_forever(self) -> int:
        """Bind, resume persisted handles, run until drained; exit code."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda s=signum: asyncio.ensure_future(self.shutdown(s))
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or platform without signal support
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=_STREAM_LIMIT,
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._worker_task = asyncio.create_task(self._worker_loop())
        self._resume_persisted()
        self.started.set()
        print(
            f"serving on {self.config.host}:{self.bound_port} "
            f"(cache: {self.config.cache_dir}, queue limit {self.queue.limit})",
            flush=True,
        )
        await self._stopped.wait()
        return self._exit_code

    def _resume_persisted(self) -> None:
        """Re-admit every non-terminal handle manifest through admission.

        Completed work resolves from the warm job cache inside the worker
        loop, so a restart after a crash re-simulates only what genuinely
        never finished.  Overflow beyond the queue bound stays on disk as
        a queued manifest — a later restart (or an explicit resubmission)
        picks it up; no handle is ever lost.
        """
        for handle in self.handles.unfinished_manifests():
            try:
                if handle.kind == "job":
                    work: Any = codec.job_from_payload(handle.payload)
                else:
                    work = codec.spec_from_payload(handle.payload)
            except InvalidRequestError as exc:
                handle.mark_failed(exc.code, str(exc))
                self.handles.add(handle)
                continue
            try:
                self.queue.offer(_QueueItem(handle, work, None), handle.tenant)
            except AdmissionFullError:
                continue  # stays queued on disk; not lost, just not resumed yet
            handle.state = QUEUED
            handle.settled = asyncio.Event()
            self.handles.add(handle)
            self.counters.inc("resumed")

    async def shutdown(self, signum: int = signal.SIGTERM) -> None:
        """Graceful drain: stop admissions, finish in-flight, persist, exit 0."""
        if self.draining:
            return
        self.draining = True
        print(
            f"draining on signal {signum}: admissions closed, "
            f"{len(self.queue)} queued, "
            f"{'one request' if self._inflight else 'nothing'} in flight",
            flush=True,
        )
        leftover = self.queue.close()
        for item in leftover:
            # Still queued at shutdown: the manifest already says "queued",
            # so a restarted server re-admits it; count it as drained work.
            self.handles.persist(item.handle)
            self.counters.inc("drained")
        if self._inflight is not None:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._inflight), timeout=self.config.drain_grace
                )
            except (asyncio.TimeoutError, Exception):  # noqa: BLE001
                pass
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        clean = await self.bridge.close(grace=self.config.drain_grace)
        if not clean:
            print("drain grace expired; runner closed forcefully", flush=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.cache.close()
        print(
            f"drained: {self.counters['completed']} completed, "
            f"{self.counters['drained']} requeued for restart, exit 0",
            flush=True,
        )
        self._exit_code = 0
        self._stopped.set()

    # ---------------------------------------------------------- worker loop
    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self.queue.take()
            if item is None:
                return  # queue closed: draining
            # The pause gate sits *after* the take: the worker may already
            # be parked inside take() when a test pauses, so gating before
            # it would let one item slip through.  A held item is released
            # back to disk (its manifest stays "queued") if a drain cancels
            # us here.
            await self._unpaused.wait()
            handle = item.handle
            # No persist here: the manifest writes "running" as "queued",
            # the bytes the admission already wrote.
            handle.mark_running()

            def apply_progress(event: dict, target: Handle = handle) -> None:
                target.progress["completed"] = (
                    target.progress.get("completed", 0) + event.get("jobs", 1)
                )

            progress = threadsafe_progress(loop, apply_progress)
            before_deaths = self.runner.worker_deaths
            before_quarantined = len(self.runner.quarantined)
            started = time.monotonic()
            remaining = None if item.expires is None else item.expires - started
            if handle.kind == "job":
                coroutine = self.bridge.run_job(item.work, remaining, progress)
            else:
                coroutine = self.bridge.run_spec(item.work, remaining, progress)
            self._inflight = asyncio.ensure_future(coroutine)
            try:
                result = await self._inflight
            except ServiceError as exc:
                handle.mark_failed(exc.code, str(exc))
                self.counters.inc("failed")
            except ReproError as exc:
                handle.mark_failed("simulation-failed", str(exc))
                self.counters.inc("failed")
            except asyncio.CancelledError:
                # Drain cancelled us mid-await; the handle manifest still
                # says "running"→persisted as queued, so a restart resumes.
                self._inflight = None
                self.handles.persist(handle)
                raise
            except Exception as exc:  # noqa: BLE001 - a bug, reported not hidden
                handle.mark_failed("internal", f"{type(exc).__name__}: {exc}")
                self.counters.inc("failed")
            else:
                handle.mark_done(result)
                self.counters.inc("completed")
            finally:
                self._inflight = None
            self.queue.note_service_time(time.monotonic() - started)
            transient = (self.runner.worker_deaths - before_deaths) + (
                len(self.runner.quarantined) - before_quarantined
            )
            self.breaker.record_failures(transient)
            self.handles.persist(handle)

    def pause(self) -> None:
        """Test hook: stop the worker loop taking new queue items."""
        self._unpaused.clear()

    def resume(self) -> None:
        """Undo :meth:`pause`."""
        self._unpaused.set()

    # ------------------------------------------------------------ submission
    def _submit(self, kind: str, payload: Dict[str, Any], tenant: str) -> Handle:
        """Admission path shared by ``POST /jobs`` and ``POST /specs``.

        Synchronous on the event loop: by the time a response is written
        the accounting is final — no await point between the dedup check,
        the breaker check and the queue offer, so concurrent duplicate
        submissions cannot double-admit.
        """
        if self.draining:
            raise ServiceDrainingError(
                "server is draining for shutdown; no new work is admitted"
            )
        deadline = codec.deadline_from_payload(payload)
        canonical = codec.canonical_payload(payload)
        if kind == "job":
            work, fingerprint = codec.validated_job(payload)
            handle_id = codec.fingerprint_handle(fingerprint)
        else:
            work = codec.spec_from_payload(canonical)
            handle_id, _ = codec.spec_handle(work, self.bridge.context_options)

        existing = self.handles.lookup(handle_id)
        if existing is not None and existing.state != FAILED:
            # Dedup: same fingerprint → same handle, one execution, and the
            # response bytes are identical to the first submitter's.
            self.counters.inc("deduped")
            return existing
        # Failed handles are not reused (mirrors the runner's memo): a
        # resubmission is a fresh attempt at possibly-transient work.

        if kind == "job":
            cached = self.cache.get(fingerprint)
            if cached is not None:
                # Completed in a previous life: a done handle costs no
                # queue slot and no simulation.
                handle = Handle(handle_id, kind, canonical, tenant)
                handle.mark_done(cached.to_dict())
                self.handles.add(handle)
                self.counters.inc("cache_hits")
                self.counters.inc("accepted")
                return handle

        if not self.breaker.allow():
            self.counters.inc("shed")
            raise CircuitOpenError(
                "circuit breaker is open: the worker pool is failing "
                "(recent worker deaths / quarantined jobs); retry after cooldown",
                retry_after=self.breaker.retry_after(),
            )
        handle = Handle(handle_id, kind, canonical, tenant)
        expires = None if deadline is None else time.monotonic() + deadline
        try:
            self.queue.offer(_QueueItem(handle, work, expires), tenant)
        except AdmissionFullError:
            self.counters.inc("shed")
            raise
        self.handles.add(handle)
        self.counters.inc("accepted")
        return handle

    # --------------------------------------------------------------- metrics
    def metrics_text(self) -> str:
        """The ``GET /metrics`` exposition: one shared-registry render."""
        lines = [self.counters.render(prefix="service_")]
        runner = self.runner
        runner_counters = CounterRegistry({
            "simulated": runner.simulate_count,
            "cache_hits": runner.cache_hits,
            "cache_misses": runner.cache_misses,
            "dedup_hits": runner.dedup_hits,
            "pool_batches": runner.pool_batches,
            "retries": runner.retries,
            "timeouts": runner.timeouts,
            "worker_deaths": runner.worker_deaths,
            "quarantined": len(runner.quarantined),
            "pilot_builds": runner.worker_stats.get("pilot_builds", 0),
            "pilot_memo_hits": runner.worker_stats.get("pilot_memo_hits", 0),
        })
        lines.append(runner_counters.render(prefix="runner_"))
        lines.append(runner.ladder_counters().render(prefix="runner_"))
        gauges = CounterRegistry({
            "queue_depth": len(self.queue),
            "breaker_open": 0 if self.breaker.state == "closed" else 1,
            "draining": 1 if self.draining else 0,
        })
        lines.append(gauges.render())
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------- HTTP front
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, headers, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._respond_error(writer, exc.status, "bad-request", exc.message)
                return
            except (asyncio.IncompleteReadError, OSError):
                return
            self.counters.inc("requests")
            try:
                await self._route(method, target, headers, body, writer)
            except ServiceError as exc:
                await self._respond_error(
                    writer, exc.status, exc.code, str(exc), retry_after=exc.retry_after
                )
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                await self._respond_error(
                    writer, 500, "internal", f"{type(exc).__name__}: {exc}"
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - peer already gone
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        max_body = self.config.max_body_kib * 1024
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except asyncio.TimeoutError as exc:
            raise _HttpError(400, "timed out reading request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(
                431, f"request head exceeds the {_STREAM_LIMIT}-byte limit"
            ) from exc
        request_lines = head.decode("latin-1").split("\r\n")
        parts = request_lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in request_lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as exc:
            raise _HttpError(400, f"bad Content-Length {length_text!r}") from exc
        if length < 0:
            raise _HttpError(400, f"bad Content-Length {length_text!r}")
        if length > max_body:
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the "
                     f"{max_body}-byte limit (--max-body-kib)"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _route(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        tenant = headers.get("x-tenant", DEFAULT_TENANT)

        if method == "GET" and path == "/healthz":
            await self._respond_json(writer, 200, {"status": "ok"})
        elif method == "GET" and path == "/readyz":
            if self.draining:
                raise ServiceDrainingError("draining for shutdown")
            if self.breaker.state == "open":
                raise CircuitOpenError(
                    "circuit breaker open", retry_after=self.breaker.retry_after()
                )
            await self._respond_json(writer, 200, {"status": "ready"})
        elif method == "GET" and path == "/metrics":
            await self._respond_text(writer, 200, self.metrics_text())
        elif method == "POST" and path == "/jobs":
            handle = self._submit("job", dict(codec.parse_body(body)), tenant)
            await self._respond_json(writer, 202, {"handle": handle.handle})
        elif method == "POST" and path == "/specs":
            handle = self._submit("spec", dict(codec.parse_body(body)), tenant)
            await self._respond_json(writer, 202, {"handle": handle.handle})
        elif method == "GET" and path.startswith("/jobs/") and path.endswith("/stream"):
            handle_id = path[len("/jobs/"):-len("/stream")]
            await self._stream_handle(writer, handle_id)
        elif method == "GET" and path.startswith("/jobs/"):
            handle_id = path[len("/jobs/"):]
            handle = self.handles.get(handle_id)
            wait = self._wait_seconds(query)
            if wait and not handle.done:
                try:
                    await asyncio.wait_for(handle.settled.wait(), timeout=wait)
                except asyncio.TimeoutError:
                    pass
            await self._respond_json(writer, 200, handle.status_payload())
        elif path in ("/", "/healthz", "/readyz", "/metrics", "/jobs", "/specs") or (
            path.startswith("/jobs/")
        ):
            raise _as_service_error(405, f"method {method} not allowed on {path}")
        else:
            raise _as_service_error(404, f"no such endpoint: {path}")

    def _wait_seconds(self, query: Dict[str, list]) -> float:
        values = query.get("wait")
        if not values:
            return 0.0
        try:
            wait = float(values[0])
        except ValueError:
            raise InvalidRequestError(f"wait must be a number, got {values[0]!r}") from None
        return max(0.0, min(wait, MAX_WAIT_SECONDS))

    async def _stream_handle(self, writer: asyncio.StreamWriter, handle_id: str) -> None:
        """Server-sent events: periodic state/progress, final event on settle."""
        handle = self.handles.get(handle_id)
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\nConnection: close\r\n\r\n"
        )
        await writer.drain()
        deadline = time.monotonic() + MAX_WAIT_SECONDS
        while True:
            payload = codec.render_json(handle.status_payload())
            writer.write(b"data: " + payload + b"\n\n")
            await writer.drain()
            if handle.done or time.monotonic() >= deadline:
                return
            try:
                await asyncio.wait_for(handle.settled.wait(), timeout=STREAM_INTERVAL)
            except asyncio.TimeoutError:
                pass

    # -------------------------------------------------------------- responses
    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        retry_after: Optional[float] = None,
    ) -> None:
        body = codec.render_json(payload)
        await self._write_response(writer, status, "application/json", body, retry_after)

    async def _respond_text(
        self, writer: asyncio.StreamWriter, status: int, text: str
    ) -> None:
        await self._write_response(
            writer, status, "text/plain; charset=utf-8", text.encode("utf-8"), None
        )

    async def _respond_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        try:
            await self._respond_json(
                writer, status, {"error": {"code": code, "message": message}},
                retry_after=retry_after,
            )
        except Exception:  # noqa: BLE001 - peer already gone
            pass

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        retry_after: Optional[float],
    ) -> None:
        reason = _STATUS_REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if retry_after is not None:
            headers.append(f"Retry-After: {max(1, int(retry_after))}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


class _HttpError(Exception):
    """Protocol-level parse failure (before routing)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _as_service_error(status: int, message: str) -> ServiceError:
    error = ServiceError(message)
    error.status = status
    error.code = {404: "unknown-endpoint", 405: "method-not-allowed"}.get(status, "internal")
    return error


@contextlib.contextmanager
def serving_interpreter() -> Iterator[None]:
    """Tune the process for serving while the runner thread simulates.

    Sets the GIL switch interval to :data:`SERVE_SWITCH_INTERVAL`, makes
    full collections rarer (:data:`SERVE_FULL_COLLECTION_THRESHOLD`) and
    moves everything alive at entry (imports, the built service) into the
    collector's permanent generation, so later gen-2 passes skip the boot
    heap.  All three are restored on exit, also on an exception.  A heap
    some caller already froze is left as it is: unfreezing it would not
    restore it.  Nothing else in the package sets the switch interval or
    the collector's thresholds or freezes the heap, and ``run-all`` never
    enters this.
    """
    previous_interval = sys.getswitchinterval()
    previous_thresholds = gc.get_threshold()
    freeze = gc.get_freeze_count() == 0
    sys.setswitchinterval(SERVE_SWITCH_INTERVAL)
    gc.set_threshold(*previous_thresholds[:2], SERVE_FULL_COLLECTION_THRESHOLD)
    if freeze:
        gc.collect()
        gc.freeze()
    try:
        yield
    finally:
        if freeze:
            gc.unfreeze()
        gc.set_threshold(*previous_thresholds)
        sys.setswitchinterval(previous_interval)


def serve(config: ServeConfig) -> int:
    """Blocking entry point for ``python -m repro serve``; returns exit code."""
    service = SweepService(config)
    with serving_interpreter():
        try:
            return asyncio.run(service.serve_forever())
        except KeyboardInterrupt:  # pragma: no cover - signal handler races
            return 0


__all__ = [
    "ServeConfig",
    "SweepService",
    "serve",
    "serving_interpreter",
    "MAX_WAIT_SECONDS",
    "SERVE_SWITCH_INTERVAL",
    "SERVE_FULL_COLLECTION_THRESHOLD",
]
