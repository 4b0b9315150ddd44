"""A worker pool that survives its workers.

``multiprocessing.Pool`` cannot: a worker that segfaults (or is OOM-killed,
or hard-exits via a fault-injection directive) takes its in-flight task's
result with it, and ``imap_unordered`` then blocks forever waiting for a
completion that will never arrive — one dead worker wedges the whole
drain.  Nor can it attribute a hung task to a process, so per-job
wall-clock timeouts are unimplementable on top of it.

:class:`FaultTolerantPool` replaces it for the sweep runner with exactly
the machinery fault containment needs, and nothing else:

* **One process, one pipe, one task.**  Each worker is a plain
  ``Process`` with a duplex ``Pipe``; the parent sends at most one task
  down a worker's pipe at a time, so every in-flight task is attributed
  to exactly one process and "when did this task start" is knowable.
* **Death is an event, not a hang.**  The parent multiplexes over every
  busy worker's pipe *and* its process ``sentinel`` with
  :func:`multiprocessing.connection.wait`; a worker that dies without
  replying surfaces as a ``crash`` event naming the task it took down.
  The pool respawns a replacement lazily at the next dispatch, so one
  crash costs one process start, not a pool rebuild.
* **Deadlines kill, never wait.**  A task dispatched under a timeout gets
  ``now + timeout`` as its deadline; when it passes, the parent SIGKILLs
  the worker (a hung worker by definition does not respond to polite
  signals), joins it, and emits a ``timeout`` event.  The clock times the
  task, not the worker's start: a worker sends one ready message once its
  imports and initializer are done, and a task sent to it before then
  gets its deadline when that message arrives.
* **Resubmission during iteration.**  :meth:`run_batch` is a generator of
  :class:`PoolEvent`; the consumer (the runner's retry loop) may call
  :meth:`resubmit` while iterating to queue another attempt — optionally
  delayed for backoff — and the batch ends only when every submitted
  attempt has produced an event.

The target callable, like ``Pool``'s, must be a module-level function
(pickled by reference under spawn) and is applied to each task payload in
the worker.  Exceptions *inside* the target are the target's own business
— the sweep runner's ``_execute_indexed`` converts them into result
payloads — so anything that escapes to the worker loop is treated as
worker death by the parent, which is what it behaves like.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from itertools import count
from multiprocessing import connection
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

#: Ceiling on one multiplex wait, so external state changes the parent
#: cannot select on (none today) would still be noticed promptly.
_MAX_WAIT = 5.0


@dataclass
class PoolEvent:
    """One terminal observation about one dispatched task.

    ``kind`` is ``"result"`` (``value`` holds whatever the target
    returned), ``"crash"`` (the worker died mid-task; ``exitcode`` is its
    ``Process.exitcode``, negative for signal deaths), or ``"timeout"``
    (the task outlived its deadline and its worker was killed after
    ``elapsed`` seconds).
    """

    kind: str
    task_id: int
    value: Any = None
    exitcode: Optional[int] = None
    elapsed: float = 0.0


@dataclass
class _QueueEntry:
    task_id: int
    payload: Any
    ready_at: float
    sequence: int


class _Worker:
    """Parent-side handle: the process, its pipe, and its current task.

    ``ready`` turns true when the worker's ready message has been read;
    until then a task's ``timeout`` waits there to become its deadline.
    """

    __slots__ = ("process", "conn", "task_id", "deadline", "started_at", "ready", "timeout")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task_id: Optional[int] = None
        self.deadline: Optional[float] = None
        self.started_at: float = 0.0
        self.ready = False
        self.timeout: Optional[float] = None

    def start_clock(self, now: float) -> None:
        """Start the current task's clock; a ready worker's task under a
        timeout also gets its deadline."""
        self.started_at = now
        armed = self.ready and self.timeout is not None
        self.deadline = now + self.timeout if armed else None

    @property
    def busy(self) -> bool:
        return self.task_id is not None


#: The first message every worker sends: its imports and initializer are done.
_READY = "ready"


def _worker_main(conn, target, initializer, initargs) -> None:
    """Worker process body: initialize once, report ready, then serve tasks until EOF.

    A ``None`` task is the shutdown handshake.  ``KeyboardInterrupt``
    (Ctrl-C fans out to the whole process group) exits quietly — the
    parent is tearing the pool down anyway — and a vanished parent
    (broken pipe) ends the loop rather than raising into a dead ear.
    """
    # A fork-started worker inherits the parent's signal dispositions.
    # Under the asyncio sweep service the parent routes SIGTERM into the
    # event loop's self-pipe, and inheriting that handler makes the
    # worker ignore terminate() — the pool join would then wedge forever
    # on an unkillable child.  Restore the default action so terminate()
    # terminates no matter what the parent had installed at fork time.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        if initializer is not None:
            initializer(*initargs)
        try:
            conn.send(_READY)
        except (BrokenPipeError, OSError):
            return
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            _, payload = task
            result = target(payload)
            try:
                conn.send(result)
            except (BrokenPipeError, OSError):
                break
    except KeyboardInterrupt:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class FaultTolerantPool:
    """A crash- and hang-surviving replacement for ``multiprocessing.Pool``.

    Args:
        context: a multiprocessing context (``get_context(...)``), which
            fixes the start method for every worker.
        processes: worker-process ceiling.  Dead workers are replaced
            lazily, so the pool converges back to this size under load.
        target: module-level callable applied to each task payload.
        initializer/initargs: run once in each worker before serving
            (exactly ``Pool``'s contract; respawned workers run it too).

    Lifecycle mirrors ``Pool``: workers start eagerly (so batch one pays
    no per-dispatch spawn latency), :meth:`terminate` kills them,
    :meth:`join` reaps them; both are idempotent.
    """

    #: Seconds a reap waits for SIGTERM to land before escalating to
    #: SIGKILL (see :meth:`_discard`).
    _REAP_GRACE = 5.0

    def __init__(
        self,
        context,
        processes: int,
        target: Callable[[Any], Any],
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
    ) -> None:
        self._context = context
        self._processes = max(1, processes)
        self._target = target
        self._initializer = initializer
        self._initargs = initargs
        self._workers: List[_Worker] = []
        self._queue: List[_QueueEntry] = []
        self._sequence = count()
        self._outstanding = 0
        self._terminated = False
        try:
            from multiprocessing import resource_tracker

            # Start the resource tracker *before* the first fork: a worker
            # that attaches a shared-memory segment registers it with the
            # tracker it inherited, and a worker forked tracker-less spawns
            # its own — which then warns about (and tries to re-unlink)
            # segments the parent already cleaned up.
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platforms without a tracker
            pass
        for _ in range(self._processes):
            self._spawn_worker()

    # --------------------------------------------------------------- spawning
    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self._target, self._initializer, self._initargs),
            daemon=True,  # like Pool workers: never outlive the parent
        )
        process.start()
        # The parent's copy of the child end must close so a dead worker
        # reads as EOF/sentinel instead of a silently writable pipe.
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        return worker

    def _discard(self, worker: _Worker, kill: bool = False) -> None:
        """Remove a worker, reaping the process (idempotent per worker).

        The reap is bounded: a worker that survives SIGTERM (a handler
        installed by an initializer, a blocked signal) is escalated to
        SIGKILL after ``_REAP_GRACE`` seconds rather than wedging the
        teardown — close() must always return.
        """
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(self._REAP_GRACE)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker in self._workers:
            self._workers.remove(worker)

    # --------------------------------------------------------------- batching
    def run_batch(
        self, tasks: Iterable[Tuple[int, Any]], timeout: Optional[float] = None
    ) -> Iterator[PoolEvent]:
        """Dispatch ``(task_id, payload)`` pairs; yield one event per attempt.

        Yields events as they happen, in completion order.  The consumer
        may call :meth:`resubmit` between events; the generator keeps
        running until every submitted attempt (initial or resubmitted) has
        yielded.  Closing the generator early leaves queued entries
        dropped and in-flight workers running — callers that abandon a
        batch must :meth:`terminate`/:meth:`join` (the runner's
        KeyboardInterrupt path does).
        """
        if self._terminated:
            raise RuntimeError("pool was terminated")
        now = time.monotonic()
        for task_id, payload in tasks:
            self._enqueue(task_id, payload, now)
        try:
            while self._outstanding:
                for event in self._step(timeout):
                    self._outstanding -= 1
                    yield event
        finally:
            self._queue.clear()
            self._outstanding = 0
            # An abandoned batch (consumer raised / generator closed) may
            # leave workers mid-task with nowhere to report; kill those so
            # a stale completion cannot leak into the next batch.  A batch
            # consumed to exhaustion has no busy workers — this is free.
            for worker in list(self._workers):
                if worker.busy:
                    self._discard(worker, kill=True)

    def resubmit(self, task_id: int, payload: Any, delay: float = 0.0) -> None:
        """Queue another attempt of ``task_id`` (legal only while a
        :meth:`run_batch` generator is being consumed).  ``delay`` holds
        the attempt back for backoff; the pool keeps draining other tasks
        meanwhile."""
        self._enqueue(task_id, payload, time.monotonic() + max(0.0, delay))

    def _enqueue(self, task_id: int, payload: Any, ready_at: float) -> None:
        self._queue.append(_QueueEntry(task_id, payload, ready_at, next(self._sequence)))
        self._outstanding += 1

    # ------------------------------------------------------------ event loop
    def _step(self, timeout: Optional[float]) -> List[PoolEvent]:
        """One multiplex round: dispatch what is ready, wait, classify."""
        now = time.monotonic()
        self._dispatch(now, timeout)

        busy = [worker for worker in self._workers if worker.busy]
        wait_objects: List[Any] = []
        for worker in busy:
            wait_objects.append(worker.conn)
            wait_objects.append(worker.process.sentinel)

        # Sleep until the earliest actionable moment: a deadline expiring,
        # a delayed retry becoming ready, or _MAX_WAIT as a backstop.
        horizon = now + _MAX_WAIT
        for worker in busy:
            if worker.deadline is not None:
                horizon = min(horizon, worker.deadline)
        for entry in self._queue:
            horizon = min(horizon, entry.ready_at)
        wait_for = max(0.0, horizon - now)

        ready: List[Any] = []
        if wait_objects:
            ready = connection.wait(wait_objects, wait_for)
        elif self._queue:
            time.sleep(min(wait_for, 0.05))

        events: List[PoolEvent] = []
        ready_set = set(ready)
        for worker in list(self._workers):
            if not worker.busy:
                continue
            if worker.conn in ready_set:
                try:
                    value = worker.conn.recv()
                except (EOFError, OSError):
                    events.append(self._crash_event(worker))
                    continue
                if not worker.ready:
                    # The ready message: the task's clock starts now.
                    worker.ready = True
                    worker.start_clock(time.monotonic())
                    continue
                task_id = worker.task_id
                worker.task_id = None
                worker.deadline = None
                events.append(PoolEvent(kind="result", task_id=task_id, value=value))
            elif worker.process.sentinel in ready_set:
                events.append(self._crash_event(worker))

        now = time.monotonic()
        for worker in list(self._workers):
            if worker.busy and worker.deadline is not None and now >= worker.deadline:
                events.append(self._timeout_event(worker, now))
        return events

    def _dispatch(self, now: float, timeout: Optional[float]) -> None:
        """Hand every ready queue entry to an idle worker, respawning up to
        the process ceiling.  FIFO by readiness then submission order, so
        fault-plan dispatch ordinals are deterministic."""
        ready = sorted(
            (entry for entry in self._queue if entry.ready_at <= now),
            key=lambda entry: (entry.ready_at, entry.sequence),
        )
        for entry in ready:
            worker = self._idle_worker()
            if worker is None:
                break
            try:
                worker.conn.send((entry.task_id, entry.payload))
            except (BrokenPipeError, OSError):
                # Died while idle (between batches, or during backoff).
                # Replace it and retry this entry on the next round.
                self._discard(worker)
                continue
            self._queue.remove(entry)
            worker.task_id = entry.task_id
            worker.timeout = timeout
            worker.start_clock(now)

    def _idle_worker(self) -> Optional[_Worker]:
        for worker in self._workers:
            if not worker.busy:
                if worker.process.is_alive():
                    return worker
                self._discard(worker)
                return self._idle_worker()
        if len(self._workers) < self._processes:
            return self._spawn_worker()
        return None

    def _crash_event(self, worker: _Worker) -> PoolEvent:
        task_id = worker.task_id
        elapsed = time.monotonic() - worker.started_at
        exitcode = worker.process.exitcode
        self._discard(worker)
        return PoolEvent(
            kind="crash", task_id=task_id, exitcode=exitcode, elapsed=elapsed
        )

    def _timeout_event(self, worker: _Worker, now: float) -> PoolEvent:
        task_id = worker.task_id
        elapsed = now - worker.started_at
        self._discard(worker, kill=True)
        return PoolEvent(kind="timeout", task_id=task_id, elapsed=elapsed)

    # -------------------------------------------------------------- lifecycle
    def terminate(self) -> None:
        """SIGTERM every worker (idempotent; ``join`` completes the reap)."""
        self._terminated = True
        for worker in self._workers:
            try:
                worker.process.terminate()
            except Exception:
                pass

    def join(self) -> None:
        """Reap every worker process and close its pipe (idempotent)."""
        while self._workers:
            self._discard(self._workers[-1])

    def __len__(self) -> int:
        return len(self._workers)

    def __repr__(self) -> str:
        busy = sum(1 for worker in self._workers if worker.busy)
        return (
            f"FaultTolerantPool(workers={len(self._workers)}/{self._processes}, "
            f"busy={busy}, queued={len(self._queue)})"
        )


__all__ = ["FaultTolerantPool", "PoolEvent"]
