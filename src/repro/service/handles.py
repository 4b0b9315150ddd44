"""Crash-safe job handles: the service's unit of client-visible state.

Every accepted submission gets a **handle** derived from the work's
content fingerprint (see :mod:`repro.service.codec`), and every handle is
backed by a small JSON manifest under ``<cache-dir>/service/handles/``,
written atomically at admission and again when the handle settles (a job
starting changes no persisted byte: "running" is stored as "queued").
That manifest is what makes the service crash-safe:

* a handle that reached ``done`` before a crash is served straight from
  its manifest after restart — completed work never answers 500 and is
  never re-simulated;
* a handle that was still ``queued``/``running`` is re-admitted through
  the normal submission path on boot; if its jobs finished before the
  crash they resolve from the warm job cache (zero simulations), and only
  genuinely unfinished work re-executes — at-most-once simulation.

In-memory state is a bounded LRU over :class:`Handle` objects (each
carrying an :class:`asyncio.Event` for long-polling); evicted handles
fall back to their manifests on the next ``GET``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.common.atomicio import atomic_write_json
from repro.common.errors import UnknownHandleError

#: Handle lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: In-memory handles retained before LRU eviction (manifests persist).
DEFAULT_MEMORY_LIMIT = 4096


class Handle:
    """One unit of client-visible work: state, payload, eventual result."""

    def __init__(
        self,
        handle: str,
        kind: str,
        payload: Dict[str, Any],
        tenant: str,
        created_at: Optional[float] = None,
    ) -> None:
        self.handle = handle
        self.kind = kind  # "job" | "spec"
        self.payload = payload  # canonical (hint-stripped) submission payload
        self.tenant = tenant
        self.state = QUEUED
        self.created_at = created_at if created_at is not None else time.time()
        self.finished_at: Optional[float] = None
        self.result: Optional[Any] = None
        self.error: Optional[Dict[str, Any]] = None
        self.progress: Dict[str, int] = {"completed": 0}
        self.settled = asyncio.Event()

    @property
    def done(self) -> bool:
        return self.state in (DONE, FAILED)

    # -------------------------------------------------------- state changes
    def mark_running(self) -> None:
        self.state = RUNNING

    def mark_done(self, result: Any) -> None:
        self.state = DONE
        self.result = result
        self.finished_at = time.time()
        self.settled.set()

    def mark_failed(self, code: str, message: str) -> None:
        self.state = FAILED
        self.error = {"code": code, "message": message}
        self.finished_at = time.time()
        self.settled.set()

    # ---------------------------------------------------------- wire formats
    def status_payload(self) -> Dict[str, Any]:
        """The ``GET /jobs/{handle}`` body (deterministic for done handles)."""
        body: Dict[str, Any] = {
            "handle": self.handle,
            "kind": self.kind,
            "state": self.state,
        }
        if self.state == RUNNING:
            body["progress"] = dict(self.progress)
        if self.state == DONE:
            body["result"] = self.result
        if self.state == FAILED:
            body["error"] = self.error
        return body

    def manifest(self) -> Dict[str, Any]:
        """The persisted form (everything needed to resume after restart)."""
        return {
            "version": 1,
            "handle": self.handle,
            "kind": self.kind,
            "state": DONE if self.state == DONE else (
                FAILED if self.state == FAILED else QUEUED
            ),  # "running" is not a restartable state: it resumes as queued
            "payload": self.payload,
            "tenant": self.tenant,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
        }

    @classmethod
    def from_manifest(cls, manifest: Dict[str, Any]) -> "Handle":
        handle = cls(
            handle=manifest["handle"],
            kind=manifest["kind"],
            payload=manifest["payload"],
            tenant=manifest.get("tenant", "public"),
            created_at=manifest.get("created_at"),
        )
        handle.state = manifest.get("state", QUEUED)
        handle.finished_at = manifest.get("finished_at")
        handle.result = manifest.get("result")
        handle.error = manifest.get("error")
        if handle.done:
            handle.settled.set()
        return handle


class HandleStore:
    """Bounded in-memory handle table backed by per-handle JSON manifests."""

    def __init__(self, directory: Optional[Path], memory_limit: int = DEFAULT_MEMORY_LIMIT):
        self.directory = None if directory is None else Path(directory)
        self.memory_limit = memory_limit
        self._handles: Dict[str, Handle] = {}  # insertion-ordered LRU
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._handles)

    def _path(self, handle_id: str) -> Optional[Path]:
        if self.directory is None:
            return None
        # Handle ids are codec-generated (prefix + hex digest), but GET
        # paths arrive from the network: refuse anything that could escape
        # the manifest directory before it touches the filesystem.
        if not handle_id or any(ch in handle_id for ch in "/\\.") or len(handle_id) > 128:
            return None
        return self.directory / f"{handle_id}.json"

    # ------------------------------------------------------------- accessors
    def get(self, handle_id: str) -> Handle:
        """The live handle, falling back to its manifest; 404 if neither."""
        handle = self._handles.pop(handle_id, None)
        if handle is not None:
            self._handles[handle_id] = handle  # re-insert: most recently used
            return handle
        path = self._path(handle_id)
        if path is not None and path.is_file():
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    manifest = json.load(stream)
                handle = Handle.from_manifest(manifest)
            except (OSError, ValueError, KeyError):
                handle = None
            if handle is not None:
                self._remember(handle)
                return handle
        raise UnknownHandleError(f"unknown job handle {handle_id!r}")

    def lookup(self, handle_id: str) -> Optional[Handle]:
        """Like :meth:`get` but returns None instead of raising."""
        try:
            return self.get(handle_id)
        except UnknownHandleError:
            return None

    def add(self, handle: Handle) -> None:
        """Register a fresh handle and persist its manifest."""
        self._remember(handle)
        self.persist(handle)

    def _remember(self, handle: Handle) -> None:
        self._handles.pop(handle.handle, None)
        self._handles[handle.handle] = handle
        while len(self._handles) > self.memory_limit:
            # Never evict live work: a queued/running handle's object
            # identity is shared with the queue and the worker loop.
            for candidate_id, candidate in self._handles.items():
                if candidate.done:
                    del self._handles[candidate_id]
                    break
            else:
                break

    def persist(self, handle: Handle) -> None:
        """Atomically write the handle's manifest (best-effort)."""
        path = self._path(handle.handle)
        if path is None:
            return
        try:
            atomic_write_json(path, handle.manifest(), indent=2, sort_keys=True)
        except OSError:
            pass

    # --------------------------------------------------------------- restart
    def unfinished_manifests(self) -> List[Handle]:
        """Handles whose manifests never reached a terminal state.

        Called once at boot: the server re-admits these through the normal
        submission path, so a crash mid-run degrades to "those requests
        re-queue", never to lost handles or re-simulated completed work.
        """
        if self.directory is None:
            return []
        pending: List[Handle] = []
        try:
            entries = sorted(os.listdir(self.directory))
        except OSError:
            return []
        for entry in entries:
            if not entry.endswith(".json"):
                continue
            try:
                with open(self.directory / entry, "r", encoding="utf-8") as stream:
                    manifest = json.load(stream)
                handle = Handle.from_manifest(manifest)
            except (OSError, ValueError, KeyError):
                continue  # torn/corrupt manifest: the atomic write makes this rare
            if not handle.done:
                pending.append(handle)
        return pending
