"""On-disk memoisation of generated traces.

Trace generation is deterministic but not free — at paper scale (tens of
millions of instructions) it rivals the simulations themselves — so, like
completed jobs in :class:`repro.sim.jobcache.JobCache`, generated traces are
memoised on disk in the binary trace format
(:meth:`repro.workloads.trace.Trace.save`).  Entries are keyed by a content
fingerprint of the :class:`~repro.sim.runner.TraceSpec` (application,
instruction count, seed) mixed with the package source digest, so editing
any generator code invalidates every cached trace mechanically, exactly as
job fingerprints invalidate cached results.

Layout mirrors the job cache (sharded by the first two fingerprint digits)::

    <cache-dir>/
        ab/ab3f...e1.trace      # one generated trace, binary format
        c0/c04d...77.trace

Entries (both ``.trace`` and ``.decode``) are stored inside the checksummed
container from :mod:`repro.common.atomicio` — a magic, a SHA-256 digest,
then the payload.  Writes are atomic (temp file + ``os.replace``); reads
verify the digest and treat unreadable, truncated or checksum-failing
entries as *self-healing* misses: the corrupt file is counted
(:attr:`TraceCache.corrupt_entries`) and deleted, the trace regenerates,
and the rewrite restores the entry.  The cache is only ever a memo — every
failure path falls back to regenerating.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from repro.common.atomicio import (
    CorruptPayloadError,
    atomic_write_bytes,
    unwrap_checksummed,
    wrap_checksummed,
)
from repro.common.errors import ReproError
from repro.sim import faults
from repro.workloads.trace import TRACE_FORMAT_VERSION, Trace

#: Bump when the key inputs or the entry layout change; entries written by
#: other versions simply miss (their keys differ).
#: v2: entries live inside the checksummed atomicio container.
TRACE_CACHE_VERSION = 2


class TraceCache:
    """A directory of generated traces keyed by trace-spec fingerprint."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries (trace or decoded) this cache object read and
        #: deleted; each also counted as a miss, so the payload regenerated.
        self.corrupt_entries = 0

    # ------------------------------------------------------------------- keys
    @staticmethod
    def key_for(spec) -> str:
        """Hex fingerprint of a trace spec.

        Accepts both :class:`~repro.sim.runner.TraceSpec` (synthetic traces,
        keyed by application/instructions/seed) and any spec exposing a
        ``trace_cache_payload()`` method — notably
        :class:`~repro.workloads.ingest.ExternalTraceSpec`, which keys on
        the source file's content digest plus the ingest version, so the
        cache stores *converted columns* and re-parses only when the file
        or the decoder changes.

        Mixes in the package source digest (the same one job fingerprints
        use), so a change to the generator — or anything else in the
        package — regenerates instead of serving a stale trace.
        """
        from repro.sim.runner import _source_digest  # deferred: runner imports us

        payload_for = getattr(spec, "trace_cache_payload", None)
        if payload_for is not None:
            identity = payload_for()
        else:
            identity = {
                "application": spec.application,
                "n_instructions": spec.n_instructions,
                "seed": spec.seed,
            }
        payload = json.dumps(
            {
                "version": TRACE_CACHE_VERSION,
                "trace_format": TRACE_FORMAT_VERSION,
                "source": _source_digest(),
                **identity,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.trace"

    # ----------------------------------------------------------------- access
    def _read_entry(self, path: Path) -> Optional[bytes]:
        """The verified payload at ``path``, or None (miss / self-heal)."""
        try:
            data = path.read_bytes()
        except OSError:
            return None  # no entry: a plain miss
        try:
            return unwrap_checksummed(data)
        except CorruptPayloadError:
            self.corrupt_entries += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _write_entry(self, path: Path, payload: bytes) -> None:
        """Atomically land the checksummed container (or, under an injected
        ``trace_corrupt`` fault, a torn version of it)."""
        data = wrap_checksummed(payload)
        if faults.fire("trace_corrupt") is not None:
            data = faults.corrupt_bytes(data)
        atomic_write_bytes(path, data)

    def get(self, spec) -> Optional[Trace]:
        """The cached trace for ``spec``, or None on any kind of miss."""
        path = self._entry_path(self.key_for(spec))
        payload = self._read_entry(path)
        if payload is None:
            self.misses += 1
            return None
        try:
            trace = Trace.from_bytes(payload)
        except (ValueError, ReproError):
            # Checksum-valid but undecodable (e.g. written by a buggy
            # generator version): still a self-healing miss, never a crash.
            self.corrupt_entries += 1
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def put(self, spec, trace: Trace) -> None:
        """Persist ``trace`` under ``spec``'s key (atomically, best-effort).

        A write failure is swallowed: the trace in hand still reaches the
        caller, it simply is not memoised.
        """
        try:
            path = self._entry_path(self.key_for(spec))
            path.parent.mkdir(parents=True, exist_ok=True)
            self._write_entry(path, trace.to_bytes())
        except OSError:
            pass

    def __contains__(self, spec) -> bool:
        return self._entry_path(self.key_for(spec)).is_file()

    # ------------------------------------------------------- decoded streams
    def _decoded_path(self, trace_digest: str, block_mask: int, schedule=None) -> Path:
        from repro.sim.predecode import DECODE_VERSION  # deferred: cheap, avoids cycles

        fields = {
            "version": TRACE_CACHE_VERSION,
            "decode_version": DECODE_VERSION,
            "trace": trace_digest,
            "block_mask": block_mask,
        }
        if schedule is not None:
            fields["schedule"] = list(schedule)
        payload = json.dumps(
            fields,
            sort_keys=True,
            separators=(",", ":"),
        )
        key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self.directory / key[:2] / f"{key}.decode"

    def get_decoded(
        self, trace_digest: str, block_mask: int, schedule=None
    ) -> Optional[bytes]:
        """The serialized pre-decode for (trace digest, block mask, plan), or None.

        Stores :meth:`repro.sim.predecode.DecodedTrace.to_bytes` payloads —
        the configuration-invariant decode phase — so replays across
        processes and pool restarts skip re-deriving it.  Keys mix the
        trace's *content* digest with the decode version, so entries
        invalidate when either the trace bytes or the decode semantics
        change; the package source digest is deliberately not mixed in
        (the payload depends only on the trace and the decode layout).
        ``schedule`` is a sampled plan's ``(interval_instructions,
        sample_every, sample_warmup)``; None, the exhaustive plan, keeps
        the key it always had.
        """
        return self._read_entry(self._decoded_path(trace_digest, block_mask, schedule))

    def put_decoded(
        self, trace_digest: str, block_mask: int, payload: bytes, schedule=None
    ) -> None:
        """Persist a serialized pre-decode (atomically, best-effort)."""
        try:
            path = self._decoded_path(trace_digest, block_mask, schedule)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._write_entry(path, payload)
        except OSError:
            pass

    # ------------------------------------------------------------ maintenance
    def __len__(self) -> int:
        """Number of trace entries currently on disk."""
        try:
            shards = [shard for shard in self.directory.iterdir() if shard.is_dir()]
        except OSError:
            return 0
        return sum(1 for shard in shards for _ in shard.glob("*.trace"))

    def __repr__(self) -> str:
        return f"TraceCache({str(self.directory)!r})"
