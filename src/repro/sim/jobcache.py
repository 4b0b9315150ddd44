"""On-disk memoisation of completed simulation jobs.

A :class:`JobCache` maps a job *fingerprint* (a content hash over everything
that influences a simulation's outcome — trace spec, system configuration,
L1 setups, interval/warmup parameters, technology and timing constants; see
:func:`repro.sim.runner.job_fingerprint`) to the :class:`SimulationResult`
the job produced.  Re-running a sweep then only simulates jobs whose spec
actually changed: perturbing any parameter changes the fingerprint and
misses the cache, while an identical spec is served from disk without
touching the simulator.

Layout on disk (sharded by the first two fingerprint hex digits so that a
full paper reproduction does not put thousands of files into one directory)::

    <cache-dir>/
        ab/
            ab3f...e1.json          # one completed job
        c0/
            c04d...77.json

Each entry file (layout v3) is two lines of canonical JSON::

    {"checksum":"<sha256 of the body line>","fingerprint":"ab3f...e1","version":3}
    {"job":{...small human-readable description...},"result":{...}}

The header line carries the format version, the fingerprint and a SHA-256
checksum over the body line's exact bytes; the body holds a description of
the job (workload, cache setups) for debugging and the full result.  A
write encodes the body once and hashes those bytes; a read hashes the raw
body bytes and parses them once — no second encoding on either side.
Writes go through a per-process temporary file followed by an atomic
:func:`os.replace` (see :mod:`repro.common.atomicio`), so concurrent
workers (or concurrent sweep processes sharing one cache directory) can
never observe a half-written entry — the worst case is both simulating the
same job and one harmlessly overwriting the other with an identical
payload.  The checksum guards against corruption rename atomicity cannot:
bit rot, a crashed writer on a filesystem without atomic rename, an
injected ``cache_corrupt`` fault.  A corrupt entry *self-heals*: the read
counts it (:attr:`JobCache.corrupt_entries`), deletes the file, and
reports a miss — the job re-simulates and overwrites the entry; nothing
ever crashes on cache content.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from repro.common.atomicio import atomic_write_bytes
from repro.sim import faults
from repro.sim.results import SimulationResult

#: Bump when the fingerprint inputs or the result schema change; entries
#: written by other versions are treated as misses.
#: v2: entries carry a SHA-256 ``checksum`` field; corrupt entries self-heal.
#: v3: a header line (checksum, fingerprint, version) over a body line; the
#: checksum covers the body's stored bytes.
CACHE_FORMAT_VERSION = 3

#: The one encoding of entry lines: sorted keys, compact, ASCII-only (so a
#: body never contains the raw newline that ends the header).
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class JobCache:
    """A directory of completed simulation jobs keyed by fingerprint."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries encountered (and deleted) by this cache object's
        #: reads: torn writes, bit rot, checksum mismatches.  Each counted
        #: entry also reported a miss, so the caller re-simulated it.
        self.corrupt_entries = 0

    # ------------------------------------------------------------------ paths
    def _entry_path(self, fingerprint: str) -> Path:
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    # ----------------------------------------------------------------- access
    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        """Return the cached result for ``fingerprint``, or None on a miss.

        Foreign-version entries are plain misses (the format moved on).
        Unreadable, truncated, checksum-failing or otherwise corrupt
        entries are *self-healing* misses: counted in
        :attr:`corrupt_entries` and deleted, so the re-simulated result's
        write restores the entry and the corruption never recurs.
        """
        path = self._entry_path(fingerprint)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None  # no entry (or unreadable filesystem): a plain miss
        header_bytes, _, body = data.partition(b"\n")
        try:
            header = json.loads(header_bytes)
            if not isinstance(header, dict):
                raise ValueError("entry header is not a JSON object")
            if header.get("version") != CACHE_FORMAT_VERSION:
                return None  # includes single-object v2 entries
            if header.get("fingerprint") != fingerprint:
                return None
            if header.get("checksum") != hashlib.sha256(body).hexdigest():
                raise ValueError("entry checksum mismatch")
            return SimulationResult.from_dict(json.loads(body)["result"])
        except (ValueError, KeyError, TypeError):
            self.corrupt_entries += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(
        self, fingerprint: str, result: SimulationResult, description: Optional[dict] = None
    ) -> None:
        """Persist ``result`` under ``fingerprint`` (atomically, checksummed).

        The cache is only a memo: a write failure (disk full, permissions)
        is swallowed so the simulation result in hand still reaches the
        caller — the job simply is not memoised.
        """
        body = _dumps(
            {"job": description if description is not None else {}, "result": result.to_dict()}
        ).encode("utf-8")
        header = _dumps(
            {
                "checksum": hashlib.sha256(body).hexdigest(),
                "fingerprint": fingerprint,
                "version": CACHE_FORMAT_VERSION,
            }
        ).encode("utf-8")
        data = header + b"\n" + body
        try:
            path = self._entry_path(fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            if faults.fire("cache_corrupt") is not None:
                # Injected torn write: atomically land a truncated entry,
                # exactly the damage a non-atomic writer's crash would
                # leave.  The next read must self-heal it into a miss.
                data = data[: len(data) // 2]
            atomic_write_bytes(path, data)
        except OSError:
            pass

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    # ------------------------------------------------------------ maintenance
    def _shards(self):
        """Existing shard directories (empty if the cache dir was deleted)."""
        try:
            return [shard for shard in self.directory.iterdir() if shard.is_dir()]
        except OSError:
            return []

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for shard in self._shards() for entry in shard.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry (and any orphaned atomic-write temp files left
        by a killed process); returns how many entries were removed."""
        removed = 0
        for shard in self._shards():
            for entry in shard.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            for orphan in shard.glob("*.json.tmp.*"):
                try:
                    orphan.unlink()
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return f"JobCache({str(self.directory)!r})"
