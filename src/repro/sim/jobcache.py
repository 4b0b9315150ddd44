"""On-disk memoisation of completed simulation jobs.

A :class:`JobCache` maps a job *fingerprint* (a content hash over everything
that influences a simulation's outcome — trace spec, system configuration,
L1 setups, interval/warmup parameters, technology and timing constants; see
:func:`repro.sim.runner.job_fingerprint`) to the :class:`SimulationResult`
the job produced.  Re-running a sweep then only simulates jobs whose spec
actually changed: perturbing any parameter changes the fingerprint and
misses the cache, while an identical spec is served from disk without
touching the simulator.

Layout on disk (v4) is append-only *segments*, after Bitcask (Sheehy &
Smith, Basho 2010) and CacheLib's log-structured BlockCache (Berg et al.,
OSDI 2020).  Each writing :class:`JobCache` appends to a segment of its own
(``<cache-dir>/<pid>-<random>.seg``, made by its first ``put``).  A record
is a header line over a body line, both canonical JSON, after a record
separator (``\\x1e``) that the ASCII-only encoder never emits::

    \\x1e{"checksum":"<sha256 of body>","fingerprint":"ab3f...","length":2190,"version":4}
    {"job":{...small human-readable description...},"result":{...}}

A reader resyncs at the next separator, so a torn record costs only
itself.  Each record is one unbuffered :func:`os.write` on an ``O_APPEND``
descriptor before the job's future resolves: a SIGKILL loses only jobs in
flight.  Reads go through an in-memory index, fingerprint → (segment,
offset, size), that an entry enters only after its bytes are written (by
this object's ``put``) or scanned.  A scan steps through a segment one
record at a time and remembers where it stopped; a miss re-scans only
segments that grew or appeared since, so processes sharing a directory see
each other's entries.  The last intact record for a fingerprint wins; a
damaged one only fills an empty slot.  A record cut short at a segment's
end is not indexed: a miss.

Every read re-verifies its record: header fingerprint, body length, and a
SHA-256 checksum over the body's exact bytes.  A damaged record (bit rot, a
torn write, an injected ``cache_corrupt`` fault) *self-heals*: the read
counts it once (:attr:`JobCache.corrupt_entries`), drops it and reports a
miss; the job re-simulates and its new record wins.  Nothing ever crashes
on cache content.  v3 entry files (``??/<fingerprint>.json``) are never
read: plain, uncounted misses that :meth:`JobCache.clear` sweeps.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Optional, Union

from repro.sim import faults
from repro.sim.results import SimulationResult

#: Bump when the fingerprint inputs or the result schema change; entries
#: written by other versions are treated as misses.  v2 added checksums, v3
#: header and body lines, v4 per-writer segments of marked, sized records.
CACHE_FORMAT_VERSION = 4

#: The one encoding of record lines: sorted keys, compact, ASCII-only (so a
#: body never contains a raw newline or the record separator).
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_MARK = b"\x1e"  # starts every record, and appears nowhere else
_SUFFIX = ".seg"
_MAX_READERS = 64  # open read descriptors per cache object, oldest dropped first


def _header(line: bytes) -> Optional[dict]:
    """A record's parsed header line, or None if the line is not one."""
    try:
        header = json.loads(line[1:]) if line.startswith(_MARK) else None
    except ValueError:
        return None
    return header if isinstance(header, dict) else None


def _intact(header: Optional[dict], body: bytes) -> bool:
    """Whether ``body`` (newline included) is the body ``header`` describes."""
    return (
        header is not None
        and body.endswith(b"\n")
        and header.get("length") == len(body) - 1
        and header.get("checksum") == hashlib.sha256(body[:-1]).hexdigest()
    )


class JobCache:
    """A directory of completed simulation jobs keyed by fingerprint."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Damaged records (torn writes, bit rot, checksum mismatches) met and
        #: dropped by this object's reads; each also reported a miss.
        self.corrupt_entries = 0
        self._index: dict = {}  # fingerprint -> (segment, offset, size)
        self._scanned: dict = {}  # segment -> bytes indexed (a record boundary)
        self._readers: dict = {}  # segment -> unbuffered read file
        self._writer = None  # this object's own segment, opened by its first put
        self._name = f"{os.getpid()}-{os.urandom(4).hex()}{_SUFFIX}"
        self._lock = threading.Lock()  # guards scans, reader opens, heal counts

    # ----------------------------------------------------------------- access
    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        """Return the cached result for ``fingerprint``, or None on a miss.

        An unindexed fingerprint first re-scans segments that grew or
        appeared.  A damaged record is a *self-healing* miss: counted in
        :attr:`corrupt_entries` and dropped for the re-simulated record.
        """
        where = self._index.get(fingerprint)
        if where is None:
            self._rescan()
            where = self._index.get(fingerprint)
            if where is None:
                return None
        name, offset, size = where
        try:
            record = os.pread(self._reader(name).fileno(), size, offset)
        except (OSError, ValueError):
            self._forget({name})  # the segment vanished: a plain miss
            return None
        head, _, body = record.partition(b"\n")
        header = _header(head)
        try:
            if not _intact(header, body) or header["fingerprint"] != fingerprint:
                raise ValueError("damaged record")
            return SimulationResult.from_dict(json.loads(body)["result"])
        except (ValueError, KeyError, TypeError):
            with self._lock:  # the event loop and a runner thread both read
                self.corrupt_entries += 1
                if self._index.get(fingerprint) == where:
                    del self._index[fingerprint]
            return None

    def put(
        self, fingerprint: str, result: SimulationResult, description: Optional[dict] = None
    ) -> None:
        """Append ``result`` under ``fingerprint`` (one write, checksummed).

        The cache is only a memo: a write failure (disk full, permissions)
        is swallowed so the simulation result in hand still reaches the
        caller — the job simply is not memoised.
        """
        body = _dumps(
            {"job": description if description is not None else {}, "result": result.to_dict()}
        ).encode("utf-8")
        header = _dumps({
            "checksum": hashlib.sha256(body).hexdigest(), "fingerprint": fingerprint,
            "length": len(body), "version": CACHE_FORMAT_VERSION,
        }).encode("utf-8")
        if faults.fire("cache_corrupt") is not None:
            # Injected torn write (half the body, still framed): must self-heal.
            body = faults.corrupt_bytes(body)
        record = _MARK + header + b"\n" + body + b"\n"
        try:
            writer = self._writer
            if writer is None or writer.closed or os.fstat(writer.fileno()).st_nlink == 0:
                # The first put, or the segment was deleted (its records too).
                self.directory.mkdir(parents=True, exist_ok=True)
                self._forget({self._name})
                writer = self._writer = self._readers[self._name] = open(
                    self.directory / self._name, "a+b", buffering=0
                )
            written = os.write(writer.fileno(), record)
            end = os.lseek(writer.fileno(), 0, os.SEEK_CUR)
        except OSError:
            return
        if written == len(record):  # a short write left a torn record: not indexed
            self._scanned[self._name] = end
            self._index[fingerprint] = (self._name, end - len(record), len(record))

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    # --------------------------------------------------------------- segments
    def _reader(self, name: str):
        reader = self._readers.get(name)
        if reader is None:
            with self._lock:
                reader = self._readers[name] = open(self.directory / name, "rb", buffering=0)
                if len(self._readers) > _MAX_READERS:
                    del self._readers[next(iter(self._readers))]
        return reader

    def _forget(self, names) -> None:
        """Drop vanished segments' records, read handles and scan marks."""
        if names:  # (rebuilding the index costs O(entries): not on every miss)
            self._index = {fp: where for fp, where in self._index.items() if where[0] not in names}
        for name in names:
            self._scanned.pop(name, None)
            reader = self._readers.pop(name, None)
            if reader is not None:
                reader.close()

    def _rescan(self) -> None:
        """Index the records appended to any segment since the last scan."""
        with self._lock:
            try:
                names = {name for name in os.listdir(self.directory) if name.endswith(_SUFFIX)}
            except OSError:
                names = set()
            self._forget(self._scanned.keys() - names)
            for name in names:
                start = self._scanned.get(name, 0)
                try:
                    if os.stat(os.path.join(self.directory, name)).st_size > start:
                        self._scan(name, start)
                except OSError:
                    pass  # vanished mid-scan: the next rescan forgets it

    def _scan(self, name: str, pos: int) -> None:
        with open(self.directory / name, "rb", buffering=1 << 16) as segment:
            segment.seek(pos)
            while True:
                head = segment.readline()
                if not head.endswith(b"\n"):
                    break  # end of segment, or a record still being written
                header = _header(head)
                if header is None:  # (a parsed header holds no mark)
                    mark = head.find(_MARK, 1)  # damage: resync at the next mark
                    pos += mark if mark > 0 else len(head)
                    segment.seek(pos)
                    continue
                body = segment.readline()
                if _MARK in body:  # cut short, then the next record began
                    body = body[: body.index(_MARK)]
                    segment.seek(pos + len(head) + len(body))
                elif not body.endswith(b"\n"):
                    break  # cut short at the end of the segment: not indexed
                fingerprint, where = header.get("fingerprint"), (name, pos, len(head) + len(body))
                if header.get("version") == CACHE_FORMAT_VERSION and isinstance(fingerprint, str):
                    if fingerprint not in self._index or _intact(header, body):
                        self._index[fingerprint] = where  # damage only fills a gap
                pos += len(head) + len(body)
        self._scanned[name] = pos

    # ------------------------------------------------------------ maintenance
    def __len__(self) -> int:
        """Number of entries currently on disk (damaged ones until read)."""
        self._rescan()
        return len(self._index)

    def clear(self) -> int:
        """Delete every segment, leftover v3 entry file and orphaned v3 temp
        file; returns how many (v4) entries were removed."""
        removed = len(self)
        for path in [*self.directory.glob(f"*{_SUFFIX}"), *self.directory.glob("??/*.json*")]:
            try:
                path.unlink()
            except OSError:
                pass
        self._forget(set(self._scanned) | {self._name})
        return removed

    def close(self) -> None:
        """Close this object's open segment files; later calls reopen them."""
        for handle in {self._writer, *self._readers.values()} - {None}:
            handle.close()
        self._writer, self._readers = None, {}

    def __repr__(self) -> str:
        return f"JobCache({str(self.directory)!r})"
