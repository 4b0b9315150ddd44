"""Atomic, checksummed file writes shared by every on-disk artifact.

Every whole-file artifact — trace-cache entries, checkpoint and service
handle manifests, ``--output`` rows, the benchmark baseline — is written
here, so a crash mid-write can never leave a torn file that later runs
would choke on.  (The job cache appends records to a log instead; see
:mod:`repro.sim.jobcache`.)  This module is the single implementation:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` /
  :func:`atomic_write_json` — write to ``<name>.tmp.<pid>.<tid>`` in the
  target directory, then :func:`os.replace` onto the final name.  Readers
  therefore observe either the old content or the new content, never a
  prefix of the new one, even across concurrent sweep processes sharing a
  cache directory.  A killed process leaves at most an orphaned ``.tmp.*``
  file, which the caches' ``clear()`` sweeps away.
* :func:`wrap_checksummed` / :func:`unwrap_checksummed` — a tiny binary
  container (magic + SHA-256 + payload) for cache entries.  Rename
  atomicity protects against *torn* writes; the checksum additionally
  catches entries corrupted after the fact (bit rot, a crashed writer on a
  filesystem without rename atomicity, a fault-injection plan).  Readers
  treat a failed :func:`unwrap_checksummed` — raising
  :class:`CorruptPayloadError` — as a cache miss and self-heal by deleting
  the entry, never as a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Union

#: Container magic for checksummed payloads (bump on layout changes).
CHECKSUM_MAGIC = b"RCK1"

#: Bytes of SHA-256 digest stored after the magic.
_DIGEST_BYTES = 32


class CorruptPayloadError(ValueError):
    """A checksummed payload failed verification (torn write or bit rot).

    Deliberately a :class:`ValueError` subclass: every cache read path
    already treats ``ValueError`` as a miss, so callers that predate the
    checksum layer degrade safely.
    """


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target directory (rename must not cross
    filesystems) and carries the writer's pid *and* thread id, so
    concurrent writers — separate sweep processes sharing a cache dir, or
    two runners inside one process (a service next to a CLI sweep) —
    never collide on the temp name either.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
    )
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        # Best effort: do not leave the temp file behind on a failed or
        # interrupted write (the final path is untouched either way).
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: Union[str, Path], payload, **dump_kwargs) -> None:
    """Serialize ``payload`` as JSON and write it to ``path`` atomically.

    ``dump_kwargs`` pass through to :func:`json.dumps` (``indent``,
    ``sort_keys``, ...).  Serialization happens before the file is opened,
    so an unserialisable payload never leaves a temp file behind.
    """
    atomic_write_text(path, json.dumps(payload, **dump_kwargs))


def wrap_checksummed(payload: bytes) -> bytes:
    """Frame ``payload`` with the container magic and its SHA-256 digest."""
    return CHECKSUM_MAGIC + hashlib.sha256(payload).digest() + payload


def unwrap_checksummed(data: bytes) -> bytes:
    """Verify a :func:`wrap_checksummed` container and return its payload.

    Raises :class:`CorruptPayloadError` on a bad magic, a truncated
    container, or a digest mismatch — the caller treats all three as a
    cache miss.
    """
    header = len(CHECKSUM_MAGIC) + _DIGEST_BYTES
    if len(data) < header or not data.startswith(CHECKSUM_MAGIC):
        raise CorruptPayloadError("payload is not a checksummed container")
    stored = data[len(CHECKSUM_MAGIC):header]
    payload = data[header:]
    if hashlib.sha256(payload).digest() != stored:
        raise CorruptPayloadError("payload checksum mismatch (torn write or corruption)")
    return payload
