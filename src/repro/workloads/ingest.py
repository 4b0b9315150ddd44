"""Ingestion of *external* trace files into columnar :class:`Trace` buffers.

The synthetic workload generator covers the paper's twelve applications, but
the resizing strategies are only interesting on workloads nobody
parameterised — real traces captured elsewhere.  This module is the public
door for those: two documented, versioned on-disk formats (the spec lives in
``docs/TRACE_FORMAT.md`` and is asserted against this parser by
``tests/workloads/test_trace_format_spec.py``) and a streaming decoder that
converts either format straight into the structure-of-arrays columns the
replay engines consume, without ever materialising a row-oriented copy of
the trace.

Formats
-------

* **Text** (``.rtxt`` by convention): a line-oriented format meant to be
  produced by ad-hoc scripts and read by humans.  First line is the magic
  ``#RTXT 1``; optional ``#name`` / ``#mlp`` directives follow; then one
  record per line: ``PC KIND [ADDRESS]``.
* **Binary** (``.rtrc2`` by convention): magic ``RTX2``, a fixed 28-byte
  little-endian header carrying an endianness tag for the payload, the
  UTF-8 trace name, then fixed 17-byte records (pc ``u64``, data address
  ``u64``, flags ``u8``) in the tagged byte order.

Both parsers stream: the text reader works line by line, the binary reader
in bounded chunks of :data:`CHUNK_RECORDS` records, each appended
column-wise to the growing ``array`` buffers — peak memory is the output
columns plus one chunk, independent of file size.  Every malformed input
raises :class:`~repro.common.errors.TraceFormatError` with the line number
(text) or absolute byte offset (binary) of the offence; ``struct.error``
never escapes.

:class:`ExternalTraceSpec` is the job-layer handle: a declarative,
picklable pointer to a trace file that the sweep engine materialises on
demand, fingerprints by *content digest* (moving a file never invalidates
caches; editing it always does), and memoises through the on-disk trace
cache so a multi-gigabyte text trace is parsed once, not once per sweep.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Dict, List, Optional, TextIO, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.workloads.trace import (
    ADDRESS_TYPECODE,
    FLAG_BRANCH,
    FLAG_MEM,
    FLAG_STORE,
    FLAG_TAKEN,
    FLAG_TYPECODE,
    PC_TYPECODE,
    Trace,
)

# ---------------------------------------------------------------------------
# Format constants (docs/TRACE_FORMAT.md is the normative description; the
# spec-conformance test asserts the two never drift apart).
# ---------------------------------------------------------------------------

#: Text format magic (first line is ``#RTXT <version>``).
TEXT_MAGIC = "#RTXT"
#: Text format version this build reads and writes.
TEXT_FORMAT_VERSION = 1
#: Longest record/directive line the text parser accepts, in characters
#: (excluding the line terminator).  Longer lines are rejected with the
#: line number rather than silently truncated.
MAX_LINE_CHARS = 256

#: Binary format magic (first four bytes of an ``.rtrc2`` file).
BINARY_MAGIC = b"RTX2"
#: Binary format version this build reads and writes.
BINARY_FORMAT_VERSION = 1

#: Binary header: always packed little-endian; the ``byteorder`` field
#: (ASCII ``<`` or ``>``) describes the *record payload* only.
_BINARY_HEADER = struct.Struct("<4sHcBdQI")

#: Field-by-field layout of the binary header, ``(offset, size, name)``.
#: This is what the spec-conformance test checks the documentation against.
BINARY_HEADER_LAYOUT: List[Tuple[int, int, str]] = [
    (0, 4, "magic"),
    (4, 2, "version"),
    (6, 1, "byteorder"),
    (7, 1, "header_flags"),
    (8, 8, "mlp"),
    (16, 8, "record_count"),
    (24, 4, "name_length"),
]

#: One binary record: pc, data address, flags — 17 bytes, no padding.
BINARY_RECORD_LAYOUT: List[Tuple[int, int, str]] = [
    (0, 8, "pc"),
    (8, 8, "data_address"),
    (16, 1, "flags"),
]
_RECORD_FORMAT = "QQB"
_RECORD_SIZE = struct.calcsize("<" + _RECORD_FORMAT)

#: All flag bits a record may carry; anything else is a format error.
_KNOWN_FLAGS = FLAG_MEM | FLAG_STORE | FLAG_BRANCH | FLAG_TAKEN

#: Records decoded per read in the binary streaming path.  64k records is
#: ~1.1 MB of input per chunk — bounded memory however large the file.
CHUNK_RECORDS = 65536

#: Text record kinds → flag bits.  A kind is an optional memory prefix
#: (``L`` load / ``S`` store) fused with an optional branch suffix
#: (``BT`` taken / ``BN`` not taken); ``I`` is the plain instruction.
TEXT_KINDS: Dict[str, int] = {
    "I": 0,
    "L": FLAG_MEM,
    "S": FLAG_MEM | FLAG_STORE,
    "BT": FLAG_BRANCH | FLAG_TAKEN,
    "BN": FLAG_BRANCH,
    "LBT": FLAG_MEM | FLAG_BRANCH | FLAG_TAKEN,
    "LBN": FLAG_MEM | FLAG_BRANCH,
    "SBT": FLAG_MEM | FLAG_STORE | FLAG_BRANCH | FLAG_TAKEN,
    "SBN": FLAG_MEM | FLAG_STORE | FLAG_BRANCH,
}
_KIND_FOR_FLAGS = {bits: kind for kind, bits in TEXT_KINDS.items()}

#: Bump when ingest semantics change (parsing rules, flag validation, …);
#: mixed into external-trace fingerprints and trace-cache keys so converted
#: columns produced by an older decoder are never served.
INGEST_VERSION = 1

_UINT64_LIMIT = 1 << 64


def _check_uint64(value: int, what: str, path, line: Optional[int]) -> int:
    if not 0 <= value < _UINT64_LIMIT:
        raise TraceFormatError(
            f"{what} {value:#x} does not fit an unsigned 64-bit field",
            path=path, line=line,
        )
    return value


def _check_flags(flags: int, path, line: Optional[int] = None,
                 offset: Optional[int] = None) -> int:
    """Validate one record's flag byte (shared by both formats)."""
    if flags & ~_KNOWN_FLAGS:
        raise TraceFormatError(
            f"unknown flag bits {flags & ~_KNOWN_FLAGS:#04x} in record flags "
            f"{flags:#04x} (known bits: {_KNOWN_FLAGS:#04x})",
            path=path, line=line, offset=offset,
        )
    if flags & FLAG_STORE and not flags & FLAG_MEM:
        raise TraceFormatError(
            f"inconsistent record flags {flags:#04x}: STORE (0x2) requires MEM (0x1)",
            path=path, line=line, offset=offset,
        )
    if flags & FLAG_TAKEN and not flags & FLAG_BRANCH:
        raise TraceFormatError(
            f"inconsistent record flags {flags:#04x}: TAKEN (0x8) requires BRANCH (0x4)",
            path=path, line=line, offset=offset,
        )
    return flags


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def _parse_int(token: str, what: str, path, line: int) -> int:
    try:
        value = int(token, 0)  # 0x…/0o…/0b… prefixes or plain decimal
    except ValueError as exc:
        raise TraceFormatError(
            f"cannot parse {what} {token!r} as an integer", path=path, line=line
        ) from exc
    return _check_uint64(value, what, path, line)


def read_text_trace(path_or_file: Union[str, "TextIO"], name: Optional[str] = None) -> Trace:
    """Parse a text (``.rtxt``) trace file into a columnar :class:`Trace`.

    ``name`` overrides both the ``#name`` directive and the default (the
    file's stem).  Raises :class:`TraceFormatError` with the 1-based line
    number on any malformed input.
    """
    if hasattr(path_or_file, "read"):
        return _read_text(path_or_file, getattr(path_or_file, "name", None), name)
    with open(path_or_file, "r", encoding="utf-8") as handle:
        return _read_text(handle, str(path_or_file), name)


def _read_text(handle: "TextIO", path: Optional[str], name_override: Optional[str]) -> Trace:
    pcs = array(PC_TYPECODE)
    addresses = array(ADDRESS_TYPECODE)
    flags = array(FLAG_TYPECODE)
    pc_append, address_append, flag_append = pcs.append, addresses.append, flags.append

    header_name: Optional[str] = None
    mlp = 1.0
    saw_magic = False
    saw_record = False

    for line_number, raw in enumerate(handle, start=1):
        line = raw.rstrip("\r\n")
        if len(line) > MAX_LINE_CHARS:
            raise TraceFormatError(
                f"line exceeds the {MAX_LINE_CHARS}-character limit "
                f"({len(line)} characters)",
                path=path, line=line_number,
            )
        if not saw_magic:
            parts = line.split()
            if len(parts) != 2 or parts[0] != TEXT_MAGIC:
                raise TraceFormatError(
                    f"not a text trace file: first line must be "
                    f"{TEXT_MAGIC!r} <version>, got {line!r}",
                    path=path, line=line_number,
                )
            if parts[1] != str(TEXT_FORMAT_VERSION):
                raise TraceFormatError(
                    f"unsupported text trace version {parts[1]!r} "
                    f"(this build reads version {TEXT_FORMAT_VERSION})",
                    path=path, line=line_number,
                )
            saw_magic = True
            continue
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            directive = stripped.split(None, 1)
            if directive[0] in ("#name", "#mlp"):
                if saw_record:
                    raise TraceFormatError(
                        f"directive {directive[0]!r} must precede the first record",
                        path=path, line=line_number,
                    )
                if len(directive) != 2:
                    raise TraceFormatError(
                        f"directive {directive[0]!r} requires a value",
                        path=path, line=line_number,
                    )
                if directive[0] == "#name":
                    header_name = directive[1].strip()
                else:
                    try:
                        mlp = float(directive[1])
                    except ValueError as exc:
                        raise TraceFormatError(
                            f"cannot parse #mlp value {directive[1]!r} as a float",
                            path=path, line=line_number,
                        ) from exc
                    if not mlp > 0:
                        raise TraceFormatError(
                            f"#mlp must be positive, got {mlp}",
                            path=path, line=line_number,
                        )
            continue  # any other '#…' line is a comment
        fields = stripped.split()
        if len(fields) not in (2, 3):
            raise TraceFormatError(
                f"record must be 'PC KIND [ADDRESS]', got {len(fields)} field(s)",
                path=path, line=line_number,
            )
        pc = _parse_int(fields[0], "pc", path, line_number)
        kind = fields[1]
        bits = TEXT_KINDS.get(kind)
        if bits is None:
            known = ", ".join(TEXT_KINDS)
            raise TraceFormatError(
                f"unknown record kind {kind!r} (known kinds: {known})",
                path=path, line=line_number,
            )
        if bits & FLAG_MEM:
            if len(fields) != 3:
                raise TraceFormatError(
                    f"memory record kind {kind!r} requires a data address",
                    path=path, line=line_number,
                )
            address = _parse_int(fields[2], "data address", path, line_number)
        else:
            if len(fields) != 2:
                raise TraceFormatError(
                    f"non-memory record kind {kind!r} takes no data address",
                    path=path, line=line_number,
                )
            address = 0
        pc_append(pc)
        address_append(address)
        flag_append(bits)
        saw_record = True

    if not saw_magic:
        raise TraceFormatError("empty file is not a text trace", path=path, line=1)
    name = name_override or header_name or _default_name(path)
    return Trace.from_columns(
        name=name, pcs=pcs, addresses=addresses, flags=flags,
        memory_level_parallelism=mlp,
    )


def write_text_trace(trace: Trace, path_or_file: Union[str, "TextIO"]) -> None:
    """Write ``trace`` in the text format (the inverse of :func:`read_text_trace`)."""
    if hasattr(path_or_file, "write"):
        _write_text(trace, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _write_text(trace, handle)


def _write_text(trace: Trace, handle: "TextIO") -> None:
    write = handle.write
    write(f"{TEXT_MAGIC} {TEXT_FORMAT_VERSION}\n")
    write(f"#name {trace.name}\n")
    write(f"#mlp {trace.memory_level_parallelism!r}\n")
    pcs, addresses, flag_column = trace.columns()
    for pc, address, bits in zip(pcs, addresses, flag_column):
        kind = _KIND_FOR_FLAGS[bits]
        if bits & FLAG_MEM:
            write(f"{pc:#x} {kind} {address:#x}\n")
        else:
            write(f"{pc:#x} {kind}\n")


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------


def read_binary_trace(path_or_file: Union[str, "BinaryIO"], name: Optional[str] = None) -> Trace:
    """Parse a binary (``.rtrc2``) trace file into a columnar :class:`Trace`.

    Decodes in bounded chunks of :data:`CHUNK_RECORDS` records, honouring
    the header's payload-endianness tag.  Raises :class:`TraceFormatError`
    with the absolute byte offset on any malformed input.
    """
    if hasattr(path_or_file, "read"):
        return _read_binary(path_or_file, getattr(path_or_file, "name", None), name)
    with open(path_or_file, "rb") as handle:
        return _read_binary(handle, str(path_or_file), name)


def _read_binary(handle: "BinaryIO", path: Optional[str], name_override: Optional[str]) -> Trace:
    header = handle.read(_BINARY_HEADER.size)
    if len(header) < 4 or header[:4] != BINARY_MAGIC:
        raise TraceFormatError(
            f"not a binary trace file (bad magic {header[:4]!r}, "
            f"expected {BINARY_MAGIC!r})",
            path=path, offset=0,
        )
    if len(header) != _BINARY_HEADER.size:
        raise TraceFormatError(
            f"truncated header: got {len(header)} of {_BINARY_HEADER.size} bytes",
            path=path, offset=len(header),
        )
    # The header layout is fixed and validated above, so unpack cannot fail
    # on size — but keep the struct.error guarantee airtight anyway.
    try:
        magic, version, byteorder, header_flags, mlp, count, name_length = (
            _BINARY_HEADER.unpack(header)
        )
    except struct.error as exc:  # pragma: no cover - size already checked
        raise TraceFormatError(
            f"undecodable header: {exc}", path=path, offset=0
        ) from exc
    if version != BINARY_FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported binary trace version {version} "
            f"(this build reads version {BINARY_FORMAT_VERSION})",
            path=path, offset=4,
        )
    if byteorder not in (b"<", b">"):
        raise TraceFormatError(
            f"invalid byte-order tag {byteorder!r} (expected b'<' or b'>')",
            path=path, offset=6,
        )
    if header_flags != 0:
        raise TraceFormatError(
            f"unknown header flags {header_flags:#04x} (version "
            f"{BINARY_FORMAT_VERSION} defines none)",
            path=path, offset=7,
        )
    if not mlp > 0:
        raise TraceFormatError(
            f"memory-level parallelism must be positive, got {mlp}",
            path=path, offset=8,
        )
    name_bytes = handle.read(name_length)
    if len(name_bytes) != name_length:
        raise TraceFormatError(
            f"truncated name: got {len(name_bytes)} of {name_length} bytes",
            path=path, offset=_BINARY_HEADER.size + len(name_bytes),
        )
    try:
        header_name = name_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"undecodable trace name: {exc}",
            path=path, offset=_BINARY_HEADER.size,
        ) from exc

    record_struct = struct.Struct(byteorder.decode("ascii") + _RECORD_FORMAT)
    pcs = array(PC_TYPECODE)
    addresses = array(ADDRESS_TYPECODE)
    flag_column = array(FLAG_TYPECODE)
    pc_append, address_append, flag_append = (
        pcs.append, addresses.append, flag_column.append,
    )

    records_start = _BINARY_HEADER.size + name_length
    remaining = count
    position = records_start
    while remaining > 0:
        batch = min(remaining, CHUNK_RECORDS)
        payload = handle.read(batch * _RECORD_SIZE)
        got, leftover = divmod(len(payload), _RECORD_SIZE)
        if leftover or got < batch:
            raise TraceFormatError(
                f"truncated record stream: header promises {count} records "
                f"but the file ends inside record {count - remaining + got}",
                path=path, offset=position + got * _RECORD_SIZE,
            )
        for pc, address, bits in record_struct.iter_unpack(payload):
            if bits & ~_KNOWN_FLAGS or (
                bits & (FLAG_STORE | FLAG_TAKEN)
                and ((bits & FLAG_STORE and not bits & FLAG_MEM)
                     or (bits & FLAG_TAKEN and not bits & FLAG_BRANCH))
            ):
                _check_flags(bits, path, offset=position)
            pc_append(pc)
            address_append(address)
            flag_append(bits)
            position += _RECORD_SIZE
        remaining -= batch
    if handle.read(1):
        raise TraceFormatError(
            f"trailing bytes after the last of {count} records",
            path=path, offset=position,
        )
    name = name_override or header_name or _default_name(path)
    return Trace.from_columns(
        name=name, pcs=pcs, addresses=addresses, flags=flag_column,
        memory_level_parallelism=mlp,
    )


def write_binary_trace(
    trace: Trace,
    path_or_file: Union[str, "BinaryIO"],
    byteorder: Optional[str] = None,
) -> None:
    """Write ``trace`` in the binary format.

    ``byteorder`` is ``"<"`` (little), ``">"`` (big) or None for the host
    order; the tag is recorded in the header so readers on any host decode
    correctly.
    """
    if byteorder is None:
        byteorder = "<" if sys.byteorder == "little" else ">"
    if byteorder not in ("<", ">"):
        raise TraceFormatError(f"byte order must be '<' or '>', got {byteorder!r}")
    if hasattr(path_or_file, "write"):
        _write_binary(trace, path_or_file, byteorder)
    else:
        with open(path_or_file, "wb") as handle:
            _write_binary(trace, handle, byteorder)


def _write_binary(trace: Trace, handle: "BinaryIO", byteorder: str) -> None:
    name_bytes = trace.name.encode("utf-8")
    handle.write(
        _BINARY_HEADER.pack(
            BINARY_MAGIC,
            BINARY_FORMAT_VERSION,
            byteorder.encode("ascii"),
            0,
            trace.memory_level_parallelism,
            len(trace),
            len(name_bytes),
        )
    )
    handle.write(name_bytes)
    record_struct = struct.Struct(byteorder + _RECORD_FORMAT)
    pack = record_struct.pack
    write = handle.write
    pcs, addresses, flag_column = trace.columns()
    for pc, address, bits in zip(pcs, addresses, flag_column):
        write(pack(pc, address, bits))


# ---------------------------------------------------------------------------
# Format sniffing
# ---------------------------------------------------------------------------


def ingest_trace_file(path: Union[str, "os.PathLike"], name: Optional[str] = None) -> Trace:
    """Read an external trace file of either format into a :class:`Trace`.

    The format is detected from the leading magic bytes, not the file
    extension (``.rtxt`` / ``.rtrc2`` are conventions only).  ``name``
    overrides the trace's self-declared name.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        magic = handle.read(5)
    if magic[:4] == BINARY_MAGIC:
        return read_binary_trace(path, name=name)
    if magic[: len(TEXT_MAGIC)] == TEXT_MAGIC.encode("ascii"):
        return read_text_trace(path, name=name)
    raise TraceFormatError(
        f"unrecognised trace file (leading bytes {magic!r}; expected "
        f"{BINARY_MAGIC!r} for the binary format or "
        f"{TEXT_MAGIC!r} for the text format)",
        path=path, offset=0,
    )


def _default_name(path: Optional[str]) -> str:
    if not path:
        return "external-trace"
    stem = os.path.splitext(os.path.basename(path))[0]
    return stem or "external-trace"


# ---------------------------------------------------------------------------
# Content digests and the job-layer spec
# ---------------------------------------------------------------------------

#: Per-process digest memo keyed by the file's (device, inode), validated
#: against its (size, mtime_ns): fingerprints of an unchanged file cost one
#: stat instead of a full hash pass, and an edited file always re-hashes.
#: Entries are only ever replaced by newer stats, never shared across
#: processes, and the oldest are evicted past ``_FILE_DIGEST_MEMO_MAX``.
_FILE_DIGEST_MEMO: Dict[Tuple[int, int], Tuple[Tuple[int, int], str]] = {}
_FILE_DIGEST_MEMO_MAX = 256


def file_digest(path: Union[str, "os.PathLike"]) -> str:
    """Streaming SHA-256 of a file's content, memoised on (size, mtime).

    This is the identity external-trace fingerprints and trace-cache keys
    are built from: the same bytes digest identically wherever the file
    lives, so moving or re-downloading a trace never invalidates caches,
    while any edit always does.
    """
    path = os.fspath(path)
    stat = os.stat(path)
    identity = (stat.st_dev, stat.st_ino)
    signature = (stat.st_size, stat.st_mtime_ns)
    memo = _FILE_DIGEST_MEMO.get(identity)
    if memo is not None and memo[0] == signature:
        return memo[1]
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    hexdigest = digest.hexdigest()
    _FILE_DIGEST_MEMO.pop(identity, None)
    _FILE_DIGEST_MEMO[identity] = (signature, hexdigest)
    while len(_FILE_DIGEST_MEMO) > _FILE_DIGEST_MEMO_MAX:
        _FILE_DIGEST_MEMO.pop(next(iter(_FILE_DIGEST_MEMO)))
    return hexdigest


@dataclass(frozen=True)
class ExternalTraceSpec:
    """Names an external trace file without materialising it.

    The declarative counterpart of :class:`~repro.sim.runner.TraceSpec` for
    ingested traces: jobs carry this spec (a couple of strings) instead of
    the decoded columns, and whichever process executes the job parses the
    file — through the per-process memo and the on-disk trace cache, so the
    conversion happens once per machine, not once per job.

    Fingerprinting is by *content*: the file's digest (plus the ingest
    semantics version), never its path, so caches survive renames and
    reject edits.

    Attributes:
        path: the trace file (text or binary format, sniffed by magic).
        name: optional override of the trace's self-declared name; also the
            application name the spec reports to sweeps and experiments.
    """

    path: str
    name: Optional[str] = None

    @property
    def application(self) -> str:
        """Display/application name (mirrors :class:`TraceSpec.application`)."""
        return self.name or _default_name(self.path)

    def materialize(self) -> Trace:
        """Parse the file this spec points to."""
        return ingest_trace_file(self.path, name=self.name)

    def content_digest(self) -> str:
        """Digest of the file's bytes (see :func:`file_digest`)."""
        return file_digest(self.path)

    def fingerprint_payload(self) -> Dict[str, object]:
        """Canonical identity for job fingerprints and trace-cache keys."""
        return {
            "kind": "external-trace",
            "content": self.content_digest(),
            "name": self.name,
            "ingest_version": INGEST_VERSION,
        }

    # Consumed by repro.sim.tracecache.TraceCache.key_for via duck typing,
    # so the cache module needs no import of (or dispatch on) this class.
    trace_cache_payload = fingerprint_payload
