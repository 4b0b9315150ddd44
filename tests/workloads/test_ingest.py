"""Tests for external trace ingestion (text + binary formats)."""

import io
import os
import struct
from pathlib import Path

import pytest

from repro.common.errors import TraceFormatError
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.ingest import (
    CHUNK_RECORDS,
    ExternalTraceSpec,
    INGEST_VERSION,
    MAX_LINE_CHARS,
    file_digest,
    ingest_trace_file,
    read_binary_trace,
    read_text_trace,
    write_binary_trace,
    write_text_trace,
)
from repro.workloads.profiles import get_profile
from repro.workloads.trace import FLAG_MEM, FLAG_STORE, FLAG_TAKEN, Trace

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data", "sample.rtxt")


def _generated(n=2000, application="gcc"):
    return WorkloadGenerator(get_profile(application)).generate(n)


def _binary_bytes(trace, byteorder=None):
    buffer = io.BytesIO()
    if byteorder is None:
        write_binary_trace(trace, buffer)
    else:
        write_binary_trace(trace, buffer, byteorder=byteorder)
    return buffer.getvalue()


# ---------------------------------------------------------------------- fixture


def test_fixture_parses():
    trace = read_text_trace(FIXTURE)
    assert trace.name == "sample"
    assert len(trace) == 4500
    assert trace.memory_level_parallelism == 1.5
    assert trace.memory_references > 0
    assert trace.branches > 0


def test_ingest_sniffs_text_and_binary(tmp_path):
    text_trace = read_text_trace(FIXTURE)
    binary_path = tmp_path / "sample.rtrc2"
    write_binary_trace(text_trace, str(binary_path))
    assert ingest_trace_file(FIXTURE).columns() == text_trace.columns()
    assert ingest_trace_file(str(binary_path)).columns() == text_trace.columns()


def test_ingest_rejects_unknown_format(tmp_path):
    path = tmp_path / "mystery.bin"
    path.write_bytes(b"GARBAGE!")
    with pytest.raises(TraceFormatError, match="unrecognised"):
        ingest_trace_file(str(path))


# ------------------------------------------------------------------ round trips


def test_text_round_trip_preserves_everything():
    trace = _generated()
    buffer = io.StringIO()
    write_text_trace(trace, buffer)
    buffer.seek(0)
    rebuilt = read_text_trace(buffer)
    assert rebuilt.name == trace.name
    assert rebuilt.memory_level_parallelism == trace.memory_level_parallelism
    assert rebuilt.columns() == trace.columns()


@pytest.mark.parametrize("byteorder", ["<", ">"])
def test_binary_round_trip_both_endians(byteorder):
    trace = _generated()
    buffer = io.BytesIO(_binary_bytes(trace, byteorder))
    rebuilt = read_binary_trace(buffer)
    assert rebuilt.name == trace.name
    assert rebuilt.memory_level_parallelism == trace.memory_level_parallelism
    assert rebuilt.columns() == trace.columns()


def test_binary_round_trip_through_files(tmp_path):
    trace = _generated(500, "compress")
    path = tmp_path / "t.rtrc2"
    write_binary_trace(trace, str(path))
    assert read_binary_trace(str(path)).columns() == trace.columns()


def test_cross_format_round_trip():
    """text -> Trace -> binary -> Trace -> text is the identity."""
    original = read_text_trace(FIXTURE)
    via_binary = read_binary_trace(io.BytesIO(_binary_bytes(original)))
    buffer = io.StringIO()
    write_text_trace(via_binary, buffer)
    buffer.seek(0)
    assert read_text_trace(buffer).columns() == original.columns()


def test_binary_chunking_covers_large_traces():
    trace = _generated(CHUNK_RECORDS + 7)  # forces a second decode chunk
    rebuilt = read_binary_trace(io.BytesIO(_binary_bytes(trace)))
    assert rebuilt.columns() == trace.columns()


def test_name_override_beats_directive_and_stem(tmp_path):
    assert read_text_trace(FIXTURE, name="renamed").name == "renamed"
    path = tmp_path / "stemname.rtxt"
    path.write_text("#RTXT 1\n0x10 I\n")
    assert read_text_trace(str(path)).name == "stemname"


def test_write_binary_rejects_bad_byteorder():
    with pytest.raises(TraceFormatError, match="byte order"):
        write_binary_trace(_generated(10), io.BytesIO(), byteorder="=")


# ----------------------------------------------------------- malformed text


def _text_error(content):
    with pytest.raises(TraceFormatError) as info:
        read_text_trace(io.StringIO(content))
    return info.value


def test_text_missing_magic():
    error = _text_error("0x10 I\n")
    assert error.line == 1
    assert "first line" in str(error)


def test_text_wrong_version():
    error = _text_error("#RTXT 99\n")
    assert error.line == 1
    assert "version" in str(error)


def test_text_empty_file():
    error = _text_error("")
    assert "empty" in str(error)


def test_text_overlong_line():
    long_line = "0x10 L 0x" + "0" * MAX_LINE_CHARS
    error = _text_error(f"#RTXT 1\n{long_line}\n")
    assert error.line == 2
    assert str(MAX_LINE_CHARS) in str(error)


def test_text_directive_after_record_is_out_of_order():
    error = _text_error("#RTXT 1\n0x10 I\n#mlp 2.0\n")
    assert error.line == 3
    assert "precede" in str(error)


def test_text_directive_without_value():
    error = _text_error("#RTXT 1\n#name\n")
    assert error.line == 2


def test_text_bad_mlp():
    assert _text_error("#RTXT 1\n#mlp banana\n").line == 2
    assert _text_error("#RTXT 1\n#mlp -1.0\n").line == 2


def test_text_unknown_kind():
    error = _text_error("#RTXT 1\n0x10 XYZ\n")
    assert error.line == 2
    assert "XYZ" in str(error)


def test_text_memory_kind_requires_address():
    error = _text_error("#RTXT 1\n0x10 L\n")
    assert error.line == 2
    assert "requires a data address" in str(error)


def test_text_plain_kind_forbids_address():
    error = _text_error("#RTXT 1\n0x10 I 0x20\n")
    assert error.line == 2
    assert "no data address" in str(error)


def test_text_unparseable_integers():
    assert _text_error("#RTXT 1\nnope I\n").line == 2
    assert _text_error("#RTXT 1\n0x10 L nope\n").line == 2


def test_text_value_overflows_uint64():
    error = _text_error(f"#RTXT 1\n{1 << 64:#x} I\n")
    assert error.line == 2
    assert "64-bit" in str(error)


def test_text_wrong_field_count():
    error = _text_error("#RTXT 1\n0x10 L 0x20 0x30\n")
    assert error.line == 2


def test_text_comments_and_blank_lines_are_ignored():
    trace = read_text_trace(io.StringIO(
        "#RTXT 1\n# comment\n\n0x10 I\n# another\n\n0x14 S 0x99\n"
    ))
    assert len(trace) == 2
    assert list(trace.columns()[2]) == [0, FLAG_MEM | FLAG_STORE]


# --------------------------------------------------------- malformed binary


def _binary_error(payload):
    with pytest.raises(TraceFormatError) as info:
        read_binary_trace(io.BytesIO(payload))
    return info.value


def _patched(trace, offset, replacement):
    payload = bytearray(_binary_bytes(trace, "<"))
    payload[offset:offset + len(replacement)] = replacement
    return bytes(payload)


def test_binary_bad_magic():
    error = _binary_error(b"NOPE" + b"\x00" * 24)
    assert error.offset == 0
    assert "magic" in str(error)


def test_binary_truncated_header():
    good = _binary_bytes(_generated(10))
    error = _binary_error(good[:17])
    assert error.offset == 17
    assert "truncated header" in str(error)
    # never a bare struct.error, even on an empty file
    assert isinstance(_binary_error(b""), TraceFormatError)


def test_binary_unsupported_version():
    error = _binary_error(_patched(_generated(5), 4, struct.pack("<H", 99)))
    assert error.offset == 4
    assert "version 99" in str(error)


def test_binary_bad_byteorder_tag():
    error = _binary_error(_patched(_generated(5), 6, b"?"))
    assert error.offset == 6
    assert "byte-order" in str(error)


def test_binary_reserved_header_flags():
    error = _binary_error(_patched(_generated(5), 7, b"\x01"))
    assert error.offset == 7
    assert "header flags" in str(error)


def test_binary_nonpositive_mlp():
    error = _binary_error(_patched(_generated(5), 8, struct.pack("<d", 0.0)))
    assert error.offset == 8
    assert "positive" in str(error)


def test_binary_truncated_name():
    good = _binary_bytes(_generated(5))
    error = _binary_error(good[:30])  # header promises a longer name
    assert "truncated name" in str(error)


def test_binary_truncated_record_stream():
    good = _binary_bytes(_generated(5))
    error = _binary_error(good[:-9])  # chop into the final record
    assert "truncated record stream" in str(error)
    assert error.offset == len(good) - 17  # start of the unfinished record


def test_binary_trailing_bytes():
    error = _binary_error(_binary_bytes(_generated(5)) + b"\x00")
    assert "trailing bytes" in str(error)


@pytest.mark.parametrize(
    "bits, complaint",
    [
        (0x10, "unknown flag bits"),
        (FLAG_STORE, "STORE"),                    # store without MEM
        (FLAG_TAKEN, "TAKEN"),                    # taken without BRANCH
        (FLAG_MEM | FLAG_TAKEN, "TAKEN"),
    ],
)
def test_binary_invalid_record_flags(bits, complaint):
    trace = _generated(5)
    flags_offset = len(_binary_bytes(trace, "<")) - 1  # last record's flag byte
    error = _binary_error(_patched(trace, flags_offset, bytes([bits])))
    assert complaint in str(error)
    assert error.offset is not None


def test_error_messages_carry_location():
    error = _text_error("#RTXT 1\n0x10 XYZ\n")
    assert "line 2" in str(error)
    binary_error = _binary_error(b"NOPE" + b"\x00" * 24)
    assert "offset 0" in str(binary_error)


# ------------------------------------------------------------ ExternalTraceSpec


def test_external_spec_materializes_and_digests():
    spec = ExternalTraceSpec(path=FIXTURE)
    trace = spec.materialize()
    assert isinstance(trace, Trace)
    assert trace.name == spec.application == "sample"
    assert spec.content_digest() == file_digest(FIXTURE)

    payload = spec.fingerprint_payload()
    assert payload["kind"] == "external-trace"
    assert payload["ingest_version"] == INGEST_VERSION
    assert payload["content"] == file_digest(FIXTURE)
    # content-addressed: the path itself must not leak into the identity
    assert FIXTURE not in str(payload)


def test_external_spec_name_override():
    spec = ExternalTraceSpec(path=FIXTURE, name="alias")
    assert spec.application == "alias"
    assert spec.materialize().name == "alias"
    assert spec.fingerprint_payload()["name"] == "alias"


def test_external_spec_same_content_same_digest(tmp_path):
    copy = tmp_path / "moved-elsewhere.rtxt"
    copy.write_bytes(Path(FIXTURE).read_bytes())
    original = ExternalTraceSpec(path=FIXTURE)
    moved = ExternalTraceSpec(path=str(copy))
    assert original.content_digest() == moved.content_digest()
    assert (
        original.fingerprint_payload()["content"]
        == moved.fingerprint_payload()["content"]
    )


def test_file_digest_detects_edits(tmp_path):
    path = tmp_path / "t.rtxt"
    path.write_text("#RTXT 1\n0x10 I\n")
    first = file_digest(str(path))
    assert file_digest(str(path)) == first  # memoised, stable
    os.utime(str(path), (1, 1))  # force a new stat signature
    path.write_text("#RTXT 1\n0x14 I\n")
    assert file_digest(str(path)) != first
