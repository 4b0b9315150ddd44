"""Tests for the configuration-invariant trace pre-decode (repro.sim.predecode).

The module's correctness contract is that the decode of a plan's replayed
rows equals an independent per-row model of those rows (the
``decode_model`` fixture: records decoded one by one against a real
predictor) — ops and all four totals — for *any* segment partition, with
the fetch-block dedup restarting at each run of a sampled plan, and that
the NumPy and stdlib builders are bit-identical.  These tests pin both,
plus the disk serialization round-trip, the memo keys and counters, and
the gates (non-default predictors, warm pilots).
"""

import gc
from array import array

import pytest

from repro.cache.cache import Cache
from repro.common.config import SystemConfig
from repro.cpu.branch import BimodalBranchPredictor
from repro.sim import predecode
from repro.sim.engine import sampling_plan
from repro.sim.predecode import (
    OP_FETCH,
    DecodedTrace,
    PilotResolution,
    build_decoded,
    build_pilot,
    decoded_for,
    is_default_predictor,
    pilot_for,
    replay_runs,
)
from repro.sim.runner import TraceSpec
from repro.sim.vector import numpy_or_none

_SYSTEM = SystemConfig()

#: The mask every real run uses: the L1i fetch-block selector.
_BLOCK_MASK = ~(_SYSTEM.l1i.block_bytes - 1)

#: A sampled schedule (interval, every, warmup) whose gap after rows
#: [408, 459) resumes at row 510 inside the fetch block of row 458.
_GAP_SCHEDULE = (51, 2, 0)


@pytest.fixture(scope="module")
def trace():
    return TraceSpec("gcc", 5_003).materialize()  # odd length on purpose


def _partition(n, interval):
    boundaries = []
    start = 0
    while start < n:
        stop = min(start + interval, n)
        boundaries.append((start, stop))
        start = stop
    return boundaries


def _assert_segments_match(decoded, rows, boundaries, model):
    """Every decode-row segment's ops and totals equal the model's rows."""
    for start, stop in boundaries:
        ops, branches, mispredicts, memrefs, stores = model.totals(rows[start:stop])
        assert decoded.interval_ops(start, stop) == ops
        assert decoded.branch_prefix[stop] - decoded.branch_prefix[start] == branches
        assert (
            decoded.mispredict_prefix[stop] - decoded.mispredict_prefix[start]
            == mispredicts
        )
        assert decoded.memref_prefix[stop] - decoded.memref_prefix[start] == memrefs
        assert decoded.store_prefix[stop] - decoded.store_prefix[start] == stores


@pytest.mark.parametrize("interval", [997, 1_024, 5_003])
def test_decoded_equals_per_row_model(trace, interval, decode_model):
    decoded = build_decoded(trace, _BLOCK_MASK)
    rows = decode_model.rows(trace, _BLOCK_MASK, [(0, len(trace))])
    assert decoded.n == len(rows) == len(trace)
    _assert_segments_match(decoded, rows, _partition(len(trace), interval), decode_model)


@pytest.mark.parametrize("schedule", [(997, 2, 0), (500, 3, 250), _GAP_SCHEDULE])
def test_sampled_decode_equals_per_row_model(trace, schedule, decode_model):
    """A sampled decode holds only the replayed rows, segment after segment."""
    runs = replay_runs(len(trace), schedule)
    decoded = build_decoded(trace, _BLOCK_MASK, schedule)
    rows = decode_model.rows(trace, _BLOCK_MASK, runs)
    assert decoded.n == len(rows) == sum(stop - start for start, stop in runs) < len(trace)
    assert decoded.schedule == schedule
    position = 0
    boundaries = []
    for start, stop, _ in sampling_plan(len(trace), *schedule):
        boundaries.append((position, position + stop - start))
        position += stop - start
    _assert_segments_match(decoded, rows, boundaries, decode_model)


def test_sampled_decode_restarts_fetch_dedup_after_a_gap(trace, decode_model):
    """The first row after a gap fetches even inside the last replayed row's block."""
    pcs = trace.columns()[0]
    runs = replay_runs(len(trace), _GAP_SCHEDULE)
    (_, before), (after, _) = runs[4], runs[5]
    assert (before, after) == (459, 510)
    assert pcs[before - 1] & _BLOCK_MASK == pcs[after] & _BLOCK_MASK
    decoded = build_decoded(trace, _BLOCK_MASK, _GAP_SCHEDULE)
    row = sum(stop - start for start, stop in runs[:5])
    assert decoded.interval_ops(row, row + 1)[:2] == [OP_FETCH, pcs[after]]
    rows = decode_model.rows(trace, _BLOCK_MASK, runs)
    assert decoded.interval_ops(row - 1, row + 1) == rows[row - 1][0] + rows[row][0]


def _decoded_fields(decoded):
    return (
        decoded.n,
        decoded.block_mask,
        decoded.stream,
        decoded.op_prefix,
        decoded.branch_prefix,
        decoded.mispredict_prefix,
        decoded.memref_prefix,
        decoded.store_prefix,
    )


@pytest.mark.skipif(numpy_or_none() is None, reason="NumPy unavailable")
@pytest.mark.parametrize("schedule", [None, (500, 3, 250), _GAP_SCHEDULE])
def test_numpy_builder_matches_scalar_builder(trace, schedule):
    runs = replay_runs(len(trace), schedule)
    vectorized = predecode._build_numpy(trace, _BLOCK_MASK, numpy_or_none(), runs)
    scalar = predecode._build_scalar(trace, _BLOCK_MASK, runs)
    assert _decoded_fields(vectorized) == _decoded_fields(scalar)


def test_no_numpy_env_pins_scalar_builder(trace, monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert numpy_or_none() is None
    decoded = build_decoded(trace, _BLOCK_MASK)
    assert _decoded_fields(decoded) == _decoded_fields(
        predecode._build_scalar(trace, _BLOCK_MASK)
    )


def test_bytes_round_trip(trace):
    decoded = build_decoded(trace, _BLOCK_MASK)
    rebuilt = DecodedTrace.from_bytes(decoded.to_bytes())
    assert _decoded_fields(rebuilt) == _decoded_fields(decoded)


def test_from_bytes_rejects_foreign_payloads(trace):
    data = bytearray(build_decoded(trace, _BLOCK_MASK).to_bytes())
    data[:4] = b"XXXX"
    with pytest.raises(ValueError):
        DecodedTrace.from_bytes(bytes(data))
    with pytest.raises(ValueError):
        DecodedTrace.from_bytes(b"")


def test_decoded_for_memoizes_per_trace_mask_and_plan(trace):
    trace = TraceSpec("gcc", 3_001).materialize()  # fresh: nothing memoized yet
    predecode.reset_stats()
    first = decoded_for(trace, _BLOCK_MASK)
    # Every exhaustive plan replays every row: one decode, whatever the interval.
    assert decoded_for(trace, _BLOCK_MASK, (997, 1, 0)) is first
    assert decoded_for(trace, _BLOCK_MASK, (1_500, 1, 300)) is first
    snapshot = predecode.stats_snapshot()
    assert snapshot["decode_builds"] == 1
    assert snapshot["decode_memo_hits"] == 2
    # A different mask or a sampled plan is a distinct decode, not a hit.
    other = decoded_for(trace, ~15)
    sampled = decoded_for(trace, _BLOCK_MASK, (500, 3, 250))
    assert len({id(first), id(other), id(sampled)}) == 3
    assert sampled.schedule == (500, 3, 250) and first.schedule is None
    assert decoded_for(trace, _BLOCK_MASK, (500, 3, 250)) is sampled
    assert decoded_for(trace, _BLOCK_MASK, (500, 3, 0)) is not sampled
    assert predecode.stats_snapshot()["decode_builds"] == 4


def test_only_fresh_default_predictors_are_replicated():
    assert is_default_predictor(BimodalBranchPredictor())
    warm = BimodalBranchPredictor()
    warm.predict_and_update(0x1000, True)
    assert not is_default_predictor(warm)
    assert not is_default_predictor(BimodalBranchPredictor(table_entries=1024))

    class OtherPredictor(BimodalBranchPredictor):
        pass

    assert not is_default_predictor(OtherPredictor())


def test_pilot_memoizes_and_refuses_warm_caches(trace):
    predecode.reset_stats()
    decoded = build_decoded(trace, _BLOCK_MASK)
    pilot_cache = Cache(_SYSTEM.l1i, name="l1i")
    first = pilot_for(trace, decoded, "i", pilot_cache)
    assert first is not None
    second = pilot_for(trace, decoded, "i", Cache(_SYSTEM.l1i, name="l1i"))
    assert second is first
    assert predecode.stats_snapshot()["pilot_memo_hits"] == 1
    # A sampled plan's decode has its own pilot.
    sampled = build_decoded(trace, _BLOCK_MASK, (500, 3, 250))
    assert pilot_for(trace, sampled, "i", Cache(_SYSTEM.l1i, name="l1i")) is not first
    assert predecode.stats_snapshot()["pilot_builds"] == 2
    # The memoized resolution is only valid from a cold pilot.
    warm = Cache(_SYSTEM.l1i, name="l1i")
    warm.access_packed(0x40, False)
    assert pilot_for(trace, decoded, "i", warm) is None

    class OtherCache(Cache):
        pass

    assert pilot_for(trace, decoded, "i", OtherCache(_SYSTEM.l1i, name="l1i")) is None


def test_pilot_interval_entries_partition_consistently(trace, decode_model):
    """Sparse pilot segments tile, over any partition, the whole-trace
    reduced stream and its whole-trace miss and writeback totals."""
    decoded = build_decoded(trace, _BLOCK_MASK)
    n = decoded.n
    for side, geometry in (("i", _SYSTEM.l1i), ("d", _SYSTEM.l1d)):
        pilot = build_pilot(decoded, side, geometry, Cache(geometry).replacement, side)
        whole = decode_model.pilot(
            decoded.interval_ops(0, n), side, Cache(geometry, name=side).access_packed
        )
        assert whole[1] > 0 and (whole[2] > 0) == (side == "d")
        for interval in (1, 769, n):
            segments = [
                pilot.segment(decoded, start, stop) for start, stop in _partition(n, interval)
            ]
            assert [op for segment in segments for op in segment[0]] == whole[0]
            assert sum(segment[1] for segment in segments) == whole[1]
            assert sum(segment[2] for segment in segments) == whole[2]


def test_sparse_pilot_footprint_is_o_misses(trace):
    """Every sparse column is an array as long as the miss or dirty-victim
    count, plus at most one — nothing grows with the trace."""
    decoded = build_decoded(trace, _BLOCK_MASK)
    ops = len(decoded.stream) // 2
    for side, geometry in (("i", _SYSTEM.l1i), ("d", _SYSTEM.l1d)):
        pilot = build_pilot(decoded, side, geometry, Cache(geometry).replacement, side)
        misses = len(pilot.op_index)
        assert 0 < misses < ops // 4
        assert len(pilot.other_before) == len(pilot.operands) == misses
        if side == "d":
            assert len(pilot.wb_prefix) == misses + 1
            assert len(pilot.victims) == pilot.wb_prefix[-1]
        else:
            assert pilot.wb_prefix is None and pilot.victims is None
        columns = [getattr(pilot, name) for name in PilotResolution.__slots__[1:]]
        assert all(isinstance(column, array) for column in columns if column is not None)


def test_side_split_columns_partition_the_stream(trace):
    decoded = build_decoded(trace, _BLOCK_MASK)
    pairs = list(zip(decoded.stream[::2], decoded.stream[1::2]))
    fetch_ops = decoded.fetch_ops
    data_ops = decoded.data_ops
    assert isinstance(fetch_ops, array) and isinstance(data_ops, array)
    assert [op for pair in pairs if pair[0] == 0 for op in pair] == fetch_ops.tolist()
    assert [op for pair in pairs if pair[0] != 0 for op in pair] == data_ops.tolist()
    assert decoded.fetch_ops is fetch_ops  # derived once
    # The side columns are not part of the persisted payload.
    assert _decoded_fields(DecodedTrace.from_bytes(decoded.to_bytes())) == _decoded_fields(decoded)


def test_disk_round_trip_counts_disk_hits(trace, tmp_path):
    from repro.sim.runner import set_trace_cache, get_trace_cache

    predecode.reset_stats()
    previous = get_trace_cache()
    set_trace_cache(str(tmp_path / "traces"))
    try:
        for schedule in (None, (500, 3, 250)):
            built = build_decoded(trace, _BLOCK_MASK, schedule)
            predecode._store_to_disk(trace, _BLOCK_MASK, schedule, built)
            loaded = predecode._load_from_disk(trace, _BLOCK_MASK, schedule)
            assert loaded is not None and loaded.schedule == schedule
            assert _decoded_fields(loaded) == _decoded_fields(built)
        assert predecode.stats_snapshot()["decode_disk_hits"] == 2
        # Each plan has its own entry: a schedule never finds another's decode.
        assert predecode._load_from_disk(trace, _BLOCK_MASK, (500, 3, 0)) is None
    finally:
        set_trace_cache(previous)


def test_stream_is_flat_uint64_pairs(trace):
    decoded = build_decoded(trace, _BLOCK_MASK)
    assert isinstance(decoded.stream, array) and decoded.stream.typecode == "Q"
    assert len(decoded.stream) == 2 * decoded.op_prefix[decoded.n]


def test_boxed_stream_is_invisible_to_the_collector(trace):
    decoded = build_decoded(trace, _BLOCK_MASK)
    decoded.interval_ops(0, len(trace))  # boxes the stream
    gc.collect()
    boxed = decoded._ops_tuple
    assert boxed is not None and len(boxed) == len(decoded.stream)
    assert not gc.is_tracked(boxed)


def test_interval_ops_returns_a_fresh_list(trace):
    decoded = build_decoded(trace, _BLOCK_MASK)
    first = decoded.interval_ops(10, 500)
    expected = list(first)
    assert isinstance(first, list) and first
    first[0] = -1
    first.append(-2)
    assert decoded.interval_ops(10, 500) == expected
