"""Property-based equivalence for the vectorized trace pre-decode.

Hypothesis draws applications, trace lengths (odd ones included), fetch
block sizes, interval partitions and sampling schedules, and asserts three
invariants of :mod:`repro.sim.predecode`:

* the NumPy builder and the stdlib builder produce bit-identical
  :class:`~repro.sim.predecode.DecodedTrace` payloads (skipped when NumPy
  is not importable — the CI matrix runs both legs);
* the decode of a plan's replayed rows equals an independent per-row
  model of them (the ``decode_model`` fixture), ops and totals alike, for
  any partition — the contract that lets the replay slice segments out of
  one precomputed stream;
* every segment rebuilt from the sparse pilot memo equals the same
  segment resolved op by op on one fresh cache of the same geometry,
  replacement policy and name, over any partition — including one cut at
  a row without a fetch op, where the other-side counts tie.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.replacement import ReplacementPolicy
from repro.common.config import SystemConfig
from repro.sim import predecode
from repro.sim.ladder import _memo_segments
from repro.sim.runner import TraceSpec
from repro.sim.vector import numpy_or_none

import pytest

_APPLICATIONS = st.sampled_from(["gcc", "compress", "swim", "vortex"])
_LENGTHS = st.integers(min_value=257, max_value=2_500)
_BLOCK_BYTES = st.sampled_from([16, 32, 64])
_INTERVALS = st.sampled_from([97, 250, 1_024])

#: None (exhaustive) or a sampled ``(interval, every, warmup)`` schedule.
_SCHEDULES = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([61, 200, 333]), st.sampled_from([2, 3, 5]),
        st.sampled_from([0, 40, 150]),
    ),
)


def _fields(decoded):
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
@settings(max_examples=25, deadline=None)
@given(
    application=_APPLICATIONS, length=_LENGTHS, block_bytes=_BLOCK_BYTES,
    schedule=_SCHEDULES,
)
def test_numpy_decode_equals_scalar_decode(application, length, block_bytes, schedule):
    trace = TraceSpec(application, length).materialize()
    mask = ~(block_bytes - 1)
    runs = predecode.replay_runs(length, schedule)
    vectorized = predecode._build_numpy(trace, mask, numpy_or_none(), runs)
    scalar = predecode._build_scalar(trace, mask, runs)
    assert _fields(vectorized) == _fields(scalar)


@settings(max_examples=25, deadline=None)
@given(
    application=_APPLICATIONS,
    length=_LENGTHS,
    block_bytes=_BLOCK_BYTES,
    interval=_INTERVALS,
    schedule=_SCHEDULES,
)
def test_decode_equals_per_row_model(
    application, length, block_bytes, interval, schedule, decode_model
):
    trace = TraceSpec(application, length).materialize()
    mask = ~(block_bytes - 1)
    decoded = predecode.build_decoded(trace, mask, schedule)
    rows = decode_model.rows(trace, mask, predecode.replay_runs(length, schedule))
    assert decoded.n == len(rows)

    start = 0
    while start < len(rows):
        stop = min(start + interval, len(rows))
        ops, branches, mispredicts, memrefs, stores = decode_model.totals(rows[start:stop])
        assert decoded.interval_ops(start, stop) == ops
        assert decoded.branch_prefix[stop] - decoded.branch_prefix[start] == branches
        assert (
            decoded.mispredict_prefix[stop] - decoded.mispredict_prefix[start]
            == mispredicts
        )
        assert decoded.memref_prefix[stop] - decoded.memref_prefix[start] == memrefs
        assert decoded.store_prefix[stop] - decoded.store_prefix[start] == stores
        start = stop


_SYSTEM = SystemConfig()
_PILOT_MASK = ~(_SYSTEM.l1i.block_bytes - 1)


@settings(max_examples=40, deadline=None)
@given(
    application=st.sampled_from(["gcc", "compress", "swim", "vortex", "ijpeg", "applu"]),
    length=_LENGTHS,
    associativity=st.sampled_from([1, 2, 4, 8, 16]),
    capacity=st.sampled_from([2_048, 4_096, 32_768]),
    replacement=st.sampled_from(list(ReplacementPolicy)),
    side=st.sampled_from(["i", "d"]),
    data=st.data(),
)
def test_sparse_pilot_equals_per_op_model(
    application, length, associativity, capacity, replacement, side, data, decode_model
):
    trace = TraceSpec(application, length).materialize()
    decoded = predecode.build_decoded(trace, _PILOT_MASK)
    base = _SYSTEM.l1i if side == "i" else _SYSTEM.l1d
    geometry = replace(base, capacity_bytes=capacity, associativity=associativity)
    name = f"l1{side}"
    pilot = predecode.build_pilot(decoded, side, geometry, replacement, name)

    cuts = set(data.draw(st.lists(st.integers(1, length - 1), max_size=6)))
    fetchless = [
        row for row in range(1, length)
        if decoded.op_prefix[row + 1] - decoded.op_prefix[row]
        == decoded.memref_prefix[row + 1] - decoded.memref_prefix[row]
    ]
    if fetchless:
        cuts.add(data.draw(st.sampled_from(fetchless)))
    bounds = [0, *sorted(cuts), length]
    plan = [(start, stop, True) for start, stop in zip(bounds, bounds[1:])]

    access = Cache(geometry, replacement, name=name).access_packed
    segments = _memo_segments(decoded, plan, side, pilot, None)
    for (start, stop, _), (_, _, reduced, shared, _, totals) in zip(plan, segments):
        expected, misses, dirty = decode_model.pilot(
            decoded.interval_ops(start, stop), side, access
        )
        fetches = totals[4]
        assert reduced == expected
        assert shared == ((fetches, misses, 0, 0) if side == "i" else (0, 0, misses, dirty))
