"""Property-based equivalence for the vectorized trace pre-decode.

Hypothesis draws applications, trace lengths (odd ones included), fetch
block sizes and interval partitions, and asserts two invariants of
:mod:`repro.sim.predecode`:

* the NumPy builder and the stdlib builder produce bit-identical
  :class:`~repro.sim.predecode.DecodedTrace` payloads (skipped when NumPy
  is not importable — the CI matrix runs both legs);
* the whole-trace decode equals the concatenation of per-interval
  :func:`repro.sim.engine.decode_interval` outputs, ops and totals alike,
  for any partition — the contract that lets engines slice intervals out
  of one precomputed stream;
* every segment rebuilt from the sparse pilot memo equals the live pilot
  resolution of that segment on a fresh cache of the same geometry,
  replacement policy and name, over any partition — including one cut at
  a row without a fetch op, where the other-side counts tie.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.replacement import ReplacementPolicy
from repro.common.config import SystemConfig
from repro.cpu.branch import BimodalBranchPredictor
from repro.sim import predecode
from repro.sim.engine import decode_interval
from repro.sim.ladder import _memo_segments, _resolve_pilot_d, _resolve_pilot_i
from repro.sim.runner import TraceSpec
from repro.sim.vector import numpy_or_none

import pytest

_APPLICATIONS = st.sampled_from(["gcc", "compress", "swim", "vortex"])
_LENGTHS = st.integers(min_value=257, max_value=2_500)
_BLOCK_BYTES = st.sampled_from([16, 32, 64])
_INTERVALS = st.sampled_from([97, 250, 1_024])


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
@given(application=_APPLICATIONS, length=_LENGTHS, block_bytes=_BLOCK_BYTES)
def test_numpy_decode_equals_scalar_decode(application, length, block_bytes):
    trace = TraceSpec(application, length).materialize()
    mask = ~(block_bytes - 1)
    vectorized = predecode._build_numpy(trace, mask, numpy_or_none())
    scalar = predecode._build_scalar(trace, mask)
    assert _fields(vectorized) == _fields(scalar)


@settings(max_examples=25, deadline=None)
@given(
    application=_APPLICATIONS,
    length=_LENGTHS,
    block_bytes=_BLOCK_BYTES,
    interval=_INTERVALS,
)
def test_decode_equals_interval_concatenation(application, length, block_bytes, interval):
    trace = TraceSpec(application, length).materialize()
    mask = ~(block_bytes - 1)
    decoded = predecode.build_decoded(trace, mask)
    assert decoded is not None

    predict = BimodalBranchPredictor().predict_and_update
    pc_col, addr_col, flag_col = trace.columns()
    last_fetch_block = -1
    start = 0
    while start < length:
        stop = min(start + interval, length)
        ops, last_fetch_block, branches, mispredicts, memrefs, stores = (
            decode_interval(
                pc_col[start:stop], flag_col[start:stop], addr_col[start:stop],
                stop - start, mask, last_fetch_block, predict,
            )
        )
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
def test_sparse_pilot_equals_live_resolution(
    application, length, associativity, capacity, replacement, side, data
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

    kernel = Cache(geometry, replacement, name=name).access_packed
    resolve = _resolve_pilot_i if side == "i" else _resolve_pilot_d
    segments = _memo_segments(decoded, plan, side, None, pilot)
    for (start, stop, _), (_, _, reduced, shared, _) in zip(plan, segments):
        assert (reduced, shared) == resolve(decoded.interval_ops(start, stop), kernel)
