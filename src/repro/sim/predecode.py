"""Configuration-invariant trace pre-decode, memoized per trace and plan.

Every replay needs the same configuration-invariant phase before any cache
is touched: fetch-block-change detection, branch resolution against a
fresh bimodal predictor, and the extraction of the memory-op stream.  A
profiling sweep replays the same trace dozens of times, so this module
computes that phase **once per (trace, block mask, plan)** into flat
buffers and lets every run slice its segments out of the precomputed
stream:

* :class:`DecodedTrace` — the cache-op stream of the rows a plan replays
  (every row for an exhaustive plan; the measured intervals and their
  warmup prefixes for a sampled one, concatenated) plus per-row prefix
  arrays for the branch/mispredict/memory-ref/store totals, so any
  segment of decode rows ``[start, stop)`` yields its ops and totals in
  O(1) slicing.  Built vectorized when NumPy is importable (see
  :mod:`repro.sim.vector`), with a bit-identical stdlib builder otherwise.
* :class:`PilotResolution` — the fused-ladder pilot pre-screen: a fixed
  (non-resizable) L1's hit/miss sequence over the shared op stream depends
  only on its own geometry, so the pilot-reduced stream of
  :mod:`repro.sim.ladder` is itself configuration-invariant and is
  memoized per (trace, plan, side, pilot geometry).  The memo is sparse —
  it holds only the pilot's misses, O(misses): 1.5–107 KB (median 20 KB)
  per pilot over the twelve 60k-instruction application traces, where the
  dense layout it replaced took ~1 MB — and is built by one pass of the
  same inline kernel the dispatch loops run.
  :meth:`PilotResolution.segment` rebuilds any segment's reduced stream
  by splicing those misses into one slice of the decode's variant-side
  ops (:attr:`DecodedTrace.fetch_ops` / :attr:`DecodedTrace.data_ops`,
  split lazily from ``stream`` and never persisted).
* The L2 filter (:func:`l2_filter_for`) — the decode rows whose fetch, or
  whose load or store, first touches each L2 block, found by one pass
  over ``stream`` per (trace, plan, L2 geometry), or None once some L2
  set maps more distinct blocks than it has ways.  Sparse (O(blocks),
  a few KB per trace) and never persisted; the compulsory-miss filter of
  :mod:`repro.sim.ladder` reads each interval's memory traffic from it.

All three memos key off live :class:`~repro.workloads.trace.Trace` objects
(weakly, so traces die normally); :class:`DecodedTrace` additionally
round-trips through the on-disk trace memo
(:meth:`repro.sim.tracecache.TraceCache.put_decoded`) keyed by (trace
digest, block mask, plan, decode version), so worker processes share
decodes across runs and pool restarts.

Plans.  A plan replays *runs* of rows (:func:`replay_runs`): an
exhaustive plan is the single run ``[0, n)``, so its decode and memo key
do not depend on the interval length; a sampled plan's runs are its
measured intervals merged with their warmup prefixes, and its memo key is
the schedule that decides them, ``(interval_instructions, sample_every,
sample_warmup)``.  The fetch-block dedup restarts at every run (the
block before a skipped gap is unknowable), while one predictor replica
and one pilot cache carry across the gaps, as a replay's own predictor
and caches do.

Correctness argument, pinned by ``tests/sim/test_predecode.py`` and the
property suite: the decode of a run equals the concatenation of its
segments' per-row decodes because the decode threads exactly one integer
(the last fetch block) across segment boundaries; branch resolution on a
*replica* fresh predictor is bit-identical because every run constructs a
fresh default predictor and nothing reads the predictor object's own
counters after replay.  :meth:`repro.sim.ladder.LadderEngine.replay_many`
therefore refuses any context whose predictor is not a fresh default
:class:`~repro.cpu.branch.BimodalBranchPredictor`
(:func:`is_default_predictor`).

Op codes (the one copy; :mod:`repro.sim.ladder` imports them)::

    0  fetch   operand = pc
    1  load    operand = data address
    2  store   operand = data address
    3  i-miss  operand = pc                     (pilot-reduced streams only)
    4  d-miss  operands = address, l1_packed    (pilot-reduced streams only)
"""

from __future__ import annotations

import struct
import weakref
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import (
    PACKED_FILLED,
    PACKED_WRITEBACK_SHIFT,
    PACKED_WRITEBACK_VALID,
    Cache,
)
from repro.common.counters import CounterRegistry
from repro.cpu.branch import BimodalBranchPredictor
from repro.sim.engine import sampling_plan
from repro.sim.vector import numpy_or_none
from repro.workloads.trace import FLAG_BRANCH, FLAG_MEM, FLAG_STORE, FLAG_TAKEN, Trace

OP_FETCH = 0
OP_LOAD = 1
OP_STORE = 2
OP_IMISS = 3
OP_DMISS = 4

#: Bumped whenever the decoded layout or semantics change; part of the
#: on-disk memo key, so stale entries are simply never found.
DECODE_VERSION = 1

#: The decode replicates the default predictor build
#: (``Simulator._prepare_run`` always constructs this); a replay driven by
#: anything else is refused (:func:`is_default_predictor`).
_PREDICTOR_TABLE = 4096

#: Row-count ceilings: the prefix arrays are 32-bit ('I'), so
#: :func:`repro.sim.simulator.validate_run` refuses traces of ``MAX_ROWS``
#: rows or more, and the cached boxed-int view trades memory for slice
#: speed only while it stays small.
#: The view is a tuple, not a list: a tuple holding only ints is untracked
#: by the cyclic collector at its first collection, so no later gen-2 pass
#: walks it, while a list would be walked by every one of them.
MAX_ROWS = 1 << 30
_OPS_LIST_MAX_ROWS = 4_000_000

_STATS = CounterRegistry({
    "decode_builds": 0,
    "decode_memo_hits": 0,
    "decode_disk_hits": 0,
    "pilot_builds": 0,
    "pilot_memo_hits": 0,
})

_DECODE_MEMO: "weakref.WeakKeyDictionary[Trace, Dict[tuple, DecodedTrace]]" = (
    weakref.WeakKeyDictionary()
)
_PILOT_MEMO: "weakref.WeakKeyDictionary[Trace, Dict[tuple, PilotResolution]]" = (
    weakref.WeakKeyDictionary()
)
_L2_FILTER_MEMO: "weakref.WeakKeyDictionary[Trace, Dict[tuple, Optional[tuple]]]" = (
    weakref.WeakKeyDictionary()
)

_HEADER = struct.Struct("<4sHqQQ")
_MAGIC = b"RDEC"


def stats_snapshot() -> Dict[str, int]:
    """A copy of the module's memo counters (merged across workers by the runner)."""
    return dict(_STATS)


def reset_stats() -> None:
    """Zero the memo counters (tests only)."""
    for key in _STATS:
        _STATS[key] = 0


class DecodedTrace:
    """The decode of one (trace, block mask, plan): the plan's replayed rows.

    ``n`` counts *decode rows*: the replayed rows of the plan, run after run
    (every trace row for an exhaustive plan).  ``stream`` is the flat
    interleaved ``code, operand`` cache-op stream of those rows and the five
    prefix arrays (length ``n + 1``) give every per-row running total, so
    decode rows ``[start, stop)`` slice as::

        ops      = decoded.interval_ops(start, stop)
        branches = decoded.branch_prefix[stop] - decoded.branch_prefix[start]

    ``op_prefix`` counts op *pairs* (half the flat stream offset).
    ``schedule`` is the sampled plan's memo key (None when exhaustive); it
    is set when the decode is built or loaded and is not persisted — the
    on-disk key carries it.  :attr:`fetch_ops` and
    :attr:`data_ops` split the stream by side (see there); they are derived
    on first use and are not part of the on-disk payload, so
    :data:`DECODE_VERSION` does not cover them.
    """

    __slots__ = (
        "n",
        "block_mask",
        "schedule",
        "stream",
        "op_prefix",
        "branch_prefix",
        "mispredict_prefix",
        "memref_prefix",
        "store_prefix",
        "_ops_tuple",
        "_stream_view",
        "_fetch_ops",
        "_data_ops",
    )

    def __init__(self, n, block_mask, stream, op_prefix, branch_prefix,
                 mispredict_prefix, memref_prefix, store_prefix):
        self.n = n
        self.block_mask = block_mask
        self.schedule: Optional[tuple] = None
        self.stream = stream
        self.op_prefix = op_prefix
        self.branch_prefix = branch_prefix
        self.mispredict_prefix = mispredict_prefix
        self.memref_prefix = memref_prefix
        self.store_prefix = store_prefix
        self._ops_tuple: Optional[Tuple[int, ...]] = None
        self._stream_view = None
        self._fetch_ops: Optional[array] = None
        self._data_ops: Optional[array] = None

    @property
    def fetch_ops(self) -> array:
        """The fetch ops alone, as flat ``code, operand`` pairs in stream order.

        Fetch ``f`` sits at ``[2 * f, 2 * f + 2)``; rows ``[start, stop)``
        own fetches ``op_prefix[start] - memref_prefix[start]`` up to
        ``op_prefix[stop] - memref_prefix[stop]``.  An ``array`` rather
        than a list, so the cyclic collector never traverses it.
        """
        if self._fetch_ops is None:
            self._fetch_ops = _split_stream(self.stream, fetch=True)
        return self._fetch_ops

    @property
    def data_ops(self) -> array:
        """The load/store ops alone, as flat ``code, operand`` pairs.

        Rows ``[start, stop)`` own data ops ``memref_prefix[start]`` to
        ``memref_prefix[stop]``; otherwise as :attr:`fetch_ops`.
        """
        if self._data_ops is None:
            self._data_ops = _split_stream(self.stream, fetch=False)
        return self._data_ops

    def interval_ops(self, start: int, stop: int) -> List[int]:
        """The flat op list for decode rows ``[start, stop)`` (a fresh, mutable list).

        The stream is boxed once into a tuple (see ``_OPS_LIST_MAX_ROWS``);
        each interval is then two C-level pointer copies, the tuple slice
        and the list built from it, instead of per-element int boxing.
        """
        ops_tuple = self._ops_tuple
        if ops_tuple is None:
            if self.n <= _OPS_LIST_MAX_ROWS:
                # Straight from the array: going through ``tolist()`` would
                # hold a second pointer copy at peak (+0.7 MiB on run-all).
                self._ops_tuple = ops_tuple = tuple(self.stream)
            else:
                view = self._stream_view
                if view is None:
                    self._stream_view = view = memoryview(self.stream)
                return view[2 * self.op_prefix[start]:2 * self.op_prefix[stop]].tolist()
        return list(ops_tuple[2 * self.op_prefix[start]:2 * self.op_prefix[stop]])

    def to_bytes(self) -> bytes:
        """Serialize for the on-disk trace memo (native byte order)."""
        parts = [
            _HEADER.pack(_MAGIC, DECODE_VERSION, self.block_mask, self.n, len(self.stream)),
            self.stream.tobytes(),
        ]
        for prefix in (self.op_prefix, self.branch_prefix, self.mispredict_prefix,
                       self.memref_prefix, self.store_prefix):
            parts.append(prefix.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DecodedTrace":
        if len(data) < _HEADER.size:
            raise ValueError("truncated decoded-trace payload")
        magic, version, block_mask, n, stream_len = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC or version != DECODE_VERSION:
            raise ValueError("not a decoded-trace payload of the current version")
        offset = _HEADER.size
        stream = array("Q")
        stream.frombytes(data[offset:offset + 8 * stream_len])
        offset += 8 * stream_len
        prefixes = []
        span = 4 * (n + 1)
        for _ in range(5):
            prefix = array("I")
            prefix.frombytes(data[offset:offset + span])
            offset += span
            prefixes.append(prefix)
        if len(stream) != stream_len or any(len(p) != n + 1 for p in prefixes):
            raise ValueError("truncated decoded-trace payload")
        return cls(n, block_mask, stream, *prefixes)


class PilotResolution:
    """A fixed L1's misses over a decode's rows: the sparse pilot memo.

    The pilot-reduced stream of :mod:`repro.sim.ladder` is the shared op
    stream with every pilot-side hit removed and every pilot-side miss
    rewritten (``OP_IMISS``/``OP_DMISS``), so only the misses need
    keeping.  Every column is an ``array`` with one entry per miss unless
    noted:

    * ``op_index`` — the miss's op index in the decode (its pair position in
      :attr:`DecodedTrace.stream`); interval bounds bisect this column;
    * ``other_before`` — how many other-side ops precede it (data ops for
      side "i", fetch ops for side "d"), i.e. where it splices into
      :attr:`DecodedTrace.data_ops` / :attr:`DecodedTrace.fetch_ops`;
    * ``operands`` — its fetch PC or data address;
    * ``wb_prefix`` (side "d" only, misses + 1 entries) — the running
      dirty-victim count: miss ``j`` evicted a dirty block exactly when
      ``wb_prefix[j + 1] > wb_prefix[j]``;
    * ``victims`` (side "d" only, one per dirty victim) — those blocks'
      block-aligned addresses, in eviction order.

    Segment bounds must bisect ``op_index``, never ``other_before``: a row
    without a fetch op leaves the fetch counts tied across a boundary.
    """

    __slots__ = ("side", "op_index", "other_before", "operands", "wb_prefix", "victims")

    def __init__(self, side, op_index, other_before, operands, wb_prefix, victims):
        self.side = side
        self.op_index = op_index
        self.other_before = other_before
        self.operands = operands
        self.wb_prefix = wb_prefix
        self.victims = victims

    def segment(self, decoded: DecodedTrace, start: int, stop: int):
        """Decode rows ``[start, stop)`` of the pilot-reduced stream.

        The variant-side ops of the rows are one slice of ``decoded``'s
        side-split column; the rows' misses (found by bisecting their op
        indices) splice back in where their other-side count says.
        Returns ``(reduced, misses, dirty_victims)``: the rows' ops with
        every pilot-side hit dropped and every pilot-side miss rewritten
        (``OP_IMISS`` with the PC; ``OP_DMISS`` with the address and the
        pilot's packed outcome, dirty victim included), and the rows' miss
        and dirty-victim counts.
        """
        op_start = decoded.op_prefix[start]
        op_stop = decoded.op_prefix[stop]
        data_start = decoded.memref_prefix[start]
        data_stop = decoded.memref_prefix[stop]
        lo = bisect_left(self.op_index, op_start)
        hi = bisect_left(self.op_index, op_stop, lo)
        other_before = self.other_before
        operands = self.operands
        reduced: List[int] = []
        append = reduced.append
        if self.side == "i":
            others = decoded.data_ops
            position = data_start
            for j in range(lo, hi):
                before = other_before[j]
                if before != position:
                    reduced += others[2 * position:2 * before]
                    position = before
                append(OP_IMISS)
                append(operands[j])
            reduced += others[2 * position:2 * data_stop]
            return reduced, hi - lo, 0

        others = decoded.fetch_ops
        position = op_start - data_start
        wb_prefix = self.wb_prefix
        victims = self.victims
        dirty = PACKED_FILLED | PACKED_WRITEBACK_VALID
        written = wb_prefix[lo]
        for j in range(lo, hi):
            before = other_before[j]
            if before != position:
                reduced += others[2 * position:2 * before]
                position = before
            append(OP_DMISS)
            append(operands[j])
            if wb_prefix[j + 1] != written:
                append(dirty | (victims[written] << PACKED_WRITEBACK_SHIFT))
                written += 1
            else:
                append(PACKED_FILLED)
        reduced += others[2 * position:2 * (op_stop - data_stop)]
        return reduced, hi - lo, written - wb_prefix[lo]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def replay_runs(n: int, schedule: Optional[tuple] = None) -> List[Tuple[int, int]]:
    """The rows a plan replays, as maximal contiguous ``(start, stop)`` runs.

    ``schedule`` is a sampled plan's ``(interval_instructions, sample_every,
    sample_warmup)`` (see :func:`repro.sim.engine.sampling_plan`); None is
    the exhaustive plan, the single run ``[0, n)``.
    """
    if schedule is None:
        return [(0, n)] if n else []
    runs: List[Tuple[int, int]] = []
    for start, stop, _ in sampling_plan(n, *schedule):
        if runs and runs[-1][1] == start:
            runs[-1] = (runs[-1][0], stop)
        else:
            runs.append((start, stop))
    return runs


def build_decoded(trace: Trace, block_mask: int, schedule: Optional[tuple] = None) -> DecodedTrace:
    """Decode the rows ``schedule``'s plan replays (every row when None)."""
    _STATS["decode_builds"] += 1
    runs = replay_runs(len(trace), schedule)
    np = numpy_or_none()
    if np is not None:
        decoded = _build_numpy(trace, block_mask, np, runs)
    else:
        decoded = _build_scalar(trace, block_mask, runs)
    decoded.schedule = schedule
    return decoded


def _build_scalar(trace: Trace, block_mask: int, runs=None) -> DecodedTrace:
    """One pass over the replayed rows, run by run, carrying one predictor replica."""
    pc_column, address_column, flag_column = trace.columns()
    pcs = memoryview(pc_column).tolist()
    flags = memoryview(flag_column).tolist()
    addresses = memoryview(address_column).tolist()
    if runs is None:
        runs = replay_runs(len(pcs))
    n = sum(stop - start for start, stop in runs)

    stream = array("Q")
    append = stream.append
    zeros = bytes(4 * (n + 1))
    op_prefix = array("I", zeros)
    branch_prefix = array("I", zeros)
    mispredict_prefix = array("I", zeros)
    memref_prefix = array("I", zeros)
    store_prefix = array("I", zeros)

    # Inline replica of a fresh default BimodalBranchPredictor: identical
    # indexing, 2-bit saturating update and mispredict rule.
    counters = [BimodalBranchPredictor.WEAK_TAKEN] * _PREDICTOR_TABLE
    pmask = _PREDICTOR_TABLE - 1

    branch_flag, mem_flag = FLAG_BRANCH, FLAG_MEM
    store_flag, taken_flag = FLAG_STORE, FLAG_TAKEN
    op_fetch, op_load, op_store = OP_FETCH, OP_LOAD, OP_STORE
    op_count = 0
    branches = 0
    mispredicts = 0
    memory_refs = 0
    stores = 0
    row = 1
    for run_start, run_stop in runs:
        # Trace row k's running totals land at prefix index k + shift.
        shift = row - run_start
        last_fetch_block = -1
        for k in range(run_start, run_stop):
            pc = pcs[k]
            fetch_block = pc & block_mask
            if fetch_block != last_fetch_block:
                last_fetch_block = fetch_block
                append(op_fetch)
                append(pc)
                op_count += 1
            flag = flags[k]
            if flag:
                if flag & branch_flag:
                    branches += 1
                    index = (pc >> 2) & pmask
                    counter = counters[index]
                    taken = bool(flag & taken_flag)
                    if (counter >= 2) != taken:
                        mispredicts += 1
                    if taken:
                        if counter < 3:
                            counters[index] = counter + 1
                    elif counter > 0:
                        counters[index] = counter - 1
                if flag & mem_flag:
                    if flag & store_flag:
                        stores += 1
                        append(op_store)
                    else:
                        append(op_load)
                    memory_refs += 1
                    append(addresses[k])
                    op_count += 1
            j = k + shift
            op_prefix[j] = op_count
            branch_prefix[j] = branches
            mispredict_prefix[j] = mispredicts
            memref_prefix[j] = memory_refs
            store_prefix[j] = stores
        row += run_stop - run_start

    return DecodedTrace(n, block_mask, stream, op_prefix, branch_prefix,
                        mispredict_prefix, memref_prefix, store_prefix)


def _build_numpy(trace: Trace, block_mask: int, np, runs=None) -> DecodedTrace:
    """Vectorized builder: everything but the (sequential) predictor replica."""
    pc_column, address_column, flag_column = trace.columns()
    pc = np.frombuffer(pc_column, dtype=np.uint64)
    addresses = np.frombuffer(address_column, dtype=np.uint64)
    flags = np.frombuffer(flag_column, dtype=np.uint8)
    if runs is None:
        runs = replay_runs(len(pc))
    run_starts = []
    n = 0
    for start, stop in runs:
        run_starts.append(n)
        n += stop - start
    if n != len(pc):
        # A sampled plan: gather its replayed rows, run after run.
        pc, addresses, flags = (
            np.concatenate([column[start:stop] for start, stop in runs])
            for column in (pc, addresses, flags)
        )

    mask64 = np.uint64(block_mask & 0xFFFFFFFFFFFFFFFF)
    blocks = pc & mask64
    fetch = np.empty(n, dtype=bool)
    np.not_equal(blocks[1:], blocks[:-1], out=fetch[1:])
    fetch[run_starts] = True  # the dedup restarts at every run: last block unknown

    mem = (flags & FLAG_MEM) != 0
    store = mem & ((flags & FLAG_STORE) != 0)
    branch = (flags & FLAG_BRANCH) != 0

    pairs = fetch.astype(np.uint32)
    pairs += mem
    op_prefix_np = np.zeros(n + 1, dtype=np.uint32)
    np.cumsum(pairs, out=op_prefix_np[1:])

    stream_np = np.empty(2 * int(op_prefix_np[n]), dtype=np.uint64)
    base = op_prefix_np[:n].astype(np.int64) * 2
    fetch_at = base[fetch]
    stream_np[fetch_at] = OP_FETCH
    stream_np[fetch_at + 1] = pc[fetch]
    mem_at = (base + 2 * fetch)[mem]
    stream_np[mem_at] = np.where(store[mem], OP_STORE, OP_LOAD)
    stream_np[mem_at + 1] = addresses[mem]

    def running(mask_arr):
        out = np.zeros(n + 1, dtype=np.uint32)
        np.cumsum(mask_arr, out=out[1:])
        return array("I", out.tobytes())

    # Branch resolution is inherently sequential (the table is stateful);
    # run the predictor replica over just the branch rows.
    mispredict_np = np.zeros(n, dtype=np.uint32)
    branch_rows = np.flatnonzero(branch)
    if len(branch_rows):
        counters = [BimodalBranchPredictor.WEAK_TAKEN] * _PREDICTOR_TABLE
        pmask = _PREDICTOR_TABLE - 1
        taken_list = ((flags[branch_rows] & FLAG_TAKEN) != 0).tolist()
        index_list = ((pc[branch_rows] >> np.uint64(2)) & np.uint64(pmask)).tolist()
        mis_list = []
        mis_append = mis_list.append
        for index, taken in zip(index_list, taken_list):
            counter = counters[index]
            mis_append(1 if (counter >= 2) != taken else 0)
            if taken:
                if counter < 3:
                    counters[index] = counter + 1
            elif counter > 0:
                counters[index] = counter - 1
        mispredict_np[branch_rows] = mis_list

    stream = array("Q")
    stream.frombytes(stream_np.tobytes())
    return DecodedTrace(
        n,
        block_mask,
        stream,
        array("I", op_prefix_np.tobytes()),
        running(branch),
        running(mispredict_np),
        running(mem),
        running(store),
    )


def _split_stream(stream: array, fetch: bool) -> array:
    """The fetch (or the load/store) pairs of a flat op stream, in order.

    Runs once per decode and side (~4 ms per 60k-instruction trace), so it
    has no vectorized twin.
    """
    side = array("Q")
    append = side.append
    ops = iter(stream)
    for code in ops:
        operand = next(ops)
        if (code == OP_FETCH) == fetch:
            append(code)
            append(operand)
    return side


def build_pilot(
    decoded: DecodedTrace, side: str, geometry, replacement, name: str
) -> PilotResolution:
    """Resolve the invariant L1 side over the whole decoded stream.

    Drives a throwaway fixed cache with the pilot's exact geometry,
    replacement policy and name (the name seeds RANDOM victim selection),
    which by construction behaves identically to the rung's own fixed L1
    driven over the same ops, across a sampled plan's gaps included.  The cache's
    access kernel runs inline over its hoisted :meth:`Cache._kernel_state`
    — statement for statement :meth:`Cache.access_packed`, refresh flag
    and RANDOM selector included, minus the throwaway cache's own stats —
    and only the misses are recorded.
    """
    _STATS["pilot_builds"] += 1
    pilot = Cache(geometry, replacement, name=name)
    _, sets, off, idx, mask, ways, refresh, random, selector = pilot._kernel_state()
    shift1 = off + 1
    op_index = array("I")
    other_before = array("I")
    operands = array("Q")
    miss_at = op_index.append
    others_at = other_before.append
    operand_at = operands.append
    ops = iter(decoded.stream)
    fetches = 0
    data = 0
    if side == "i":
        for code in ops:
            operand = next(ops)
            if code != OP_FETCH:
                data += 1
                continue
            block = operand >> off
            tag = block >> idx
            blocks = sets[block & mask]
            packed = blocks.get(tag)
            if packed is not None:
                if refresh:
                    del blocks[tag]
                    blocks[tag] = packed
            else:
                # Fetches never dirty a block, so no victim is written back.
                if len(blocks) >= ways:
                    del blocks[selector.choose_victim(blocks) if random else next(iter(blocks))]
                blocks[tag] = block << shift1
                miss_at(fetches + data)
                others_at(data)
                operand_at(operand)
            fetches += 1
        return PilotResolution(side, op_index, other_before, operands, None, None)

    wb_prefix = array("I", [0])
    victims = array("Q")
    written_at = wb_prefix.append
    victim_at = victims.append
    writebacks = 0
    op_load = OP_LOAD
    for code in ops:
        operand = next(ops)
        if code == OP_FETCH:
            fetches += 1
            continue
        is_write = code != op_load
        block = operand >> off
        tag = block >> idx
        blocks = sets[block & mask]
        packed = blocks.get(tag)
        if packed is not None:
            if is_write:
                packed |= 1
                if refresh:
                    del blocks[tag]
                blocks[tag] = packed
            elif refresh:
                del blocks[tag]
                blocks[tag] = packed
        else:
            victim = None
            if len(blocks) >= ways:
                victim_tag = selector.choose_victim(blocks) if random else next(iter(blocks))
                victim = blocks.pop(victim_tag)
            blocks[tag] = (block << shift1) | is_write
            miss_at(fetches + data)
            others_at(fetches)
            operand_at(operand)
            if victim is not None and victim & 1:
                writebacks += 1
                victim_at(victim >> 1)
            written_at(writebacks)
        data += 1
    return PilotResolution(side, op_index, other_before, operands, wb_prefix, victims)


def build_l2_filter(decoded: DecodedTrace, l2_geometry) -> Optional[Tuple[array, array]]:
    """The decode's first touch of every L2 block, or None if an L2 set overflows.

    One pass over ``decoded.stream``.  Returns None as soon as some L2 set
    maps more distinct blocks than the L2 has ways; otherwise the sorted
    decode rows of the first touches by a fetch and by a load or store.
    """
    off = l2_geometry.block_bytes.bit_length() - 1
    mask = l2_geometry.num_sets - 1
    ways = l2_geometry.associativity
    op_prefix = decoded.op_prefix
    stream = decoded.stream
    seen = set()
    filled = [0] * (mask + 1)
    rows = (array("I"), array("I"))
    for index, address in enumerate(stream[1::2]):
        block = address >> off
        if block not in seen:
            seen.add(block)
            filled[block & mask] += 1
            if filled[block & mask] > ways:
                return None  # this set would evict
            rows[stream[2 * index] != OP_FETCH].append(bisect_right(op_prefix, index) - 1)
    return rows


# ---------------------------------------------------------------------------
# Memoized entry points
# ---------------------------------------------------------------------------


def is_default_predictor(predictor) -> bool:
    """Whether ``predictor`` is the fresh default one the decode replicates."""
    return (
        type(predictor) is BimodalBranchPredictor
        and predictor.table_entries == _PREDICTOR_TABLE
        and predictor.predictions == 0
    )


def decoded_for(trace: Trace, block_mask: int, schedule: Optional[tuple] = None) -> DecodedTrace:
    """The memoized decode of the rows a run's plan replays.

    ``schedule`` is the run's ``(interval_instructions, sample_every,
    sample_warmup)``; an exhaustive one (``sample_every`` 1) and None name
    the same decode, every row of the trace, whatever the interval length.
    Checks the in-memory weak memo, then the on-disk trace memo, then
    builds.  The branch totals are those of a fresh default predictor
    (see :func:`is_default_predictor`).
    """
    if schedule is not None and schedule[1] <= 1:
        schedule = None
    key = (block_mask, schedule)
    per_trace = _DECODE_MEMO.setdefault(trace, {})
    decoded = per_trace.get(key)
    if decoded is not None:
        _STATS["decode_memo_hits"] += 1
        return decoded
    decoded = _load_from_disk(trace, block_mask, schedule)
    if decoded is None:
        decoded = build_decoded(trace, block_mask, schedule)
        _store_to_disk(trace, block_mask, schedule, decoded)
    per_trace[key] = decoded
    return decoded


def pilot_for(trace: Trace, decoded: DecodedTrace, side: str, cache) -> Optional[PilotResolution]:
    """The memoized pilot pre-screen, or None when the pilot is unsupported.

    ``cache`` is rung 0's fixed L1.  It must be exactly a fresh
    :class:`~repro.cache.cache.Cache` — the memoized resolution is only
    valid from a cold pilot, and any subclass could change the access
    semantics.  The memo is keyed by ``decoded``'s plan too, since the
    pilot's misses depend on the rows replayed.  ``cache`` itself is never
    driven (the fused-ladder caveat of idle invariant-side caches).
    """
    if type(cache) is not Cache or cache.stats.accesses != 0:
        return None
    key = (
        side, decoded.block_mask, decoded.schedule, cache.geometry, cache.replacement, cache.name
    )
    per_trace = _PILOT_MEMO.setdefault(trace, {})
    pilot = per_trace.get(key)
    if pilot is not None:
        _STATS["pilot_memo_hits"] += 1
        return pilot
    pilot = per_trace[key] = build_pilot(
        decoded, side, cache.geometry, cache.replacement, cache.name
    )
    return pilot


def l2_filter_for(
    trace: Trace, decoded: DecodedTrace, l2_geometry
) -> Optional[Tuple[array, array]]:
    """The memoized :func:`build_l2_filter` of ``decoded`` for one L2 geometry.

    Keyed like :func:`pilot_for`, refusals (None) included; in memory only.
    """
    key = (
        decoded.block_mask, decoded.schedule,
        l2_geometry.block_bytes, l2_geometry.num_sets, l2_geometry.associativity,
    )
    per_trace = _L2_FILTER_MEMO.setdefault(trace, {})
    if key not in per_trace:
        per_trace[key] = build_l2_filter(decoded, l2_geometry)
    return per_trace[key]


def _load_from_disk(trace: Trace, block_mask: int, schedule) -> Optional[DecodedTrace]:
    # The trace cache verifies a checksum around every ``.decode`` entry
    # and self-heals corrupt ones into misses; the blanket except below is
    # the last-resort guard (a checksum-valid payload from a buggy writer),
    # and a miss here simply rebuilds the decode.
    try:
        from repro.sim.runner import _trace_digest, get_trace_cache

        cache = get_trace_cache()
        if cache is None:
            return None
        data = cache.get_decoded(_trace_digest(trace), block_mask, schedule)
        if data is None:
            return None
        decoded = DecodedTrace.from_bytes(data)
        rows = sum(stop - start for start, stop in replay_runs(len(trace), schedule))
        if decoded.n != rows or decoded.block_mask != block_mask:
            return None
        decoded.schedule = schedule
        _STATS["decode_disk_hits"] += 1
        return decoded
    except Exception:
        return None


def _store_to_disk(trace: Trace, block_mask: int, schedule, decoded: DecodedTrace) -> None:
    try:
        from repro.sim.runner import _trace_digest, get_trace_cache

        cache = get_trace_cache()
        if cache is not None:
            cache.put_decoded(_trace_digest(trace), block_mask, decoded.to_bytes(), schedule)
    except Exception:
        pass
