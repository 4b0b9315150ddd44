"""Fused multi-configuration ladder replay — the one replay walk.

The paper extracts static sizes and the dynamic framework's miss/size
bounds "offline through profiling", so every figure multiplies replay cost
by the organization's whole resizing ladder: K configurations of the same
L1 against the *same trace*.  Replaying the ladder as K independent
simulations decodes the op stream, models the branches and walks the
intervals K times to feed K cache kernels — all of it redundant, because
none of that work depends on cache configuration.

One replay path
---------------
:class:`LadderEngine` replays one trace through K
:class:`~repro.sim.engine.ReplayContext` objects in a single pass, and it
is also how a single run replays: the default
:class:`~repro.sim.engine.ColumnarEngine` is ``replay_many(trace, [ctx])``,
a one-rung ladder.  :class:`~repro.sim.engine.ReferenceEngine` stays
separate as the executable specification every result is checked against.

The walk (:func:`_walk`) consumes one *segment source*,
:func:`_memo_segments`: a sequence of ``(rows, measured, stream, shared,
totals)`` segments, one per entry of the run's sampling plan (an
exhaustive run is the contiguous, all-measured plan).  Each segment's op
stream and totals are an O(1) slice of the memoized decode of the rows
the plan replays (:func:`repro.sim.predecode.decoded_for`), and, with a
memoized pilot pre-screen in hand, so is the pilot-reduced stream.

Per segment the walk hands the shared stream to every *unit* — one rung
through the dispatch kernel, several rungs of one geometry sharing one
kernel pass, or a stack group (below) — then adds each unit's deltas to
its rungs' interval counts and closes (measured, full interval) or
discards (warmup) each rung's interval, so timing/energy aggregation, warmup accounting and per-rung
resizing decisions run exactly as they would standalone
(:meth:`ReplayContext.close_interval` is shared by construction).  The
partial final chunk, ``total_seen`` threading and close/discard order
exist once.

The branch predictor is run once, by the decode, on a replica of the
fresh default predictor: every standalone run starts from an identical
fresh predictor and the predictor shares no state with the caches, so
each rung's per-interval mispredict totals are identical to its
standalone run's by construction.  The same argument covers the
fetch-block dedup state.  :meth:`LadderEngine.replay_many` refuses a
context whose predictor is anything else.

**Modes: the pilot wherever its work is shared.**  A profiling ladder
resizes exactly one L1; the other is the full-size fixed cache in every
rung, as in every baseline, static and dynamic run.  A fixed L1's hit/miss
(and dirty-victim) sequence depends only on its own access stream, so it
is *identical across rungs* and across runs of one trace.  The pass drives
the first context's copy of that cache (the "pilot") once per op and
shares the outcome:

* an L1 *hit* touches no per-rung state (cycles come from the interval
  counts), so the op leaves the per-rung stream for a shared count;
* an L1 *miss* stays in the stream, pre-resolved (a data-side miss carries
  the pilot's packed outcome with its victim-writeback bit), and each rung
  performs only its own L2/memory fill.

The mode follows from the rungs, never from an option: a pass pilots
when the pilot memo below supplies one.  It pilots the L1d whenever every
rung fixes it, for any K, so a baseline or i-side single run reuses the
pilot its trace's i-cache ladders built.  With both sides fixed the L1d
wins because the reduced stream keeps the shorter column: a 60k decode
has 1.6–2.2x more data ops than fetch ops.  It pilots the L1i from K = 2
(one rung gains only 6–9% from it, and the fused ladder's lead over K
single runs fell below 1.5x when single runs took it).  Sampled plans
follow the same rule over their own decode and pilot memos.  The
remaining single runs, rungs resizing both sides and pilots the memo
refuses (a warm or non-stock fixed L1) take the general mode: each rung
dispatches the full shared stream.  With warm memos single 60k-instruction runs
(best of 9 paired runs, mean over gcc, swim and vortex) took 22.7 →
12.3 ms with both L1s fixed and 26.6 → 14.9 ms for a static i-side run;
a never-seen trace's pilot build made them 1.2x.

Everything configuration-*dependent* — cache contents, resize decisions,
flush writebacks, energy, cycles — stays in per-rung state, which is why
every rung's :class:`~repro.sim.results.SimulationResult` is
**bit-identical** to a standalone run of the reference engine (enforced by
``tests/sim/test_ladder.py``, ``tests/properties/test_property_ladder.py``
and the engine-equivalence suites).

One caveat: in a pilot mode no rung's invariant-side cache *object* is
ever driven — the pilot is the memoized pre-screen
(:func:`repro.sim.predecode.pilot_for`, valid from a fresh fixed L1) — so
their internal hit/miss counters stay zero.  Nothing in result assembly
reads them — interval accounting works entirely off
:class:`~repro.metrics.counts.IntervalCounts` — but introspecting
``hierarchy.miss_ratios()`` after a piloted replay, a single run's
included, would show an idle invariant side.  The memo is sparse — only
the pilot's misses, built once per (trace, plan, side, pilot geometry) by
the inline cache kernel — and each segment's reduced stream is rebuilt
from it (:meth:`~repro.sim.predecode.PilotResolution.segment`): one slice
of the decode's side-split op column (the variant side's ops,
:attr:`~repro.sim.predecode.DecodedTrace.fetch_ops` or ``data_ops``) with
the segment's misses spliced back in, exactly the ops the fixed L1 would
have missed on.

The same caveat covers the L2, memory and write-back buffer of every rung
of an L2-filtered pass (the compulsory-miss filter below): no replay
drives them.  Only resize flushes
(:meth:`~repro.cache.hierarchy.CacheHierarchy.absorb_l1_writebacks`)
still write into that idle L2, and their one effect on results,
``counts.l2_accesses``, is the flush count whether they hit or not.

**One dispatch kernel.**  Every mode replays its rungs through
:func:`dispatch_cache_ops_fast`; a mode only decides which ops the stream
carries.  The kernel takes the whole op alphabet — fetch, load and store
from the decode, ``OP_IMISS`` / ``OP_DMISS`` from a pilot — and one
``shared`` shape, the pilot's
``(fetches, i_misses, d_misses, d_writebacks)`` (all zeros in the general
mode).  L1 hits run inline against hoisted kernel state; every miss falls
through to one inline tail (L2 read fill, then a dirty L1d victim's
write-back buffer push and L2 write-allocate).  That tail is the stock
hierarchy's miss path, an LRU :class:`~repro.cache.cache.Cache` L2 over
:class:`~repro.mem.main_memory.MainMemory`, the only hierarchy
:meth:`Simulator._prepare_run` builds; :meth:`LadderEngine.replay_many`
checks it once per pass and raises :class:`SimulationError` for any other.

**Stack-distance tier for static LRU rungs.**  Profiling ladders are
mostly *static* rungs — a resizable L1 pinned to one (sets, ways)
configuration for the whole run — and static rungs under LRU need not be
simulated one by one.  In a pilot-mode pass the variant-side rungs whose
cache is a cold
:class:`~repro.cache.cache.Cache` or
:class:`~repro.resizing.resizable_cache.ResizableCache` with LRU
replacement, a static (or no) strategy and a cold L2 are grouped by
their enabled set count.  Every group with at least two distinct way
counts is replayed by one per-set LRU stack pass (Mattson et al., IBM
Systems Journal 1970) over the pilot-reduced stream, with each set's
stack capped at the group's largest way count.  The pass is exact:

* *Inclusion.*  At a fixed set count every access maps to the same set in
  every rung, and an A-way LRU set holds exactly the A most recently used
  blocks of that set — the top A entries of its stack.  So an A-way rung
  hits if and only if the access's stack distance is less than A.
* *Victims.*  On an A-way miss the block leaving the rung's set is its
  least recently used one: the stack entry at depth A−1, provided the
  set's stack holds at least A entries (otherwise the set was not full
  and nothing is evicted).  Entries below the cap are in no rung's set,
  so dropping them loses nothing.
* *Dirty victims.*  A block is dirty in an A-way rung when it was written
  since its last A-miss fill.  Each stack entry keeps a threshold t: a
  write sets t = 0 (the block is resident and dirty in every rung); a read
  found at depth d sets t = max(t, d) (rungs with A ≤ d missed and
  refilled it clean, the others hit and kept their state); a cold read
  sets t = ∞.  The entry is dirty in an A-way rung if and only if t < A,
  so the victim at depth A−1 is written back exactly when its t < A.

Each geometry in the group then drives only its own ordered stream — its
misses, its dirty victims and the shared invariant-side misses — through
an inline L2, write-back buffer and memory loop (:func:`_drive_misses`,
the same statements as the dispatch kernel's miss tail, over one stream
word per miss).  That is exact because a rung's L2, buffer and memory
state depend on nothing but that stream.  Rungs with an identical enabled
geometry are simulated once: their streams are identical, so one
representative's L2 is driven and every rung of the geometry receives
the same per-interval counts, then closes its own interval (energy
depends on the organization, so each rung keeps its own accountant).  A
set-count group with a single way count skips the stack pass — alone it
costs more than the dispatch kernel — but its duplicate geometries are
still shared.  The tier leaves the rungs' variant L1 objects (and the L2
of every rung that is not a representative) idle, like the invariant-side
caches above: results never read them.

Everything else replays each rung through the dispatch kernel, selected
from properties of the rungs, never from an option: dynamic rungs, FIFO
and RANDOM L1 replacement and the general mode.
:func:`stats_snapshot` counts which tier served each rung of every
:func:`run_fused` pass (``ladder_stack_rungs``, ``ladder_shared_rungs``,
``ladder_fallback_rungs``) plus ``ladder_passes``,
``ladder_l2_filtered_passes`` and ``ladder_stack_groups``; the runner
merges them into ``--stats``.  Single runs are not ladder passes and are
not counted.

Compulsory-miss filter
----------------------
The paper resizes only the L1s; its L2 is fixed, and no paper trace maps
more than ``ways`` distinct blocks to one L2 set.  A cold LRU L2 that
never sees more never evicts, so it has only compulsory misses (Hill &
Smith, IEEE ToC 1989): an L2 access misses exactly when it is the
trace's first touch of its block.  Since every L1 fill reads through the
L2 and an L1 block lies inside one L2 block, that first touch is always
an L1 miss, in every rung (multilevel inclusion, Baer & Wang, ISCA 1988),
and a dirty L1 victim's write-allocate always hits a block its own fill
brought in.  So a rung's memory traffic per interval is the interval's
first touches, by a fetch (``l1i_memory``) or by a load or store
(``l1d_memory``), whatever its L1 does, and ``l2_accesses`` stays reads
+ writes.  :meth:`LadderEngine.replay_many` checks the gate once per
pass: every rung has the first rung's L2 geometry and a cold L2, both L1
block sizes are at most the L2's, and
:func:`~repro.sim.predecode.l2_filter_for` returns a first-touch index
for the decode (None once some set overflows).  A filtered pass skips
the dispatch kernel's miss tail (one branch per miss) and the stack
tier's :func:`_drive_misses`; each segment's counts come from bisecting
the index.  Sampled plans qualify too: the decode holds exactly the
rows the plan replays.  Refused passes (an external trace with a large
footprint, a longer trace, a smaller L2) simulate the L2 through the
miss tail and :func:`_drive_misses`.  The index is one pass per (trace,
plan, L2 geometry), about 5 ms for a 60k-instruction decode, which the
first replay of a trace pays.

Amortization: K standalone runs cost ``K × (slice + decode + predict +
full dispatch + close)``; the fused pass costs ``slice + decode + predict
+ pilot + K × (reduced dispatch + close)``.  The shared side is roughly
the price of one replay, so the win grows with K (the job layer fuses
only the rungs the job cache cannot already serve — see
:meth:`repro.sim.runner.SweepRunner.submit_ladder`).

:func:`run_fused` is the entry point for ladders: it builds one context
per ``(d_setup, i_setup)`` pair off a configured
:class:`~repro.sim.simulator.Simulator` and finalizes each into its
result.  :class:`LadderEngine` is deliberately *not* a registered
:class:`~repro.sim.engine.ReplayEngine` — it replays many contexts at
once.  The ``--engine`` flag picks how job-layer ladders run: under the
default ``columnar`` engine they fuse; any other engine replays each rung
as its own ``Simulator.run`` (:func:`repro.sim.runner.execute_ladder_job`).
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.cache import PACKED_WRITEBACK_SHIFT, PACKED_WRITEBACK_VALID, Cache
from repro.cache.replacement import ReplacementPolicy
from repro.common.counters import CounterRegistry
from repro.common.errors import SimulationError
from repro.resizing.resizable_cache import ResizableCache
from repro.resizing.static_strategy import StaticResizing
from repro.resizing.strategy import NoResizing
from repro.sim.predecode import (
    OP_FETCH,
    OP_IMISS,
    OP_LOAD,
    OP_STORE,
    decoded_for,
    is_default_predictor,
    l2_filter_for,
    pilot_for,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import L1Setup, ReplayContext, Simulator, validate_run
from repro.workloads.trace import Trace

#: Cache types whose LRU behaviour the stack tier reproduces exactly, and
#: the strategies that never resize after the initial configuration.
_STACK_CACHES = (Cache, ResizableCache)
_STATIC_STRATEGIES = (StaticResizing, NoResizing)

#: Dirty threshold of a stack entry that is clean in every rung (see the
#: module docstring: dirty in an A-way rung iff threshold < A).
_NEVER_DIRTY = 1 << 62

#: The ``shared`` counts of the general mode: nothing was pre-resolved.
_NOTHING_SHARED = (0, 0, 0, 0)

#: Per-process tier counters (merged across workers by the runner): fused
#: passes, those that took the L2 filter, stack groups, and each rung under
#: the one tier that served it.
TIER_COUNTERS = (
    "ladder_passes",
    "ladder_l2_filtered_passes",
    "ladder_stack_groups",
    "ladder_stack_rungs",
    "ladder_shared_rungs",
    "ladder_fallback_rungs",
)
_STATS = CounterRegistry(dict.fromkeys(TIER_COUNTERS, 0))


def stats_snapshot() -> Dict[str, int]:
    """A copy of the module's tier counters (merged across workers by the runner)."""
    return dict(_STATS)


class LadderEngine:
    """Replays one trace through K replay contexts in a single decode pass."""

    def replay_many(self, trace: Trace, contexts: Sequence[ReplayContext]) -> Dict[str, int]:
        """Replay ``trace`` through every context from one memoized decode.

        All contexts must share the interval length, fetch-block geometry
        and sampling schedule (they do when built from one simulator, as
        :func:`run_fused` does); per-context cache/strategy state is free
        to diverge — that is the point.  Each context's hierarchy must be
        the stock one whose miss path the dispatch kernel inlines: an LRU
        :class:`~repro.cache.cache.Cache` L2 over stock main memory; and
        each predictor the fresh default one the decode replicates.
        Returns the pass's tier tally (every :data:`TIER_COUNTERS` entry
        but ``ladder_passes``; ``ladder_l2_filtered_passes`` is 1 when the
        pass took the compulsory-miss filter), which :func:`run_fused` adds
        to the module counters.
        """
        tally = dict.fromkeys(TIER_COUNTERS[1:], 0)
        if not contexts:
            return tally
        first = contexts[0]
        l2_geometry = first.hierarchy.l2.geometry
        filterable = True
        for ctx in contexts:
            hierarchy = ctx.hierarchy
            l2 = hierarchy.l2
            if (
                type(l2) is not Cache
                or l2.replacement is not ReplacementPolicy.LRU
                or hierarchy._memory_state() is None
            ):
                raise SimulationError(
                    "fused ladder replay requires the stock hierarchy: an LRU "
                    "Cache L2 over MainMemory"
                )
            if not is_default_predictor(ctx.predictor):
                raise SimulationError(
                    "fused ladder replay requires a fresh default branch predictor "
                    "in every rung: the memoized decode replicates it"
                )
            if (
                ctx.interval_instructions != first.interval_instructions
                or ctx.block_mask != first.block_mask
            ):
                raise SimulationError(
                    "fused ladder replay requires every rung to share the interval "
                    "length and fetch-block geometry"
                )
            if (
                ctx.sample_every != first.sample_every
                or ctx.sample_warmup != first.sample_warmup
            ):
                raise SimulationError(
                    "fused ladder replay requires every rung to share the "
                    "sampling schedule (sample_every/sample_warmup)"
                )
            filterable = filterable and (
                l2.geometry == l2_geometry and not l2.stats.accesses
                and max(hierarchy.l1i.geometry.block_bytes,
                        hierarchy.l1d.geometry.block_bytes) <= l2_geometry.block_bytes
            )
        interval_instructions = first.interval_instructions
        decoded = decoded_for(
            trace, first.block_mask,
            (interval_instructions, first.sample_every, first.sample_warmup),
        )
        # Pilot an L1 side that is fixed in every rung when the memo
        # supplies one (see the module docstring): an i-cache ladder pilots
        # the L1d, and so do rungs with both sides fixed; a d-cache ladder
        # pilots the L1i only from two rungs up.  Everything else takes the
        # general mode — the full shared stream per rung.
        hierarchy = first.hierarchy
        side = pilot_res = None
        if all(not ctx.d_runtime.is_resizable for ctx in contexts):
            side, pilot_res = "d", pilot_for(trace, decoded, "d", hierarchy.l1d)
        elif len(contexts) > 1 and all(not ctx.i_runtime.is_resizable for ctx in contexts):
            side, pilot_res = "i", pilot_for(trace, decoded, "i", hierarchy.l1i)
        if pilot_res is None:
            side = None
        units = _plan_units(contexts, side)
        for unit in units:
            unit.count(tally)
        l2_filter = l2_filter_for(trace, decoded, l2_geometry) if filterable else None
        tally["ladder_l2_filtered_passes"] = int(l2_filter is not None)
        segments = _memo_segments(
            decoded, first.sampling_plan(len(trace)), side, pilot_res, l2_filter
        )
        _walk(units, segments, interval_instructions)
        return tally


def _memo_segments(decoded, plan, side, pilot_res, l2_filter):
    """The plan's segments, sliced from the memoized decode of its rows.

    The decode holds only the rows the plan replays, in plan order, so
    each segment maps to the next ``stop - start`` decode rows.  Totals
    come from the decode's per-row prefix arrays and the op stream is an
    O(1) slice; with a pilot resolution in hand the reduced stream is
    rebuilt from the sparse memo
    (:meth:`~repro.sim.predecode.PilotResolution.segment`) instead.  With
    an L2 filter in hand each segment also carries its ``(i_first,
    d_first)`` first-touch counts (None without one).
    """
    op_prefix = decoded.op_prefix
    branch_prefix = decoded.branch_prefix
    mispredict_prefix = decoded.mispredict_prefix
    memref_prefix = decoded.memref_prefix
    store_prefix = decoded.store_prefix
    stop = 0
    for segment_start, segment_stop, measured in plan:
        start = stop
        stop = start + segment_stop - segment_start
        memory_refs = memref_prefix[stop] - memref_prefix[start]
        fetches = (op_prefix[stop] - op_prefix[start]) - memory_refs
        if pilot_res is None:
            reduced, shared = decoded.interval_ops(start, stop), _NOTHING_SHARED
        else:
            reduced, misses, writebacks = pilot_res.segment(decoded, start, stop)
            shared = (fetches, misses, 0, 0) if side == "i" else (0, 0, misses, writebacks)
        first = None if l2_filter is None else tuple(
            bisect_left(rows, stop) - bisect_left(rows, start) for rows in l2_filter
        )
        yield stop - start, measured, reduced, shared, first, (
            branch_prefix[stop] - branch_prefix[start],
            mispredict_prefix[stop] - mispredict_prefix[start],
            memory_refs,
            store_prefix[stop] - store_prefix[start],
            fetches,
        )


def _walk(units, segments, interval_instructions) -> None:
    """The one interval walk: every unit per segment, then each rung's close.

    A measured segment of a full interval closes each rung's interval, a
    warmup segment discards it, and a shorter measured segment (the final
    partial chunk) stays open for the final close.
    """
    total_seen = 0
    for chunk, measured, reduced, shared, first, totals in segments:
        branches, branch_mispredicts, memory_refs, stores, fetches = totals
        total_seen += chunk
        close = measured and chunk == interval_instructions
        for unit in units:
            for members, deltas in unit.replay(reduced, shared, fetches, first):
                (
                    l1i_accesses, l1i_misses, l1i_memory, l1d_misses,
                    l1d_memory, l1d_writebacks, l2_accesses, memory_accesses,
                ) = deltas
                for ctx in members:
                    counts = ctx.counts
                    counts.instructions += chunk
                    counts.branches += branches
                    counts.branch_mispredicts += branch_mispredicts
                    counts.l1d_accesses += memory_refs
                    counts.l1d_stores += stores
                    counts.l1i_accesses += l1i_accesses
                    counts.l1i_misses += l1i_misses
                    counts.l1i_memory_accesses += l1i_memory
                    counts.l1d_misses += l1d_misses
                    counts.l1d_memory_accesses += l1d_memory
                    counts.l1d_writebacks += l1d_writebacks
                    counts.l2_accesses += l2_accesses
                    counts.memory_accesses += memory_accesses
                    if close:
                        ctx.total_seen = total_seen
                        ctx.close_interval()
                    elif not measured:
                        ctx.discard_interval()

    for unit in units:
        for ctx in unit.contexts():
            ctx.total_seen = total_seen
            ctx.close_interval(final=True)


# ---------------------------------------------------------------------------
# The stack-distance tier (static LRU rungs; see the module docstring)
# ---------------------------------------------------------------------------


def _stack_key(ctx, side):
    """A rung's ``(set-count group, ways)`` key, or None when it must fall back.

    Only the rung's own properties decide: its variant-side cache must be
    a cold stock cache under LRU whose configuration never changes, over
    a cold L2 (:meth:`LadderEngine.replay_many` has already checked that
    the hierarchy is the stock one).  The group part names everything the
    rung's miss stream and L2 behaviour depend on besides the way count.
    """
    runtime = ctx.d_runtime if side == "i" else ctx.i_runtime
    cache = runtime.cache
    hierarchy = ctx.hierarchy
    strategy = runtime.strategy
    if (
        type(cache) not in _STACK_CACHES
        or hierarchy.l2.stats.accesses
        or not (strategy is None or type(strategy) in _STATIC_STRATEGIES)
    ):
        return None
    stats, set_blocks, off, idx, mask, ways = cache._kernel_state()[:6]
    if cache.replacement is not ReplacementPolicy.LRU or stats.accesses or any(set_blocks):
        return None
    return (hierarchy.config, hierarchy.l2.geometry, off, idx, mask), ways


def _plan_units(contexts, side):
    """Group a ladder's rungs into the units the walk replays.

    In the general mode (``side`` None) every rung is its own
    :class:`_KernelUnit`.  In a pilot mode, eligible rungs (see
    :func:`_stack_key`) are grouped by set count: a group with at least two
    distinct way counts becomes one :class:`_StackGroup`; a group with one
    way count runs the dispatch kernel once for all its rungs
    (:class:`_KernelUnit`).  Ineligible rungs each get their own unit.
    """
    if side is None:
        return [_KernelUnit([ctx]) for ctx in contexts]
    units = []
    groups: Dict[tuple, Dict[int, list]] = {}
    for ctx in contexts:
        key = _stack_key(ctx, side)
        if key is None:
            units.append(_KernelUnit([ctx]))
        else:
            group, ways = key
            groups.setdefault(group, {}).setdefault(ways, []).append(ctx)
    for group, by_ways in groups.items():
        if len(by_ways) > 1:
            units.append(_StackGroup(side, group[2], group[4], by_ways))
        else:
            (members,) = by_ways.values()
            units.append(_KernelUnit(members))
    return units


class _KernelUnit:
    """Rungs of one enabled geometry replayed through the first rung's hierarchy.

    :func:`dispatch_cache_ops_fast` drives that hierarchy with the mode's
    stream and returns the interval deltas every member receives.  A unit
    of one rung is a plain per-rung replay.
    """

    __slots__ = ("hierarchy", "members")

    def __init__(self, members):
        self.hierarchy = members[0].hierarchy
        self.members = members

    def contexts(self):
        return self.members

    def count(self, tally):
        tally["ladder_fallback_rungs"] += 1
        tally["ladder_shared_rungs"] += len(self.members) - 1

    def replay(self, reduced, shared, fetches, first):
        return ((self.members, dispatch_cache_ops_fast(reduced, shared, self.hierarchy, first)),)


class _StackGroup:
    """Static LRU rungs of one set count, replayed from one stack pass.

    ``ways`` lists the group's distinct way counts in ascending order;
    ``members[j]`` are the contexts of the rungs with ``ways[j]`` ways and
    ``drives[j]`` the L2/memory state of the first of them, the one whose
    L2 the geometry's miss stream drives.  ``stacks`` (one MRU-first block
    list per set, capped at the largest way count) and ``dirty_after``
    (block -> dirty threshold) persist across intervals.
    """

    __slots__ = ("side", "off", "mask", "ways", "members", "drives", "stacks", "dirty_after")

    def __init__(self, side, off, mask, by_ways):
        self.side = side
        self.off = off
        self.mask = mask
        self.ways = sorted(by_ways)
        self.members = [by_ways[ways] for ways in self.ways]
        self.drives = []
        for members in self.members:
            hierarchy = members[0].hierarchy
            self.drives.append((hierarchy.l2._kernel_state(), hierarchy._memory_state()))
        self.stacks = [[] for _ in range(mask + 1)]
        self.dirty_after: Dict[int, int] = {}

    def contexts(self):
        return [ctx for members in self.members for ctx in members]

    def count(self, tally):
        rungs = sum(len(members) for members in self.members)
        tally["ladder_stack_groups"] += 1
        tally["ladder_stack_rungs"] += len(self.ways)
        tally["ladder_shared_rungs"] += rungs - len(self.ways)

    def replay(self, reduced, shared, fetches, first):
        """One interval: the stack pass, then each geometry's L2 stream.

        Under the L2 filter (``first`` not None) no stream is driven: every
        geometry's memory traffic is the segment's first touches.
        """
        if self.side == "i":
            streams, victims, misses, dirty = _stack_pass_d(
                reduced, self.stacks, self.dirty_after, self.off, self.mask, self.ways
            )
        else:
            streams, victims, misses = _stack_pass_i(
                reduced, self.stacks, self.off, self.mask, self.ways
            )
        i_fetches, i_misses, d_misses, d_writebacks = shared
        out = []
        for j, (l2_state, mem_state) in enumerate(self.drives):
            if first is None:
                l1i_memory, l1d_memory, l2_accesses, memory_accesses = _drive_misses(
                    streams[j], victims[j], l2_state, mem_state
                )
            else:
                l1i_memory, l1d_memory = first
                l2_accesses = len(streams[j]) + len(victims[j])
                memory_accesses = l1i_memory + l1d_memory
            if self.side == "i":
                deltas = (
                    i_fetches, i_misses, l1i_memory, misses[j], l1d_memory, dirty[j],
                    l2_accesses, memory_accesses,
                )
            else:
                deltas = (
                    fetches, misses[j], l1i_memory, d_misses, l1d_memory, d_writebacks,
                    l2_accesses, memory_accesses,
                )
            out.append((self.members[j], deltas))
        return out


def _stack_pass_d(reduced, stacks, dirty_after, off, mask, ways):
    """Per-set LRU stack pass of a d-cache ladder's reduced stream.

    Loads and stores are the variant accesses; pilot-resolved i-misses go
    to every geometry's stream unchanged.  Returns ``(streams, victims,
    misses, dirty)``: per way count, the ordered miss stream (see
    :func:`_drive_misses` for the entry encoding), the dirty victims'
    block addresses in stream order, the d-miss count and the dirty-victim
    count.
    """
    count = len(ways)
    streams = [[] for _ in range(count)]
    victims = [[] for _ in range(count)]
    misses = [0] * count
    dirty = [0] * count
    levels = [
        (j, ways[j], streams[j].append, victims[j].append) for j in range(count)
    ]
    appends = [entries.append for entries in streams]
    min_ways = ways[0]
    cap = ways[-1]
    op_imiss, op_store = OP_IMISS, OP_STORE
    never_dirty = _NEVER_DIRTY
    stream = iter(reduced)
    for code in stream:
        operand = next(stream)
        if code == op_imiss:
            entry = operand << 2
            for append in appends:
                append(entry)
            continue
        block = operand >> off
        stack = stacks[block & mask]
        if stack and stack[0] == block:
            if code == op_store:
                dirty_after[block] = 0
            continue
        if block in stack:
            depth = stack.index(block)
            if depth >= min_ways:
                # Missed by every geometry with at most ``depth`` ways; the
                # stack is deeper than each of them, so each one evicts.
                for j, level_ways, append, victim_append in levels:
                    if level_ways > depth:
                        break
                    misses[j] += 1
                    victim = stack[level_ways - 1]
                    if dirty_after[victim] < level_ways:
                        dirty[j] += 1
                        append((operand << 2) | 3)
                        victim_append(victim << off)
                    else:
                        append((operand << 2) | 1)
            del stack[depth]
            stack.insert(0, block)
            if code == op_store:
                dirty_after[block] = 0
            elif dirty_after[block] < depth:
                dirty_after[block] = depth
        else:
            size = len(stack)
            for j, level_ways, append, victim_append in levels:
                misses[j] += 1
                if size >= level_ways:
                    victim = stack[level_ways - 1]
                    if dirty_after[victim] < level_ways:
                        dirty[j] += 1
                        append((operand << 2) | 3)
                        victim_append(victim << off)
                        continue
                append((operand << 2) | 1)
            if size >= cap:
                stack.pop()
            stack.insert(0, block)
            dirty_after[block] = 0 if code == op_store else never_dirty
    return streams, victims, misses, dirty


def _stack_pass_i(reduced, stacks, off, mask, ways):
    """Per-set LRU stack pass of an i-cache ladder's reduced stream.

    Fetches are the variant accesses (an L1i is never written, so no
    victim is ever dirty); pilot-resolved d-misses go to every geometry's
    stream unchanged, dirty victim included.  Returns ``(streams, victims,
    misses)`` per way count, as :func:`_stack_pass_d` does.
    """
    count = len(ways)
    streams = [[] for _ in range(count)]
    victims = [[] for _ in range(count)]
    misses = [0] * count
    levels = [(j, ways[j], streams[j].append) for j in range(count)]
    appends = [entries.append for entries in streams]
    victim_appends = [entries.append for entries in victims]
    min_ways = ways[0]
    cap = ways[-1]
    op_fetch = OP_FETCH
    wb_valid, wb_shift = PACKED_WRITEBACK_VALID, PACKED_WRITEBACK_SHIFT
    stream = iter(reduced)
    for code in stream:
        operand = next(stream)
        if code != op_fetch:
            l1_packed = next(stream)
            if l1_packed & wb_valid:
                entry = (operand << 2) | 3
                victim = l1_packed >> wb_shift
                for append in victim_appends:
                    append(victim)
            else:
                entry = (operand << 2) | 1
            for append in appends:
                append(entry)
            continue
        block = operand >> off
        stack = stacks[block & mask]
        if block in stack:
            depth = stack.index(block)
            if depth == 0:
                continue
            if depth >= min_ways:
                entry = operand << 2
                for j, level_ways, append in levels:
                    if level_ways > depth:
                        break
                    misses[j] += 1
                    append(entry)
            del stack[depth]
        else:
            entry = operand << 2
            for j, _, append in levels:
                misses[j] += 1
                append(entry)
            if len(stack) >= cap:
                stack.pop()
        stack.insert(0, block)
    return streams, victims, misses


def _drive_misses(stream, victims, l2_state, mem_state):
    """Drive one geometry's ordered L1-miss stream through its LRU L2 and memory.

    Each ``stream`` entry is one L1 miss, ``address << 2 | kind``: kind 0
    is an i-miss, 1 a d-miss with no dirty victim, 3 a d-miss whose dirty
    victim's block address is the next one in ``victims``.  Each resolves
    exactly as the miss tail of :func:`dispatch_cache_ops_fast` resolves
    it — L2 read fill with victim spill, and for a dirty L1 victim the
    write-back buffer push and the L2 write-allocate — with the same stat
    flush (:func:`_flush_l2`).  This loop stays apart from the kernel
    because one stream word per miss is what keeps the stack pass cheap:
    the kernel's op alphabet takes two or three.  Returns ``(l1i_memory,
    l1d_memory, l2_accesses, memory_accesses)``.
    """
    l2_stats, l2_sets, l2_off, l2_idx, l2_mask, l2_ways = l2_state[:6]
    l2_shift1 = l2_off + 1
    entry_shift = l2_off + 2
    wb_buffer = mem_state[4]
    wb_pending = wb_buffer._pending
    wb_entries = wb_buffer.num_entries
    next_victim = iter(victims).__next__
    l2m = l2_wb = l2_wm = wb_over = 0
    l1i_memory = 0
    l1d_memory = 0
    for entry in stream:
        b2 = entry >> entry_shift
        t2 = b2 >> l2_idx
        bl2 = l2_sets[b2 & l2_mask]
        p2 = bl2.pop(t2, None)
        if p2 is not None:
            bl2[t2] = p2
            if not entry & 2:
                continue
            transfers = 0
        else:
            l2m += 1
            transfers = 1
            if len(bl2) >= l2_ways:
                if bl2.pop(next(iter(bl2))) & 1:
                    l2_wb += 1
                    transfers = 2
            bl2[t2] = b2 << l2_shift1
        if entry & 2:
            # Dirty L1 victim: buffer push, then the L2 write-allocate.
            wb_addr = next_victim()
            if len(wb_pending) >= wb_entries:
                wb_over += 1
                wb_pending.popleft()
            wb_pending.append(wb_addr)
            b3 = wb_addr >> l2_off
            t3 = b3 >> l2_idx
            bl3 = l2_sets[b3 & l2_mask]
            p3 = bl3.pop(t3, None)
            if p3 is not None:
                bl3[t3] = p3 | 1
            else:
                l2_wm += 1
                transfers += 1
                if len(bl3) >= l2_ways:
                    if bl3.pop(next(iter(bl3))) & 1:
                        l2_wb += 1
                        transfers += 1
                bl3[t3] = (b3 << l2_shift1) | 1
        if entry & 1:
            l1d_memory += transfers
        else:
            l1i_memory += transfers

    reads = len(stream)
    writes = len(victims)
    _flush_l2(l2_stats, mem_state, reads, writes, l2m, l2_wm, l2_wb, wb_over)
    return l1i_memory, l1d_memory, reads + writes, l1i_memory + l1d_memory


# ---------------------------------------------------------------------------
# The dispatch kernel
# ---------------------------------------------------------------------------

def _flush_l2(l2_stats, mem_state, reads, writes, l2m, l2_wm, l2_wb, wb_over):
    """Flush one L2 miss stream's L2, memory and write-back-buffer deltas.

    ``reads`` L2 read fills (one per L1 miss) and ``writes`` dirty-victim
    write-allocates, of which ``l2m`` and ``l2_wm`` missed; ``l2_wb`` dirty
    L2 victims spilled to memory and ``wb_over`` write-back buffer
    overflows.
    """
    if reads:
        l2_stats.accesses += reads + writes
        l2_stats.reads += reads
        l2_stats.writes += writes
        l2_stats.hits += reads - l2m + writes - l2_wm
        l2_stats.misses += l2m + l2_wm
        l2_stats.read_misses += l2m
        l2_stats.write_misses += l2_wm
        l2_stats.fills += l2m + l2_wm
        l2_stats.writebacks += l2_wb
    if l2m or l2_wm or l2_wb:
        mem_reads, mem_writes, mem_bytes, l2_block, _ = mem_state
        mem_reads.value += l2m + l2_wm
        mem_writes.value += l2_wb
        mem_bytes.value += (l2m + l2_wm + l2_wb) * l2_block
    if writes:
        wb_buffer = mem_state[4]
        wb_buffer.enqueued += writes
        wb_buffer.overflows += wb_over
        wb_buffer.drained += wb_over


def dispatch_cache_ops_fast(ops, shared, hierarchy, first=None):
    """The dispatch kernel: one hierarchy through one interval's op stream.

    ``ops`` is any mode's stream: the decode's fetch, load and store ops,
    with a pilot's ``OP_IMISS`` / ``OP_DMISS`` ops in place of the side
    it resolved.  ``shared`` is the pilot's ``(fetches, i_misses, d_misses,
    d_writebacks)``, all zeros in the general mode; each ``OP_IMISS`` op is
    one of its i-misses and each ``OP_DMISS`` op one of its d-misses, with
    the dirty victim (if any) in its packed outcome.  Returns the interval
    deltas ``(l1i_accesses, l1i_misses, l1i_memory, l1d_misses, l1d_memory,
    l1d_writebacks, l2_accesses, memory_accesses)``.  A single run in the
    general mode is exactly this kernel once per interval.

    Around nine of every ten ops hit their L1, so both L1 accesses run
    inline against hoisted kernel state
    (:meth:`repro.cache.cache.Cache._kernel_state`, re-fetched every
    interval because resizes land at interval boundaries), mirroring
    ``access_packed`` statement for statement, FIFO and RANDOM replacement
    included.  Every miss, inline or pilot-resolved, falls through to one
    tail: the body of
    :meth:`~repro.cache.hierarchy.CacheHierarchy._miss_packed` as dict ops
    and counter bumps — the LRU L2 read fill with its victim spill, then
    for a dirty L1d victim the write-back buffer push and the L2
    write-allocate.  The replay path never consumes the miss latency,
    which is all ``_miss_packed`` computes beyond that.  The tail relies on
    the stock hierarchy :meth:`LadderEngine.replay_many` checks for, and on
    the L1i never being written (its victims are never dirty).  Stat
    deltas accumulate in locals and are flushed into each cache's
    ``stats`` before returning, so at every interval boundary (where
    strategies and accounting look) the counters are exactly the per-call
    kernel's.  Under the L2 filter ``first`` is the interval's ``(i_first,
    d_first)`` first-touch counts: a miss then skips the tail, the L2 stays
    idle, and the memory deltas are those counts.
    """
    filtered = first is not None
    fetches, i_misses, d_misses, d_writebacks = shared
    (i_stats, i_sets, i_off, i_idx, i_mask, i_ways, i_refresh, i_random, i_selector) = (
        hierarchy.l1i._kernel_state()
    )
    (d_stats, d_sets, d_off, d_idx, d_mask, d_ways, d_refresh, d_random, d_selector) = (
        hierarchy.l1d._kernel_state()
    )
    l2_stats, l2_sets, l2_off, l2_idx, l2_mask, l2_ways = hierarchy.l2._kernel_state()[:6]
    mem_state = hierarchy._memory_state()
    wb_buffer = mem_state[4]
    wb_pending = wb_buffer._pending
    wb_entries = wb_buffer.num_entries
    i_shift1 = i_off + 1
    d_shift1 = d_off + 1
    l2_shift1 = l2_off + 1
    wb_valid, wb_shift = PACKED_WRITEBACK_VALID, PACKED_WRITEBACK_SHIFT
    op_fetch, op_load, op_imiss = OP_FETCH, OP_LOAD, OP_IMISS
    ia = ih = 0
    da = dw = dh = dwm = dwb = 0
    l2m = l2_wm = l2_wb = wb_over = 0
    l1i_memory = l1d_memory = 0
    stream = iter(ops)
    for code in stream:
        operand = next(stream)
        if code == op_fetch:
            ia += 1
            block = operand >> i_off
            tag = block >> i_idx
            blocks = i_sets[block & i_mask]
            packed = blocks.get(tag)
            if packed is not None:
                ih += 1
                if i_refresh:
                    del blocks[tag]
                    blocks[tag] = packed
                continue
            if len(blocks) >= i_ways:
                del blocks[i_selector.choose_victim(blocks) if i_random else next(iter(blocks))]
            blocks[tag] = block << i_shift1
            data = False
            wb_addr = None
        elif code < op_imiss:
            is_write = code != op_load
            da += 1
            if is_write:
                dw += 1
            block = operand >> d_off
            tag = block >> d_idx
            blocks = d_sets[block & d_mask]
            packed = blocks.get(tag)
            if packed is not None:
                dh += 1
                if is_write:
                    packed |= 1
                    if d_refresh:
                        del blocks[tag]
                    blocks[tag] = packed
                elif d_refresh:
                    del blocks[tag]
                    blocks[tag] = packed
                continue
            if is_write:
                dwm += 1
            wb_addr = None
            if len(blocks) >= d_ways:
                victim_tag = d_selector.choose_victim(blocks) if d_random else next(iter(blocks))
                victim = blocks.pop(victim_tag)
                if victim & 1:
                    dwb += 1
                    wb_addr = victim >> 1
            blocks[tag] = (block << d_shift1) | (1 if is_write else 0)
            data = True
        elif code == op_imiss:
            data = False
            wb_addr = None
        else:
            l1_packed = next(stream)
            data = True
            wb_addr = l1_packed >> wb_shift if l1_packed & wb_valid else None

        if filtered:
            continue
        # The one miss tail: the L2 read fill, then a dirty L1d victim's
        # buffer push and L2 write-allocate.
        b2 = operand >> l2_off
        t2 = b2 >> l2_idx
        bl2 = l2_sets[b2 & l2_mask]
        p2 = bl2.pop(t2, None)
        if p2 is not None:
            bl2[t2] = p2
            if wb_addr is None:
                continue
            transfers = 0
        else:
            l2m += 1
            transfers = 1
            if len(bl2) >= l2_ways:
                if bl2.pop(next(iter(bl2))) & 1:
                    l2_wb += 1
                    transfers = 2
            bl2[t2] = b2 << l2_shift1
        if wb_addr is not None:
            if len(wb_pending) >= wb_entries:
                wb_over += 1
                wb_pending.popleft()
            wb_pending.append(wb_addr)
            b3 = wb_addr >> l2_off
            t3 = b3 >> l2_idx
            bl3 = l2_sets[b3 & l2_mask]
            p3 = bl3.pop(t3, None)
            if p3 is not None:
                bl3[t3] = p3 | 1
            else:
                l2_wm += 1
                transfers += 1
                if len(bl3) >= l2_ways:
                    if bl3.pop(next(iter(bl3))) & 1:
                        l2_wb += 1
                        transfers += 1
                bl3[t3] = (b3 << l2_shift1) | 1
        if data:
            l1d_memory += transfers
        else:
            l1i_memory += transfers

    im = ia - ih
    if ia:
        i_stats.accesses += ia
        i_stats.reads += ia
        i_stats.hits += ih
        i_stats.misses += im
        i_stats.read_misses += im
        i_stats.fills += im
    dm = da - dh
    if da:
        d_stats.accesses += da
        d_stats.writes += dw
        d_stats.reads += da - dw
        d_stats.hits += dh
        d_stats.misses += dm
        d_stats.write_misses += dwm
        d_stats.read_misses += dm - dwm
        d_stats.fills += dm
        d_stats.writebacks += dwb
    l1i_misses = i_misses + im
    l1d_misses = d_misses + dm
    l1d_writebacks = d_writebacks + dwb
    reads = l1i_misses + l1d_misses
    if filtered:
        l1i_memory, l1d_memory = first
    else:
        _flush_l2(l2_stats, mem_state, reads, l1d_writebacks, l2m, l2_wm, l2_wb, wb_over)
    return (
        fetches + ia, l1i_misses, l1i_memory,
        l1d_misses, l1d_memory, l1d_writebacks,
        reads + l1d_writebacks, l1i_memory + l1d_memory,
    )


def run_fused(
    simulator: Simulator,
    trace: Trace,
    setups: Sequence[Tuple[Optional[L1Setup], Optional[L1Setup]]],
    interval_instructions: int = 1500,
    warmup_instructions: int = 0,
    sample_every: int = 1,
    sample_warmup: int = 0,
) -> List[SimulationResult]:
    """Simulate every ``(d_setup, i_setup)`` rung in one fused trace pass.

    The fused counterpart of calling ``simulator.run(...)`` once per rung:
    results are returned in rung order and each is bit-identical to its
    standalone run (including under interval sampling — the sampling
    schedule is row-range-driven and configuration-independent, so it is
    shared by every rung).  Setups are live :class:`L1Setup` objects
    (strategies and organizations are stateful, so every rung needs its
    own); the worker-side job layer builds them from declarative specs —
    see :func:`repro.sim.runner.execute_ladder_job`.
    """
    if not setups:
        raise SimulationError("a fused ladder needs at least one rung")
    validate_run(trace, interval_instructions, sample_every, sample_warmup)
    with _collector_paused():
        contexts = [
            simulator._prepare_run(
                trace, d_setup, i_setup, interval_instructions, warmup_instructions,
                sample_every=sample_every, sample_warmup=sample_warmup,
            )
            for d_setup, i_setup in setups
        ]
        tally = LadderEngine().replay_many(trace, contexts)
        _STATS["ladder_passes"] += 1
        for key, value in tally.items():
            _STATS[key] += value
        return [Simulator._finalize_run(context) for context in contexts]


@contextmanager
def _collector_paused():
    """Hold off Python's cyclic garbage collector for one fused pass.

    Building K rungs allocates thousands of containers per rung (per-set
    dicts of every L1 and L2) that all stay alive until the pass ends.
    With the collector running, those allocations trigger collections that
    promote the live contexts and then sweep the whole heap again and
    again; on a cold 20k-instruction ``run-all`` that is about a fifth of
    the wall time.  Nothing in a pass depends on the collector (reference
    counting frees everything acyclic), so it is paused for the pass and
    restored to its previous state afterwards; any cyclic garbage the
    pass left is collected by the next regular collection.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
