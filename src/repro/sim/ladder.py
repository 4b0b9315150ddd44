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
one copy of that cache (the "pilot") once per op and shares the outcome:

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
dispatches the full shared stream.

Everything configuration-*dependent* — cache contents, resize decisions,
flush writebacks, energy, cycles — stays in per-rung state, which is why
every rung's :class:`~repro.sim.results.SimulationResult` is
**bit-identical** to a standalone run of the reference engine (enforced by
``tests/sim/test_ladder.py``, ``tests/properties/test_property_ladder.py``
and the engine-equivalence suites).

**Lean rungs.**  Tiers and the L2-filter gate are decided from each
rung's setup and system before any cache exists: a context starts with
accounting state only.  Only the first rung of each dispatch-kernel unit
builds a hierarchy, with no L2 in an L2-filtered pass, plus rung 0's pilot
L1 as the key of the memoized pre-screen
(:func:`repro.sim.predecode.pilot_for`).  That memo holds only the pilot's
misses; each segment's reduced stream is one slice of the decode's
side-split op column with them spliced back in
(:meth:`~repro.sim.predecode.PilotResolution.segment`).  Results read
only :class:`~repro.metrics.counts.IntervalCounts`, never cache objects,
so a driven hierarchy's invariant-side L1 may stay idle.

**One dispatch kernel.**  Every mode replays its rungs through
:func:`dispatch_cache_ops_fast`; a mode only decides which ops the stream
carries.  The kernel takes the whole op alphabet — fetch, load and store
from the decode, ``OP_IMISS`` / ``OP_DMISS`` from a pilot — and one
``shared`` shape, the pilot's
``(fetches, i_misses, d_misses, d_writebacks)`` (all zeros in the general
mode).  L1 hits run inline against hoisted kernel state; every miss falls
through to one inline tail (L2 read fill, then a dirty L1d victim's L2
write-allocate), the only code that simulates a fused pass's L2.  That
tail is the stock hierarchy's miss path, an LRU
:class:`~repro.cache.cache.Cache` L2 over
:class:`~repro.mem.main_memory.MainMemory`, the only one a context builds;
:meth:`LadderEngine.replay_many` refuses any other a caller built.

**Stack-distance tier for static LRU rungs.**  Profiling ladders are
mostly *static* rungs — a resizable L1 pinned to one (sets, ways)
configuration for the whole run — and static rungs under LRU need not be
simulated one by one.  In a pilot-mode pass the rungs whose variant-side
setup builds the stock (LRU) cache under a static (or no) strategy, with
no cache of theirs built yet, are grouped by their enabled set count
(:func:`_stack_key`).  When the pass took the L2 filter (below), every
group with at least two distinct way counts is replayed by one per-set
LRU stack pass (Mattson et al., IBM Systems Journal 1970) over the
pilot-reduced stream, with each set's stack capped at the group's
largest way count.  The pass is exact:

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

The stack pass only counts: per geometry, its misses and dirty victims.
The filter supplies each interval's memory traffic, and every L1 miss is
one L2 read and every dirty L1d victim one L2 write, so a geometry's
deltas follow from those counts and the pilot's shared ones.  A pass the
filter refused forms no stack group, so the dispatch kernel's miss tail
stays the one code path that simulates an L2.  Rungs with an identical
enabled geometry are replayed once, in either pass: every rung of the
geometry receives the same per-interval counts, then closes its own
interval (energy depends on the organization, so each rung keeps its own
accountant).  Outside a stack group each geometry is one dispatch-kernel
unit; a set-count group with a single way count is too, since alone the
stack pass costs more than the kernel.

Everything else replays each rung through the dispatch kernel, selected
from properties of the rungs, never from an option: dynamic rungs, FIFO
and RANDOM L1 replacement and the general mode.
:func:`stats_snapshot` counts which tier served each rung of every
:func:`run_fused` pass (``ladder_stack_rungs``, ``ladder_shared_rungs``,
``ladder_fallback_rungs``) plus ``ladder_passes``,
``ladder_l2_filtered_passes``, ``ladder_stack_groups`` and the hierarchies
the passes built (``ladder_hierarchies``); the runner merges them into
``--stats``.  Single runs are not ladder passes and are not counted.

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
pass: every rung has the first rung's L2 geometry and no hierarchy a
caller built (an unbuilt L2 is cold), both L1 block sizes are at most
the L2's, and
:func:`~repro.sim.predecode.l2_filter_for` returns a first-touch index
for the decode (None once some set overflows).  A filtered pass skips
the dispatch kernel's miss tail (one branch per miss), builds no L2, and
may form stack groups; each segment's counts come from bisecting the
index, and resize flushes count as the L2 writes they are.  Sampled plans
qualify too: the decode holds exactly the rows the plan replays.
Refused passes (an external trace with a large footprint, a longer
trace, a smaller L2) simulate the L2 through the miss tail, with no stack
groups: a static ladder there runs one kernel pass per distinct
geometry.  The index is one pass per (trace, plan, L2 geometry), about
5 ms for a 60k-instruction decode, which the first replay of a trace
pays.

Amortization: K standalone runs cost ``K × (slice + decode + predict +
setup + full dispatch + close)``; the fused pass costs ``slice + decode +
predict + pilot + K × (lean setup + reduced dispatch + close)``, so the
win grows with K (the job layer fuses only the rungs the job cache cannot
already serve — see :meth:`repro.sim.runner.SweepRunner.submit_ladder`).

:func:`run_fused` is the entry point for ladders: it builds one context
per ``(d_setup, i_setup)`` pair off a configured
:class:`~repro.sim.simulator.Simulator` and finalizes each into its
result.  :class:`LadderEngine` is deliberately *not* a registered
:class:`~repro.sim.engine.ReplayEngine`: it replays many contexts at once.
Under any engine but the default ``columnar`` one, job-layer ladders
replay each rung as its own ``Simulator.run``
(:func:`repro.sim.runner.execute_ladder_job`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.cache import PACKED_WRITEBACK_SHIFT, PACKED_WRITEBACK_VALID, Cache
from repro.cache.replacement import ReplacementPolicy
from repro.common.counters import CounterRegistry
from repro.common.errors import SimulationError
from repro.mem.address import AddressMapper
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

#: The strategies that never resize after the initial configuration.
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
    "ladder_hierarchies",
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
        to diverge — that is the point.  A hierarchy a caller already built
        must be the stock one whose miss path the dispatch kernel inlines:
        an LRU :class:`~repro.cache.cache.Cache` L2 over stock main memory;
        and a predictor, the fresh default one the decode replicates.
        Returns the pass's tier tally (every :data:`TIER_COUNTERS` entry
        but ``ladder_passes``; ``ladder_l2_filtered_passes`` is 1 when the
        pass took the compulsory-miss filter), which :func:`run_fused` adds
        to the module counters.
        """
        tally = dict.fromkeys(TIER_COUNTERS[1:], 0)
        if not contexts:
            return tally
        first = contexts[0]
        l2_geometry = first.system.l2.geometry
        filterable = True
        for ctx in contexts:
            # An unbuilt hierarchy or predictor is the stock, cold one.
            hierarchy = ctx._hierarchy
            if hierarchy is not None and (
                type(hierarchy.l2) is not Cache
                or hierarchy.l2.replacement is not ReplacementPolicy.LRU
                or hierarchy._memory_state() is None
            ):
                raise SimulationError(
                    "fused ladder replay requires the stock hierarchy: an LRU "
                    "Cache L2 over MainMemory"
                )
            if ctx._predictor is not None and not is_default_predictor(ctx._predictor):
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
            system = ctx.system
            filterable = filterable and (
                hierarchy is None and system.l2.geometry == l2_geometry
                and max(system.l1i.block_bytes, system.l1d.block_bytes)
                <= l2_geometry.block_bytes
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
        side = pilot_res = None
        if all(not ctx.d_runtime.is_resizable for ctx in contexts):
            side, pilot_res = "d", pilot_for(trace, decoded, "d", first.d_runtime.cache)
        elif len(contexts) > 1 and all(not ctx.i_runtime.is_resizable for ctx in contexts):
            side, pilot_res = "i", pilot_for(trace, decoded, "i", first.i_runtime.cache)
        if pilot_res is None:
            side = None
        l2_filter = l2_filter_for(trace, decoded, l2_geometry) if filterable else None
        tally["ladder_l2_filtered_passes"] = int(l2_filter is not None)
        units = _plan_units(contexts, side, l2_filter is not None)
        for unit in units:
            unit.count(tally)
        tally["ladder_hierarchies"] = sum(ctx._hierarchy is not None for ctx in contexts)
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

    Decided from the setup: the variant side must build the stock (LRU)
    cache at a configuration that never changes, and neither that cache
    nor the rung's hierarchy may exist yet (unbuilt ones are cold).  The
    group part names everything else the rung's miss stream and L2
    behaviour depend on: the system and the enabled sets' address split.
    """
    runtime = ctx.d_runtime if side == "i" else ctx.i_runtime
    strategy = runtime.strategy
    if (
        ctx._hierarchy is not None
        or runtime._cache is not None
        or type(runtime.setup).build is not L1Setup.build
        or not (strategy is None or type(strategy) in _STATIC_STRATEGIES)
    ):
        return None
    off, idx, mask = AddressMapper(runtime.geometry.block_bytes, runtime.enabled_sets).shift_mask()
    return (ctx.system, off, idx, mask), runtime.enabled_ways


def _plan_units(contexts, side, filtered):
    """Group a ladder's rungs into the units the walk replays.

    In the general mode (``side`` None) every rung is its own
    :class:`_KernelUnit`.  In a pilot mode, eligible rungs (see
    :func:`_stack_key`) are grouped by set count: under the L2 filter a
    group with at least two distinct way counts becomes one
    :class:`_StackGroup`; otherwise the rungs of each way count run the
    dispatch kernel once for all of them (:class:`_KernelUnit`).
    Ineligible rungs each get their own unit.
    """
    with_l2 = not filtered
    if side is None:
        return [_KernelUnit([ctx], with_l2) for ctx in contexts]
    units = []
    groups: Dict[tuple, Dict[int, list]] = {}
    for ctx in contexts:
        key = _stack_key(ctx, side)
        if key is None:
            units.append(_KernelUnit([ctx], with_l2))
        else:
            group, ways = key
            groups.setdefault(group, {}).setdefault(ways, []).append(ctx)
    for group, by_ways in groups.items():
        if filtered and len(by_ways) > 1:
            units.append(_StackGroup(side, group[1], group[3], by_ways))
        else:
            units.extend(_KernelUnit(members, with_l2) for members in by_ways.values())
    return units


class _KernelUnit:
    """Rungs of one enabled geometry replayed through the first rung's hierarchy.

    :func:`dispatch_cache_ops_fast` drives that hierarchy with the mode's
    stream and returns the interval deltas every member receives.  A unit
    of one rung is a plain per-rung replay.  Only that rung builds its
    hierarchy, with no L2 in an L2-filtered pass.
    """

    __slots__ = ("hierarchy", "members")

    def __init__(self, members, with_l2):
        self.hierarchy = members[0].build_hierarchy(with_l2)
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

    Formed only in L2-filtered passes: the pass counts each geometry's
    misses and dirty victims, and the filter supplies the memory traffic.
    ``ways`` lists the group's distinct way counts in ascending order and
    ``members[j]`` are the contexts of the rungs with ``ways[j]`` ways.
    ``stacks`` (one MRU-first block list per set, capped at the largest way
    count) and ``dirty_after`` (block -> dirty threshold) persist across
    intervals.
    """

    __slots__ = ("side", "off", "mask", "ways", "members", "stacks", "dirty_after")

    def __init__(self, side, off, mask, by_ways):
        self.side = side
        self.off = off
        self.mask = mask
        self.ways = sorted(by_ways)
        self.members = [by_ways[ways] for ways in self.ways]
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
        """One interval's deltas per geometry, from the stack pass and ``first``.

        Every L1 miss is one L2 read and every dirty L1d victim one L2
        write; the interval's first touches are its memory traffic.
        """
        l1i_memory, l1d_memory = first
        memory_accesses = l1i_memory + l1d_memory
        i_fetches, i_misses, d_misses, d_writebacks = shared
        if self.side == "i":
            misses, dirty = _stack_pass_d(
                reduced, self.stacks, self.dirty_after, self.off, self.mask, self.ways
            )
            return [
                (members, (
                    i_fetches, i_misses, l1i_memory, d_miss, l1d_memory, d_dirty,
                    i_misses + d_miss + d_dirty, memory_accesses,
                ))
                for members, d_miss, d_dirty in zip(self.members, misses, dirty)
            ]
        misses = _stack_pass_i(reduced, self.stacks, self.off, self.mask, self.ways)
        return [
            (members, (
                fetches, i_miss, l1i_memory, d_misses, l1d_memory, d_writebacks,
                i_miss + d_misses + d_writebacks, memory_accesses,
            ))
            for members, i_miss in zip(self.members, misses)
        ]


def _stack_pass_d(reduced, stacks, dirty_after, off, mask, ways):
    """Per-set LRU stack pass of a d-cache ladder's reduced stream.

    Loads and stores are the variant accesses; pilot-resolved i-misses
    are skipped (they are shared by every geometry).  Returns ``(misses,
    dirty)``: per way count, the d-miss count and the dirty-victim count.
    """
    count = len(ways)
    misses = [0] * count
    dirty = [0] * count
    levels = list(enumerate(ways))
    min_ways = ways[0]
    cap = ways[-1]
    op_imiss, op_store = OP_IMISS, OP_STORE
    never_dirty = _NEVER_DIRTY
    stream = iter(reduced)
    for code in stream:
        operand = next(stream)
        if code == op_imiss:
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
                for j, level_ways in levels:
                    if level_ways > depth:
                        break
                    misses[j] += 1
                    if dirty_after[stack[level_ways - 1]] < level_ways:
                        dirty[j] += 1
            del stack[depth]
            stack.insert(0, block)
            if code == op_store:
                dirty_after[block] = 0
            elif dirty_after[block] < depth:
                dirty_after[block] = depth
        else:
            size = len(stack)
            for j, level_ways in levels:
                misses[j] += 1
                if size >= level_ways and dirty_after[stack[level_ways - 1]] < level_ways:
                    dirty[j] += 1
            if size >= cap:
                stack.pop()
            stack.insert(0, block)
            dirty_after[block] = 0 if code == op_store else never_dirty
    return misses, dirty


def _stack_pass_i(reduced, stacks, off, mask, ways):
    """Per-set LRU stack pass of an i-cache ladder's reduced stream.

    Fetches are the variant accesses (an L1i is never written, so no
    victim is ever dirty); pilot-resolved d-misses are skipped.  The pass
    tallies stack distances (a cold miss counts as distance ``ways[-1]``),
    and an A-way geometry misses every access at distance A or more.
    Returns the i-miss count per way count.
    """
    cap = ways[-1]
    distances = [0] * (cap + 1)
    op_fetch = OP_FETCH
    stream = iter(reduced)
    for code in stream:
        operand = next(stream)
        if code != op_fetch:
            next(stream)  # the pilot's packed outcome
            continue
        block = operand >> off
        stack = stacks[block & mask]
        if block in stack:
            depth = stack.index(block)
            if depth == 0:
                continue
            distances[depth] += 1
            del stack[depth]
        else:
            distances[cap] += 1
            if len(stack) >= cap:
                stack.pop()
        stack.insert(0, block)
    return [sum(distances[level_ways:]) for level_ways in ways]


# ---------------------------------------------------------------------------
# The dispatch kernel
# ---------------------------------------------------------------------------

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
    and counter bumps (the latency it also computes is never consumed),
    relying on the stock L2 and on the L1i never being written.  Stat
    deltas are flushed into each cache's ``stats`` before returning, so at
    every interval boundary the counters are exactly the per-call
    kernel's.  Under the L2 filter ``first`` is the interval's ``(i_first,
    d_first)`` first-touch counts: misses skip the tail, the hierarchy may
    have no L2, and the memory deltas are those counts.
    """
    filtered = first is not None
    fetches, i_misses, d_misses, d_writebacks = shared
    (i_stats, i_sets, i_off, i_idx, i_mask, i_ways, i_refresh, i_random, i_selector) = (
        hierarchy.l1i._kernel_state()
    )
    (d_stats, d_sets, d_off, d_idx, d_mask, d_ways, d_refresh, d_random, d_selector) = (
        hierarchy.l1d._kernel_state()
    )
    if not filtered:
        l2_stats, l2_sets, l2_off, l2_idx, l2_mask, l2_ways = hierarchy.l2._kernel_state()[:6]
        l2_shift1 = l2_off + 1
    i_shift1 = i_off + 1
    d_shift1 = d_off + 1
    wb_valid, wb_shift = PACKED_WRITEBACK_VALID, PACKED_WRITEBACK_SHIFT
    op_fetch, op_load, op_imiss = OP_FETCH, OP_LOAD, OP_IMISS
    ia = ih = 0
    da = dw = dh = dwm = dwb = 0
    l2m = l2_wm = l2_wb = 0
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
        # L2 write-allocate.
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
    elif reads:
        l2_stats.accesses += reads + l1d_writebacks
        l2_stats.reads += reads
        l2_stats.writes += l1d_writebacks
        l2_stats.hits += reads - l2m + l1d_writebacks - l2_wm
        l2_stats.misses += l2m + l2_wm
        l2_stats.read_misses += l2m
        l2_stats.write_misses += l2_wm
        l2_stats.fills += l2m + l2_wm
        l2_stats.writebacks += l2_wb
        if l2m or l2_wm or l2_wb:
            mem_reads, mem_writes, mem_bytes, l2_block = hierarchy._memory_state()
            mem_reads.value += l2m + l2_wm
            mem_writes.value += l2_wb
            mem_bytes.value += (l2m + l2_wm + l2_wb) * l2_block
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

