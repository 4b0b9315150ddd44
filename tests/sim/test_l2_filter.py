"""The fused ladder's compulsory-miss L2 filter, on both sides of its gate.

A pass whose trace maps at most ``ways`` distinct blocks to every L2 set
never evicts from a cold L2, so each L2 access misses exactly when it is
the trace's first touch of the block: :func:`repro.sim.predecode.l2_filter_for`
indexes those first touches and the walk reads each interval's memory
traffic from it instead of simulating the L2.  Every check here compares
against standalone runs of the reference engine, which always simulates
the L2, and the filter memo against an independent per-op model.
"""

import random
from dataclasses import replace

import pytest

from repro.common.config import CacheGeometry, L2Config, SystemConfig
from repro.common.units import KIB
from repro.resizing.dynamic_strategy import DynamicResizing
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays
from repro.resizing.static_strategy import StaticResizing
from repro.sim import ladder, predecode
from repro.sim.ladder import LadderEngine, run_fused
from repro.sim.predecode import (
    OP_DMISS,
    OP_FETCH,
    OP_IMISS,
    OP_LOAD,
    OP_STORE,
    decoded_for,
    l2_filter_for,
    replay_runs,
)
from repro.sim.runner import TraceSpec
from repro.sim.simulator import L1Setup, Simulator, _block_mask
from repro.workloads.trace import InstructionRecord, Trace

SYSTEM = SystemConfig()
L2 = SYSTEM.l2.geometry
#: Bytes between two addresses that share an L2 set (and an L1d set).
L2_SET_STRIDE = L2.num_sets * L2.block_bytes


def _with_l2(capacity, ways, block_bytes=64):
    return replace(SYSTEM, l2=L2Config(geometry=CacheGeometry(
        capacity_bytes=capacity, associativity=ways, block_bytes=block_bytes,
        subarray_bytes=KIB,
    )))


def _one_set_trace(blocks, length=3_000):
    """Loads and stores cycling over ``blocks`` addresses of one L2 set.

    The addresses also share an L1d set, so the 2-way L1d evicts dirty
    blocks; the code sits in a few blocks of other L2 sets.
    """
    records = []
    for row in range(length):
        address = (row % blocks) * L2_SET_STRIDE + 8 * (row % 4)
        records.append(InstructionRecord(
            0x1000 + 4 * (row % 48), address, row % 3 == 0, row % 7 == 0, row % 2 == 0,
        ))
    return Trace.from_records(f"one-set-{blocks}", records)


def _ladder(system, side):
    """A baseline, every static selective-ways rung and a resizing dynamic rung.

    The dynamic rung's bound (60 misses per 256 accesses) makes it resize,
    flushing dirty blocks on the d-side.
    """
    geometry = system.l1d if side == "d" else system.l1i
    rungs = [
        L1Setup(SelectiveWays(geometry), StaticResizing(config))
        for config in SelectiveWays(geometry).ladder()
    ]
    rungs.append(L1Setup(SelectiveSets(geometry), DynamicResizing(
        60, 4 * KIB, sense_interval_accesses=256, settle_intervals=0,
        reversal_backoff_intervals=0,
    )))
    return [(None, None)] + [(rung, None) if side == "d" else (None, rung) for rung in rungs]


def _hybrid_ladder(system, side):
    """A baseline and every static rung of a hybrid ladder, the largest twice."""
    geometry = system.l1d if side == "d" else system.l1i
    configs = HybridSetsAndWays(geometry).ladder()
    rungs = [
        L1Setup(HybridSetsAndWays(geometry), StaticResizing(config))
        for config in configs + configs[:1]
    ]
    return [(None, None)] + [(rung, None) if side == "d" else (None, rung) for rung in rungs]


def _standalone(system, trace, setups, **kwargs):
    return [
        Simulator(system, engine="reference").run(
            trace, d_setup=d_setup, i_setup=i_setup, **kwargs
        ).to_dict()
        for d_setup, i_setup in setups
    ]


def _fused(system, trace, setups, **kwargs):
    """Fused results plus whether the pass took the filter."""
    before = ladder.stats_snapshot()["ladder_l2_filtered_passes"]
    results = [result.to_dict() for result in run_fused(Simulator(system), trace, setups, **kwargs)]
    return results, ladder.stats_snapshot()["ladder_l2_filtered_passes"] - before


def _first_touch_model(decode_model, trace, block_mask, schedule, geometry):
    """Per side, the decode rows whose op first touches an L2 block; None on overflow."""
    off = geometry.block_bytes.bit_length() - 1
    seen, per_set = set(), {}
    rows = [[], []]
    decoded_rows = decode_model.rows(trace, block_mask, replay_runs(len(trace), schedule))
    for row, (ops, *_) in enumerate(decoded_rows):
        for code, address in zip(ops[::2], ops[1::2]):
            block = address >> off
            if block in seen:
                continue
            seen.add(block)
            index = block % geometry.num_sets
            per_set[index] = per_set.get(index, 0) + 1
            if per_set[index] > geometry.associativity:
                return None
            rows[code != OP_FETCH].append(row)
    return rows


class TestGate:
    @pytest.mark.parametrize("side", ["d", "i"])
    @pytest.mark.parametrize("blocks", [L2.associativity, L2.associativity + 1])
    def test_one_set_at_and_past_its_ways(self, blocks, side):
        trace = _one_set_trace(blocks)
        kwargs = {"interval_instructions": 500, "warmup_instructions": 300}
        fused, took = _fused(SYSTEM, trace, _ladder(SYSTEM, side), **kwargs)
        assert took == (blocks <= L2.associativity)
        assert fused == _standalone(SYSTEM, trace, _ladder(SYSTEM, side), **kwargs)
        if not took:  # the refused pass really evicts from its L2
            assert fused[0]["l2_misses"] > 2 * blocks

    def test_resize_flushes_under_the_filter(self):
        trace = TraceSpec("swim", 6_000).materialize()
        kwargs = {"interval_instructions": 500}
        fused, took = _fused(SYSTEM, trace, _ladder(SYSTEM, "d"), **kwargs)
        assert took == 1
        assert fused[-1]["l1d_flush_writebacks"] > 0
        assert fused == _standalone(SYSTEM, trace, _ladder(SYSTEM, "d"), **kwargs)

    def test_a_flushing_dynamic_rung_builds_no_l2(self, cache_builds):
        """Its flushes are counted as L2 writes, and nothing absorbs them."""
        trace = TraceSpec("swim", 6_000).materialize()
        kwargs = {"interval_instructions": 500}
        setups = _ladder(SYSTEM, "d")
        setups = [setups[0], setups[-1]]  # the baseline and the dynamic rung
        standalone = _standalone(SYSTEM, trace, setups, **kwargs)
        del cache_builds[:]  # the reference runs build their L2s
        fused, took = _fused(SYSTEM, trace, setups, **kwargs)
        assert took == 1 and "l2" not in cache_builds
        dynamic, reference = fused[-1], standalone[-1]
        assert dynamic["l1d_flush_writebacks"] > 0
        for field in ("l2_accesses", "l1d_resizes", "l1d_flush_writebacks"):
            assert dynamic[field] == reference[field]
        assert fused == standalone

    @pytest.mark.parametrize("system", [
        _with_l2(8 * KIB, 1),
        _with_l2(32 * KIB, 2),
        _with_l2(512 * KIB, 4, block_bytes=16),  # L1 blocks larger than the L2's
    ], ids=["8k-direct", "32k-2way", "16b-blocks"])
    def test_refused_passes_simulate_the_l2(self, system):
        trace = TraceSpec("gcc", 4_000).materialize()
        kwargs = {"interval_instructions": 700, "sample_every": 2, "sample_warmup": 200}
        fused, took = _fused(system, trace, _ladder(system, "d"), **kwargs)
        assert took == 0
        assert fused == _standalone(system, trace, _ladder(system, "d"), **kwargs)

    def test_a_single_run_builds_no_l2(self):
        trace = _one_set_trace(L2.associativity)
        simulator = Simulator(SYSTEM)
        context = simulator._prepare_run(trace, None, None, 400, 0)
        tally = LadderEngine().replay_many(trace, [context])
        assert tally["ladder_l2_filtered_passes"] == 1
        assert tally["ladder_hierarchies"] == 1
        assert context.hierarchy.l2 is None and context.hierarchy.memory is None
        assert Simulator._finalize_run(context).to_dict() == _standalone(
            SYSTEM, trace, [(None, None)], interval_instructions=400
        )[0]

    def test_a_used_l2_is_refused(self):
        trace = _one_set_trace(L2.associativity)
        context = Simulator(SYSTEM)._prepare_run(trace, None, None, 400, 0)
        context.hierarchy.l2.access(0)
        assert LadderEngine().replay_many(trace, [context])["ladder_l2_filtered_passes"] == 0


class TestTierRule:
    """Stack groups form only under the filter; a refused pass still shares geometries."""

    @pytest.mark.parametrize("side", ["d", "i"])
    @pytest.mark.parametrize("l2", [None, (32 * KIB, 2)], ids=["default-l2", "32k-2way"])
    def test_sixteen_way_hybrid_ladder(self, side, l2):
        base = SYSTEM if l2 is None else _with_l2(*l2)
        system = base.with_l1(
            l1d=base.l1d.with_capacity(base.l1d.capacity_bytes, 16),
            l1i=base.l1i.with_capacity(base.l1i.capacity_bytes, 16),
        )
        trace = TraceSpec("gcc", 4_000).materialize()
        kwargs = {"interval_instructions": 700, "warmup_instructions": 300}
        before = ladder.stats_snapshot()
        fused = [
            result.to_dict()
            for result in run_fused(Simulator(system), trace, _hybrid_ladder(system, side), **kwargs)
        ]
        tiers = {key: value - before[key] for key, value in ladder.stats_snapshot().items()}
        assert fused == _standalone(system, trace, _hybrid_ladder(system, side), **kwargs)
        assert tiers["ladder_l2_filtered_passes"] == (l2 is None)
        if l2 is None:
            assert tiers["ladder_stack_groups"] > 0
        else:
            assert tiers["ladder_stack_groups"] == 0
            assert tiers["ladder_shared_rungs"] > 0


def _lru_model(accesses, sets, ways, offset_bits):
    """Misses and dirty victims of one LRU geometry over ``(is_store, address)``."""
    stacks = [[] for _ in range(sets)]
    dirty = set()
    misses = victims = 0
    for is_store, address in accesses:
        block = address >> offset_bits
        stack = stacks[block % sets]
        if block in stack:
            stack.remove(block)
        else:
            misses += 1
            if len(stack) == ways:
                victim = stack.pop()
                if victim in dirty:
                    victims += 1
                    dirty.discard(victim)
        stack.insert(0, block)
        if is_store:
            dirty.add(block)
    return misses, victims


def _random_accesses(seed, count=4_000, blocks=48):
    rng = random.Random(seed)
    return [(rng.random() < 0.3, rng.randrange(blocks) << 6 | rng.randrange(64)) for _ in range(count)]


class TestStackPass:
    """The stack tier's passes count every geometry's misses as separate LRU caches would."""

    SETS, WAYS, OFFSET_BITS = 4, [1, 2, 4, 8], 6

    def _d_stream(self, accesses, seed):
        """A d-ladder's reduced stream: loads and stores, pilot i-misses between them."""
        rng = random.Random(seed)
        stream = []
        for is_store, address in accesses:
            if rng.random() < 0.2:
                stream += [OP_IMISS, rng.randrange(1 << 20)]
            stream += [OP_STORE if is_store else OP_LOAD, address]
        return stream

    @pytest.mark.parametrize("seed", [1, 2])
    def test_d_pass_counts_misses_and_dirty_victims(self, seed):
        accesses = _random_accesses(seed)
        stacks = [[] for _ in range(self.SETS)]
        misses, dirty = ladder._stack_pass_d(
            self._d_stream(accesses, seed), stacks, {}, self.OFFSET_BITS, self.SETS - 1, self.WAYS
        )
        expected = [_lru_model(accesses, self.SETS, ways, self.OFFSET_BITS) for ways in self.WAYS]
        assert list(zip(misses, dirty)) == expected
        assert all(count > 0 for count in dirty)

    def test_i_pass_counts_misses(self):
        rng = random.Random(3)
        fetches = [(False, address) for _, address in _random_accesses(3)]
        stream = []
        for _, address in fetches:
            if rng.random() < 0.2:
                stream += [OP_DMISS, rng.randrange(1 << 20), 0]
            stream += [OP_FETCH, address]
        stacks = [[] for _ in range(self.SETS)]
        misses = ladder._stack_pass_i(stream, stacks, self.OFFSET_BITS, self.SETS - 1, self.WAYS)
        expected = [_lru_model(fetches, self.SETS, ways, self.OFFSET_BITS)[0] for ways in self.WAYS]
        assert misses == expected

    def test_d_pass_state_carries_across_intervals(self):
        accesses = _random_accesses(4)
        stream = self._d_stream(accesses, 4)
        whole = ladder._stack_pass_d(
            stream, [[] for _ in range(self.SETS)], {}, self.OFFSET_BITS, self.SETS - 1, self.WAYS
        )
        half = len(stream) // 4 * 2
        stacks, dirty_after = [[] for _ in range(self.SETS)], {}
        parts = [
            ladder._stack_pass_d(
                part, stacks, dirty_after, self.OFFSET_BITS, self.SETS - 1, self.WAYS
            )
            for part in (stream[:half], stream[half:])
        ]
        assert [[a + b for a, b in zip(*counts)] for counts in zip(*parts)] == list(whole)


class TestFilterMemo:
    @pytest.mark.parametrize("schedule", [None, (500, 3, 200)])
    @pytest.mark.parametrize("application", ["gcc", "swim"])
    def test_first_touches_match_a_per_op_model(self, decode_model, application, schedule):
        trace = TraceSpec(application, 5_000).materialize()
        mask = _block_mask(SYSTEM.l1i.block_bytes)
        decoded = decoded_for(trace, mask, schedule)
        rows = l2_filter_for(trace, decoded, L2)
        model = _first_touch_model(decode_model, trace, mask, schedule, L2)
        assert model is not None
        assert [list(side) for side in rows] == model
        assert l2_filter_for(trace, decoded, L2) is rows  # memoized

    @pytest.mark.parametrize("blocks", [L2.associativity, L2.associativity + 1])
    def test_refusal_past_the_ways(self, decode_model, blocks):
        trace = _one_set_trace(blocks, length=200)
        mask = _block_mask(SYSTEM.l1i.block_bytes)
        rows = l2_filter_for(trace, decoded_for(trace, mask), L2)
        model = _first_touch_model(decode_model, trace, mask, None, L2)
        if blocks > L2.associativity:
            assert rows is None and model is None
        else:
            assert [list(side) for side in rows] == model
            assert len(rows[1]) == blocks  # the one-set data blocks

    def test_memo_keys_by_l2_geometry(self):
        trace = _one_set_trace(L2.associativity + 1, length=200)
        decoded = decoded_for(trace, _block_mask(32))
        wider = CacheGeometry(1024 * KIB, 8, block_bytes=64, subarray_bytes=4 * KIB)
        assert l2_filter_for(trace, decoded, L2) is None
        assert l2_filter_for(trace, decoded, wider) is not None
        assert predecode.build_l2_filter(decoded, L2) is None
