"""Shared fixtures for the test suite.

The fixtures favour small geometries and short traces so the whole suite
stays fast; the benchmarks (not the tests) exercise paper-scale runs.
"""

from __future__ import annotations

import pytest

from repro.cache.cache import Cache
from repro.common.config import CacheGeometry, CoreConfig, CoreKind, SystemConfig
from repro.common.units import KIB
from repro.resizing.resizable_cache import ResizableCache
from repro.sim.jobcache import JobCache
from repro.sim.simulator import Simulator
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import get_profile


@pytest.fixture(autouse=True)
def _reset_process_trace_cache():
    """Keep the process-level on-disk trace memo from leaking between tests.

    ``build_context``/``SweepRunner(trace_cache=...)`` install a
    process-global trace cache; a later test would otherwise silently write
    trace files into an earlier test's (possibly deleted) tmp directory.
    """
    yield
    from repro.sim.runner import set_trace_cache

    set_trace_cache(None)


@pytest.fixture(autouse=True)
def close_caches(monkeypatch):
    """Close every JobCache a test opens (its segment files stay open until
    ``close()``, and a collected one warns under ``python -X dev``)."""
    opened = []
    init = JobCache.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(JobCache, "__init__", tracking_init)
    yield
    for cache in opened:
        cache.close()


@pytest.fixture
def cache_builds(monkeypatch):
    """The name of every ``Cache`` and ``ResizableCache`` built from here on."""
    names = []
    for cls in (Cache, ResizableCache):
        def spy(self, *args, _init=cls.__init__, **kwargs):
            names.append(kwargs.get("name"))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    return names


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A 4 KiB 2-way cache with 1 KiB subarrays (small but realistic)."""
    return CacheGeometry(
        capacity_bytes=4 * KIB, associativity=2, block_bytes=32, subarray_bytes=KIB
    )


@pytest.fixture
def base_l1_geometry() -> CacheGeometry:
    """The paper's base 32 KiB 2-way L1 geometry."""
    return CacheGeometry(capacity_bytes=32 * KIB, associativity=2)


@pytest.fixture
def four_way_geometry() -> CacheGeometry:
    """The 32 KiB 4-way geometry used by Table 1 and Figure 5."""
    return CacheGeometry(capacity_bytes=32 * KIB, associativity=4)


@pytest.fixture
def base_system() -> SystemConfig:
    """The Table 2 base system (out-of-order core, 32K 2-way L1s)."""
    return SystemConfig()


@pytest.fixture
def inorder_system() -> SystemConfig:
    """The in-order / blocking-d-cache variant used in Section 4.2."""
    return SystemConfig(core=CoreConfig(kind=CoreKind.IN_ORDER_BLOCKING))


@pytest.fixture
def simulator(base_system) -> Simulator:
    """A simulator for the base system."""
    return Simulator(base_system)


@pytest.fixture(scope="session")
def short_trace():
    """A short (8k instruction) gcc trace shared across tests in a session."""
    return WorkloadGenerator(get_profile("gcc")).generate(8_000)


@pytest.fixture(scope="session")
def tiny_trace():
    """A very short (3k instruction) ammp trace for fast end-to-end tests."""
    return WorkloadGenerator(get_profile("ammp")).generate(3_000)


class _DecodeModel:
    """Independent per-row models of the pre-decode and of a pilot.

    The oracles of the pre-decode suites: each row is decoded from the
    trace's :class:`~repro.workloads.trace.InstructionRecord` view against
    a real :class:`~repro.cpu.branch.BimodalBranchPredictor`, and a pilot
    is a real cache driven op by op through ``access_packed``.
    """

    @staticmethod
    def rows(trace, block_mask, runs):
        """Per replayed row: ``(ops, branches, mispredicts, memory_refs, stores)``.

        ``runs`` are the ``(start, stop)`` row ranges replayed, in order;
        the fetch-block dedup restarts at each run, the predictor does not.
        """
        from repro.cpu.branch import BimodalBranchPredictor
        from repro.sim.predecode import OP_FETCH, OP_LOAD, OP_STORE

        predict = BimodalBranchPredictor().predict_and_update
        rows = []
        for start, stop in runs:
            last_block = None
            for pc, address, is_store, is_branch, taken in trace.records[start:stop]:
                ops = []
                if pc & block_mask != last_block:
                    last_block = pc & block_mask
                    ops += [OP_FETCH, pc]
                if address is not None:
                    ops += [OP_STORE if is_store else OP_LOAD, address]
                mispredicted = bool(is_branch and predict(pc, taken))
                memory = address is not None
                rows.append((
                    ops, int(is_branch), int(mispredicted), int(memory),
                    int(memory and is_store),
                ))
        return rows

    @staticmethod
    def totals(rows):
        """One segment's ``(ops, branches, mispredicts, memory_refs, stores)``."""
        return (
            [op for row in rows for op in row[0]],
            *(sum(row[column] for row in rows) for column in range(1, 5)),
        )

    @staticmethod
    def pilot(ops, side, access):
        """Resolve one segment's ops on a fixed L1 (``access`` = its ``access_packed``).

        Returns ``(reduced, misses, dirty_victims)``: the pilot side's hits
        dropped, its misses rewritten to ``OP_IMISS`` (with the PC) or
        ``OP_DMISS`` (with the address and the packed outcome).
        """
        from repro.cache.cache import PACKED_WRITEBACK_VALID
        from repro.sim.predecode import OP_DMISS, OP_FETCH, OP_IMISS, OP_STORE

        reduced = []
        misses = dirty = 0
        for code, operand in zip(ops[::2], ops[1::2]):
            if (code == OP_FETCH) != (side == "i"):
                reduced += [code, operand]
                continue
            packed = access(operand, code == OP_STORE)
            if packed & 1:
                continue
            misses += 1
            if side == "i":
                reduced += [OP_IMISS, operand]
            else:
                dirty += bool(packed & PACKED_WRITEBACK_VALID)
                reduced += [OP_DMISS, operand, packed]
        return reduced, misses, dirty


@pytest.fixture(scope="session")
def decode_model():
    """The independent per-row decode and pilot models (see :class:`_DecodeModel`)."""
    return _DecodeModel
