"""Tests for the on-disk job cache and job fingerprinting."""

import dataclasses
import hashlib
import json

import pytest

from repro.common.config import CacheGeometry, CoreConfig, CoreKind, SystemConfig
from repro.common.errors import SimulationError
from repro.resizing.selective_sets import SelectiveSets
from repro.sim import runner
from repro.sim.jobcache import CACHE_FORMAT_VERSION, JobCache
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    L1SetupSpec,
    SimJob,
    StrategySpec,
    TraceSpec,
    execute_job,
    job_fingerprint,
)


def segments(cache):
    """The cache directory's segment files."""
    return sorted(cache.directory.glob("*.seg"))


def read_records(path):
    """Split a segment into its records' (header, body) JSON objects."""
    records = []
    for chunk in path.read_bytes().split(b"\x1e")[1:]:
        header, body = chunk.split(b"\n")[:2]
        records.append((json.loads(header), json.loads(body)))
    return records


def encode_record(header, body, *, rehash):
    """One framed v4 record; ``rehash`` recomputes the body's length and
    checksum.  ``body`` is a JSON value or raw bytes."""
    if not isinstance(body, bytes):
        body = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if rehash:
        header = dict(header, checksum=hashlib.sha256(body).hexdigest(), length=len(body))
    return b"\x1e" + json.dumps(header).encode("utf-8") + b"\n" + body + b"\n"


def rewrite_only_record(cache, header, body, *, rehash):
    """Replace the cache's one segment with one hand-made record; a fresh
    cache object on the directory (which must scan it) is returned."""
    (segment,) = segments(cache)
    segment.write_bytes(encode_record(header, body, rehash=rehash))
    return JobCache(cache.directory)


def put_one(tmp_path):
    """A cache holding one job's result: (cache, fingerprint, result, record)."""
    cache = JobCache(tmp_path / "cache")
    job = small_job()
    result = execute_job(job)
    cache.put(job.fingerprint(), result, description=job.describe())
    (record,) = read_records(segments(cache)[0])
    return cache, job.fingerprint(), result, record


def v2_entry(fingerprint, job, result):
    """The v2 layout: one JSON object whose checksum field covers the
    canonical JSON of every other field."""
    payload = {
        "version": 2,
        "fingerprint": fingerprint,
        "job": job.describe(),
        "result": result.to_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps(payload, sort_keys=True)


def plant_entry_file(cache, fingerprint, content):
    """Land a file where the one-file-per-entry layouts (v2, v3) kept it."""
    entry = cache.directory / fingerprint[:2] / f"{fingerprint}.json"
    entry.parent.mkdir(parents=True, exist_ok=True)
    entry.write_text(content, encoding="utf-8")
    return entry


def small_job(**overrides) -> SimJob:
    defaults = dict(
        trace=TraceSpec("gcc", 2_000),
        system=SystemConfig(),
        interval_instructions=500,
        warmup_instructions=200,
    )
    defaults.update(overrides)
    return SimJob(**defaults)


class TestFingerprint:
    def test_identical_specs_share_a_fingerprint(self):
        assert job_fingerprint(small_job()) == job_fingerprint(small_job())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trace": TraceSpec("gcc", 2_001)},
            {"trace": TraceSpec("compress", 2_000)},
            {"trace": TraceSpec("gcc", 2_000, seed=7)},
            {"interval_instructions": 501},
            {"warmup_instructions": 0},
        ],
    )
    def test_perturbed_specs_change_the_fingerprint(self, overrides):
        assert job_fingerprint(small_job(**overrides)) != job_fingerprint(small_job())

    def test_system_config_change_invalidates(self):
        base = small_job()
        bigger_l1 = SystemConfig(l1d=CacheGeometry(64 * 1024, 2))
        slower_core = SystemConfig(core=CoreConfig(kind=CoreKind.IN_ORDER_BLOCKING))
        assert job_fingerprint(small_job(system=bigger_l1)) != job_fingerprint(base)
        assert job_fingerprint(small_job(system=slower_core)) != job_fingerprint(base)

    def test_organization_and_strategy_changes_invalidate(self):
        organization = __import__("repro.resizing.selective_sets", fromlist=["SelectiveSets"])
        org = organization.SelectiveSets(SystemConfig().l1d)
        config_small = org.ladder()[-1]
        config_full = org.ladder()[0]

        def with_setup(name, config):
            return small_job(
                d_setup=L1SetupSpec(organization=name, strategy=StrategySpec.static(config))
            )

        fixed = job_fingerprint(small_job())
        sets_small = job_fingerprint(with_setup("selective-sets", config_small))
        sets_full = job_fingerprint(with_setup("selective-sets", config_full))
        ways_small = job_fingerprint(with_setup("selective-ways", config_small))
        assert len({fixed, sets_small, sets_full, ways_small}) == 4

    def test_unregistered_organization_raises_after_the_memo_is_warm(self, monkeypatch):
        class MemoProbeSets(SelectiveSets):
            name = "memo-probe-sets"

        monkeypatch.setitem(runner._ORGANIZATION_REGISTRY, MemoProbeSets.name, MemoProbeSets)
        job = small_job(d_setup=L1SetupSpec(organization=MemoProbeSets.name))
        warm = job_fingerprint(job)
        assert job_fingerprint(job) == warm  # memoized, stable

        monkeypatch.delitem(runner._ORGANIZATION_REGISTRY, MemoProbeSets.name)
        with pytest.raises(SimulationError, match="unknown resizing organization"):
            job_fingerprint(job)
        with pytest.raises(SimulationError, match="unknown resizing organization"):
            job_fingerprint(dataclasses.replace(job))  # an equal, unseen object

        # Re-registering the name to another class rebinds the fingerprint.
        class OtherProbeSets(SelectiveSets):
            name = "memo-probe-sets"

        monkeypatch.setitem(runner._ORGANIZATION_REGISTRY, OtherProbeSets.name, OtherProbeSets)
        assert job_fingerprint(job) != warm

    def test_inline_trace_fingerprinted_by_content(self):
        trace_a = TraceSpec("gcc", 1_500).materialize()
        trace_b = TraceSpec("gcc", 1_500).materialize()
        trace_c = TraceSpec("compress", 1_500).materialize()
        assert job_fingerprint(small_job(trace=trace_a)) == job_fingerprint(
            small_job(trace=trace_b)
        )
        assert job_fingerprint(small_job(trace=trace_a)) != job_fingerprint(
            small_job(trace=trace_c)
        )


class TestJobCache:
    def test_miss_then_hit_roundtrips_exactly(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        assert cache.get(fingerprint) is None

        result = execute_job(job)
        cache.put(fingerprint, result, description=job.describe())
        restored = cache.get(fingerprint)
        assert restored is not None
        # Bit-exact round-trip: every field, including floats.
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)

    def test_perturbed_job_misses(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        cache.put(job.fingerprint(), execute_job(job))
        perturbed = small_job(warmup_instructions=0)
        assert cache.get(perturbed.fingerprint()) is None

    def test_corrupt_entry_is_a_self_healing_miss(self, tmp_path):
        cache, fingerprint, result, (header, _) = put_one(tmp_path)
        reader = rewrite_only_record(cache, header, b"{ truncated", rehash=False)
        assert reader.get(fingerprint) is None
        # Self-heal: counted once, dropped from the index, and the rewrite
        # restores the entry.
        assert reader.corrupt_entries == 1
        assert reader.get(fingerprint) is None
        assert reader.corrupt_entries == 1
        reader.put(fingerprint, result)
        assert reader.get(fingerprint) is not None
        assert reader.corrupt_entries == 1  # healthy reads do not count
        # A later reader meets the good record, not the damaged one.
        later = JobCache(cache.directory)
        assert later.get(fingerprint) is not None
        assert later.corrupt_entries == 0

    def test_checksum_mismatch_is_a_self_healing_miss(self, tmp_path):
        # A syntactically valid record whose content was tampered with (bit
        # rot, partial overwrite) must fail the checksum, not be served.
        cache, fingerprint, _, (header, body) = put_one(tmp_path)
        body["job"] = {"tampered": True}
        reader = rewrite_only_record(cache, header, body, rehash=False)
        assert reader.get(fingerprint) is None
        assert reader.corrupt_entries == 1
        assert reader.get(fingerprint) is None  # dropped: not counted again
        assert reader.corrupt_entries == 1

    def test_injected_cache_corrupt_fault_lands_torn_then_heals(self, tmp_path):
        from repro.sim import faults

        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        result = execute_job(job)
        faults.install_plan("cache_corrupt:shard=1")
        try:
            cache.put(fingerprint, result)  # fault: lands torn on disk
        finally:
            faults.reset()
        assert segments(cache)[0].read_bytes().count(b"\x1e") == 1
        assert cache.get(fingerprint) is None  # self-heals
        assert cache.corrupt_entries == 1
        cache.put(fingerprint, result)
        restored = cache.get(fingerprint)
        assert restored is not None
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)

    def test_deleted_cache_directory_tolerated(self, tmp_path):
        # Maintenance paths must self-heal like get/put when the directory
        # vanishes underneath a live handle.
        import shutil

        cache, fingerprint, result, _ = put_one(tmp_path)
        shutil.rmtree(tmp_path / "cache")
        assert len(cache) == 0
        assert cache.clear() == 0
        assert cache.get(fingerprint) is None
        cache.put(fingerprint, result)  # reopens a segment in a new directory
        assert len(cache) == 1
        restored = cache.get(fingerprint)
        assert restored is not None
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)
        assert JobCache(tmp_path / "cache").get(fingerprint) is not None
        # A put straight after the deletion (no read in between) must not
        # land in the deleted segment either.
        shutil.rmtree(tmp_path / "cache")
        cache.put(fingerprint, result)
        assert JobCache(tmp_path / "cache").get(fingerprint) is not None

    def test_missing_energy_block_is_a_miss(self, tmp_path):
        # A structurally valid record missing result fields must miss, not
        # be served as a zero-energy result.
        cache, fingerprint, _, (header, body) = put_one(tmp_path)
        del body["result"]["energy"]["core"]
        reader = rewrite_only_record(cache, header, body, rehash=True)  # checksum-valid
        assert reader.get(fingerprint) is None

    def test_foreign_version_is_a_miss(self, tmp_path):
        cache, fingerprint, _, (header, body) = put_one(tmp_path)
        header["version"] = CACHE_FORMAT_VERSION + 1
        reader = rewrite_only_record(cache, header, body, rehash=True)
        assert reader.get(fingerprint) is None
        assert reader.corrupt_entries == 0  # a format change is not corruption

    def test_v2_entry_is_a_plain_miss_replaced_by_a_v4_record(self, tmp_path):
        # A format change is not corruption: the old entry misses uncounted
        # and the rewrite lands a record of the current format.
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        result = execute_job(job)
        plant_entry_file(cache, fingerprint, v2_entry(fingerprint, job, result))

        assert cache.get(fingerprint) is None
        assert cache.corrupt_entries == 0
        cache.put(fingerprint, result, description=job.describe())
        ((header, _),) = read_records(segments(cache)[0])
        assert header["version"] == CACHE_FORMAT_VERSION == 4
        restored = cache.get(fingerprint)
        assert restored is not None
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)
        assert cache.corrupt_entries == 0

    def test_v3_entry_file_is_an_uncounted_miss(self, tmp_path):
        cache, fingerprint, result, (header, body) = put_one(tmp_path)
        v3 = dict(header, version=3)
        del v3["length"]
        body_bytes = json.dumps(body, sort_keys=True, separators=(",", ":"))
        v3["checksum"] = hashlib.sha256(body_bytes.encode("utf-8")).hexdigest()
        other = JobCache(tmp_path / "other")
        plant_entry_file(other, fingerprint, json.dumps(v3) + "\n" + body_bytes)
        assert other.get(fingerprint) is None
        assert other.corrupt_entries == 0
        assert len(other) == 0

    @pytest.mark.parametrize("content", ["[]", "null", "5", '"x"'])
    def test_non_object_entry_is_a_self_healing_miss(self, tmp_path, content):
        cache, fingerprint, _, (header, _) = put_one(tmp_path)
        # A non-object header names no fingerprint: stepped over, no crash.
        # A checksum-valid non-object body is a counted, dropped miss.
        (segment,) = segments(cache)
        segment.write_bytes(
            b"\x1e" + content.encode("utf-8") + b"\n{}\n"
            + encode_record(header, content.encode("utf-8"), rehash=True)
        )
        reader = JobCache(cache.directory)
        assert reader.get(fingerprint) is None
        assert reader.corrupt_entries == 1
        assert reader.get(fingerprint) is None
        assert reader.corrupt_entries == 1

    def test_len_and_clear(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        jobs = [small_job(), small_job(warmup_instructions=0)]
        for job in jobs:
            cache.put(job.fingerprint(), execute_job(job))
        assert len(cache) == 2
        assert fingerprint_in_cache(cache, jobs[0])
        # A leftover v3 entry and an orphaned v3 temp file from a killed
        # writer must also be swept.
        leftover = plant_entry_file(cache, "ab" * 32, "{}")
        orphan = leftover.with_name("deadbeef.json.tmp.12345")
        orphan.write_text("{}", encoding="utf-8")
        assert cache.clear() == 2
        assert len(cache) == 0
        assert segments(cache) == []
        assert not leftover.exists()
        assert not orphan.exists()
        assert not fingerprint_in_cache(cache, jobs[0])
        cache.put(jobs[0].fingerprint(), execute_job(jobs[0]))  # usable after clear
        assert fingerprint_in_cache(cache, jobs[0])


def _fake_fingerprint(writer: int, index: int) -> str:
    return hashlib.sha256(f"writer-{writer}-{index}".encode("utf-8")).hexdigest()


def _append_then_read_all(directory, writer, payload, entries, barrier, outcome):
    """One of two processes sharing a cache directory (runs in a child)."""
    cache = JobCache(directory)
    result = SimulationResult.from_dict(payload)
    other = 1 - writer
    assert cache.get(_fake_fingerprint(other, 0)) is None  # the first scan
    barrier.wait()
    for index in range(entries):
        cache.put(_fake_fingerprint(writer, index), result)
    barrier.wait()  # both writers done: every entry is on disk
    served = [
        cache.get(_fake_fingerprint(author, index))
        for author in (0, 1)
        for index in range(entries)
    ]
    outcome[writer] = int(
        all(entry is not None and entry.to_dict() == payload for entry in served)
        and cache.corrupt_entries == 0
    )


class TestSegmentLog:
    def test_two_processes_append_to_one_directory(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        payload = execute_job(small_job()).to_dict()
        barrier = context.Barrier(2)
        outcome = context.Array("i", [0, 0])
        entries = 40
        children = [
            context.Process(
                target=_append_then_read_all,
                args=(tmp_path / "shared", writer, payload, entries, barrier, outcome),
            )
            for writer in (0, 1)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(60)
            assert child.exitcode == 0
        # Each process read all entries of both, including the other's
        # appended after its own first scan.
        assert list(outcome) == [1, 1]
        shared = JobCache(tmp_path / "shared")
        assert len(segments(shared)) == 2
        assert len(shared) == 2 * entries

    @pytest.mark.parametrize("damaged_first", [True, False])
    def test_a_damaged_duplicate_never_shadows_an_intact_record(
        self, tmp_path, damaged_first
    ):
        # Last intact record wins; a damaged one only fills an empty slot,
        # whichever order the two landed in.
        cache, fingerprint, result, (header, body) = put_one(tmp_path)
        intact = encode_record(header, body, rehash=True)
        damaged = encode_record(header, b"{ torn", rehash=False)
        (segment,) = segments(cache)
        segment.write_bytes(damaged + intact if damaged_first else intact + damaged)
        reader = JobCache(cache.directory)
        restored = reader.get(fingerprint)
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)
        assert reader.corrupt_entries == 0
        assert len(reader) == 1

    def test_threads_read_while_one_appends(self, tmp_path):
        # The service shape: a runner thread puts while other threads (the
        # event loop, and here a second cache object on the same directory)
        # read.  Every entry whose put returned must be served intact.
        import sys
        import threading

        payload = execute_job(small_job()).to_dict()
        result = SimulationResult.from_dict(payload)
        writer = JobCache(tmp_path / "cache")
        readers = [writer, JobCache(tmp_path / "cache"), JobCache(tmp_path / "cache")]
        entries, done, failures = 300, [], []

        def append():
            for index in range(entries):
                writer.put(_fake_fingerprint(0, index), result)
                done.append(index)

        def read(cache):
            while not failures:
                finished = len(done) == entries  # then one last full pass
                for index in list(done):
                    entry = cache.get(_fake_fingerprint(0, index))
                    if entry is None or entry.to_dict() != payload:
                        failures.append(index)
                        return
                if finished:
                    return

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append)]
            threads += [threading.Thread(target=read, args=(cache,)) for cache in readers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        assert len(done) == entries
        assert all(cache.corrupt_entries == 0 for cache in readers)
        assert len(JobCache(tmp_path / "cache")) == entries

    def test_half_written_tail_serves_every_earlier_record(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        jobs = [small_job(warmup_instructions=warmup) for warmup in (0, 100, 200, 300)]
        results = [execute_job(job) for job in jobs]
        for job, result in zip(jobs[:3], results[:3]):
            cache.put(job.fingerprint(), result)
        (segment,) = segments(cache)
        last = encode_record(
            {"fingerprint": jobs[3].fingerprint(), "version": CACHE_FORMAT_VERSION},
            {"job": {}, "result": results[3].to_dict()},
            rehash=True,
        )
        with open(segment, "ab") as handle:
            handle.write(last[: len(last) // 2])  # a writer died (or is) mid-record

        reader = JobCache(cache.directory)
        for job, result in zip(jobs[:3], results[:3]):
            restored = reader.get(job.fingerprint())
            assert dataclasses.asdict(restored) == dataclasses.asdict(result)
        assert reader.get(jobs[3].fingerprint()) is None  # a plain miss
        assert reader.corrupt_entries == 0
        # The tail was not indexed: once its writer finishes, a miss finds it.
        with open(segment, "ab") as handle:
            handle.write(last[len(last) // 2:])
        restored = reader.get(jobs[3].fingerprint())
        assert dataclasses.asdict(restored) == dataclasses.asdict(results[3])
        assert reader.corrupt_entries == 0

    def test_corrupt_record_mid_segment_costs_exactly_one_entry(self, tmp_path):
        from repro.sim import faults

        writer = JobCache(tmp_path / "cache")
        jobs = [small_job(warmup_instructions=warmup) for warmup in (0, 100, 200)]
        results = [execute_job(job) for job in jobs]
        faults.install_plan("cache_corrupt:shard=2")
        try:
            for job, result in zip(jobs, results):
                writer.put(job.fingerprint(), result)
        finally:
            faults.reset()

        healer = JobCache(tmp_path / "cache")
        served = [healer.get(job.fingerprint()) for job in jobs]
        assert [entry is None for entry in served] == [False, True, False]
        assert healer.corrupt_entries == 1
        assert healer.get(jobs[1].fingerprint()) is None  # counted once
        assert healer.corrupt_entries == 1
        healer.put(jobs[1].fingerprint(), results[1])  # the re-simulated result

        # Opened after the heal: the good record wins, nothing is counted.
        later = JobCache(tmp_path / "cache")
        for job, result in zip(jobs, results):
            restored = later.get(job.fingerprint())
            assert dataclasses.asdict(restored) == dataclasses.asdict(result)
        assert later.corrupt_entries == 0


def fingerprint_in_cache(cache: JobCache, job: SimJob) -> bool:
    return job.fingerprint() in cache
