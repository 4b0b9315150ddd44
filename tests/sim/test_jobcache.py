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
from repro.sim.runner import (
    L1SetupSpec,
    SimJob,
    StrategySpec,
    TraceSpec,
    execute_job,
    job_fingerprint,
)


def read_entry(path):
    """Split a v3 entry into its (header, body) JSON objects."""
    header, body = path.read_bytes().split(b"\n", 1)
    return json.loads(header), json.loads(body)


def write_entry(path, header, body, *, rehash):
    """Land a v3 entry; ``rehash`` recomputes the header's body checksum."""
    body_bytes = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if rehash:
        header = dict(header, checksum=hashlib.sha256(body_bytes).hexdigest())
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body_bytes)


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
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        result = execute_job(job)
        cache.put(fingerprint, result)
        entry = cache._entry_path(fingerprint)
        entry.write_text("{ truncated", encoding="utf-8")
        assert cache.get(fingerprint) is None
        # Self-heal: counted, deleted, and the rewrite restores the entry.
        assert cache.corrupt_entries == 1
        assert not entry.exists()
        cache.put(fingerprint, result)
        assert cache.get(fingerprint) is not None
        assert cache.corrupt_entries == 1  # healthy reads do not count

    def test_checksum_mismatch_is_a_self_healing_miss(self, tmp_path):
        # A syntactically valid entry whose content was tampered with (bit
        # rot, partial overwrite) must fail the checksum, not be served.
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        cache.put(fingerprint, execute_job(job))
        entry = cache._entry_path(fingerprint)
        header, body = read_entry(entry)
        body["job"] = {"tampered": True}
        write_entry(entry, header, body, rehash=False)
        assert cache.get(fingerprint) is None
        assert cache.corrupt_entries == 1
        assert not entry.exists()

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
        entry = cache._entry_path(fingerprint)
        assert entry.exists()
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

        cache = JobCache(tmp_path / "cache")
        job = small_job()
        cache.put(job.fingerprint(), execute_job(job))
        shutil.rmtree(tmp_path / "cache")
        assert len(cache) == 0
        assert cache.clear() == 0
        assert cache.get(job.fingerprint()) is None
        cache.put(job.fingerprint(), execute_job(job))  # put re-creates dirs
        assert len(cache) == 1

    def test_missing_energy_block_is_a_miss(self, tmp_path):
        # A structurally valid entry missing result fields must miss, not be
        # served as a zero-energy result.
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        cache.put(fingerprint, execute_job(job))
        entry = cache._entry_path(fingerprint)
        header, body = read_entry(entry)
        del body["result"]["energy"]["core"]
        write_entry(entry, header, body, rehash=True)  # checksum-valid, incomplete
        assert cache.get(fingerprint) is None

    def test_foreign_version_is_a_miss(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        cache.put(fingerprint, execute_job(job))
        entry = cache._entry_path(fingerprint)
        header, body = read_entry(entry)
        header["version"] = CACHE_FORMAT_VERSION + 1
        write_entry(entry, header, body, rehash=True)
        assert cache.get(fingerprint) is None

    def test_v2_entry_is_a_plain_miss_overwritten_by_v3(self, tmp_path):
        # The previous layout: one JSON object whose checksum field covers
        # the canonical JSON of every other field.  A format change is not
        # corruption: the entry misses uncounted and the rewrite replaces it.
        cache = JobCache(tmp_path / "cache")
        job = small_job()
        fingerprint = job.fingerprint()
        result = execute_job(job)
        payload = {
            "version": 2,
            "fingerprint": fingerprint,
            "job": job.describe(),
            "result": result.to_dict(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        entry = cache._entry_path(fingerprint)
        entry.parent.mkdir(parents=True)
        entry.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

        assert cache.get(fingerprint) is None
        assert cache.corrupt_entries == 0
        cache.put(fingerprint, result, description=job.describe())
        header, _ = read_entry(entry)
        assert header["version"] == CACHE_FORMAT_VERSION == 3
        restored = cache.get(fingerprint)
        assert restored is not None
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)
        assert cache.corrupt_entries == 0

    @pytest.mark.parametrize("content", ["[]", "null", "5", '"x"'])
    def test_non_object_entry_is_a_self_healing_miss(self, tmp_path, content):
        cache = JobCache(tmp_path / "cache")
        fingerprint = small_job().fingerprint()
        entry = cache._entry_path(fingerprint)
        entry.parent.mkdir(parents=True)
        entry.write_text(content, encoding="utf-8")
        assert cache.get(fingerprint) is None
        assert cache.corrupt_entries == 1
        assert not entry.exists()

    def test_len_and_clear(self, tmp_path):
        cache = JobCache(tmp_path / "cache")
        jobs = [small_job(), small_job(warmup_instructions=0)]
        for job in jobs:
            cache.put(job.fingerprint(), execute_job(job))
        assert len(cache) == 2
        assert fingerprint_in_cache(cache, jobs[0])
        # Orphan temp file from a killed writer must also be swept.
        shard = cache._entry_path(jobs[0].fingerprint()).parent
        orphan = shard / "deadbeef.json.tmp.12345"
        orphan.write_text("{}", encoding="utf-8")
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not orphan.exists()
        assert not fingerprint_in_cache(cache, jobs[0])


def fingerprint_in_cache(cache: JobCache, job: SimJob) -> bool:
    return job.fingerprint() in cache
