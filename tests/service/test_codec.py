"""Unit tests for the service wire codec: validation and handle identity."""

import json

import pytest

from repro.common.errors import InvalidRequestError
from repro.service import codec


def minimal_job(**overrides):
    payload = {"trace": {"application": "gcc", "n_instructions": 1_500}}
    payload.update(overrides)
    return payload


MINIMAL_SPEC = {
    "spec": 1,
    "name": "svc-test",
    "axes": {
        "targets": ["icache"],
        "organizations": ["hybrid"],
        "associativities": [8],
        "strategies": ["static"],
        "applications": ["gcc"],
    },
    "analysis": {"kind": "grid"},
}


class TestRenderJson:
    def test_is_canonical_regardless_of_insertion_order(self):
        a = codec.render_json({"b": 1, "a": [1, 2]})
        b = codec.render_json({"a": [1, 2], "b": 1})
        assert a == b == b'{"a":[1,2],"b":1}'

    def test_parse_body_round_trips(self):
        payload = {"x": 1, "nested": {"y": [True, None]}}
        assert codec.parse_body(codec.render_json(payload)) == payload


class TestParseBody:
    @pytest.mark.parametrize(
        "body",
        [
            b"", b"not json", b"[1,2]", b'"string"', b"\xff\xfe",
            b'{"deadline_seconds": NaN}', b'{"deadline_seconds": Infinity}',
            b'{"deadline_seconds": -Infinity}',
        ],
    )
    def test_rejects_non_object_bodies(self, body):
        with pytest.raises(InvalidRequestError) as excinfo:
            codec.parse_body(body)
        assert excinfo.value.status == 400


class TestJobFromPayload:
    def test_minimal_payload_builds_a_fingerprintable_job(self):
        job = codec.job_from_payload(minimal_job())
        assert job.trace.application == "gcc"
        assert job.trace.n_instructions == 1_500
        assert job.fingerprint()

    def test_full_payload_with_dynamic_setup(self):
        job = codec.job_from_payload(
            minimal_job(
                associativity=2,
                d_setup={
                    "organization": "selective-sets",
                    "strategy": {"kind": "dynamic", "miss_bound": 0.05},
                },
                interval_instructions=500,
            )
        )
        assert job.d_setup.organization == "selective-sets"
        assert job.d_setup.strategy.kind == "dynamic"

    def test_static_setup_requires_geometry(self):
        job = codec.job_from_payload(
            minimal_job(
                d_setup={
                    "organization": "selective-sets",
                    "strategy": {"kind": "static", "ways": 2, "sets": 128},
                }
            )
        )
        assert job.d_setup.strategy.kind == "static"

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no trace at all
            minimal_job(bogus_field=1),
            minimal_job(trace={"application": "no-such-app", "n_instructions": 100}),
            minimal_job(trace={"application": "gcc", "n_instructions": -5}),
            minimal_job(trace={"application": "gcc", "n_instructions": 100, "extra": 1}),
            minimal_job(core="no-such-core"),
            minimal_job(associativity=0),
            minimal_job(d_setup={"strategy": {"kind": "none"}}),  # strategy w/o org
            minimal_job(d_setup={"organization": "no-such-org"}),
            minimal_job(
                d_setup={"organization": "selective-sets", "strategy": {"kind": "bogus"}}
            ),
            minimal_job(interval_instructions=0),
            # Strategies that could only fail in the runner: wrong types,
            # out-of-range values and a size the organization lacks.
            *[
                minimal_job(
                    d_setup={
                        "organization": "selective-sets",
                        "strategy": {"kind": "dynamic", **fields},
                    }
                )
                for fields in (
                    {"downsize_fraction": "abc"},
                    {"downsize_fraction": [1]},
                    {"downsize_fraction": True},
                    {"downsize_fraction": 0},
                    {"downsize_fraction": 7.5},
                    {"miss_bound": -1},
                )
            ],
            minimal_job(
                d_setup={
                    "organization": "selective-sets",
                    "strategy": {"kind": "static", "ways": 3, "sets": 7},
                }
            ),
            # Fields another strategy kind reads are refused, not dropped.
            *[
                minimal_job(d_setup={"organization": "selective-sets", "strategy": strategy})
                for strategy in (
                    {"kind": "dynamic", "ways": 1, "sets": 4},
                    {"kind": "static", "ways": 2, "sets": 128, "miss_bound": "x"},
                )
            ],
        ],
    )
    def test_invalid_payloads_fail_with_400(self, payload):
        with pytest.raises(InvalidRequestError) as excinfo:
            codec.job_from_payload(payload)
        assert excinfo.value.status == 400

    def test_never_accepts_engine_or_path_overrides(self):
        # The wire schema is data-only by construction: engine/file fields
        # are unknown and rejected, they can never reach a worker.
        for field in ("engine", "technology", "timing", "trace_path"):
            with pytest.raises(InvalidRequestError):
                codec.job_from_payload(minimal_job(**{field: "x"}))


class TestHandles:
    def test_job_handle_is_the_cache_fingerprint(self):
        job = codec.job_from_payload(minimal_job())
        handle = codec.job_handle(job)
        assert handle == f"job-{job.fingerprint()[:40]}"

    def test_deadline_is_a_hint_not_identity(self):
        with_deadline = minimal_job(deadline_seconds=5)
        without = minimal_job()
        job_a = codec.job_from_payload(with_deadline)
        job_b = codec.job_from_payload(without)
        assert codec.job_handle(job_a) == codec.job_handle(job_b)
        assert codec.canonical_payload(with_deadline) == without
        assert codec.deadline_from_payload(with_deadline) == 5.0
        assert codec.deadline_from_payload(without) is None

    @pytest.mark.parametrize(
        "bad", [0, -1, "soon", True, {}, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_deadlines_are_rejected(self, bad):
        with pytest.raises(InvalidRequestError):
            codec.deadline_from_payload(minimal_job(deadline_seconds=bad))

    def test_spec_handle_depends_on_execution_params(self):
        spec = codec.spec_from_payload(MINIMAL_SPEC)
        short, _ = codec.spec_handle(spec, {"n_instructions": 1_000})
        long, _ = codec.spec_handle(spec, {"n_instructions": 60_000})
        again, _ = codec.spec_handle(spec, {"n_instructions": 1_000})
        assert short != long
        assert short == again
        assert short.startswith("spec-")

    def test_spec_from_payload_rejects_invalid_specs(self):
        with pytest.raises(InvalidRequestError) as excinfo:
            codec.spec_from_payload({"name": "broken"})
        assert excinfo.value.status == 400

    def test_distinct_work_gets_distinct_handles(self):
        base = codec.job_from_payload(minimal_job())
        longer = codec.job_from_payload(
            minimal_job(trace={"application": "gcc", "n_instructions": 3_000})
        )
        assert codec.job_handle(base) != codec.job_handle(longer)


class TestSpecRoundTrip:
    def test_spec_payload_matches_run_spec_wire_format(self):
        # The exact document `python -m repro run-spec` reads from disk is
        # accepted verbatim over the wire.
        spec = codec.spec_from_payload(json.loads(json.dumps(MINIMAL_SPEC)))
        assert spec.name == "svc-test"
