"""Wire codec for the sweep service: JSON payloads in, canonical bytes out.

The service accepts exactly two kinds of work, both as JSON documents:

* **single jobs** (``POST /jobs``) — a constrained description of one
  :class:`~repro.sim.runner.SimJob`.  The schema deliberately exposes the
  declarative spec layer only (trace by application name, setups by
  organization name, strategies by kind); it never accepts pickled
  objects, file paths, or engine overrides — a payload is data, and a
  malformed one fails here with a 400, never in a worker.
* **experiment specs** (``POST /specs``) — the PR-7 wire format verbatim:
  the same mapping ``python -m repro run-spec`` reads from disk, validated
  by :func:`repro.experiments.spec.spec_from_dict`.

Both kinds reduce to a deterministic **handle**: single jobs use the job
fingerprint the cache already keys on (so N clients submitting the same
job share one execution *and* one cache entry), specs hash the spec
fingerprint together with the canonical execution parameters.  Responses
are rendered with :func:`render_json` — sorted keys, no whitespace — so
duplicate submissions receive byte-identical payloads no matter which
connection served them.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.config import CacheGeometry, CoreConfig, CoreKind, SystemConfig
from repro.common.errors import (
    ConfigurationError,
    InvalidRequestError,
    ResizingError,
    SimulationError,
)
from repro.experiments.spec import ExperimentSpec, spec_from_dict
from repro.resizing.organization import make_config
from repro.sim.runner import (
    DYNAMIC,
    NONE,
    STATIC,
    L1SetupSpec,
    SimJob,
    StrategySpec,
    TraceSpec,
)
from repro.workloads.profiles import get_profile

#: Default L1 capacity for service-submitted jobs (the paper's 32K L1).
DEFAULT_L1_CAPACITY = 32 * 1024

#: Execution *hints* riding along in a payload: they shape how a request
#: runs (deadline), never what it computes, so they are stripped before
#: handle derivation — the same work under a different deadline is still
#: the same work.
HINT_FIELDS = ("deadline_seconds",)

_JOB_FIELDS = frozenset(
    {
        "trace", "core", "associativity", "d_setup", "i_setup",
        "interval_instructions", "warmup_instructions",
        "sample_every", "sample_warmup",
    }
    | set(HINT_FIELDS)
)
_TRACE_FIELDS = frozenset({"application", "n_instructions", "seed"})
_SETUP_FIELDS = frozenset({"organization", "strategy"})
#: The fields each strategy kind reads; any other field is refused.
_STRATEGY_FIELDS = {
    NONE: frozenset({"kind"}),
    STATIC: frozenset({"kind", "ways", "sets"}),
    DYNAMIC: frozenset({
        "kind", "miss_bound", "size_bound_bytes", "sense_interval_accesses",
        "downsize_fraction", "settle_intervals", "reversal_backoff_intervals",
    }),
}


def render_json(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, UTF-8.

    Every response body the service emits goes through here, which is what
    makes deduplicated submissions *byte-identical*: the rendering is a
    pure function of the data, independent of dict insertion order or
    which connection asked.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")


def parse_body(body: bytes) -> Mapping[str, Any]:
    """Decode a request body into a JSON mapping (400 on anything else)."""
    if not body:
        raise InvalidRequestError("request body must be a JSON object; got an empty body")
    try:
        payload = json.loads(body.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidRequestError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise InvalidRequestError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _reject_constant(name: str):
    """Refuse the non-standard JSON constants ``NaN``, ``Infinity`` and ``-Infinity``."""
    raise InvalidRequestError(f"request body is not valid JSON: {name} is not a JSON number")


def _require(payload: Mapping[str, Any], field: str, kinds, what: str):
    value = payload.get(field)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise InvalidRequestError(f"{what}.{field} must be {kinds_name(kinds)}, got {value!r}")
    return value


def kinds_name(kinds) -> str:
    if isinstance(kinds, tuple):
        return " or ".join(k.__name__ for k in kinds)
    return kinds.__name__


def _check_fields(payload: Mapping[str, Any], known: frozenset, what: str) -> None:
    unknown = set(payload) - known
    if unknown:
        raise InvalidRequestError(
            f"unknown {what} field(s) {sorted(unknown)}; known fields: {sorted(known)}"
        )


def _positive_int(payload: Mapping[str, Any], field: str, default: int, what: str,
                  minimum: int = 1) -> int:
    value = payload.get(field, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidRequestError(
            f"{what}.{field} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def _number(payload: Mapping[str, Any], field: str, default: float, what: str) -> float:
    value = payload.get(field, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidRequestError(f"{what}.{field} must be a number, got {value!r}")
    return float(value)


def _trace_from_payload(payload: Mapping[str, Any]) -> TraceSpec:
    if not isinstance(payload, Mapping):
        raise InvalidRequestError("trace must be a mapping")
    _check_fields(payload, _TRACE_FIELDS, "trace")
    application = _require(payload, "application", str, "trace")
    try:
        get_profile(application)
    except Exception as exc:
        raise InvalidRequestError(f"unknown application {application!r}: {exc}") from exc
    n_instructions = _positive_int(payload, "n_instructions", 0, "trace")
    seed = payload.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise InvalidRequestError(f"trace.seed must be an integer or null, got {seed!r}")
    return TraceSpec(application=application, n_instructions=n_instructions, seed=seed)


def _strategy_from_payload(
    payload: Mapping[str, Any], geometry: CacheGeometry, what: str
) -> StrategySpec:
    if not isinstance(payload, Mapping):
        raise InvalidRequestError(f"{what}.strategy must be a mapping")
    kind = _require(payload, "kind", str, f"{what}.strategy")
    if kind not in _STRATEGY_FIELDS:
        raise InvalidRequestError(
            f"{what}.strategy.kind must be one of {NONE!r}, {STATIC!r}, {DYNAMIC!r}; "
            f"got {kind!r}"
        )
    _check_fields(payload, _STRATEGY_FIELDS[kind], f"{what}.strategy ({kind})")
    if kind == NONE:
        return StrategySpec(kind=NONE)
    if kind == STATIC:
        ways = _positive_int(payload, "ways", 0, f"{what}.strategy")
        sets = _positive_int(payload, "sets", 0, f"{what}.strategy")
        return StrategySpec.static(make_config(ways, sets, geometry.block_bytes))
    return StrategySpec.dynamic(
        miss_bound=_number(payload, "miss_bound", 0.0, f"{what}.strategy"),
        size_bound_bytes=_positive_int(
            payload, "size_bound_bytes", 0, f"{what}.strategy", minimum=0
        ),
        sense_interval_accesses=_positive_int(
            payload, "sense_interval_accesses", 16384, f"{what}.strategy"
        ),
        downsize_fraction=_number(payload, "downsize_fraction", 1.0, f"{what}.strategy"),
        settle_intervals=_positive_int(
            payload, "settle_intervals", 2, f"{what}.strategy"
        ),
        reversal_backoff_intervals=_positive_int(
            payload, "reversal_backoff_intervals", 8, f"{what}.strategy"
        ),
    )


def _setup_from_payload(
    payload: Optional[Mapping[str, Any]], geometry: CacheGeometry, what: str
) -> L1SetupSpec:
    if payload is None:
        return L1SetupSpec.fixed()
    if not isinstance(payload, Mapping):
        raise InvalidRequestError(f"{what} must be a mapping")
    _check_fields(payload, _SETUP_FIELDS, what)
    organization = payload.get("organization")
    if organization is None:
        if payload.get("strategy") is not None:
            raise InvalidRequestError(
                f"{what}.strategy requires {what}.organization to be set"
            )
        return L1SetupSpec.fixed()
    if not isinstance(organization, str):
        raise InvalidRequestError(
            f"{what}.organization must be an organization name, got {organization!r}"
        )
    strategy_payload = payload.get("strategy")
    strategy = (
        None
        if strategy_payload is None
        else _strategy_from_payload(strategy_payload, geometry, what)
    )
    spec = L1SetupSpec(organization=organization, strategy=strategy)
    # Build and bind once here, so the registry, the strategy's range checks
    # and the organization's size lattice refuse a setup with a 400 instead
    # of failing later in the runner.
    try:
        setup = spec.build(geometry)
        if setup.strategy is not None:
            setup.strategy.bind(setup.organization)
    except (ConfigurationError, ResizingError, SimulationError) as exc:
        raise InvalidRequestError(f"{what}: {exc}") from exc
    return spec


def job_from_payload(payload: Mapping[str, Any]) -> SimJob:
    """Validate a ``POST /jobs`` payload into a :class:`SimJob` (400 on error)."""
    return validated_job(payload)[0]


def validated_job(payload: Mapping[str, Any]) -> Tuple[SimJob, str]:
    """Validate a ``POST /jobs`` payload into ``(job, job fingerprint)``.

    Validation already computes the fingerprint, so admission reuses it for
    the handle and the cache lookup instead of fingerprinting again.
    """
    _check_fields(payload, _JOB_FIELDS, "job")
    if "trace" not in payload:
        raise InvalidRequestError("job payload is missing the required 'trace' field")
    trace = _trace_from_payload(payload["trace"])
    core = payload.get("core", CoreKind.OUT_OF_ORDER_NONBLOCKING.value)
    try:
        core_kind = CoreKind(core)
    except ValueError:
        known = ", ".join(kind.value for kind in CoreKind)
        raise InvalidRequestError(
            f"unknown core kind {core!r}; choose from: {known}"
        ) from None
    associativity = _positive_int(payload, "associativity", 2, "job")
    try:
        geometry = CacheGeometry(DEFAULT_L1_CAPACITY, associativity)
        system = SystemConfig(core=CoreConfig(kind=core_kind), l1d=geometry, l1i=geometry)
    except ConfigurationError as exc:
        raise InvalidRequestError(str(exc)) from exc
    job = SimJob(
        trace=trace,
        system=system,
        d_setup=_setup_from_payload(payload.get("d_setup"), geometry, "d_setup"),
        i_setup=_setup_from_payload(payload.get("i_setup"), geometry, "i_setup"),
        interval_instructions=_positive_int(
            payload, "interval_instructions", 1500, "job"
        ),
        warmup_instructions=_positive_int(
            payload, "warmup_instructions", 0, "job", minimum=0
        ),
        sample_every=_positive_int(payload, "sample_every", 1, "job"),
        sample_warmup=_positive_int(payload, "sample_warmup", 0, "job", minimum=0),
    )
    try:
        fingerprint = job.fingerprint()  # impossible setups surface here, not in a worker
    except SimulationError as exc:
        raise InvalidRequestError(str(exc)) from exc
    return job, fingerprint


def spec_from_payload(payload: Mapping[str, Any]) -> ExperimentSpec:
    """Validate a ``POST /specs`` payload (the PR-7 spec wire format)."""
    try:
        return spec_from_dict(payload)
    except ConfigurationError as exc:
        raise InvalidRequestError(str(exc)) from exc


def deadline_from_payload(payload: Mapping[str, Any]) -> Optional[float]:
    """Extract the optional per-request deadline hint (seconds)."""
    deadline = payload.get("deadline_seconds")
    if deadline is None:
        return None
    if not isinstance(deadline, (int, float)) or isinstance(deadline, bool) or not (
        0 < deadline < math.inf
    ):
        raise InvalidRequestError(
            f"deadline_seconds must be a positive finite number, got {deadline!r}"
        )
    return float(deadline)


def canonical_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The identity-bearing portion of a payload (hints stripped)."""
    return {key: payload[key] for key in payload if key not in HINT_FIELDS}


def job_handle(job: SimJob) -> str:
    """Handle for a single job: the cache fingerprint itself, prefixed.

    Sharing the cache key is the point — a restarted server (or a second
    one on the same cache directory) resolves the handle straight from the
    job cache without re-simulating.
    """
    return fingerprint_handle(job.fingerprint())


def fingerprint_handle(fingerprint: str) -> str:
    """The :func:`job_handle` of the job with this cache fingerprint."""
    return f"job-{fingerprint[:40]}"


def spec_handle(spec: ExperimentSpec, params: Mapping[str, Any]) -> Tuple[str, str]:
    """(handle, digest) for a spec run under canonical execution params.

    The execution parameters (trace length, application subset, sampling
    schedule) change the simulated cells, so they are part of the handle
    identity: the same spec at a different ``--instructions`` is different
    work.
    """
    canonical = json.dumps(
        {"spec": spec.fingerprint(), "params": dict(sorted(params.items()))},
        sort_keys=True, separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"spec-{digest[:40]}", digest
