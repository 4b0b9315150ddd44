"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the data-driven description of one
experiment: a **design space** (the cartesian product of the axes in
:class:`AxesSpec`) plus an **analysis block** (:class:`AnalysisSpec`)
naming the procedure that turns the simulated cells into a report.  The
nine paper figures/tables are committed as spec files under
``src/repro/experiments/specs/`` and user-defined sweeps are ordinary spec
files fed to ``python -m repro run-spec`` — both execute through the same
:class:`repro.experiments.orchestrator.DoEOrchestrator`.

Specs are:

* **dict/YAML-loadable** — :func:`load_spec` reads ``.yaml``/``.yml``/
  ``.json`` files (YAML through one built-in parser for the restricted
  subset the spec schema needs, whatever else is installed), and
  :func:`spec_from_dict` accepts a plain mapping.
* **schema-validated** — unknown keys, wrong types, unregistered
  organizations and impossible axis combinations are rejected at load
  time with a :class:`~repro.common.errors.ConfigurationError`, not
  mid-evaluation.  The normative field reference lives in
  ``docs/EXPERIMENTS.md``, whose tables are asserted against
  :data:`SPEC_FIELDS` / :data:`AXES_FIELDS` / :data:`ANALYSIS_FIELDS` by a
  conformance test.
* **fingerprintable** — :meth:`ExperimentSpec.fingerprint` is the SHA-256
  of the spec's canonical JSON form, stable across load/dump round trips,
  so services and caches can content-address whole experiments.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.common.config import CoreKind
from repro.common.errors import ConfigurationError, SimulationError

#: Schema version this build reads (the ``spec`` top-level field).
SPEC_VERSION = 1

#: Sentinel for "every application the executing context knows about".
ALL_APPLICATIONS = "all"

#: Resizing strategies a spec's ``strategies`` axis may name.
STRATEGY_BASELINE = "baseline"
STRATEGY_STATIC = "static"
STRATEGY_DYNAMIC = "dynamic"
STRATEGY_JOINT_STATIC = "joint-static"
STRATEGIES: Tuple[str, ...] = (
    STRATEGY_BASELINE,
    STRATEGY_STATIC,
    STRATEGY_DYNAMIC,
    STRATEGY_JOINT_STATIC,
)

#: L1 targets a spec's ``targets`` axis may name (the sweep layer's names).
TARGETS: Tuple[str, ...] = ("dcache", "icache")

#: Where the nine committed paper specs live.
BUILTIN_SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")

_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9_-]*$")

# ---------------------------------------------------------------------------
# Normative field tables.  docs/EXPERIMENTS.md renders these as markdown
# tables and a conformance test asserts doc == code, the same pattern as
# docs/TRACE_FORMAT.md.  Each row: (field, type, required, meaning).
# ---------------------------------------------------------------------------

SPEC_FIELDS: List[Tuple[str, str, str, str]] = [
    ("spec", "int", "yes", "schema version; this build reads 1"),
    ("name", "str", "yes", "experiment identifier (lowercase letters, digits, - and _)"),
    ("title", "str", "no", "human-readable one-line title"),
    ("description", "str", "no", "free-form prose describing the experiment"),
    ("axes", "mapping", "yes", "the design space (see Axes fields)"),
    ("analysis", "mapping", "yes", "how cells become a report (see Analysis fields)"),
]

AXES_FIELDS: List[Tuple[str, str, str, str]] = [
    ("targets", "list[str]", "no", "which L1s are resized: dcache and/or icache (default dcache)"),
    ("organizations", "list[str]", "no",
     "registered resizing organizations (selective-ways, selective-sets, hybrid, or custom)"),
    ("associativities", "list[int]", "no", "base L1 set-associativities (default [2])"),
    ("core_kinds", "list[str]", "no",
     "processor configurations: in-order-blocking and/or out-of-order-nonblocking "
     "(default out-of-order-nonblocking)"),
    ("strategies", "list[str]", "no",
     "resizing strategies: baseline, static, dynamic, joint-static (default [static])"),
    ("applications", "str or list[str]", "no",
     "workload names, or the string all for the executing context's full list (default all)"),
]

ANALYSIS_FIELDS: List[Tuple[str, str, str, str]] = [
    ("kind", "str", "yes",
     "analysis procedure (a registered analyzer name; grid is the generic built-in)"),
    ("parameters", "mapping", "no", "kind-specific options (see the analyzer's documentation)"),
]


# ---------------------------------------------------------------------------
# The spec-file parser: one built-in reader for the YAML subset the schema
# needs, so a spec file means the same thing on every install.
# ---------------------------------------------------------------------------

#: Plain numbers only: ``float()`` alone would also read ``nan``/``inf``.
_FLOAT_PATTERN = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

#: YAML indicators outside the subset (flow mappings, anchors, aliases,
#: tags, block scalars, directives, reserved characters, nested lists).
_UNSUPPORTED_STARTS = "{}&*!|>%@`[]"


def _unquoted(line: str, targets: str):
    """Yield the index of every character of ``targets`` outside quotes.

    A quote opens a quoted scalar only where a scalar can start (line start,
    after a space, ``[`` or ``,``), so an apostrophe inside plain prose
    (``the cache's size``) is just a character, as in YAML.
    """
    in_quote: Optional[str] = None
    for index, char in enumerate(line):
        if in_quote:
            if char == in_quote:
                in_quote = None
        elif char in ("'", '"') and (index == 0 or line[index - 1] in " \t[,"):
            in_quote = char
        elif char in targets:
            yield index


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if text == "" or text in ("null", "~"):
        return None
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1]
        if not inner.strip():
            return []
        bounds = [-1, *_unquoted(inner, ","), len(inner)]
        return [_parse_scalar(inner[a + 1:b]) for a, b in zip(bounds, bounds[1:])]
    if text[0] in _UNSUPPORTED_STARTS or ": " in text or text.endswith(":"):
        raise ConfigurationError(f"spec parser: unsupported YAML syntax at {text!r}")
    try:
        return int(text, 10)
    except ValueError:
        pass
    if _FLOAT_PATTERN.match(text):
        return float(text)
    return text


def _strip_comment(line: str) -> str:
    """Drop a trailing comment (a ``#`` outside quotes, after a space) from one line."""
    for index in _unquoted(line, "#"):
        if index == 0 or line[index - 1] in " \t":
            return line[:index]
    return line


def _mini_yaml_load(text: str) -> Any:
    """Parse the restricted YAML subset the spec schema uses.

    Supported: nested mappings by 2-space-multiple indentation, ``- item``
    lists of scalars, inline ``[a, b]`` lists, quoted/plain scalars, ints,
    floats, booleans, null, comments and blank lines.  This is NOT a
    general YAML parser: anything outside the subset raises
    :class:`~repro.common.errors.ConfigurationError`.
    """
    lines: List[Tuple[int, str]] = []
    for raw in text.splitlines():
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append((indent, stripped.strip()))
    if not lines:
        return {}

    def parse_block(start: int, indent: int) -> Tuple[Any, int]:
        if lines[start][1].startswith("- "):
            items: List[Any] = []
            position = start
            while position < len(lines) and lines[position][0] == indent and (
                lines[position][1].startswith("- ")
            ):
                items.append(_parse_scalar(lines[position][1][2:]))
                position += 1
            return items, position
        mapping: Dict[str, Any] = {}
        position = start
        while position < len(lines):
            line_indent, content = lines[position]
            if line_indent < indent:
                break
            if line_indent > indent:
                raise ConfigurationError(
                    f"spec parser: unexpected indentation at {content!r}"
                )
            key, sep, value = content.partition(":")
            if not sep:
                raise ConfigurationError(f"spec parser: expected 'key:' at {content!r}")
            key = key.strip().strip('"').strip("'")
            value = value.strip()
            if value:
                mapping[key] = _parse_scalar(value)
                position += 1
            else:
                position += 1
                if position < len(lines) and lines[position][0] > indent:
                    mapping[key], position = parse_block(position, lines[position][0])
                else:
                    mapping[key] = None
        return mapping, position

    parsed, consumed = parse_block(0, lines[0][0])
    if consumed != len(lines):
        raise ConfigurationError(
            f"spec parser: trailing content at {lines[consumed][1]!r}"
        )
    return parsed


def load_spec_text(text: str) -> Any:
    """Parse spec-file text into plain Python data (the built-in YAML subset)."""
    return _mini_yaml_load(text)


# ---------------------------------------------------------------------------
# The spec dataclasses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxesSpec:
    """The design space: every combination of these axes is one cell."""

    targets: Tuple[str, ...] = ("dcache",)
    organizations: Tuple[str, ...] = ()
    associativities: Tuple[int, ...] = (2,)
    core_kinds: Tuple[str, ...] = (CoreKind.OUT_OF_ORDER_NONBLOCKING.value,)
    strategies: Tuple[str, ...] = (STRATEGY_STATIC,)
    applications: Union[str, Tuple[str, ...]] = ALL_APPLICATIONS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "targets": list(self.targets),
            "organizations": list(self.organizations),
            "associativities": list(self.associativities),
            "core_kinds": list(self.core_kinds),
            "strategies": list(self.strategies),
            "applications": (
                self.applications
                if isinstance(self.applications, str)
                else list(self.applications)
            ),
        }


@dataclass(frozen=True)
class AnalysisSpec:
    """How simulated cells become a report (rows + text rendering)."""

    kind: str
    parameters: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "parameters": dict(self.parameters)}


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete declarative experiment: identity, design space, analysis."""

    name: str
    axes: AxesSpec
    analysis: AnalysisSpec
    title: str = ""
    description: str = ""
    spec_version: int = SPEC_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form (the fingerprinted representation)."""
        return {
            "spec": self.spec_version,
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "axes": self.axes.to_dict(),
            "analysis": self.analysis.to_dict(),
        }

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON form — stable across round trips."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_axes(self, **overrides: Any) -> "ExperimentSpec":
        """A copy of this spec with some axes replaced (and re-validated).

        This is how the parameterised legacy entry points
        (``figure5.run(context, associativity=8)``) derive their variant
        specs from the committed ones.
        """
        axes = replace(self.axes, **{
            key: tuple(value) if isinstance(value, (list, tuple)) else value
            for key, value in overrides.items()
        })
        spec = replace(self, axes=axes)
        _validate_axes(spec.axes, spec.name)
        return spec


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def _require_str_list(
    value: Any, what: str, spec_name: str, allow_empty: bool = False
) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigurationError(f"spec {spec_name!r}: {what} must be a list of strings")
    if not value and not allow_empty:
        raise ConfigurationError(f"spec {spec_name!r}: {what} must not be empty")
    return tuple(value)


def _validate_axes(axes: AxesSpec, spec_name: str) -> None:
    for target in axes.targets:
        if target not in TARGETS:
            raise ConfigurationError(
                f"spec {spec_name!r}: unknown target {target!r}; choose from "
                f"{', '.join(TARGETS)}"
            )
    if len(set(axes.targets)) != len(axes.targets):
        raise ConfigurationError(f"spec {spec_name!r}: duplicate targets")
    from repro.sim.runner import organization_class  # deferred: avoids import cycle

    for organization in axes.organizations:
        try:
            organization_class(organization)
        except SimulationError as exc:
            raise ConfigurationError(f"spec {spec_name!r}: {exc}") from exc
    for associativity in axes.associativities:
        if not isinstance(associativity, int) or isinstance(associativity, bool) or (
            associativity < 1
        ):
            raise ConfigurationError(
                f"spec {spec_name!r}: associativities must be positive integers, "
                f"got {associativity!r}"
            )
    known_cores = tuple(kind.value for kind in CoreKind)
    for core in axes.core_kinds:
        if core not in known_cores:
            raise ConfigurationError(
                f"spec {spec_name!r}: unknown core kind {core!r}; choose from "
                f"{', '.join(known_cores)}"
            )
    for strategy in axes.strategies:
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"spec {spec_name!r}: unknown strategy {strategy!r}; choose from "
                f"{', '.join(STRATEGIES)}"
            )
    needs_organization = set(axes.strategies) - {STRATEGY_BASELINE}
    if needs_organization and not axes.organizations:
        raise ConfigurationError(
            f"spec {spec_name!r}: strategies {sorted(needs_organization)} need at "
            f"least one organization"
        )
    if STRATEGY_JOINT_STATIC in axes.strategies and set(axes.targets) != set(TARGETS):
        raise ConfigurationError(
            f"spec {spec_name!r}: the joint-static strategy resizes both L1s, so "
            f"targets must list both dcache and icache"
        )
    if not isinstance(axes.applications, str):
        for application in axes.applications:
            if not isinstance(application, str) or not application:
                raise ConfigurationError(
                    f"spec {spec_name!r}: applications must be workload names"
                )
    elif axes.applications != ALL_APPLICATIONS:
        raise ConfigurationError(
            f"spec {spec_name!r}: applications must be a list of names or the "
            f"string {ALL_APPLICATIONS!r}"
        )


def _axes_from_dict(data: Mapping[str, Any], spec_name: str) -> AxesSpec:
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"spec {spec_name!r}: axes must be a mapping")
    known = {name for name, _, _, _ in AXES_FIELDS}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"spec {spec_name!r}: unknown axes field(s) {sorted(unknown)}; known "
            f"fields: {sorted(known)}"
        )
    defaults = AxesSpec()
    targets = (
        _require_str_list(data["targets"], "targets", spec_name)
        if "targets" in data else defaults.targets
    )
    organizations = (
        # Empty is meaningful here (a baseline-only spec resizes nothing);
        # strategies that do need an organization are checked in
        # _validate_axes.
        _require_str_list(
            data["organizations"], "organizations", spec_name, allow_empty=True
        )
        if "organizations" in data else defaults.organizations
    )
    if "associativities" in data:
        raw_assoc = data["associativities"]
        if not isinstance(raw_assoc, (list, tuple)) or not raw_assoc:
            raise ConfigurationError(
                f"spec {spec_name!r}: associativities must be a non-empty list"
            )
        associativities = tuple(raw_assoc)
    else:
        associativities = defaults.associativities
    core_kinds = (
        _require_str_list(data["core_kinds"], "core_kinds", spec_name)
        if "core_kinds" in data else defaults.core_kinds
    )
    strategies = (
        _require_str_list(data["strategies"], "strategies", spec_name)
        if "strategies" in data else defaults.strategies
    )
    applications: Union[str, Tuple[str, ...]] = defaults.applications
    if "applications" in data:
        raw_apps = data["applications"]
        if isinstance(raw_apps, str):
            applications = raw_apps
        else:
            applications = _require_str_list(raw_apps, "applications", spec_name)
    return AxesSpec(
        targets=targets,
        organizations=organizations,
        associativities=associativities,
        core_kinds=core_kinds,
        strategies=strategies,
        applications=applications,
    )


def _analysis_from_dict(data: Mapping[str, Any], spec_name: str) -> AnalysisSpec:
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"spec {spec_name!r}: analysis must be a mapping")
    known = {name for name, _, _, _ in ANALYSIS_FIELDS}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"spec {spec_name!r}: unknown analysis field(s) {sorted(unknown)}; "
            f"known fields: {sorted(known)}"
        )
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ConfigurationError(f"spec {spec_name!r}: analysis.kind must be a name")
    parameters = data.get("parameters") or {}
    if not isinstance(parameters, Mapping):
        raise ConfigurationError(
            f"spec {spec_name!r}: analysis.parameters must be a mapping"
        )
    return AnalysisSpec(kind=kind, parameters=dict(parameters))


def spec_from_dict(data: Mapping[str, Any]) -> ExperimentSpec:
    """Validate a plain mapping into an :class:`ExperimentSpec`."""
    if not isinstance(data, Mapping):
        raise ConfigurationError("an experiment spec must be a mapping")
    known = {name for name, _, _, _ in SPEC_FIELDS}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown spec field(s) {sorted(unknown)}; known fields: {sorted(known)}"
        )
    version = data.get("spec")
    if version != SPEC_VERSION:
        raise ConfigurationError(
            f"unsupported spec version {version!r}; this build reads spec: {SPEC_VERSION}"
        )
    name = data.get("name")
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ConfigurationError(
            f"spec name {name!r} must match {_NAME_PATTERN.pattern}"
        )
    title = data.get("title", "")
    description = data.get("description", "")
    for what, value in (("title", title), ("description", description)):
        if not isinstance(value, str):
            raise ConfigurationError(f"spec {name!r}: {what} must be a string")
    if "axes" not in data:
        raise ConfigurationError(f"spec {name!r}: missing required field 'axes'")
    if "analysis" not in data:
        raise ConfigurationError(f"spec {name!r}: missing required field 'analysis'")
    axes = _axes_from_dict(data["axes"], name)
    _validate_axes(axes, name)
    analysis = _analysis_from_dict(data["analysis"], name)
    return ExperimentSpec(
        name=name, axes=axes, analysis=analysis, title=title, description=description,
        spec_version=SPEC_VERSION,
    )


def load_spec(path: str) -> ExperimentSpec:
    """Load and validate one spec file (``.yaml``/``.yml``/``.json``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path}: {exc}") from exc
    try:
        data = json.loads(text) if path.endswith(".json") else load_spec_text(text)
        return spec_from_dict(data)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed spec file {path}: {exc}") from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def builtin_spec_path(name: str) -> str:
    """Path of one committed spec file under ``experiments/specs/``."""
    return os.path.join(BUILTIN_SPEC_DIR, f"{name}.yaml")


def load_builtin_spec(name: str) -> ExperimentSpec:
    """Load one of the committed paper specs by experiment name."""
    spec = load_spec(builtin_spec_path(name))
    if spec.name != name:
        raise ConfigurationError(
            f"committed spec file {builtin_spec_path(name)} declares name "
            f"{spec.name!r}; expected {name!r}"
        )
    return spec


def builtin_spec_names() -> List[str]:
    """Names of every committed spec, in the canonical evaluation order."""
    names = sorted(
        os.path.splitext(entry)[0]
        for entry in os.listdir(BUILTIN_SPEC_DIR)
        if entry.endswith(".yaml")
    )
    # Tables lead the paper's evaluation section; keep that presentation
    # order (it is also the historical EXPERIMENTS registry order).
    tables = [name for name in names if name.startswith("table")]
    figures = [name for name in names if not name.startswith("table")]
    return tables + figures
