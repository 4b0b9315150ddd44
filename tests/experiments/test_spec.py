"""Declarative experiment specs: schema, validation, fingerprints.

Every committed spec under ``src/repro/experiments/specs/`` must load,
validate, fingerprint stably and plan cleanly; malformed user specs must
fail with precise `ConfigurationError`\\ s rather than silently dropping
an axis.  Spec files are always read by the built-in YAML-subset parser;
it must agree with PyYAML on every committed spec wherever PyYAML is
installed, and never import it.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.common.errors import ConfigurationError
from repro.experiments import (
    DoEOrchestrator,
    builtin_spec_names,
    builtin_spec_path,
    load_builtin_spec,
    load_spec,
    spec_from_dict,
)
from repro.experiments.spec import load_spec_text

#: Canonical job counts for the committed paper specs (the numbers
#: ``python -m repro list`` prints with the default twelve applications).
EXPECTED_JOBS = {
    "table1": 0,  # analytic: planning yields zero cells
    "table2": 12,
    "figure4": 240,
    "figure5": 60,
    "figure6": 336,
    "figure7": 72,
    "figure8": 72,
    "figure9": 48,
}


def minimal(**overrides):
    """A small valid spec dict to perturb in validation tests."""
    data = {
        "spec": 1,
        "name": "probe",
        "axes": {
            "targets": ["icache"],
            "organizations": ["hybrid"],
            "associativities": [8],
            "strategies": ["static"],
            "applications": ["gcc"],
        },
        "analysis": {"kind": "grid"},
    }
    data.update(overrides)
    return data


class TestCommittedSpecs:
    def test_the_full_figure_set_is_committed(self):
        assert builtin_spec_names() == [
            "table1", "table2", "figure4", "figure5", "figure6",
            "figure7", "figure8", "figure9",
        ]

    @pytest.mark.parametrize("name", sorted(EXPECTED_JOBS))
    def test_loads_validates_and_fingerprints_stably(self, name):
        spec = load_builtin_spec(name)
        assert spec.name == name
        # Canonical-form stability: a reload and a dict round-trip both
        # fingerprint identically.
        assert spec.fingerprint() == load_builtin_spec(name).fingerprint()
        assert spec_from_dict(spec.to_dict()).fingerprint() == spec.fingerprint()
        # Fingerprints are full SHA-256 hex digests.
        assert len(spec.fingerprint()) == 64
        int(spec.fingerprint(), 16)

    @pytest.mark.parametrize("name", sorted(EXPECTED_JOBS))
    def test_plans_the_expected_job_count(self, name):
        plan = DoEOrchestrator().plan(load_builtin_spec(name))
        assert plan.job_count == EXPECTED_JOBS[name]

    def test_fingerprints_are_pairwise_distinct(self):
        prints = {
            load_builtin_spec(name).fingerprint() for name in EXPECTED_JOBS
        }
        assert len(prints) == len(EXPECTED_JOBS)

    @pytest.mark.parametrize("name", sorted(EXPECTED_JOBS))
    def test_mini_yaml_agrees_with_pyyaml(self, name):
        yaml = pytest.importorskip("yaml")
        with open(builtin_spec_path(name), "r", encoding="utf-8") as handle:
            text = handle.read()
        from repro.experiments.spec import _mini_yaml_load

        assert _mini_yaml_load(text) == yaml.safe_load(text)


class TestOneParser:
    """A spec file means the same thing on every host, PyYAML or not."""

    def test_exponent_floats_read_as_numbers(self):
        # PyYAML (YAML 1.1) reads 5e-2 as the string '5e-2'.
        assert load_spec_text("max_slowdown: 5e-2") == {"max_slowdown": 0.05}

    def test_loading_every_committed_spec_never_imports_yaml(self):
        code = (
            "import sys\n"
            "from repro.experiments import builtin_spec_names, load_builtin_spec\n"
            "for name in builtin_spec_names():\n"
            "    load_builtin_spec(name)\n"
            "assert 'yaml' not in sys.modules, 'spec loading imported yaml'\n"
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = spec_from_dict(minimal())
        assert spec_from_dict(spec.to_dict()) == spec

    def test_json_specs_load_too(self, tmp_path):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(minimal()))
        assert load_spec(str(path)) == spec_from_dict(minimal())

    def test_yaml_text_loader_handles_the_spec_subset(self):
        text = (
            "spec: 1\n"
            "name: probe\n"
            "axes:\n"
            "  targets: [icache]\n"
            "  organizations: [hybrid]\n"
            "  associativities: [8]\n"
            "  strategies: [static]\n"
            "  applications: [gcc]\n"
            "analysis:\n"
            "  kind: grid\n"
        )
        assert spec_from_dict(load_spec_text(text)) == spec_from_dict(minimal())

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("l: [1, 'x, y']", {"l": [1, "x, y"]}),
            ('l: ["a,b", c]', {"l": ["a,b", "c"]}),
            ("l: [it's, b]", {"l": ["it's", "b"]}),
            ("d: the cache's size # note", {"d": "the cache's size"}),
            ("t: C#", {"t": "C#"}),
            ("x: nan", {"x": "nan"}),
        ],
    )
    def test_yaml_text_loader_respects_quotes_and_plain_text(self, text, expected):
        assert load_spec_text(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["a: {b: 1}", "a: &x 1", "a: *x", "a: |", "l:\n  - a: 1", "a: b: c", "a: [[1, 2]]"],
    )
    def test_yaml_outside_the_subset_is_rejected_naming_the_file(self, tmp_path, text):
        path = tmp_path / "probe.yaml"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="probe.yaml: spec parser"):
            load_spec(str(path))

    def test_with_axes_revalidates(self):
        spec = spec_from_dict(minimal())
        varied = spec.with_axes(associativities=(2, 4))
        assert varied.axes.associativities == (2, 4)
        assert varied.fingerprint() != spec.fingerprint()
        with pytest.raises(ConfigurationError):
            spec.with_axes(strategies=("mystery",))

    def test_fingerprint_ignores_prose_only_when_it_should(self):
        # Title and description are part of the canonical form: two specs
        # differing only in prose are different designs by fingerprint.
        spec = spec_from_dict(minimal())
        titled = spec_from_dict(minimal(title="Probe sweep"))
        assert titled.fingerprint() != spec.fingerprint()


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            spec_from_dict(minimal(surprise=1))

    def test_unknown_axes_key(self):
        data = minimal()
        data["axes"]["cache_sizes"] = [1]
        with pytest.raises(ConfigurationError, match="cache_sizes"):
            spec_from_dict(data)

    def test_unknown_analysis_key(self):
        data = minimal()
        data["analysis"]["mode"] = "fast"
        with pytest.raises(ConfigurationError, match="mode"):
            spec_from_dict(data)

    def test_wrong_spec_version(self):
        with pytest.raises(ConfigurationError, match="version"):
            spec_from_dict(minimal(spec=2))

    def test_missing_version(self):
        data = minimal()
        del data["spec"]
        with pytest.raises(ConfigurationError, match="version"):
            spec_from_dict(data)

    def test_bad_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            spec_from_dict(minimal(name="Has Spaces"))

    def test_unknown_strategy(self):
        data = minimal()
        data["axes"]["strategies"] = ["static", "oracle"]
        with pytest.raises(ConfigurationError, match="oracle"):
            spec_from_dict(data)

    def test_unknown_target(self):
        data = minimal()
        data["axes"]["targets"] = ["l2"]
        with pytest.raises(ConfigurationError, match="l2"):
            spec_from_dict(data)

    def test_unknown_core_kind(self):
        data = minimal()
        data["axes"]["core_kinds"] = ["quantum"]
        with pytest.raises(ConfigurationError, match="quantum"):
            spec_from_dict(data)

    def test_unknown_organization(self):
        data = minimal()
        data["axes"]["organizations"] = ["magic-ways"]
        with pytest.raises(ConfigurationError, match="magic-ways"):
            spec_from_dict(data)

    def test_resizing_strategy_requires_an_organization(self):
        data = minimal()
        data["axes"]["organizations"] = []
        with pytest.raises(ConfigurationError, match="organization"):
            spec_from_dict(data)

    def test_joint_static_requires_both_targets(self):
        data = minimal()
        data["axes"]["strategies"] = ["joint-static"]
        data["axes"]["targets"] = ["dcache"]
        with pytest.raises(ConfigurationError, match="both"):
            spec_from_dict(data)

    def test_baseline_only_needs_no_organizations(self):
        data = minimal()
        data["axes"]["strategies"] = ["baseline"]
        data["axes"]["organizations"] = []
        assert spec_from_dict(data).axes.strategies == ("baseline",)

    def test_specs_are_immutable(self):
        spec = spec_from_dict(minimal())
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "other"

    def test_load_spec_names_the_file_on_failure(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("spec: 1\nname: broken\n")  # missing axes/analysis
        with pytest.raises(ConfigurationError, match="broken.yaml"):
            load_spec(str(path))

    def test_load_spec_missing_file(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_spec("/nonexistent/spec.yaml")
