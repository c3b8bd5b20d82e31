"""Self-tests for tools/lintkit: every rule family has a known-bad fixture
that must trip it and a known-clean fixture that must not, the suppression
meta-rules work, and the real source tree lints clean (with only documented
suppressions).  The mypy gate is exercised when mypy is installed (CI); the
lintkit `typing-annotations` rule is the always-available floor under it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # `tools` is a repo-root package
    sys.path.insert(0, str(REPO_ROOT))

from tools.lintkit import LintConfig, run_paths  # noqa: E402
from tools.lintkit.rules import ALL_RULES, rule_catalogue  # noqa: E402

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: (fixture stem, rule ids that must fire on the bad file; the clean file
#: must produce no violations from any rule in the same family)
FAMILIES = [
    (
        "nondet",
        {"wall-clock", "entropy-source", "unseeded-random", "set-iteration"},
    ),
    (
        "kernel",
        {
            "kernel-access-outcome",
            "kernel-snapshot-fields",
            "kernel-no-io",
            "kernel-request-mutation",
        },
    ),
    ("observer", {"observer-param-mutation", "observer-merge-required"}),
    ("intclock", {"int-clock-float"}),
]


def fixture_config(**overrides) -> LintConfig:
    defaults = dict(
        root=FIXTURES,
        # Point the cross-file rules away from the real repo so fixture
        # runs are self-contained.
        policy_registry_module="registry_clean.registry",
        experiment_registry_module="registry_clean.experiments",
        golden_dir="registry_clean/golden",
        invariant_suite="registry_clean/suite.py",
        batch_parity_suite="registry_clean/suite.py",
    )
    defaults.update(overrides)
    return LintConfig(**defaults)


# ----------------------------------------------------------------- catalogue
def test_rule_ids_are_unique() -> None:
    ids = [rule.rule_id for rule in ALL_RULES]
    assert len(ids) == len(set(ids))
    assert all(rule.summary for rule in ALL_RULES)


def test_catalogue_covers_every_family() -> None:
    ids = {rule_id for rule_id, _ in rule_catalogue()}
    for _, family_ids in FAMILIES:
        assert family_ids <= ids
    assert {
        "registry-golden-fixture",
        "registry-invariant-suite",
        "registry-policy-unregistered",
        "batch-kernel-parity",
        "typing-annotations",
    } <= ids


# ------------------------------------------------------------- bad vs clean
@pytest.mark.parametrize("stem,expected", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_bad_fixture_trips_every_family_rule(stem: str, expected: set) -> None:
    result = run_paths(
        [FIXTURES / f"{stem}_bad.py"], fixture_config(), select=sorted(expected)
    )
    assert {v.rule_id for v in result.violations} == expected


@pytest.mark.parametrize("stem,family", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_clean_fixture_passes_its_family(stem: str, family: set) -> None:
    result = run_paths(
        [FIXTURES / f"{stem}_clean.py"], fixture_config(), select=sorted(family)
    )
    assert result.violations == []


def test_merge_rule_covers_on_batch() -> None:
    """State accumulated only in on_batch — the hook the engine drives —
    needs merge() as much as state accumulated in on_outcome."""
    result = run_paths(
        [FIXTURES / "observer_batch_bad.py"],
        fixture_config(),
        select=["observer-merge-required"],
    )
    assert [v.rule_id for v in result.violations] == ["observer-merge-required"]


def test_typing_gate_fires_only_in_strict_packages() -> None:
    config = fixture_config(strict_typing_packages=("typing_bad", "typing_clean"))
    bad = run_paths(
        [FIXTURES / "typing_bad.py"], config, select=["typing-annotations"]
    )
    assert {v.rule_id for v in bad.violations} == {"typing-annotations"}
    # One for each un-annotated def (“no_return_annotation”, “missing_params”
    # with three missing params, “method”, plus the missing returns).
    assert len(bad.violations) >= 3
    clean = run_paths(
        [FIXTURES / "typing_clean.py"], config, select=["typing-annotations"]
    )
    assert clean.violations == []
    # The same bad file outside the strict packages is not checked at all.
    lax = run_paths(
        [FIXTURES / "typing_bad.py"],
        fixture_config(strict_typing_packages=("some.other.package",)),
        select=["typing-annotations"],
    )
    assert lax.violations == []


# ------------------------------------------------------------------ registry
_REGISTRY_RULES = [
    "registry-golden-fixture",
    "registry-invariant-suite",
    "registry-policy-unregistered",
]


def test_registry_bad_tree_trips_all_registry_rules() -> None:
    config = fixture_config(
        policy_registry_module="registry_bad.registry",
        experiment_registry_module="registry_bad.experiments",
        golden_dir="registry_bad/golden",
        invariant_suite="registry_bad/suite.py",
    )
    result = run_paths([FIXTURES / "registry_bad"], config, select=_REGISTRY_RULES)
    assert {v.rule_id for v in result.violations} == set(_REGISTRY_RULES)


def test_registry_clean_tree_passes() -> None:
    result = run_paths(
        [FIXTURES / "registry_clean"], fixture_config(), select=_REGISTRY_RULES
    )
    assert result.violations == []


def test_registry_rules_noop_without_registry_in_analysis_set() -> None:
    # A fixture-only run that does not include the registry modules must not
    # fail registry completeness: the rules only fire when the registry is
    # part of the analysis set.
    result = run_paths(
        [FIXTURES / "kernel_clean.py"],
        fixture_config(
            policy_registry_module="no.such.module",
            experiment_registry_module="no.such.experiments",
        ),
        select=_REGISTRY_RULES,
    )
    assert result.violations == []


# -------------------------------------------------------------- batch parity
def _batch_parity_config(stem: str, **overrides) -> LintConfig:
    defaults = dict(
        policy_registry_module=f"{stem}.registry",
        batch_parity_suite=f"{stem}/suite.py",
    )
    defaults.update(overrides)
    return fixture_config(**defaults)


def test_batch_parity_bad_tree_trips_rule() -> None:
    result = run_paths(
        [FIXTURES / "batch_parity_bad"],
        _batch_parity_config("batch_parity_bad"),
        select=["batch-kernel-parity"],
    )
    assert {v.rule_id for v in result.violations} == {"batch-kernel-parity"}
    # The registered policy is covered through the registry; only the orphan
    # batch kernel is flagged.
    assert len(result.violations) == 1
    assert "OrphanBatchPolicy" in result.violations[0].message


def test_batch_parity_missing_suite_is_reported() -> None:
    result = run_paths(
        [FIXTURES / "batch_parity_bad"],
        _batch_parity_config(
            "batch_parity_bad", batch_parity_suite="no/such/suite.py"
        ),
        select=["batch-kernel-parity"],
    )
    assert [v.rule_id for v in result.violations] == ["batch-kernel-parity"]
    assert "does not" in result.violations[0].message


def test_batch_parity_suite_must_derive_from_registry() -> None:
    # registry_clean/suite.py calls available_policies, but imports it from
    # a different registry module — coverage cannot be registry-derived.
    result = run_paths(
        [FIXTURES / "batch_parity_bad"],
        _batch_parity_config(
            "batch_parity_bad", batch_parity_suite="registry_clean/suite.py"
        ),
        select=["batch-kernel-parity"],
    )
    assert [v.rule_id for v in result.violations] == ["batch-kernel-parity"]
    assert "available_policies" in result.violations[0].message


def test_batch_parity_clean_tree_passes() -> None:
    result = run_paths(
        [FIXTURES / "batch_parity_clean"],
        _batch_parity_config("batch_parity_clean"),
        select=["batch-kernel-parity"],
    )
    assert result.violations == []


def test_batch_parity_noops_without_registry_in_analysis_set() -> None:
    result = run_paths(
        [FIXTURES / "kernel_clean.py"],
        fixture_config(policy_registry_module="no.such.module"),
        select=["batch-kernel-parity"],
    )
    assert result.violations == []


# -------------------------------------------------------------- suppressions
def test_suppression_meta_rules() -> None:
    result = run_paths([FIXTURES / "suppress_bad.py"], fixture_config())
    ids = {v.rule_id for v in result.violations}
    # The reason-less suppression does not silence the violation *and* is
    # itself reported; the stale suppression is reported as unused.
    assert "wall-clock" in ids
    assert "suppression-reason" in ids
    assert "suppression-unused" in ids


def test_documented_suppression_silences_and_is_recorded() -> None:
    result = run_paths([FIXTURES / "suppress_clean.py"], fixture_config())
    assert result.ok
    assert len(result.suppressed) == 1
    violation, suppression = result.suppressed[0]
    assert violation.rule_id == "wall-clock"
    assert suppression.reason


# ------------------------------------------------------------ the real tree
def test_src_repro_lints_clean() -> None:
    result = run_paths([REPO_ROOT / "src" / "repro"], LintConfig(root=REPO_ROOT))
    assert result.violations == [], "\n".join(
        v.render() for v in result.violations
    )
    # Suppressions are allowed only when documented with a reason.
    undocumented = [s for _, s in result.suppressed if not s.reason]
    assert undocumented == []


def test_cli_exit_codes() -> None:
    clean = subprocess.run(
        [sys.executable, "-m", "tools.lintkit", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    bad = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.lintkit",
            "--select",
            "wall-clock",
            str(FIXTURES / "nondet_bad.py"),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 1
    assert "wall-clock" in bad.stdout


def test_cli_unknown_rule_is_usage_error() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "tools.lintkit", "--select", "no-such-rule", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


# ----------------------------------------------------------------- mypy gate
def test_mypy_strict_core() -> None:
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
