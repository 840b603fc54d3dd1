"""Tests of the ``repro.tools.lint`` invariant analyzer.

Every rule is exercised through a pair of on-disk fixtures
(``tests/lint_fixtures/<RULE>/violation.py`` and ``clean.py``); each fixture
claims its logical location with a first-line ``# lint-fixture-path:``
marker so path-scoped rules apply.  The real tree is also linted in full —
the analyzer landing green with zero suppressions *is* the regression
guard.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tools.lint import (
    Diagnostic,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    run_cross_checks,
)
from repro.tools.lint.__main__ import main
from repro.tools.lint.engine import (
    ENGINE_RULE_ID,
    iter_python_files,
    logical_relpath,
    parse_suppressions,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

RULE_IDS = sorted(rule.rule_id for rule in all_rules())


def lint_fixture(rule_id: str, kind: str) -> list[Diagnostic]:
    source = (FIXTURES / rule_id / f"{kind}.py").read_text(encoding="utf-8")
    return lint_source(source, f"fixture/{rule_id}/{kind}.py", [get_rule(rule_id)])


# --------------------------------------------------------------------------- #
# Registry shape
# --------------------------------------------------------------------------- #
def test_at_least_eight_rules_registered():
    assert len(RULE_IDS) >= 8
    assert all(rule_id.startswith("RPL") for rule_id in RULE_IDS)
    assert len(set(RULE_IDS)) == len(RULE_IDS)


def test_every_rule_has_description_and_severity():
    for rule in all_rules():
        assert rule.description
        assert rule.severity in ("error", "warning")


def test_every_rule_has_fixture_pair():
    for rule_id in RULE_IDS:
        assert (FIXTURES / rule_id / "violation.py").is_file(), rule_id
        assert (FIXTURES / rule_id / "clean.py").is_file(), rule_id


# --------------------------------------------------------------------------- #
# Per-rule fixtures
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_violating_fixture_is_flagged(rule_id):
    diagnostics = lint_fixture(rule_id, "violation")
    assert diagnostics, f"{rule_id} violation fixture produced no diagnostics"
    assert {d.rule for d in diagnostics} == {rule_id}
    for diag in diagnostics:
        assert diag.line >= 1
        assert diag.message


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_fixture_is_silent(rule_id):
    diagnostics = lint_fixture(rule_id, "clean")
    assert diagnostics == [], [d.message for d in diagnostics]


def test_rpl001_patch_without_restamp_is_flagged():
    """The second RPL001 shape: a memo replaced outside its lazy guard."""
    diagnostics = lint_fixture("RPL001", "restamp_violation")
    assert [(d.rule, d.line) for d in diagnostics] == [("RPL001", 14), ("RPL001", 19)]
    assert all("re-stamping 'self._columnar_epoch'" in d.message for d in diagnostics)
    assert "'move'" in diagnostics[0].message and "'drop'" in diagnostics[1].message
    assert lint_fixture("RPL001", "restamp_clean") == []


def test_replay_rule_covers_the_sharded_merge():
    """``core/parallel.py`` holds no process state any more, so RPL006 applies."""
    source = (
        "# lint-fixture-path: repro/core/parallel.py\n"
        "import os\n"
        "def merge():\n"
        "    return os.getpid()\n"
    )
    diagnostics = lint_source(source, "x.py", [get_rule("RPL006")])
    assert [(d.rule, d.line) for d in diagnostics] == [("RPL006", 4)]


def test_identity_rule_flags_an_issuer_id_key_in_the_planner():
    """A deliberate ``id(query.issuer)`` in ``core/plan.py`` is caught."""
    source = (REPO_ROOT / "src" / "repro" / "core" / "plan.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    lines.append("def legacy_key(query):")
    lines.append("    return (id(query.issuer), query.spec)")
    diagnostics = lint_source(
        "\n".join(lines) + "\n", "repro/core/plan.py", [get_rule("RPL011")]
    )
    assert [(d.rule, d.line) for d in diagnostics] == [("RPL011", len(lines))]
    # Outside repro/core/ and repro/rpc/ the rule does not apply.
    assert lint_source("key = id(object())\n", "repro/index/x.py", [get_rule("RPL011")]) == []


def test_heap_rule_flags_a_collector_call_in_a_bulk_build():
    """A hand-rolled ``gc.disable()`` in ``core/database.py`` is caught."""
    source = (REPO_ROOT / "src" / "repro" / "core" / "database.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    lines.append("def legacy_build(objects):")
    lines.append("    gc.disable()")
    diagnostics = lint_source(
        "\n".join(lines) + "\n", "repro/core/database.py", [get_rule("RPL012")]
    )
    assert [(d.rule, d.line) for d in diagnostics] == [("RPL012", len(lines))]
    assert "heap.paused()" in diagnostics[0].message
    # The shipped build is clean, heap.py itself is exempt, tests may observe.
    assert lint_source(source, "repro/core/database.py", [get_rule("RPL012")]) == []
    heap_source = (REPO_ROOT / "src" / "repro" / "core" / "heap.py").read_text(encoding="utf-8")
    assert "gc.disable()" in heap_source
    assert lint_source(heap_source, "repro/core/heap.py", [get_rule("RPL012")]) == []
    assert lint_source("gc.isenabled()\n", "tests/test_x.py", [get_rule("RPL012")]) == []


def test_answers_rule_flags_per_answer_objects_in_the_merge():
    """A ``QueryAnswer`` built per answer in ``core/parallel.py`` is caught."""
    source = (REPO_ROOT / "src" / "repro" / "core" / "parallel.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    lines.append("def legacy_merge(parts):")
    lines.append("    return [QueryAnswer(oid, p) for part in parts for oid, p in part]")
    diagnostics = lint_source(
        "\n".join(lines) + "\n", "repro/core/parallel.py", [get_rule("RPL013")]
    )
    assert [(d.rule, d.line) for d in diagnostics] == [("RPL013", len(lines))]
    assert "QueryResult.ranked" in diagnostics[0].message
    # The shipped merge is clean, queries.py owns the type, tests may build answers.
    assert lint_source(source, "repro/core/parallel.py", [get_rule("RPL013")]) == []
    queries_source = (REPO_ROOT / "src" / "repro" / "core" / "queries.py").read_text(
        encoding="utf-8"
    )
    assert "QueryAnswer(" in queries_source
    assert lint_source(queries_source, "repro/core/queries.py", [get_rule("RPL013")]) == []
    assert lint_source("QueryAnswer(1, 0.5)\n", "tests/test_x.py", [get_rule("RPL013")]) == []


def test_randomness_rule_flags_a_seed_sequence_in_the_kernels():
    """A per-candidate ``SeedSequence`` in ``core/duality.py`` is caught."""
    source = (REPO_ROOT / "src" / "repro" / "core" / "duality.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    lines.append("def legacy_rng(rng_seed, token, oid):")
    lines.append("    return np.random.default_rng(np.random.SeedSequence((rng_seed, token, oid)))")
    diagnostics = lint_source(
        "\n".join(lines) + "\n", "repro/core/duality.py", [get_rule("RPL002")]
    )
    assert [(d.rule, d.line) for d in diagnostics] == [("RPL002", len(lines))]
    assert "repro.core.draws" in diagnostics[0].message
    # The shipped kernels themselves are clean.
    assert lint_source(source, "repro/core/duality.py", [get_rule("RPL002")]) == []


def test_keying_rule_flags_a_position_keyed_draw_in_the_pipeline():
    """A draw token taken from a batch position in ``core/pipeline.py`` is caught."""
    source = (REPO_ROOT / "src" / "repro" / "core" / "pipeline.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    lines.append("def legacy_nearest(self, batch, samples):")
    lines.append("    for seq, query in enumerate(batch):")
    lines.append("        yield nn_query_draws(query.issuer.pdf, samples, self._config.rng_seed, seq)")
    diagnostics = lint_source(
        "\n".join(lines) + "\n", "repro/core/pipeline.py", [get_rule("RPL014")]
    )
    assert [(d.rule, d.line) for d in diagnostics] == [("RPL014", len(lines))]
    assert "query_draw_token" in diagnostics[0].message
    # The shipped pipeline, kernels and daemon are clean; other packages are out of scope.
    for relpath in ("core/pipeline.py", "core/duality.py", "core/nearest.py", "rpc/shardd.py"):
        shipped = (REPO_ROOT / "src" / "repro" / relpath).read_text(encoding="utf-8")
        assert lint_source(shipped, f"repro/{relpath}", [get_rule("RPL014")]) == []
    assert lint_source("row_keys(1, 2, [3])\n", "repro/experiments/x.py", [get_rule("RPL014")]) == []


def test_columns_rule_flags_an_object_gather_in_the_range_path():
    """``[columnar.objects[row] for row in rows]`` in ``core/pipeline.py`` is caught."""
    source = (REPO_ROOT / "src" / "repro" / "core" / "pipeline.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    lines.append("def legacy_candidates(columnar, rows):")
    lines.append("    return [columnar.objects[row] for row in rows]")
    lines.append("def legacy_oids(snapshot):")
    lines.append("    return [obj.oid for obj in snapshot.objects]")
    diagnostics = lint_source(
        "\n".join(lines) + "\n", "repro/core/pipeline.py", [get_rule("RPL015")]
    )
    assert [(d.rule, d.line) for d in diagnostics] == [
        ("RPL015", len(lines) - 2),
        ("RPL015", len(lines)),
    ]
    assert "objects_at" in diagnostics[1].message
    # The shipped pipeline is clean; the snapshot's own accessor is out of scope.
    assert lint_source(source, "repro/core/pipeline.py", [get_rule("RPL015")]) == []
    columnar = (REPO_ROOT / "src" / "repro" / "core" / "columnar.py").read_text(encoding="utf-8")
    assert lint_source(columnar, "repro/core/columnar.py", [get_rule("RPL015")]) == []


def test_indexing_rule_flags_a_tree_built_beside_the_database():
    """A ``bulk_load`` or ``build_index`` in ``core/pipeline.py`` is caught."""
    from repro.tools.lint.rules.indexing import ALLOWED

    source = (REPO_ROOT / "src" / "repro" / "core" / "pipeline.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    lines.append("def legacy_index(database):")
    lines.append("    return RTree.bulk_load(database.objects)")
    lines.append("def legacy_rebuild(database):")
    lines.append("    return build_index(list(database.objects), database.kind)")
    diagnostics = lint_source(
        "\n".join(lines) + "\n", "repro/core/pipeline.py", [get_rule("RPL016")]
    )
    assert [(d.rule, d.line) for d in diagnostics] == [
        ("RPL016", len(lines) - 2),
        ("RPL016", len(lines)),
    ]
    assert "database.index" in diagnostics[0].message
    # The shipped pipeline is clean; the database, the backends and the
    # allow-listed sampler (which states its reason) build indexes.
    for relpath in ("core/pipeline.py", "core/database.py", "core/nearest.py", "index/pti.py"):
        shipped = (REPO_ROOT / "src" / "repro" / relpath).read_text(encoding="utf-8")
        assert lint_source(shipped, f"repro/{relpath}", [get_rule("RPL016")]) == []
    assert "bulk_load" in (REPO_ROOT / "src" / "repro" / "core" / "nearest.py").read_text(
        encoding="utf-8"
    )
    assert ALLOWED["repro/core/nearest.py"]
    assert lint_source("RTree.bulk_load(items)\n", "tests/test_x.py", [get_rule("RPL016")]) == []


def test_retired_rule_id_is_not_registered():
    assert "RPL003" not in RULE_IDS


# --------------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------------- #
def test_suppression_silences_matching_diagnostic():
    source = (
        "# lint-fixture-path: repro/core/example.py\n"
        "def bad(v):\n"
        '    raise ValueError(v)  # repro-lint: disable=RPL004\n'
    )
    assert lint_source(source, "x.py", [get_rule("RPL004")]) == []


def test_unused_suppression_is_reported():
    source = (
        "# lint-fixture-path: repro/core/example.py\n"
        "x = 1  # repro-lint: disable=RPL004\n"
    )
    diagnostics = lint_source(source, "x.py", [get_rule("RPL004")])
    assert [d.rule for d in diagnostics] == [ENGINE_RULE_ID]
    assert "unused suppression" in diagnostics[0].message
    assert diagnostics[0].line == 2


def test_suppression_only_covers_named_rule():
    source = (
        "# lint-fixture-path: repro/core/example.py\n"
        "def bad(v):\n"
        '    raise ValueError(v)  # repro-lint: disable=RPL008\n'
    )
    diagnostics = lint_source(source, "x.py", [get_rule("RPL004")])
    rules = sorted(d.rule for d in diagnostics)
    # The violation survives AND the mismatched suppression is dead.
    assert rules == [ENGINE_RULE_ID, "RPL004"]


def test_suppression_marker_in_docstring_is_not_a_suppression():
    source = '"""Docs show the syntax: # repro-lint: disable=RPL004."""\n'
    assert parse_suppressions(source) == {}


def test_suppression_parses_multiple_ids():
    table = parse_suppressions("x = 1  # repro-lint: disable=RPL001, RPL009\n")
    assert table == {1: {"RPL001", "RPL009"}}


def test_syntax_error_reports_engine_diagnostic():
    diagnostics = lint_source("def broken(:\n", "x.py")
    assert [d.rule for d in diagnostics] == [ENGINE_RULE_ID]
    assert "could not parse" in diagnostics[0].message


# --------------------------------------------------------------------------- #
# The real tree is the regression fixture
# --------------------------------------------------------------------------- #
def test_source_tree_is_clean():
    diagnostics = lint_paths([REPO_ROOT / "src"], cross_checks=False)
    assert diagnostics == [], [
        f"{d.path}:{d.line}: {d.rule} {d.message}" for d in diagnostics
    ]


def test_cross_checks_pass_on_live_registries():
    assert run_cross_checks() == []


def test_zero_baseline_suppressions_in_src():
    offenders = [
        str(file)
        for file in iter_python_files([REPO_ROOT / "src"])
        if parse_suppressions(file.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_walker_skips_fixture_directories():
    files = list(iter_python_files([REPO_ROOT / "tests"]))
    assert files, "walker found no test files"
    assert all("lint_fixtures" not in file.parts for file in files)


def test_logical_relpath_strips_src_prefix():
    assert logical_relpath(Path("src/repro/core/engine.py")) == "repro/core/engine.py"
    assert logical_relpath(Path("tests/test_engine.py")) == "tests/test_engine.py"
    assert (
        logical_relpath(Path("/abs/repo/src/repro/errors.py")) == "repro/errors.py"
    )


# --------------------------------------------------------------------------- #
# CLI contract
# --------------------------------------------------------------------------- #
def test_cli_exit_zero_on_clean_path(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert main([str(clean), "--no-cross-checks"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_exit_one_with_text_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "# lint-fixture-path: repro/core/example.py\n"
        "def f(v):\n"
        "    raise ValueError(v)\n",
        encoding="utf-8",
    )
    assert main([str(bad), "--no-cross-checks"]) == 1
    out = capsys.readouterr().out
    assert "RPL004" in out
    assert "1 diagnostic(s)" in out


def test_cli_json_output_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "# lint-fixture-path: repro/core/example.py\n"
        "def f(v):\n"
        "    raise ValueError(v)\n",
        encoding="utf-8",
    )
    assert main([str(bad), "--format", "json", "--no-cross-checks"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    (diag,) = payload["diagnostics"]
    assert diag["rule"] == "RPL004"
    assert diag["severity"] == "error"
    assert diag["line"] == 3


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out
