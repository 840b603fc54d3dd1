"""Core of the ``repro.tools.lint`` static analyzer.

The engine is deliberately small: a :class:`Module` wraps one parsed source
file, a :class:`Rule` inspects it and yields :class:`Diagnostic`\\ s, and
:func:`lint_paths` walks a file tree running every registered rule.  Rules
encode invariants this codebase has actually shipped bugs against (stale
un-epoch'd caches, unseeded draws, stats aliasing, …); each carries a stable
``RPLxxx`` identifier so a violation can be silenced *at the line* with::

    risky_call()  # repro-lint: disable=RPL004

Suppressions are themselves checked: one that never fires is reported as
``RPL000`` so dead waivers cannot accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import ConfigurationError

#: Rule id reserved for engine-level diagnostics (unused suppressions,
#: unparseable files).  It is not a registered rule and cannot be disabled.
ENGINE_RULE_ID = "RPL000"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")

#: Directory names the tree walker never descends into.  ``lint_fixtures``
#: holds deliberately-violating snippets used by the rule tests.
SKIP_DIRS = frozenset({"__pycache__", "lint_fixtures", ".git", ".ruff_cache"})

#: First-line marker a fixture uses to claim a virtual location, so rules
#: scoped by path (e.g. "only inside repro/core/") apply to it:
#: ``# lint-fixture-path: repro/core/example.py``
FIXTURE_PATH_RE = re.compile(r"#\s*lint-fixture-path:\s*(\S+)")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule, a location, and a human-readable message."""

    rule: str
    severity: str
    path: str
    line: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule)


@dataclass
class Module:
    """A parsed source file plus the metadata rules key off.

    ``relpath`` is the *logical* path — relative to the import root, so a
    file on disk at ``src/repro/core/engine.py`` has relpath
    ``repro/core/engine.py`` and test files keep their ``tests/`` prefix.
    Path-scoped rules match against this, which is also what lets fixture
    snippets impersonate in-tree locations.
    """

    relpath: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def in_package(self, prefix: str) -> bool:
        return self.relpath.startswith(prefix)

    @property
    def name(self) -> str:
        return Path(self.relpath).stem


class Rule:
    """Base class of every lint rule.

    Subclasses set ``rule_id`` / ``severity`` / ``description`` and
    implement :meth:`check`, yielding ``(line, message)`` pairs.  Override
    :meth:`applies_to` to scope the rule to part of the tree.
    """

    rule_id: str = ""
    severity: str = "error"
    description: str = ""

    def applies_to(self, module: Module) -> bool:
        return True

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        raise NotImplementedError

    def run(self, module: Module) -> list[Diagnostic]:
        if not self.applies_to(module):
            return []
        return [
            Diagnostic(self.rule_id, self.severity, module.relpath, line, message)
            for line, message in self.check(module)
        ]


#: ``rule_id`` → rule instance.  Populated by :func:`register`.
_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.rule_id or rule.rule_id == ENGINE_RULE_ID:
        raise ConfigurationError(
            f"rule {cls.__name__} needs a unique non-engine rule_id"
        )
    if rule.rule_id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, in rule-id order (imports the rule modules)."""
    from repro.tools.lint import rules as _rules  # noqa: F401  (registers on import)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    all_rules()
    return _REGISTRY[rule_id]


# --------------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------------- #
def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Per-line ``# repro-lint: disable=...`` markers (1-based line numbers).

    Only genuine comment tokens count — the marker appearing inside a
    string or docstring (e.g. documentation showing the syntax) is not a
    suppression.
    """
    table: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = []
    for lineno, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match:
            ids = {part.strip() for part in match.group(1).split(",")}
            table[lineno] = {rule_id for rule_id in ids if rule_id}
    return table


def _apply_suppressions(
    module: Module, diagnostics: list[Diagnostic]
) -> list[Diagnostic]:
    suppressions = parse_suppressions(module.source)
    used: set[tuple[int, str]] = set()
    kept: list[Diagnostic] = []
    for diag in diagnostics:
        if diag.rule in suppressions.get(diag.line, ()):
            used.add((diag.line, diag.rule))
        else:
            kept.append(diag)
    for lineno, rule_ids in suppressions.items():
        for rule_id in sorted(rule_ids):
            if (lineno, rule_id) not in used:
                kept.append(
                    Diagnostic(
                        ENGINE_RULE_ID,
                        "error",
                        module.relpath,
                        lineno,
                        f"unused suppression for {rule_id}: no diagnostic "
                        "on this line matches it",
                    )
                )
    return kept


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def parse_module(source: str, relpath: str) -> Module:
    tree = ast.parse(source, filename=relpath)
    return Module(
        relpath=relpath, source=source, tree=tree, lines=source.splitlines()
    )


def lint_source(
    source: str, relpath: str, rules: Iterable[Rule] | None = None
) -> list[Diagnostic]:
    """Lint one in-memory source blob under a logical path.

    A leading ``# lint-fixture-path: <relpath>`` comment overrides
    ``relpath`` — fixture files use this to opt into path-scoped rules.
    """
    head = source.split("\n", 1)[0]
    match = FIXTURE_PATH_RE.search(head)
    if match:
        relpath = match.group(1)
    try:
        module = parse_module(source, relpath)
    except SyntaxError as error:
        return [
            Diagnostic(
                ENGINE_RULE_ID,
                "error",
                relpath,
                error.lineno or 1,
                f"could not parse: {error.msg}",
            )
        ]
    diagnostics: list[Diagnostic] = []
    for rule in all_rules() if rules is None else rules:
        diagnostics.extend(rule.run(module))
    return sorted(_apply_suppressions(module, diagnostics), key=Diagnostic.sort_key)


def logical_relpath(path: Path) -> str:
    """Map an on-disk path to the logical relpath rules match against.

    Everything up to and including a ``src`` component is stripped, so
    ``src/repro/core/engine.py`` → ``repro/core/engine.py``; paths with no
    ``src`` component (tests, scripts) keep their tail starting at the
    repo-conventional top directory when one is present.
    """
    parts = path.as_posix().split("/")
    if "src" in parts:
        tail = parts[parts.index("src") + 1 :]
        if tail:
            return "/".join(tail)
    for top in ("tests", "examples", "benchmarks"):
        if top in parts:
            return "/".join(parts[parts.index(top) :])
    return path.name


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, skipping :data:`SKIP_DIRS`."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for file in sorted(path.rglob("*.py")):
            if SKIP_DIRS.isdisjoint(file.parts):
                yield file


def lint_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule] | None = None,
    cross_checks: bool = True,
) -> list[Diagnostic]:
    """Lint every python file under ``paths``; the CLI's workhorse.

    ``cross_checks`` additionally runs the import-time registry
    verifications (wire-code table, pdf codec registry) that cannot be
    expressed as per-file AST checks.
    """
    rule_list = list(all_rules() if rules is None else rules)
    diagnostics: list[Diagnostic] = []
    for file in iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        diagnostics.extend(lint_source(source, logical_relpath(file), rule_list))
    if cross_checks:
        diagnostics.extend(run_cross_checks())
    return sorted(diagnostics, key=Diagnostic.sort_key)


#: Import-time registry checks; populated by rule modules via
#: :func:`register_cross_check`.
_CROSS_CHECKS: list[Callable[[], list[Diagnostic]]] = []


def register_cross_check(check: Callable[[], list[Diagnostic]]) -> Callable:
    _CROSS_CHECKS.append(check)
    return check


def run_cross_checks() -> list[Diagnostic]:
    """Run every registered import-time registry verification."""
    all_rules()  # ensure rule modules (and their checks) are loaded
    diagnostics: list[Diagnostic] = []
    for check in _CROSS_CHECKS:
        diagnostics.extend(check())
    return diagnostics
