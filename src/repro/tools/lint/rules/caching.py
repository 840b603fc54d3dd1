"""RPL001 — derived-state memos must be epoch-guarded.

PR 4 shipped the motivating bug: ``PointDatabase`` memoized its columnar
snapshot once and kept serving it after inserts/moves, because nothing tied
the cached value to the database's mutation epoch.  The repaired idiom pairs
every memo attribute with an ``*_epoch`` stamp::

    if self._columnar is None or self._columnar_epoch != self._epoch:
        self._columnar = ColumnarPoints(self.objects)
        self._columnar_epoch = self._epoch

This rule finds the *lazy-memo* shape — ``if self._x is None: self._x = …``
on an attribute whose name marks it as derived data (columnar / positions /
snapshot / cache / memo / sampler) — and requires the guarding function to
reference an epoch somewhere.  It also flags ``functools.lru_cache`` /
``functools.cache`` on *methods*: a per-instance cache keyed by ``self``
both leaks instances and ignores epochs (module-level functions over
immutable arguments, like the issuer-grid discretisation, are fine).

Since the mutators carry the columnar snapshot forward themselves, there is
a second shape — *patch and re-stamp*::

    self._columnar = snapshot.replaced(row, obj)
    self._columnar_epoch = self._epoch

A memo that has an ``*_epoch`` partner and is assigned anywhere outside its
lazy ``is None`` guard must have that partner assigned in the same function.
A patched snapshot left with its old stamp is rebuilt for nothing; worse, the
habit of stamping in one place and patching in another is how a stamped but
unpatched snapshot comes to serve stale rows.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register
from repro.tools.lint.rules._ast_helpers import (
    first_argument,
    functions,
    referenced_names,
    self_attribute,
)

#: Attribute-name fragments that mark a memo as *derived data* (as opposed
#: to a lazily-created resource such as a pool or socket, which has no
#: epoch to key on).
_DERIVED_FRAGMENTS = ("columnar", "position", "snapshot", "cache", "memo", "sampler")

_CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _is_derived_attr(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _DERIVED_FRAGMENTS)


def _memo_guard_attrs(test: ast.expr) -> set[str]:
    """Attrs ``X`` for which ``test`` contains ``self.X is None``."""
    attrs: set[str] = set()
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, ast.Is) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(item, ast.Constant) and item.value is None
                for item in operands
            ):
                for item in operands:
                    attr = self_attribute(item)
                    if attr is not None:
                        attrs.add(attr)
    return attrs


def _self_attrs(target: ast.AST) -> Iterator[str]:
    """Every ``self.X`` inside an assignment target (tuples unpacked)."""
    for node in ast.walk(target):
        attr = self_attribute(node)
        if attr is not None:
            yield attr


def _memo_assignments(node: ast.AST, guarded: frozenset[str]) -> Iterator[tuple[str, int, bool]]:
    """``(attr, line, lazily_guarded)`` for each ``self.attr = …`` at or under ``node``.

    ``lazily_guarded`` is true inside the body of an ``if`` that tests
    ``self.attr is None``.  Nested function bodies are their own scope.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
        return
    if isinstance(node, ast.If):
        inner = guarded | _memo_guard_attrs(node.test)
        for stmt in node.body:
            yield from _memo_assignments(stmt, inner)
        for stmt in node.orelse:
            yield from _memo_assignments(stmt, guarded)
        return
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        targets = []
    for target in targets:
        for attr in _self_attrs(target):
            yield attr, node.lineno, attr in guarded
    for child in ast.iter_child_nodes(node):
        yield from _memo_assignments(child, guarded)


def _decorator_cache_name(decorator: ast.expr) -> str | None:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        name = target.attr
    elif isinstance(target, ast.Name):
        name = target.id
    else:
        return None
    return name if name in _CACHE_DECORATORS else None


@register
class EpochGuardedCaches(Rule):
    rule_id = "RPL001"
    severity = "error"
    description = (
        "instance memos of derived data (columnar/positions/snapshot/…) must "
        "be invalidated by an epoch check and re-stamped wherever they are "
        "replaced; lru_cache on methods is forbidden"
    )

    def applies_to(self, module: Module) -> bool:
        return module.in_package("repro/")

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        # Methods are functions lexically inside a class body.
        method_names: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_names.add(id(stmt))

        stamps = {
            name for name in referenced_names(module.tree) if name.endswith("_epoch")
        }

        for func in functions(module.tree):
            assignments = [
                found for stmt in func.body for found in _memo_assignments(stmt, frozenset())
            ]
            assigned = {attr for attr, _, _ in assignments}
            for attr, line, lazily_guarded in assignments:
                stamp = f"{attr}_epoch"
                if (
                    not lazily_guarded
                    and _is_derived_attr(attr)
                    and stamp in stamps
                    and stamp not in assigned
                ):
                    yield (
                        line,
                        f"'self.{attr}' is replaced in {func.name!r} without "
                        f"re-stamping 'self.{stamp}': assign both in the same "
                        "function, or the patched value is rebuilt needlessly "
                        "and a stamp set elsewhere can vouch for stale rows",
                    )

            for decorator in func.decorator_list:
                cache_name = _decorator_cache_name(decorator)
                if cache_name is None:
                    continue
                is_method = id(func) in method_names and first_argument(func) in (
                    "self",
                    "cls",
                )
                if cache_name == "cached_property" or is_method:
                    yield (
                        decorator.lineno,
                        f"@{cache_name} on method {func.name!r}: per-instance "
                        "caches ignore the mutation epoch and pin instances "
                        "alive; memoize with an explicit epoch-keyed attribute",
                    )

            names = referenced_names(func)
            has_epoch = any("epoch" in name.lower() for name in names)
            for node in ast.walk(func):
                if not isinstance(node, ast.If):
                    continue
                guarded = _memo_guard_attrs(node.test)
                if not guarded:
                    continue
                filled = {
                    attr
                    for stmt in ast.walk(node)
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if (attr := self_attribute(target)) is not None
                }
                for attr in sorted(guarded & filled):
                    if _is_derived_attr(attr) and not has_epoch:
                        yield (
                            node.lineno,
                            f"memo of derived state 'self.{attr}' has no epoch "
                            "guard: pair it with an '*_epoch' stamp checked in "
                            "the same condition, or it will serve stale data "
                            "after mutations (the PR 4 columnar-cache bug)",
                        )
