"""RPL015 — the vectorised range path reads columns, not objects.

A C-IUQ on the vectorised backend runs on snapshot rows from the window to
the kernel: bounds, catalog rectangles, pdf kinds and oids are columns of
the :class:`~repro.core.columnar.ColumnarUncertain` snapshot.  Turning the
candidate rows back into objects — ``[columnar.objects[row] for row in
rows]``, then an ``isinstance`` loop to route them and a ``fromiter`` of
their oids — used to cost more per query than the window scan and the
kernel together.  The Monte-Carlo and grid routes, the only ones that need
a target's pdf, gather objects for their own rows through the one accessor
:meth:`ColumnarUncertain.objects_at`.

In ``repro/core/pipeline.py`` the rule flags every subscript of an
``….objects`` attribute and every loop or comprehension over one (directly
or through ``enumerate``/``zip``/``list``/…).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register

#: The module whose range path must stay columnar.
PIPELINE_MODULE = "repro/core/pipeline.py"

#: Builtins that iterate their arguments.
ITERATING_CALLS = frozenset(
    {"enumerate", "zip", "iter", "list", "tuple", "sorted", "reversed", "map", "filter"}
)


def _is_objects(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "objects"


def _iterates_objects(node: ast.AST) -> bool:
    """``node`` is ``….objects`` or an iterating builtin applied to it."""
    if _is_objects(node):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ITERATING_CALLS
        and any(_is_objects(arg) for arg in node.args)
    )


@register
class RangePathReadsColumns(Rule):
    rule_id = "RPL015"
    severity = "error"
    description = (
        "repro/core/pipeline.py neither subscripts nor iterates a snapshot's "
        ".objects: read its columns, or gather with objects_at(rows)"
    )

    def applies_to(self, module: Module) -> bool:
        return module.relpath == PIPELINE_MODULE

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript) and _is_objects(node.value):
                yield (
                    node.lineno,
                    f"{ast.unparse(node)!r} turns a row back into an object: read the "
                    "snapshot's columns (oids, bounds, kinds, catalog_bounds) instead",
                )
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and (
                _iterates_objects(node.iter)
            ):
                yield (
                    getattr(node, "lineno", None) or node.iter.lineno,
                    f"iterating {ast.unparse(node.iter)!r} walks objects: read the "
                    "snapshot's columns, or gather a route's rows with objects_at(rows)",
                )
