"""RPL016 — only the database builds indexes.

A database builds its index the first time something reads
``database.index``, with the kind, bounds and options given to ``build``,
and maintains it from then on.  The vectorised backend answers range
queries from the columnar snapshot, so a served session never builds a
tree; that holds only while nothing else builds one on the side.  An
index built elsewhere is also an index the database's mutators do not
maintain.  The rule flags every ``build_index(...)`` call (bare or
qualified) and every ``<anything>.bulk_load(...)`` call in ``repro/``
outside ``repro/index/`` (the backends themselves) and
``repro/core/database.py``, except in the modules :data:`ALLOWED` names
with their reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register

#: The module that owns index construction.
DATABASE_MODULE = "repro/core/database.py"

#: The package of the index backends themselves.
INDEX_PACKAGE = "repro/index/"

#: Modules that may build an index of their own, with the reason.
ALLOWED = {
    "repro/core/nearest.py": (
        "the nearest-neighbour sampler needs an R-tree's best-first search; "
        "over a point database indexed by another kind it bulk-loads a "
        "private R-tree over its own copy of the objects"
    ),
}


@register
class OnlyTheDatabaseBuildsIndexes(Rule):
    rule_id = "RPL016"
    severity = "error"
    description = (
        "only repro/core/database.py (and repro/index/) calls build_index or "
        "bulk_load: read database.index, which builds on first probe"
    )

    def applies_to(self, module: Module) -> bool:
        return (
            module.in_package("repro/")
            and not module.in_package(INDEX_PACKAGE)
            and module.relpath != DATABASE_MODULE
            and module.relpath not in ALLOWED
        )

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "build_index":
                name = "build_index"
            elif isinstance(func, ast.Attribute) and func.attr in ("build_index", "bulk_load"):
                name = func.attr
            else:
                continue
            yield (
                node.lineno,
                f"{name}(...) outside repro/core/database.py: read database.index "
                "instead, which the database builds on first probe and maintains",
            )
