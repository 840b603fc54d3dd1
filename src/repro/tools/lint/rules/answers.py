"""RPL013 — per-answer objects are built only by ``repro/core/queries.py``.

A query result is a ranked pair of arrays (:class:`~repro.core.queries.
QueryResult`) from the kernel through the cache, the shard merge and the
serve codec.  Wrapping each answer in a :class:`QueryAnswer` on the way
used to cost more than computing it: on a ~1.5k-answer IPQ the object
path took most of the engine's time per query.  ``QueryResult`` builds
``QueryAnswer`` views on demand for callers that ask for them; nothing else
in the package may construct one, so the object-per-answer path cannot
creep back into a hot loop.  The rule flags every ``QueryAnswer(...)`` call
(bare or module-qualified) in ``repro/`` outside ``repro/core/queries.py``;
tests and examples may still build answers by hand.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register

#: The module that owns the answer types.
QUERIES_MODULE = "repro/core/queries.py"


@register
class AnswersStayColumnar(Rule):
    rule_id = "RPL013"
    severity = "error"
    description = (
        "only repro/core/queries.py constructs QueryAnswer: results travel as "
        "ranked oid/probability arrays (QueryResult.ranked)"
    )

    def applies_to(self, module: Module) -> bool:
        return module.in_package("repro/") and module.relpath != QUERIES_MODULE

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            if name == "QueryAnswer":
                yield (
                    node.lineno,
                    "QueryAnswer(...) outside repro/core/queries.py: build results "
                    "with QueryResult.ranked(oids, probabilities)",
                )
