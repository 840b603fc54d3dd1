"""RPL012 — the cyclic collector is touched only by ``repro/core/heap.py``.

Pausing the collector around bulk construction is a large set-up win, and
exactly as easy to get wrong: a ``gc.disable()`` without its restore leaves
a library caller's process collecting nothing, a ``gc.freeze()`` or a
threshold change alters the heap policy of a process the package does not
own.  :func:`repro.core.heap.paused` is the one sanctioned use — it
restores the caller's state on every exit — so the rule flags every
``gc.<name>(...)`` call and every ``from gc import ...`` anywhere else in
the package.  Tests may still observe the collector (``gc.isenabled()``);
the rule covers the shipped ``repro/`` code only.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register

#: The module allowed to call into ``gc``.
HEAP_MODULE = "repro/core/heap.py"


@register
class CollectorOnlyInHeap(Rule):
    rule_id = "RPL012"
    severity = "error"
    description = (
        "only repro/core/heap.py calls into gc: bulk builds pause the "
        "collector through heap.paused(), which restores the caller's state"
    )

    def applies_to(self, module: Module) -> bool:
        return module.in_package("repro/") and module.relpath != HEAP_MODULE

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "gc"
            ):
                yield (
                    node.lineno,
                    f"gc.{node.func.attr}() outside repro/core/heap.py: pause the "
                    "collector with `with heap.paused():` instead",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                yield (
                    node.lineno,
                    "importing from gc outside repro/core/heap.py: use repro.core.heap",
                )
