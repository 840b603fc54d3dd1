"""RPL002 — all sampling in ``repro/core`` flows through content-keyed draws.

The engines promise *bitwise parity*: the same query against the same data
yields the same Monte-Carlo draws in serial, parallel and replayed runs,
because every keyed draw is the counter function
``u(seed, token, oid, j)`` of :mod:`repro.core.draws` — a pure function of
its coordinates with no generator state.  One call into the stdlib
``random`` module or numpy's legacy global state (``np.random.seed``,
``np.random.rand``, …) silently breaks that contract — the draw depends on
interpreter-global mutable state no plan token controls.  A ``SeedSequence``
built per candidate reintroduces the generator-per-object cost the counter
function replaced (and rejects negative oids).

Flagged inside ``repro/core/``:

* ``import random`` / ``from random import …`` (stdlib global RNG),
* calls through numpy's legacy global namespace (``np.random.<fn>(…)`` for
  anything but the generator constructors),
* ``SeedSequence(…)`` in any spelling, and
* ``default_rng()`` with *no* seed argument — an OS-entropy generator no
  replay can reproduce.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register

#: Constructors of the explicit-seed Generator API, allowed through the
#: ``np.random`` namespace (``SeedSequence`` is flagged on its own).
_GENERATOR_API = {"default_rng", "Generator", "PCG64", "Philox", "SFC64"}

_STDLIB_RANDOM = (
    "stdlib 'random' uses interpreter-global state; derive draws from the "
    "query's draw token with repro.core.draws (row_keys / uniform_blocks)"
)


@register
class SeededRandomness(Rule):
    rule_id = "RPL002"
    severity = "error"
    description = (
        "core/ must not touch global RNG state (stdlib random, legacy "
        "np.random.*), build SeedSequences or create unseeded generators"
    )

    def applies_to(self, module: Module) -> bool:
        return module.in_package("repro/core/")

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield (node.lineno, _STDLIB_RANDOM)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield (node.lineno, _STDLIB_RANDOM)
            elif isinstance(node, ast.Call):
                yield from self._check_call(node)

    def _check_call(self, call: ast.Call) -> Iterator[tuple[int, str]]:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "SeedSequence":
            yield (
                call.lineno,
                "SeedSequence() in core/ builds generator state per draw key; "
                "use the counter function of repro.core.draws "
                "(u(seed, token, oid, j) via row_keys / uniform_blocks)",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        # Match <numpy-ish>.random.<name>(...) — the legacy global API.
        base = func.value
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
        ):
            if func.attr not in _GENERATOR_API:
                yield (
                    call.lineno,
                    f"np.random.{func.attr}() drives numpy's legacy global "
                    "RNG; use the counter draws of repro.core.draws",
                )
                return
        if func.attr == "default_rng" and not call.args and not call.keywords:
            yield (
                call.lineno,
                "default_rng() with no seed draws OS entropy and cannot be "
                "replayed; pass a seed, or use the counter draws of "
                "repro.core.draws",
            )
