"""RPL014 — Monte-Carlo draws are keyed by query content, never by position.

Every sampled probability is a pure function of ``(seed, token, oid, j)``
(:mod:`repro.core.draws`) whose ``token`` is the digest of the query's
content (:func:`repro.core.plan.query_draw_token`).  A token taken from a
loop index, a counter or a workload position makes an answer depend on
where its query sat in a batch: the cached, sharded, served and reordered
runs of one query disagree, and a cache serves one position's answer at
another.

Under ``repro/core/`` and ``repro/rpc/``, every call to ``row_keys``,
``query_stream_key``, ``nn_query_draws`` and the two
``*_monte_carlo_per_oid`` kernels must pass its token as a ``….draw_token``
attribute, a ``query_draw_token(...)`` call, or a parameter of the
enclosing function that the function never rebinds (passed through).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register
from repro.tools.lint.rules._ast_helpers import functions

#: Keyed draw sources: callee name → (positional index, keyword) of the token.
KEYED_CALLS: dict[str, tuple[int, str]] = {
    "row_keys": (1, "token"),
    "query_stream_key": (1, "token"),
    "nn_query_draws": (3, "draw_token"),
    "ipq_probabilities_monte_carlo_per_oid": (6, "draw_token"),
    "iuq_probabilities_monte_carlo_per_oid": (5, "draw_token"),
}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _token_argument(call: ast.Call, index: int, keyword: str) -> ast.expr | None:
    for item in call.keywords:
        if item.arg == keyword:
            return item.value
    return call.args[index] if len(call.args) > index else None


def _unbound_parameters(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """The parameters of ``func`` its body never assigns to."""
    args = func.args
    parameters = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
    rebound = {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
    }
    return parameters - rebound


@register
class DrawsKeyedByContent(Rule):
    rule_id = "RPL014"
    severity = "error"
    description = (
        "keyed draws in repro/core/ and repro/rpc/ take a .draw_token, a "
        "query_draw_token(...) call or an unchanged parameter as their token"
    )

    def applies_to(self, module: Module) -> bool:
        return module.in_package("repro/core/") or module.in_package("repro/rpc/")

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        # The parameters of each call's innermost enclosing function
        # (ast.walk yields outer functions before the ones nested in them).
        passed_through: dict[ast.Call, set[str]] = {}
        for func in functions(module.tree):
            parameters = _unbound_parameters(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    passed_through[node] = parameters
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or _callee(node) not in KEYED_CALLS:
                continue
            name = _callee(node)
            token = _token_argument(node, *KEYED_CALLS[name])
            if (
                token is None
                or (isinstance(token, ast.Attribute) and token.attr == "draw_token")
                or (isinstance(token, ast.Call) and _callee(token) == "query_draw_token")
                or (isinstance(token, ast.Name) and token.id in passed_through.get(node, ()))
            ):
                continue
            yield (
                node.lineno,
                f"{name}() keyed by {ast.unparse(token)!r}: draws must be keyed by "
                "query content — pass a plan's .draw_token, "
                "query_draw_token(fingerprint) or the caller's token unchanged",
            )
