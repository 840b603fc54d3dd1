"""RPL011 — no object identity in the query core or the RPC layer.

A query is defined by its content (the paper's Definitions 3–6: the
issuer's pdf, the range extents, Qp and the target), and every key the
engines build — result-cache entries, pruner reuse, draw tokens, shard
pipelines — derives from :func:`repro.core.plan.query_fingerprint` or
:meth:`EngineConfig.fingerprint`.  Keys built on ``id()`` made every query
decoded from the wire a stranger to its in-process twin (the served cache
hit rate was 0.0), and needed the cache to pin objects so an id could not
be recycled under a live entry.

The rule therefore bans calls to the builtin ``id()`` anywhere under
``repro/core/`` and ``repro/rpc/``.  Use content, a configuration
fingerprint, or a database ``uid`` (never reassigned) instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register


@register
class NoObjectIdentity(Rule):
    rule_id = "RPL011"
    severity = "error"
    description = (
        "repro/core/ and repro/rpc/ never call id(): keys derive from query "
        "content, config fingerprints or database uids"
    )

    def applies_to(self, module: Module) -> bool:
        return module.in_package("repro/core/") or module.in_package("repro/rpc/")

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                yield (
                    node.lineno,
                    "id() keys on object identity: equal queries decoded, relayed "
                    "or rebuilt elsewhere would never match; key on "
                    "query_fingerprint(), config.fingerprint() or a database uid",
                )
