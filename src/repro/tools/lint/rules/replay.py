"""RPL006 — no wall-clock / process-identity calls in replayed pipeline code.

Query evaluation runs identically in three contexts: in-process, in shard
daemons, and on replay.  Any value read from the environment —
``time.time()``, ``datetime.now()``, ``os.getpid()``, ``os.urandom()``,
``uuid.uuid4()`` — differs between those contexts and
poisons the bitwise-parity contract the parallel engine's merge step relies
on.  (PR 7's shard merge was debugged against exactly this: a worker-side
value that could never be reproduced parent-side.)

``time.perf_counter`` stays allowed: it feeds the *statistics* channel
(response-time measurements), which is explicitly excluded from parity.

The rule scopes to the modules whose code executes inside daemons or
replays, or decides what they return: the evaluation pipeline, its numeric
kernels and the sharded engine's routing and merge (``parallel``).  The
serving and RPC packages legitimately read wall-clocks and are out of scope
by design.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register
from repro.tools.lint.rules._ast_helpers import dotted_name

#: ``repro/core`` modules whose functions are executed under replay/parity.
REPLAYED_MODULES = {
    "pipeline",
    "duality",
    "basic",
    "nearest",
    "pruning",
    "plan",
    "columnar",
    "expansion",
    "quality",
    "parallel",
}

#: Dotted call targets that read ambient, unreplayable state.
_FORBIDDEN_CALLS = {
    "time.time": "wall-clock time differs per run",
    "time.time_ns": "wall-clock time differs per run",
    "time.monotonic": "monotonic origin differs per process",
    "datetime.now": "wall-clock time differs per run",
    "datetime.utcnow": "wall-clock time differs per run",
    "datetime.datetime.now": "wall-clock time differs per run",
    "datetime.datetime.utcnow": "wall-clock time differs per run",
    "os.getpid": "process identity differs between daemons and replay",
    "os.urandom": "OS entropy cannot be replayed",
    "uuid.uuid4": "random uuids cannot be replayed",
    "uuid.uuid1": "host/time-derived uuids cannot be replayed",
}


@register
class ReplaySafety(Rule):
    rule_id = "RPL006"
    severity = "error"
    description = (
        "pipeline/kernel modules must not read wall-clock time, pids, or OS "
        "entropy — such values break daemon/replay bitwise parity"
    )

    def applies_to(self, module: Module) -> bool:
        return (
            module.in_package("repro/core/") and module.name in REPLAYED_MODULES
        )

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            reason = _FORBIDDEN_CALLS.get(name)
            if reason is not None:
                yield (
                    node.lineno,
                    f"{name}() in replay-executed code: {reason}; thread the "
                    "value in from the caller or move it to the stats channel",
                )
