"""RPL010 — no pickle on the RPC query hot path.

The distributed shard service exists to move plan-token batches and
columnar answer frames between processes *without* object serialization:
the wire format is JSON headers plus raw ``int64``/``float64`` array
frames (see ``repro/serve/framing.py``), and the ~2 KiB/query transport
cost ``benchmarks/suite`` reports as ``rpc.pool.bytes_per_query`` assumes
exactly that.  A ``pickle.dumps`` slipped into ``repro/rpc/`` would
silently reintroduce the per-query object-graph cost plan tokens exist to
avoid — and
would also widen the daemon's attack surface, since ``pickle.loads`` on
bytes read from a socket executes arbitrary reduction callables.

The rule therefore bans, anywhere under ``repro/rpc/``:

* importing ``pickle`` (or its spiritual kin ``cPickle``, ``dill``,
  ``cloudpickle``, ``marshal``, ``shelve``) at any scope, and
* calling ``pickle.dumps``/``loads``/``dump``/``load`` through any alias
  the import ban might have missed.

The launcher's use of ``multiprocessing`` is fine — spawn-context process
setup pickles the (empty) target args once at startup, which is control
plane, not the per-query path — so only explicit pickle imports/calls are
flagged, not multiprocessing itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.engine import Module, Rule, register
from repro.tools.lint.rules._ast_helpers import dotted_name

#: Modules whose import anywhere under ``repro/rpc/`` defeats the binary
#: wire format (object serializers and serializer front-ends).
_BANNED_MODULES = {
    "pickle",
    "cPickle",
    "_pickle",
    "dill",
    "cloudpickle",
    "marshal",
    "shelve",
}

#: Serializer entry points, matched against dotted call targets so an
#: attribute call through a module alias is still caught.
_BANNED_CALLS = {f"{mod}.{fn}" for mod in _BANNED_MODULES for fn in (
    "dumps",
    "loads",
    "dump",
    "load",
)}


@register
class RpcNoPickle(Rule):
    rule_id = "RPL010"
    severity = "error"
    description = (
        "repro/rpc/ must not pickle: the shard protocol ships JSON headers "
        "plus raw array frames, and unpickling socket bytes executes code"
    )

    def applies_to(self, module: Module) -> bool:
        return module.in_package("repro/rpc/")

    def check(self, module: Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield (
                            node.lineno,
                            f"import of serializer module {alias.name!r} in the "
                            "RPC package: encode through repro.rpc.wire / "
                            "repro.serve.framing instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_MODULES:
                    yield (
                        node.lineno,
                        f"import from serializer module {node.module!r} in the "
                        "RPC package: encode through repro.rpc.wire / "
                        "repro.serve.framing instead",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _BANNED_CALLS:
                    yield (
                        node.lineno,
                        f"{name}() on the RPC path: object serialization "
                        "breaks the raw-frame wire contract (and loads() on "
                        "socket bytes executes arbitrary code)",
                    )
