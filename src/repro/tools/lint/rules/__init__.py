"""Rule modules of the invariant analyzer — importing this package registers all rules.

| id     | module          | invariant                                             |
|--------|-----------------|-------------------------------------------------------|
| RPL001 | caching         | derived-state memos must be epoch-guarded             |
| RPL002 | randomness      | core sampling flows through seeded generators         |
| RPL003 | —               | retired with the shared-memory worker pool; id not reused |
| RPL004 | raises          | raises in ``repro/`` use the typed error hierarchy    |
| RPL005 | wire            | every ``to_dict`` has a decode path and a schema tag  |
| RPL006 | replay          | no wall-clock/pid calls in replayed pipelines / merge |
| RPL007 | observability   | observable-database mutators emit ``UpdateEvent``     |
| RPL008 | exceptions      | no silently-swallowed broad excepts                   |
| RPL009 | statistics      | merged ``EvaluationStatistics`` are copied, not aliased |
| RPL010 | rpc             | no pickle on the RPC shard-protocol hot path          |
| RPL011 | identity        | no ``id()`` keys in ``repro/core/`` or ``repro/rpc/`` |
| RPL012 | heap            | ``gc`` is called only from ``repro/core/heap.py``     |
| RPL013 | answers         | ``QueryAnswer`` is built only in ``repro/core/queries.py`` |
| RPL014 | keying          | keyed draws take a content token, never a position    |
| RPL015 | columns         | the vectorised range path reads columns, not ``.objects`` |
| RPL016 | indexing        | only ``repro/core/database.py`` builds indexes (``build_index``/``bulk_load``) |

``RPL000`` is the engine itself (unused suppressions, parse failures).
"""

from repro.tools.lint.rules import (  # noqa: F401  (import = register)
    answers,
    caching,
    columns,
    exceptions,
    heap,
    identity,
    indexing,
    keying,
    observability,
    raises,
    randomness,
    replay,
    rpc,
    statistics,
    wire,
)
