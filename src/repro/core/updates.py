"""Live-update batches: ordered insert/delete/move streams for the engines.

The paper's motivating objects *move* — cabs, patrols and privacy-cloaked
users report fresh positions between queries — so updates are a first-class
input next to queries, not a rebuild trigger.  An :class:`UpdateBatch` is an
ordered list of mutations that both engines accept:

* applied directly via ``engine.apply_updates(batch)`` (or the per-operation
  ``engine.insert`` / ``engine.delete`` / ``engine.move``), or
* *interleaved* with queries inside ``evaluate_many``: an ``UpdateBatch``
  appearing in the workload iterable is applied at exactly that point in the
  stream, queries before it see the old data, queries after it the new.

A query's Monte-Carlo draws — keyed by ``(rng_seed, query content, oid)`` —
stay bitwise-identical no matter how many unrelated updates or queries ran
before it.  That
is the invariant that lets a live-mutated database answer exactly like a
from-scratch rebuild of the same final collection.

Example::

    batch = (
        UpdateBatch()
        .insert(PointObject.at(901, 4200.0, 880.0))
        .move(17, x=3950.0, y=1020.0)
        .delete(23)
    )
    session.evaluate_many([query_a, batch, query_b])  # query_b sees the updates
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Literal

from repro.core.errors import (
    EngineStateError,
    InvalidUpdateError,
    SchemaError,
    UnknownObjectError,
)
from repro.core.wire import check_schema, require, tagged

UpdateAction = Literal["insert", "delete", "move"]
UpdateTarget = Literal["points", "uncertain"]

#: Wire schema names of the update payloads (see :mod:`repro.core.wire`).
UPDATE_OP_SCHEMA = "repro.update_op"
UPDATE_BATCH_SCHEMA = "repro.update_batch"


def resolve_move_target(
    x: float | None, y: float | None, pdf: Any, target: UpdateTarget | None
) -> UpdateTarget:
    """Infer (and validate) which database a move addresses.

    ``x``/``y`` imply a point object, ``pdf`` an uncertain one; mixing the
    forms, providing neither in full, or passing a contradicting ``target``
    is rejected.  The single validation used by :meth:`UpdateBatch.move` and
    both engines' ``move`` methods, so every layer accepts and rejects the
    same shapes.
    """
    if pdf is not None and (x is not None or y is not None):
        raise InvalidUpdateError(
            "pass either x= and y= (points) or pdf= (uncertain), not both"
        )
    if pdf is not None:
        inferred: UpdateTarget = "uncertain"
    elif x is not None and y is not None:
        inferred = "points"
    else:
        raise InvalidUpdateError("a move takes either x= and y= (points) or pdf= (uncertain)")
    if target is not None and target != inferred:
        raise InvalidUpdateError(
            f"target {target!r} contradicts the move arguments (which imply {inferred!r})"
        )
    return inferred


def pick_mutation_database(point_db: Any, uncertain_db: Any, target: str | None) -> Any:
    """The database a ``delete`` addresses, shared by both engines.

    ``target`` picks explicitly; ``None`` resolves to the only database the
    engine holds (ambiguous with both present).
    """
    if target is None:
        if point_db is not None and uncertain_db is None:
            target = "points"
        elif uncertain_db is not None and point_db is None:
            target = "uncertain"
        else:
            raise InvalidUpdateError(
                "the engine holds both databases; "
                "pass target='points' or target='uncertain'"
            )
    elif target not in ("points", "uncertain"):
        raise InvalidUpdateError(f"unknown target database: {target!r}")
    database = point_db if target == "points" else uncertain_db
    if database is None:
        noun = "point-object" if target == "points" else "uncertain-object"
        raise EngineStateError(f"no {noun} database configured")
    return database


@dataclass(frozen=True)
class UpdateOp:
    """One mutation: an insert payload, a delete key, or a move key + position.

    ``target`` disambiguates which database a ``delete``/``move`` refers to
    when a session holds both; ``None`` lets the engine pick its only (or the
    inferred) database.
    """

    action: UpdateAction
    obj: Any = None
    oid: int | None = None
    x: float | None = None
    y: float | None = None
    pdf: Any = None
    target: UpdateTarget | None = None

    def to_dict(self) -> dict:
        """A JSON-safe, versioned description of this mutation."""
        return tagged(
            UPDATE_OP_SCHEMA,
            {
                "action": self.action,
                "obj": None if self.obj is None else self.obj.to_dict(),
                "oid": self.oid,
                "x": self.x,
                "y": self.y,
                "pdf": None if self.pdf is None else self.pdf.to_dict(),
                "target": self.target,
            },
        )

    @classmethod
    def from_dict(cls, payload) -> "UpdateOp":
        """Decode a :meth:`to_dict` payload."""
        from repro.uncertainty.pdf import pdf_from_dict

        payload = check_schema(payload, UPDATE_OP_SCHEMA)
        action = require(payload, UPDATE_OP_SCHEMA, "action")
        if action not in ("insert", "delete", "move"):
            raise SchemaError(f"unknown update action {action!r}")
        obj = require(payload, UPDATE_OP_SCHEMA, "obj")
        oid = require(payload, UPDATE_OP_SCHEMA, "oid")
        x = require(payload, UPDATE_OP_SCHEMA, "x")
        y = require(payload, UPDATE_OP_SCHEMA, "y")
        pdf = require(payload, UPDATE_OP_SCHEMA, "pdf")
        return cls(
            action=action,
            obj=None if obj is None else _object_from_dict(obj),
            oid=None if oid is None else int(oid),
            x=None if x is None else float(x),
            y=None if y is None else float(y),
            pdf=None if pdf is None else pdf_from_dict(pdf),
            target=require(payload, UPDATE_OP_SCHEMA, "target"),
        )


def _object_from_dict(payload: Any) -> Any:
    """Decode an insert payload: a point or uncertain object, by schema name."""
    from repro.uncertainty.region import (
        POINT_OBJECT_SCHEMA,
        UNCERTAIN_OBJECT_SCHEMA,
        PointObject,
        UncertainObject,
    )

    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema == POINT_OBJECT_SCHEMA:
        return PointObject.from_dict(payload)
    if schema == UNCERTAIN_OBJECT_SCHEMA:
        return UncertainObject.from_dict(payload)
    raise SchemaError(
        f"an insert payload must be a {POINT_OBJECT_SCHEMA!r} or "
        f"{UNCERTAIN_OBJECT_SCHEMA!r} object, got schema {schema!r}"
    )


@dataclass(frozen=True)
class UpdateEvent:
    """One *applied* mutation, as reported to update observers.

    Where :class:`UpdateOp` is the declarative request, an ``UpdateEvent``
    is the receipt: it names the database kind actually mutated, the MBRs
    the object occupied before and after (``None`` on the missing side of
    an insert/delete), and — when the mutation went through a
    :class:`~repro.core.sharding.ShardedDatabase` — the shard ids it
    touched (source and target for a cross-shard move).  Continuous
    subscriptions consume these events to decide which standing queries a
    mutation can possibly affect.
    """

    op: UpdateOp
    target: UpdateTarget
    oid: int
    before: Any = None
    after: Any = None
    sids: tuple[int, ...] = ()

    @property
    def region(self) -> Any:
        """The bounding rectangle of everywhere the mutation touched."""
        if self.before is None:
            return self.after
        if self.after is None:
            return self.before
        return self.before.union_bounds(self.after)

    def touches(self, window: Any) -> bool:
        """Whether the object lay in ``window`` before or lies in it after.

        The two MBRs are tested one by one: the box spanning a long move
        also covers ground the object never occupied.
        """
        return (self.before is not None and self.before.overlaps(window)) or (
            self.after is not None and self.after.overlaps(window)
        )


class MutationObservable:
    """Mixin that lets databases report applied mutations to observers.

    Observers are callables taking one :class:`UpdateEvent`; they run
    synchronously, in registration order, *after* the mutation completed.
    The hook costs one attribute lookup when nobody is subscribed.  Only
    the public mutator surface (``insert`` / ``delete`` / ``move``) emits
    events — editing ``db.objects`` out of band is not observed, matching
    the repository-wide contract that live data changes go through the
    mutators.  Observer lists are deliberately excluded from pickling
    (a copy must not drag subscription state across processes).
    """

    def add_update_observer(self, observer: Callable[[UpdateEvent], None]) -> None:
        """Register ``observer`` to be called after each applied mutation."""
        observers = getattr(self, "_update_observers", None)
        if observers is None:
            observers = []
            self._update_observers = observers
        observers.append(observer)

    def remove_update_observer(self, observer: Callable[[UpdateEvent], None]) -> None:
        """Unregister a previously added observer (no-op when absent)."""
        observers = getattr(self, "_update_observers", None)
        if observers is not None and observer in observers:
            observers.remove(observer)

    def _emit_update(self, event: UpdateEvent) -> None:
        observers = getattr(self, "_update_observers", None)
        if observers:
            for observer in list(observers):
                observer(event)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_update_observers", None)
        return state


class UpdateBatch:
    """An ordered, append-only batch of live mutations.

    Builder-style: each call appends one operation and returns the batch, so
    streams read like the update log they model.  Application order is the
    append order.
    """

    def __init__(self, ops: Iterator[UpdateOp] | list[UpdateOp] | None = None) -> None:
        self._ops: list[UpdateOp] = list(ops) if ops is not None else []

    def insert(self, obj: Any) -> "UpdateBatch":
        """Queue an object insertion (a ``PointObject`` or ``UncertainObject``)."""
        self._ops.append(UpdateOp(action="insert", obj=obj))
        return self

    def delete(self, oid: int, *, target: UpdateTarget | None = None) -> "UpdateBatch":
        """Queue a deletion by object id."""
        self._ops.append(UpdateOp(action="delete", oid=int(oid), target=target))
        return self

    def move(
        self,
        oid: int,
        *,
        x: float | None = None,
        y: float | None = None,
        pdf: Any = None,
        target: UpdateTarget | None = None,
    ) -> "UpdateBatch":
        """Queue a relocation: ``x``/``y`` for a point object, ``pdf`` for an
        uncertain one."""
        resolve_move_target(x, y, pdf, target)
        self._ops.append(
            UpdateOp(action="move", oid=int(oid), x=x, y=y, pdf=pdf, target=target)
        )
        return self

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[UpdateOp]:
        return iter(self._ops)

    def to_dict(self) -> dict:
        """A JSON-safe, versioned description of the whole batch, in order."""
        return tagged(UPDATE_BATCH_SCHEMA, {"ops": [op.to_dict() for op in self._ops]})

    @classmethod
    def from_dict(cls, payload) -> "UpdateBatch":
        """Decode a :meth:`to_dict` payload, preserving application order."""
        payload = check_schema(payload, UPDATE_BATCH_SCHEMA)
        return cls(
            [UpdateOp.from_dict(op) for op in require(payload, UPDATE_BATCH_SCHEMA, "ops")]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        counts: dict[str, int] = {}
        for op in self._ops:
            counts[op.action] = counts.get(op.action, 0) + 1
        summary = ", ".join(f"{count} {action}" for action, count in counts.items())
        return f"UpdateBatch({summary or 'empty'})"


def _describe_mutation_target(engine: Any, op: UpdateOp) -> str:
    """Best-effort name of the database an ``op`` addresses, for error text."""
    if op.action == "move":
        try:
            return resolve_move_target(op.x, op.y, op.pdf, op.target)
        except InvalidUpdateError:
            return op.target or "unresolved"
    if op.target is not None:
        return op.target
    point_db = getattr(engine, "point_db", None)
    uncertain_db = getattr(engine, "uncertain_db", None)
    if point_db is not None and uncertain_db is None:
        return "points"
    if uncertain_db is not None and point_db is None:
        return "uncertain"
    return "unresolved"


def apply_update_op(engine: Any, op: UpdateOp) -> None:
    """Apply one operation through an engine's mutation surface.

    Both :class:`~repro.core.engine.ImpreciseQueryEngine` and
    :class:`~repro.core.parallel.ParallelEngine` expose the same
    ``insert`` / ``delete`` / ``move`` methods; this helper is the single
    translation from the declarative :class:`UpdateOp` to those calls.

    A ``delete`` or ``move`` naming an oid the target database does not
    hold raises a descriptive :class:`~repro.core.errors.UnknownObjectError`
    (naming the oid and the database) instead of surfacing the index layer's
    bare ``KeyError``.
    """
    if op.action == "insert":
        engine.insert(op.obj)
    elif op.action == "delete":
        try:
            engine.delete(op.oid, target=op.target)
        except KeyError as error:
            raise UnknownObjectError(
                f"cannot delete oid {op.oid}: no such object in the "
                f"{_describe_mutation_target(engine, op)!r} database"
            ) from error
    elif op.action == "move":
        try:
            engine.move(op.oid, x=op.x, y=op.y, pdf=op.pdf, target=op.target)
        except KeyError as error:
            raise UnknownObjectError(
                f"cannot move oid {op.oid}: no such object in the "
                f"{_describe_mutation_target(engine, op)!r} database"
            ) from error
    else:  # pragma: no cover - UpdateOp constrains the action literal
        raise InvalidUpdateError(f"unknown update action: {op.action!r}")
