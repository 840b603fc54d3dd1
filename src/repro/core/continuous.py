"""Continuous queries: standing subscriptions with incremental delta evaluation.

The paper's location-based-service setting is naturally streaming: a client
registers "which cabs are probably within 500 m of me?" *once* and wants
answer **deltas** as objects move, not a fresh batch query per tick.  This
module turns the primitives of the live-update and caching layers into that
subscription surface:

* a :class:`SubscriptionRegistry` holds standing
  :class:`~repro.core.queries.RangeQuery` /
  :class:`~repro.core.queries.NearestNeighborQuery` subscriptions and
  observes the underlying databases through the
  :class:`~repro.core.updates.MutationObservable` hook;
* after each applied ``UpdateOp``/``UpdateBatch`` it decides, per
  subscription, whether the mutations *can* have changed the answer —
  never re-evaluating the whole registry.  One rule serves single and
  sharded databases alike: a mutation whose ``before`` and ``after`` MBRs
  both miss the subscription's candidate window — the Minkowski sum from
  :func:`~repro.core.plan.relevance_window` — provably cannot change a
  range answer (Lemma 1: objects outside the window have zero
  qualification probability) ⇒ skip.  The two rectangles are tested
  separately, so an object hopping over the window is skipped too.
  Nearest-neighbour answers have no complete finite window and re-evaluate
  on any point mutation.  How the data is partitioned plays no part: a
  sharded answer is bitwise the serial one, so the shards a query routes to
  only supply the state token its deltas are stamped with.

* affected subscriptions re-evaluate through the ordinary engine machinery
  (the staged :class:`~repro.core.pipeline.QueryPipeline`, or the parallel
  executor for sharded databases), the fresh answer is diffed against the
  retained one, and ordered :class:`AnswerDelta` events (``JOIN`` /
  ``LEAVE`` / ``SCORE_CHANGE``) are queued for :meth:`Subscription.poll`.

Bitwise safety rides on content-keyed draws: every Monte-Carlo draw is
keyed by query *content* rather than stream position, so a subscription's
maintained answer is — at every instant — bit-for-bit equal to a cold
``evaluate`` of the same query under the same configuration.
Replaying the emitted delta stream on top of the initial answer
reconstructs the maintained answer exactly (see :func:`replay_deltas`).
"""

from __future__ import annotations
from repro.core.errors import ConfigurationError, EngineStateError, InvalidArgumentError, MissingItemError

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Hashable, Iterable

from repro.core.parallel import ParallelEngine
from repro.core.pipeline import QueryPipeline
from repro.core.plan import relevance_window
from repro.core.queries import NearestNeighborQuery, Query, RangeQuery
from repro.core.sharding import ShardedDatabase
from repro.core.updates import UpdateEvent, UpdateOp
from repro.geometry.rect import Rect


class DeltaKind(str, Enum):
    """What happened to one object of a subscription's answer set."""

    JOIN = "join"
    LEAVE = "leave"
    SCORE_CHANGE = "score_change"


@dataclass(frozen=True)
class AnswerDelta:
    """One ordered change to a subscription's maintained answer.

    ``probability`` is the new qualification probability (``None`` for a
    ``LEAVE``), ``previous_probability`` the retained one (``None`` for a
    ``JOIN``).  ``op`` echoes the last applied
    :class:`~repro.core.updates.UpdateOp` that could have affected the
    subscription — the *trigger* — and ``epoch`` pins the database state
    the new answer was computed against (the database epoch for a single
    database, the routed-shard scope token for a sharded one).

    ``sequence`` numbers are strictly increasing across the whole
    registry, so interleaved deltas of many subscriptions can be merged
    back into one totally ordered stream.
    """

    subscription_id: int
    kind: DeltaKind
    oid: int
    probability: float | None
    previous_probability: float | None
    op: UpdateOp | None
    epoch: Hashable
    sequence: int


def replay_deltas(
    initial: dict[int, float], deltas: Iterable[AnswerDelta]
) -> dict[int, float]:
    """Reconstruct an answer by replaying a delta stream over ``initial``.

    The inverse of the registry's diffing: applying every emitted delta of
    one subscription (in ``sequence`` order) to its initial answer yields
    exactly the maintained answer — the parity contract the continuous
    test-suite asserts bitwise.
    """
    answer = dict(initial)
    for delta in deltas:
        if delta.kind is DeltaKind.LEAVE:
            answer.pop(delta.oid, None)
        else:
            answer[delta.oid] = delta.probability
    return answer


class Subscription:
    """One standing query: its retained answer plus the undrained deltas.

    Handles are created by :meth:`SubscriptionRegistry.subscribe` (or
    ``Session.subscribe``); the initial answer — the base a replayed delta
    stream starts from — is evaluated at subscribe time and available via
    :meth:`initial_answer`.
    """

    def __init__(
        self,
        registry: "SubscriptionRegistry",
        subscription_id: int,
        query: Query,
        target: str,
        window: Rect | None,
        answer: dict[int, float],
        scope: Hashable,
    ) -> None:
        self._registry = registry
        self.id = subscription_id
        self.query = query
        #: Database kind the query reads ("points" or "uncertain").
        self.target = target
        #: Candidate window from :func:`~repro.core.plan.relevance_window`
        #: (``None`` for nearest-neighbour queries: the whole space).
        self.window = window
        self.active = True
        self._answer = dict(answer)
        self._initial = dict(answer)
        self._scope = scope
        self._pending: list[AnswerDelta] = []

    def answer(self) -> dict[int, float]:
        """The maintained ``{oid: probability}`` answer, updates applied."""
        if self.active:
            self._registry.pump()
        return dict(self._answer)

    def initial_answer(self) -> dict[int, float]:
        """The answer at subscribe time — the base of the delta stream."""
        return dict(self._initial)

    def poll(self) -> list[AnswerDelta]:
        """Drain this subscription's queued deltas, in emission order."""
        if self.active:
            self._registry.pump()
        drained = self._pending
        self._pending = []
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "active" if self.active else "cancelled"
        return (
            f"Subscription(id={self.id}, {state}, target={self.target!r}, "
            f"answer_size={len(self._answer)}, pending={len(self._pending)})"
        )


class SubscriptionRegistry:
    """Standing subscriptions over live databases, maintained incrementally.

    The registry shares the session's database objects and observes their
    mutation stream; its own evaluator runs the shared staged machinery
    under the session's configuration, so every maintained answer equals a
    cold evaluation of the same query.  Mutation events are buffered
    cheaply as they arrive and settled in :meth:`pump` (called by
    ``poll``/``answer``/``stats`` and by the owning session after each
    mutation), where each *active* subscription is either skipped — with a
    proof the buffered mutations cannot have changed its answer — or
    re-evaluated and diffed.  The ``reevaluations`` / ``skipped`` counters
    in :meth:`stats` expose that selectivity.

    Not thread-safe, like the engines it wraps.
    """

    def __init__(
        self,
        *,
        point_db: Any = None,
        uncertain_db: Any = None,
        config: Any,
    ) -> None:
        if point_db is None and uncertain_db is None:
            raise ConfigurationError("a subscription registry needs at least one database")
        sharded = [
            isinstance(db, ShardedDatabase)
            for db in (point_db, uncertain_db)
            if db is not None
        ]
        if any(sharded) and not all(sharded):
            raise ConfigurationError(
                "cannot mix sharded and unsharded databases in one registry"
            )
        self._point_db = point_db
        self._uncertain_db = uncertain_db
        self._sharded = any(sharded)
        self.config = config
        self._parallel: ParallelEngine | None = None
        self._pipeline: QueryPipeline | None = None
        if self._sharded:
            self._parallel = ParallelEngine(
                point_db=point_db, uncertain_db=uncertain_db, config=config
            )
        else:
            self._pipeline = QueryPipeline(
                point_db=point_db, uncertain_db=uncertain_db, config=config
            )
        self._events: list[UpdateEvent] = []
        self._subscriptions: dict[int, Subscription] = {}
        self._ids = itertools.count(1)
        self._sequence = 0
        self._subscribed_total = 0
        self._deltas_emitted = 0
        self._reevaluations = 0
        self._skipped = 0
        self._rounds = 0
        self._sources = [db for db in (point_db, uncertain_db) if db is not None]
        for db in self._sources:
            db.add_update_observer(self._record_event)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def subscribe(self, query: Query) -> Subscription:
        """Register a standing query; returns its :class:`Subscription`.

        The initial answer is evaluated immediately (after settling any
        buffered mutations), so the handle starts consistent and the delta
        stream replays from a well-defined base.
        """
        if isinstance(query, NearestNeighborQuery):
            target = "points"
        elif isinstance(query, RangeQuery):
            target = query.target
        else:
            raise InvalidArgumentError(
                "subscriptions take a RangeQuery or NearestNeighborQuery, "
                f"got {type(query).__name__}"
            )
        if self._database(target) is None:
            noun = "point-object" if target == "points" else "uncertain-object"
            raise EngineStateError(f"no {noun} database configured")
        self.pump()
        window = relevance_window(query)
        subscription = Subscription(
            registry=self,
            subscription_id=next(self._ids),
            query=query,
            target=target,
            window=window,
            answer=self._evaluate(query),
            scope=self._scope(target, query, window),
        )
        self._subscriptions[subscription.id] = subscription
        self._subscribed_total += 1
        return subscription

    def unsubscribe(self, subscription: "Subscription | int") -> None:
        """Cancel a subscription; its undrained deltas are discarded."""
        subscription_id = (
            subscription.id
            if isinstance(subscription, Subscription)
            else int(subscription)
        )
        cancelled = self._subscriptions.pop(subscription_id, None)
        if cancelled is None:
            raise MissingItemError(f"no active subscription with id {subscription_id}")
        cancelled.active = False
        cancelled._pending = []

    def close(self) -> None:
        """Detach from the observed databases (idempotent)."""
        for db in self._sources:
            db.remove_update_observer(self._record_event)

    def __len__(self) -> int:
        return len(self._subscriptions)

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def _record_event(self, event: UpdateEvent) -> None:
        # The observer hot path: mutations must stay O(index maintenance),
        # so events are only buffered here and settled at the next pump.
        self._events.append(event)

    def pump(self) -> None:
        """Settle buffered mutations: re-evaluate and diff affected subscriptions.

        One pass per call, re-evaluating each affected subscription at most
        once no matter how many buffered mutations touched it.  No-op when
        nothing mutated since the last pump.
        """
        if not self._events:
            return
        events = self._events
        self._events = []
        self._rounds += 1
        for subscription in list(self._subscriptions.values()):
            trigger = self._assess(subscription, events)
            if trigger is None:
                # The answer provably stands; it now also describes the
                # newer database state the next delta will be stamped with.
                self._skipped += 1
                subscription._scope = self._scope(
                    subscription.target, subscription.query, subscription.window
                )
                continue
            self._reevaluations += 1
            self._refresh(subscription, trigger)

    def poll(self) -> list[AnswerDelta]:
        """Drain every subscription's queued deltas as one ordered stream."""
        self.pump()
        drained: list[AnswerDelta] = []
        for subscription in self._subscriptions.values():
            drained.extend(subscription._pending)
            subscription._pending = []
        drained.sort(key=lambda delta: delta.sequence)
        return drained

    def stats(self) -> dict[str, int]:
        """Maintenance counters (settling buffered mutations first).

        ``reevaluations`` counts subscription evaluations actually run by
        pumps, ``skipped`` the subscription/round pairs proven unaffected —
        the pair that shows selectivity is real.  ``rounds`` counts pumps
        that had mutations to settle.
        """
        self.pump()
        return {
            "active": len(self._subscriptions),
            "subscribed_total": self._subscribed_total,
            "deltas_emitted": self._deltas_emitted,
            "reevaluations": self._reevaluations,
            "skipped": self._skipped,
            "rounds": self._rounds,
            "pending_deltas": sum(
                len(subscription._pending)
                for subscription in self._subscriptions.values()
            ),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _database(self, target: str) -> Any:
        return self._point_db if target == "points" else self._uncertain_db

    def _evaluate(self, query: Query) -> dict[int, float]:
        if self._parallel is not None:
            return self._parallel.evaluate(query).probabilities()
        return self._pipeline.run_batch([query])[0].probabilities()

    def _scope(self, target: str, query: Query, window: Rect | None) -> Hashable:
        """The state token a subscription's answer was last verified against.

        It stamps emitted deltas (``AnswerDelta.epoch``) and plays no part in
        deciding what to re-evaluate.
        """
        database = self._database(target)
        if self._sharded:
            if window is None:
                routed = database.route_nearest(query.issuer.region)
            else:
                routed = database.route_window(window)
            return database.epoch_scope(routed)
        return (target, database.uid, database.epoch)

    @staticmethod
    def _assess(subscription: Subscription, events: list[UpdateEvent]) -> UpdateEvent | None:
        """The last buffered event that can have changed a subscription's answer.

        ``None`` proves the answer unchanged: every event either mutated the
        other database kind or touched the plane only outside the
        subscription's window.  The returned event is the *trigger* echoed
        in the emitted deltas' ``op`` field.
        """
        window = subscription.window
        trigger = None
        for event in events:
            if event.target == subscription.target and (
                window is None or event.touches(window)
            ):
                trigger = event
        return trigger

    def _refresh(self, subscription: Subscription, trigger: UpdateEvent) -> None:
        """Re-evaluate one subscription, diff, and queue ordered deltas."""
        fresh = self._evaluate(subscription.query)
        scope = self._scope(subscription.target, subscription.query, subscription.window)
        retained = subscription._answer
        deltas: list[AnswerDelta] = []
        for oid in sorted(retained.keys() | fresh.keys()):
            before = retained.get(oid)
            after = fresh.get(oid)
            if before is None:
                kind = DeltaKind.JOIN
            elif after is None:
                kind = DeltaKind.LEAVE
            elif after != before:
                kind = DeltaKind.SCORE_CHANGE
            else:
                continue
            self._sequence += 1
            deltas.append(
                AnswerDelta(
                    subscription_id=subscription.id,
                    kind=kind,
                    oid=oid,
                    probability=after,
                    previous_probability=before,
                    op=trigger.op,
                    epoch=scope,
                    sequence=self._sequence,
                )
            )
        subscription._answer = fresh
        subscription._scope = scope
        subscription._pending.extend(deltas)
        self._deltas_emitted += len(deltas)
