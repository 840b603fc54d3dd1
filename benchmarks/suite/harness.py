"""One workload, end to end: set-up → warm-up → served phase → embedded phase.

:func:`run_workload` is the whole benchmark for one workload and one seed.
Untraced it yields the end-to-end metrics; traced it yields the per-layer
metrics (client-side spans on half the lanes of the served phase, then the
in-process replay of :mod:`benchmarks.suite.layers`).  Operation counts are fixed by
``--seconds`` before anything is measured, so every count metric repeats
exactly; answers are verified outside the timed sections and every mismatch,
error reply, lost connection, leak or orphan counts as a failed operation
instead of raising.
"""

from __future__ import annotations

import asyncio
import os
import signal
import statistics
import traceback
from dataclasses import dataclass, field

from benchmarks.suite import layers, loadgen, oracle, procstat, report
from benchmarks.suite.trace import Tracer, clock
from benchmarks.suite.workloads import (
    BASE_SECONDS,
    MOVES_PER_BATCH,
    WORKLOADS,
    Workload,
    WorkloadSpec,
    build_serial_session,
    build_session,
    close_session,
    connections,
    dataset,
    deal,
    lanes,
    scale_out,
)
from repro.core.queries import Evaluation
from repro.core.updates import UpdateBatch

#: Items per ``Session.evaluate_many`` call in the embedded phase.
EMBEDDED_BATCH = 64

#: Replay sample at factor 1.0 (scaled like every other count).
BASE_REPLAY = 256


@dataclass(frozen=True)
class RunOptions:
    """How long, how big and with which seed one run is."""

    seed: int = 2007
    seconds: float = 6.0
    #: Tiny datasets and 64 operations: the smoke test's mode, refused by ``compare``.
    quick: bool = False
    traced: bool = False
    #: Test hook: ``"wrong_answer"`` corrupts one reference digest,
    #: ``"kill_daemon"`` kills a shard daemon after the warm-up.
    fault: str | None = None

    @property
    def factor(self) -> float:
        return self.seconds / BASE_SECONDS

    @property
    def scale(self) -> float:
        return 0.02 if self.quick else 1.0

    @property
    def operations(self) -> int | None:
        return 64 if self.quick else None

    @property
    def deadline_s(self) -> float:
        """Client-side deadline per request: a wedged daemon fails the run."""
        return 10.0 if self.quick else 30.0


@dataclass
class WorkloadResult:
    """Everything one run of one workload produced."""

    name: str
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Per timing: median, the percentile reported, and the sample count.
    timings: dict[str, dict[str, float]] = field(default_factory=dict)
    operations: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    tracer: Tracer | None = None

    @property
    def failed(self) -> int:
        return len(self.failures)


def percentile(values: list[float], share: float) -> float:
    """The nearest-rank ``share`` quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _timing(values: list[float], share: float) -> dict[str, float]:
    return {
        "median": statistics.median(values) if values else 0.0,
        f"p{round(share * 100)}": percentile(values, share),
        "count": len(values),
    }


class _Run:
    """State shared by the phases of one workload run."""

    def __init__(self, spec: WorkloadSpec, options: RunOptions) -> None:
        self.spec = spec
        self.options = options
        self.lane_count = lanes()
        self.workload = Workload(
            spec, seed=options.seed, factor=options.factor, operations=options.operations
        )
        self.objects = dataset(spec, options.scale)
        self.workload.generate_updates(self.objects, self.lane_count)
        self.result = WorkloadResult(name=spec.name)
        self.result.operations = {
            "queries": self.workload.query_count,
            "warmup": self.workload.warmup_count,
            "embedded": self.workload.embedded_count,
            "update_batches": len(self.workload.updates),
            "lanes": self.lane_count,
        }
        self.runner = asyncio.Runner()
        self.server: loadgen.ServerProcess | None = None
        self._shm_before = procstat.shm_blocks()

    # ------------------------------------------------------------------ #
    # Set-up and teardown
    # ------------------------------------------------------------------ #
    async def _launch(self) -> float:
        """Launch the server child; seconds until its first ``stats`` reply."""
        started = clock()
        self.server = await loadgen.ServerProcess.launch(
            self.spec.name, seed=self.options.seed, scale=self.options.scale
        )
        connection = await loadgen.connect(self.server.port)
        try:
            await connection.client.stats()
            return clock() - started
        finally:
            await connection.client.aclose()

    def setup(self, repeats: int) -> list[float]:
        """Set up ``repeats`` times, keeping the last server."""
        samples = []
        for attempt in range(repeats):
            if attempt:
                self.stop_server()
            samples.append(self.runner.run(self._launch()))
        return samples

    def stop_server(self) -> None:
        """Stop the server child; leaks and orphans fail the workload."""
        if self.server is not None:
            self.result.failures.extend(self.server.stop())
            leaked = procstat.shm_blocks() - self._shm_before
            if leaked:
                self.result.failures.append(f"shared-memory blocks left: {sorted(leaked)}")
            self.server = None

    def _open(self, tracers: list[Tracer | None]) -> list[loadgen.Connection]:
        """One connection per entry of ``tracers`` (``None`` = a plain ``ServeClient``)."""

        async def open_all():
            return [
                await loadgen.connect(self.server.port, tracer=tracer, name=f"c{number}")
                for number, tracer in enumerate(tracers)
            ]

        return self.runner.run(open_all())

    def _close(self, opened: list[loadgen.Connection]) -> None:
        async def close_all():
            for connection in opened:
                await connection.client.aclose()

        self.runner.run(close_all())

    def _drive(self, opened, lane_operations, probe=lambda: 0.0) -> loadgen.PhaseResult:
        outcome = loadgen.PhaseResult()
        self.runner.run(
            loadgen.drive(
                opened,
                lane_operations,
                outcome,
                deadline_s=self.options.deadline_s,
                probe=probe,
            )
        )
        return outcome

    def _warm_up(self, opened) -> None:
        self._drive(opened, deal(list(enumerate(self.workload.warmup)), self.lane_count))

    # ------------------------------------------------------------------ #
    # Untraced run: the end-to-end metrics
    # ------------------------------------------------------------------ #
    def measure(self) -> None:
        spec, workload, result = self.spec, self.workload, self.result
        repeats = 1 if self.options.quick else spec.setup_repeats
        setups = self.setup(repeats)

        # Reference answers come from an in-process serial session under the
        # same configuration, computed before the served phase.
        reference = None
        expected: dict[int, str] = {}
        if not spec.mutating:
            reference = build_serial_session(spec, self.objects)
            sampled = range(0, workload.query_count, oracle.DIGEST_STRIDE)
            answers = reference.evaluate_many([workload.queries[i] for i in sampled])
            expected = {i: oracle.digest(answer) for i, answer in zip(sampled, answers)}
        if self.options.fault == "wrong_answer":
            expected[0] = "0" * 32

        opened = self._open([None] * connections())
        self._warm_up(opened)
        if self.options.fault == "kill_daemon":
            daemons = [pid for pid in self.server.tree() if pid != self.server.process.pid]
            os.kill(daemons[0], signal.SIGKILL)
        before = self.server.tree()

        def tree_cpu_seconds() -> float:
            samples = [procstat.sample(pid) for pid in before]
            return sum(found.cpu_seconds for found in samples if found is not None)

        phase = self._drive(
            opened, workload.lane_operations(self.lane_count), tree_cpu_seconds
        )
        after = self.server.tree()
        stats = self.runner.run(opened[0].client.stats())
        if spec.mutating:
            self._probe(opened, phase, stats)
        self._close(opened)
        self.stop_server()

        result.attempted += phase.attempted
        result.failures.extend(phase.failures)
        result.failures.extend(
            oracle.verify(phase.evaluations, expected, spec.threshold, phase="served")
        )
        answered = len(phase.latencies_ms)
        latencies = list(phase.latencies_ms.values())
        # Throughput and CPU cost cover the whole phase, update stalls included:
        # those are part of what ``fleet_mixed`` is there to show, and a median
        # over a few segments flips between "stalled" and "not" from run to run.
        result.end_to_end = {
            "setup_s": statistics.median(setups),
            "served_qps": answered / phase.wall_s if phase.wall_s else 0.0,
            "served_p50_ms": statistics.median(latencies) if latencies else 0.0,
            "cpu_ms_per_op": phase.probed * 1000.0 / max(phase.attempted, 1),
            "peak_rss_mb": sum(member.peak_rss_mib for member in after.values()),
            "wire_bytes_per_query": phase.wire_bytes / max(answered, 1),
        }
        result.timings["setup_s"] = _timing(setups, 1.0)
        result.timings["served_round_trip_ms"] = _timing(latencies, 0.95)
        result.timings["update_ack_ms"] = _timing(phase.update_acks_ms, 0.95)
        result.timings["served_phase_s"] = {"value": phase.wall_s, "count": 1}

        self._embed(reference, expected)

    def _probe(self, opened, phase: loadgen.PhaseResult, stats: dict) -> None:
        """``fleet_mixed``: the served state must equal a serial replay of the acks."""
        result = self.result
        probes = self.workload.probes()
        probed = self._drive(opened, deal(list(enumerate(probes)), self.lane_count))
        result.attempted += probed.attempted
        result.failures.extend(probed.failures)
        replica = build_serial_session(self.spec, self.objects)
        for batch in phase.acked:
            replica.apply_updates(batch)
        wanted = {
            index: oracle.digest(answer)
            for index, answer in enumerate(replica.evaluate_many(probes))
        }
        result.failures.extend(
            oracle.verify(probed.evaluations, wanted, self.spec.threshold, phase="probe")
        )
        applied = stats["serving"]["update_ops_applied"]
        epochs = sum(stats["stats"]["epochs"]["points"].values())
        if applied != MOVES_PER_BATCH * len(phase.acked):
            result.failures.append(
                f"server applied {applied} update ops, {len(phase.acked)} batches acknowledged"
            )
        # A move bumps its shard's epoch once, or two shards' when it crosses.
        if not applied <= epochs <= 2 * applied:
            result.failures.append(f"shard epochs sum to {epochs} after {applied} applied ops")

    def _embed(self, reference, expected: dict[int, str]) -> None:
        """The embedded phase: the same session in-process, no server."""
        spec, workload, result = self.spec, self.workload, self.result
        stream = workload.embedded_operations(self.lane_count)
        queries = [item for item in stream if not isinstance(item, UpdateBatch)]
        result.attempted += len(stream)
        if reference is None:
            reference = build_serial_session(spec, self.objects)
        # For the two serial workloads this *is* the reference session.
        session = scale_out(spec, reference, workload.standing)
        answers: list[Evaluation] = []
        try:
            session.evaluate_many(workload.warmup[: 2 * layers.REPLAY_BATCH])
            rates = []
            with loadgen.collector_paused():
                begun = clock()
                for offset in range(0, len(stream), EMBEDDED_BATCH):
                    started = clock()
                    batch = session.evaluate_many(stream[offset : offset + EMBEDDED_BATCH])
                    rates.append(len(batch) / (clock() - started))
                    answers.extend(batch)
                wall = clock() - begun
        except Exception as error:  # an engine failure fails the phase, not the run
            result.failures.extend(
                [f"embedded phase: {type(error).__name__}: {error}"] * len(stream)
            )
            result.end_to_end["embedded_qps"] = 0.0
            return
        finally:
            if session is not reference:
                close_session(session)
        if spec.mutating:
            # The reference replays the very same stream, updates included.
            replayed = build_serial_session(spec, self.objects).evaluate_many(stream)
            expected = {
                index: oracle.digest(replayed[index])
                for index in range(0, len(queries), oracle.DIGEST_STRIDE)
            }
        result.failures.extend(
            oracle.verify(dict(enumerate(answers)), expected, spec.threshold, phase="embedded")
        )
        # Like the served phase: the median batch, so one hiccup cannot move it.
        result.end_to_end["embedded_qps"] = statistics.median(rates)
        result.timings["embedded_phase_s"] = {"value": wall, "count": 1}
        result.timings["embedded_batch_qps"] = _timing(rates, 1.0)

    # ------------------------------------------------------------------ #
    # Traced run: the per-layer metrics
    # ------------------------------------------------------------------ #
    def trace(self) -> None:
        spec, workload, result = self.spec, self.workload, self.result
        tracer = result.tracer = Tracer()
        # Every per-layer metric is emitted on every workload: 0 where the
        # workload bypasses the layer.
        metrics = dict.fromkeys(report.metric_table("per_layer"), 0.0)
        self.setup(1)

        # One plain and one traced connection share the phase, so both kinds
        # of request meet the same server at the same time and the tracing
        # overhead is their difference, not the host's mood.
        opened = self._open([None, tracer])
        self._warm_up(opened)
        stats_before = self.runner.run(opened[0].client.stats())
        before = self.server.tree()
        plain, traced = opened
        # Lanes alternate plain/traced/traced/plain: within a wave the server
        # answers in arrival order, and neither kind should always be first.
        pattern = [plain, traced, traced, plain]
        phase = self._drive(pattern, workload.lane_operations(self.lane_count))
        after = self.server.tree()
        stats = self.runner.run(opened[0].client.stats())
        child = self.server.process.pid
        self._close(opened)
        self.stop_server()

        result.attempted += phase.attempted
        result.failures.extend(phase.failures)
        result.failures.extend(
            oracle.verify(phase.evaluations, {}, spec.threshold, phase="served")
        )
        evaluations, latencies = phase.evaluations, phase.latencies_ms
        acks = phase.update_acks_ms
        by_kind: dict[bool, list[float]] = {False: [], True: []}
        for index, latency in latencies.items():
            lane = index % self.lane_count  # how the queries were dealt
            by_kind[pattern[lane % len(pattern)] is traced].append(latency)
        if by_kind[False] and by_kind[True]:
            metrics["trace.overhead_share"] = (
                statistics.median(by_kind[True]) / statistics.median(by_kind[False]) - 1.0
            )
        metrics["served_p95_ms"] = percentile(list(latencies.values()), 0.95)
        metrics["serve.client.p99_ms"] = percentile(list(latencies.values()), 0.99)
        metrics["serve.client.outside_engine_ms"] = statistics.median(
            [latencies[index] - evaluations[index].elapsed_ms for index in latencies]
        ) if latencies else 0.0
        metrics["serve.server.update_ack_p50_ms"] = statistics.median(acks) if acks else 0.0
        metrics["serve.server.update_ack_p95_ms"] = percentile(acks, 0.95)
        serving, earlier = stats["serving"], stats_before["serving"]
        waves = serving["waves"] - earlier["waves"]
        metrics["serve.server.waves"] = waves
        metrics["serve.server.wave_size_mean"] = (
            (serving["wave_items"] - earlier["wave_items"]) / waves if waves else 0.0
        )
        metrics["serve.server.rejected"] = serving["rejected"] - earlier["rejected"]
        cache = stats["stats"]["cache"]
        if cache is not None:
            metrics["core.cache.hit_rate"] = cache["hit_rate"]
            metrics["core.cache.evictions"] = cache["evictions"]
            metrics["core.cache.entries"] = cache["entries"]
        subscriptions = stats["stats"]["subscriptions"]
        if subscriptions is not None:
            assessed = subscriptions["reevaluations"] + subscriptions["skipped"]
            metrics["core.continuous.reevaluated_share"] = (
                subscriptions["reevaluations"] / assessed if assessed else 0.0
            )
            metrics["core.continuous.deltas"] = subscriptions["deltas_emitted"]
        burned = procstat.cpu_delta(before, after)
        daemons = sum(seconds for pid, seconds in burned.items() if pid != child)
        metrics["rpc.shardd.cpu_share"] = daemons / sum(burned.values()) if burned else 0.0
        result.timings["traced_round_trip_ms"] = _timing(list(latencies.values()), 0.99)
        result.timings["update_ack_ms"] = _timing(acks, 0.95)

        # The in-process replay, on the same kind of session the child served.
        serial = build_serial_session(spec, self.objects)
        started = clock()
        session = scale_out(spec, serial, workload.standing)
        if session.engine.engine_kind == "distributed":
            metrics["rpc.pool.spinup_s"] = clock() - started
        try:
            count = max(16, round(BASE_REPLAY * self.options.factor))
            if self.options.quick:
                count = 16
            sample = workload.queries[:count]
            result.operations["replay"] = len(sample)
            result.attempted += len(sample)
            session.evaluate_many(workload.warmup[: 2 * layers.REPLAY_BATCH])
            metrics.update(layers.replay(spec, session, sample, tracer))
            if spec.mutating:
                unsubscribed = build_session(spec, self.objects, [])
                try:
                    metrics.update(
                        layers.update_metrics(unsubscribed, session, workload.updates)
                    )
                finally:
                    close_session(unsubscribed)
        finally:
            close_session(session)
        result.per_layer = metrics

    # ------------------------------------------------------------------ #
    def run(self) -> WorkloadResult:
        started = clock()
        try:
            with self.runner:
                try:
                    if self.options.traced:
                        self.trace()
                    else:
                        self.measure()
                finally:
                    self.stop_server()
        except Exception as error:  # the harness reports, the caller decides
            traceback.print_exc()
            self.result.attempted = max(self.result.attempted, 1)
            self.result.failures.append(f"run aborted: {type(error).__name__}: {error}")
        self.result.wall_s = clock() - started
        return self.result


def run_workload(name: str, options: RunOptions) -> WorkloadResult:
    """Run one workload once; failures are counted, never raised."""
    return _Run(WORKLOADS[name], options).run()
