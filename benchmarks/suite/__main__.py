"""``python -m benchmarks.suite {run,compare}`` (from the repository root, ``PYTHONPATH=src``)."""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from benchmarks.suite import procstat, report
from benchmarks.suite.harness import RunOptions, WorkloadResult, run_workload
from benchmarks.suite.workloads import WORKLOADS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Closed-loop benchmark from ServeClient to the shards and back.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure the workloads and write a dated report")
    run.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )  # fmt: skip
    run.add_argument("--seed", type=int, default=2007, help="workload seed (default 2007)")
    run.add_argument(
        "--seconds", type=float, default=None,
        help="nominal served-phase length; scales every operation count "
        "(default: run_seconds of BENCHMARK.json)",
    )  # fmt: skip
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="traced run: per-layer metrics in place of the end-to-end ones",
    )  # fmt: skip
    run.add_argument("--quick", action="store_true", help="smoke-test sizes; not comparable")
    run.add_argument("--repeats", type=int, default=1, help="runs per workload (spread needs >1)")
    run.add_argument(
        "--report-dir", type=Path, default=report.REPORT_DIR, help="where the report is written"
    )
    compare = commands.add_parser("compare", help="apply the bounds to two reports")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    return parser


def _print_result(
    result: WorkloadResult, metrics: dict[str, float], units: dict[str, dict]
) -> None:
    print(
        f"\n{result.name}: attempted {result.attempted}, failed {result.failed}, "
        f"{result.wall_s:.1f} s, operations {result.operations}"
    )
    for name, value in metrics.items():
        print(f"  {name:<46}{value:>16.6g} {units[name]['unit']}")
    for failure in result.failures[:10]:
        print(f"  FAILED: {failure}")


def run(args: argparse.Namespace, *, owns_process: bool = False) -> int:
    """Measure; ``owns_process`` says every descendant of this process is the run's.

    Then nothing may outlive the run: orphans are adopted and, at the end,
    whatever is still below this process is ended and waited for.  A caller
    that runs other things in the same process (the smoke test) leaves it off.
    """
    contract = report.contract()
    options = RunOptions(
        seed=args.seed,
        seconds=args.seconds if args.seconds is not None else float(contract["run_seconds"]),
        quick=args.quick,
        traced=bool(args.trace),
    )
    kind = "per_layer" if options.traced else "end_to_end"
    units = report.metric_table(kind)
    names = args.workload or [workload["name"] for workload in contract["workloads"]]
    results: dict[str, list[WorkloadResult]] = {}
    if owns_process:
        procstat.adopt_orphans()
        # A polite kill unwinds through the ``finally`` blocks like any other way out.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        for name in names:
            for _ in range(args.repeats):
                result = run_workload(name, options)
                # Exactly the contract's metrics, in the contract's order.
                measured = getattr(result, kind)
                setattr(result, kind, {metric: measured.get(metric, 0.0) for metric in units})
                results.setdefault(name, []).append(result)
                _print_result(result, getattr(result, kind), units)
    finally:
        leftovers = procstat.end_descendants() if owns_process else []
    for leftover in leftovers:
        print(f"  FAILED: {leftover}")
    document = report.build(options, results)
    path = report.write(document, args.report_dir)
    tracers = {
        name: repeats[-1].tracer for name, repeats in results.items() if repeats[-1].tracer
    }
    if tracers:
        (path.parent / "trace.json").write_text(
            json.dumps({name: tracer.document() for name, tracer in tracers.items()}) + "\n"
        )
    print(f"\nreport: {path}")
    every = [result for repeats in results.values() for result in repeats]
    failed = sum(result.failed for result in every) + len(leftovers)
    if len(every) == 1:
        # The driver's contract: one JSON object as the last line of stdout.
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": every[0].attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": value, "unit": units[name]["unit"]}
                        for name, value in getattr(every[0], kind).items()
                    },
                }
            )
        )
    return 1 if failed else 0


def main(argv: list[str] | None = None, *, owns_process: bool = False) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compare":
        return report.compare(args.a, args.b)
    return run(args, owns_process=owns_process)


if __name__ == "__main__":
    sys.exit(main(owns_process=True))
