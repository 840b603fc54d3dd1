"""Reports: the environment block, dated JSON + markdown files, and ``compare``.

The metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root and nowhere else; everything here reads them from there.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[2]
REPORT_DIR = Path(__file__).resolve().parent / "reports"
SCHEMA = "benchmarks.suite/1"


def contract() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_table(kind: str) -> dict[str, dict]:
    """``end_to_end`` or ``per_layer`` metric definitions, keyed by name."""
    return {metric["name"]: metric for metric in contract()[kind]}


def git_sha() -> str:
    """The checkout's short commit hash (``unknown`` outside a git repository)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> dict:
    """Where the numbers were taken."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median (``None`` below two values)."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(third - first) / abs(median) if median else None


def summarise(repeats: list[dict[str, float]], units: dict[str, dict]) -> dict[str, dict]:
    """Per metric: the median over the repeats, every value, and their spread."""
    summary = {}
    for name in repeats[0]:
        values = [repeat[name] for repeat in repeats]
        summary[name] = {
            "value": statistics.median(values),
            "unit": units[name]["unit"],
            "values": values,
            "spread": spread(values),
        }
    return summary


def build(options, results: dict[str, list]) -> dict:
    """The report document for ``results`` (workload → one result per repeat)."""
    kind = "per_layer" if options.traced else "end_to_end"
    units = metric_table(kind)
    workloads = {}
    for name, repeats in results.items():
        last = repeats[-1]
        workloads[name] = {
            "wall_s": [repeat.wall_s for repeat in repeats],
            "attempted": sum(repeat.attempted for repeat in repeats),
            "failed": sum(repeat.failed for repeat in repeats),
            "failures": [failure for repeat in repeats for failure in repeat.failures][:20],
            "operations": last.operations,
            kind: summarise([getattr(repeat, kind) for repeat in repeats], units),
            "timings": last.timings,
        }
    return {
        "schema": SCHEMA,
        "quick": options.quick,
        "traced": options.traced,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": environment(),
        "seed": options.seed,
        "seconds": options.seconds,
        "count_factor": options.factor,
        "dataset_scale": options.scale,
        "load_model": "closed loop: min(2, nproc) connections x 4 requests in flight",
        "workloads": workloads,
    }


def markdown(document: dict) -> str:
    """The report's markdown twin."""
    env = document["environment"]
    kind = "per_layer" if document["traced"] else "end_to_end"
    lines = [
        f"# benchmarks.suite report — {document['created_utc']} @ {env['git_sha']}",
        "",
        f"- host: {env['nproc']} cores, {env['cpu_model']}, {env['platform']}",
        f"- python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}",
        f"- seed {document['seed']}, --seconds {document['seconds']} "
        f"(count factor {document['count_factor']:g}), dataset scale "
        f"{document['dataset_scale']:g}, quick={document['quick']}, traced={document['traced']}",
        f"- {document['load_model']}",
        "",
    ]
    for name, entry in document["workloads"].items():
        walls = ", ".join(f"{wall:.1f}" for wall in entry["wall_s"])
        lines += [
            f"## {name}",
            "",
            f"attempted {entry['attempted']}, failed {entry['failed']}; wall {walls} s; "
            f"operations {entry['operations']}",
            "",
            "| metric | value | unit | spread |",
            "|---|---|---|---|",
        ]
        for metric, cell in entry[kind].items():
            shown = "—" if cell["spread"] is None else f"{cell['spread']:.4f}"
            lines.append(f"| `{metric}` | {cell['value']:.6g} | {cell['unit']} | {shown} |")
        lines += ["", "| timing | median | percentile | samples |", "|---|---|---|---|"]
        for timing, cell in entry["timings"].items():
            extra = [f"{key} {value:.6g}" for key, value in cell.items() if key.startswith("p")]
            median = cell.get("median", cell.get("value", 0.0))
            lines.append(
                f"| `{timing}` | {median:.6g} | {', '.join(extra) or '—'} | {cell['count']} |"
            )
        for failure in entry["failures"]:
            lines.append(f"- FAILED: {failure}")
        lines.append("")
    return "\n".join(lines)


def write(document: dict, directory: Path) -> Path:
    """Write ``<UTC date>_<git sha>.json`` and its markdown twin; returns the JSON path."""
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{document['created_utc'][:10]}_{document['environment']['git_sha']}"
    if document["traced"]:
        stem += "_traced"
    path = directory / f"{stem}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    path.with_suffix(".md").write_text(markdown(document))
    return path


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
def compare(path_a: Path, path_b: Path) -> int:
    """Apply ``BENCHMARK.json``'s bounds to two reports; 0 = no regression.

    Prints one row per (workload, metric) with both values and the ratio of
    B over its base A.  A pair is *unresolved* — neither unchanged nor
    regressed — when the run-to-run spread recorded in either file exceeds
    the metric's bound.
    """
    a, b = (json.loads(path.read_text()) for path in (path_a, path_b))
    for path, document in ((path_a, a), (path_b, b)):
        if document.get("schema") != SCHEMA:
            print(f"{path}: not a {SCHEMA} report")
            return 2
        if document["quick"] or document["traced"]:
            print(f"{path}: quick and traced reports carry no comparable end-to-end metrics")
            return 2
    bounds = metric_table("end_to_end")
    verdicts = {"regressed": 0, "unresolved": 0}
    print(f"{'workload':<14}{'metric':<22}{'A':>12}{'B':>12}  {'B/A':>7}  bound  verdict")
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, cell in entry["end_to_end"].items():
            rule = bounds[name]
            base, value = cell["value"], other["end_to_end"][name]["value"]
            ratio = value / base if base else float("inf")
            worse = ratio - 1.0 if rule["better"] == "lower" else 1.0 - ratio
            spreads = [s for s in (cell["spread"], other["end_to_end"][name]["spread"]) if s]
            if spreads and max(spreads) > rule["bound"]:
                verdict = "unresolved"
            elif worse > rule["bound"]:
                verdict = "regressed"
            elif worse < -rule["bound"]:
                verdict = "improved"
            else:
                verdict = "within bound"
            if verdict in verdicts:
                verdicts[verdict] += 1
            print(
                f"{workload:<14}{name:<22}{base:>12.5g}{value:>12.5g}  "
                f"{ratio:>6.3f}x  {rule['bound']:<5}  {verdict} ({rule['unit']}, of A)"
            )
    print(f"{verdicts['regressed']} regressed, {verdicts['unresolved']} unresolved")
    return 1 if verdicts["regressed"] else 0
