"""CLI of the invariant analyzer: ``python -m repro.tools.lint [paths]``.

Exit codes: 0 — clean; 1 — diagnostics reported; 2 — usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.tools.lint.engine import all_rules, lint_paths
from repro.tools.lint.reporting import format_json, format_rule_listing, format_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description="Check repository invariants (epoch-guarded caches, "
        "seeded RNG, replay safety, typed raises, wire completeness, …).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--no-cross-checks",
        action="store_true",
        help="skip the import-time registry verifications",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(format_rule_listing(all_rules()))
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    diagnostics = lint_paths(args.paths, cross_checks=not args.no_cross_checks)
    rendered = (
        format_json(diagnostics) if args.format == "json" else format_text(diagnostics)
    )
    if rendered:
        print(rendered)
    return 1 if diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
