"""The one run command of ``BENCHMARK.json``.

``python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload from a bare checkout (no ``PYTHONPATH`` needed) and
prints, as the last line of its standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  It is
``python -m benchmarks.suite run`` with the import path set up first.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        sys.exit(f"{root / 'src' / 'repro'} is missing: nothing to benchmark")
    # This directory must not shadow the standard library (it holds trace.py).
    sys.path[0] = str(root)
    sys.path.insert(1, str(root / "src"))
    from benchmarks.suite.__main__ import main

    sys.exit(main(["run", *sys.argv[1:]], owns_process=True))
