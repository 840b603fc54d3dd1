"""Closed-loop benchmark suite: ``ServeClient`` → ``QueryServer`` → engine → shards and back.

``python -m benchmarks.suite run`` measures the four workloads of
:mod:`benchmarks.suite.workloads` end to end and prints every metric named in
``BENCHMARK.json``; ``--trace`` adds the per-layer replay.  See ``README.md``
in this directory for the metric tables and how the layers interact.
"""
