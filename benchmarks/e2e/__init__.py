"""The repo's end-to-end benchmark (``python -m benchmarks.e2e``).

Six named workloads drive ``service -> runtime(boot) -> neuron(expand)
-> compile -> cluster | runtime+router -> collect -> release`` through
the layers' public functions only, time every call from outside, and
print every metric by name with its unit.  ``BENCHMARK.json`` at the
repo root declares the driver-facing contract; ``README.md`` in this
directory holds the tables, the first result set and how to compare
two runs.

Module map:

* :mod:`benchmarks.e2e.workloads` — pinned constants (one reason beside
  each) and the six workload classes;
* :mod:`benchmarks.e2e.harness` — the measuring loop, the span tracer,
  percentile/quartile rules, spike digest, provenance;
* :mod:`benchmarks.e2e.metrics` — ``BENCHMARK.json`` loaded (the one
  table of names, units, directions and bounds), the named metrics each
  workload reports under them, and the per-layer figures read from spans
  and program reports;
* :mod:`benchmarks.e2e.compare` — the A/A and parent-vs-change tool;
* :mod:`benchmarks.e2e.cli` — ``run | compare | list`` and the
  one-workload entry point the driver calls through ``run.py``.
"""
