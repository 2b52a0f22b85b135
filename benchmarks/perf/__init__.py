"""Isolated micro suites, one per hot-path layer.

* :mod:`benchmarks.perf.kernel_bench` — the event kernel alone (schedule and
  fire throughput, timer churn),
* :mod:`benchmarks.perf.network_bench` — signed multicast through the
  simulated network,
* :mod:`benchmarks.perf.replica_bench` — stage-2 bundle accounting and
  membership-view lookups,
* :mod:`benchmarks.perf.workload_bench` — Zipfian key choice and YCSB op
  synthesis.

They stay because ``hamava_bench/child.py::run_isolated`` calls each
module's ``run(quick)`` and reports the results as the benchmark's
``*.iso_*`` per-layer rows.  They have no command line of their own:
``python3 hamava_bench/run.py`` is the one perf harness.
"""
