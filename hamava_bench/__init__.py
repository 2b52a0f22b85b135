"""End-to-end and per-layer benchmark of the Hamava simulator.

``python3 hamava_bench/run.py`` is the one command; ``README.md`` beside this
file says what it measures and how to read it, ``BENCHMARK.json`` at the
repository root declares every workload and metric it prints.
"""
