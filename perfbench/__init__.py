"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout; ``BENCHMARK.json`` lists the
workloads and metrics, ``perfbench/spec.json`` the correctness seed bands
and which end-to-end metric each per-layer metric is expected to move.
"""
