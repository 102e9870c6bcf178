"""The repository benchmark: three workloads measured from outside the library.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``BENCHMARK.json`` at
the root lists the workloads and metrics.  Nothing here is imported by the
library.
"""
