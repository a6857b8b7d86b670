"""The repository benchmark: four workloads, host-normalised throughput
and a traced per-layer run.  Entry point: ``python3 perfbench/run.py``."""
