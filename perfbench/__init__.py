"""The repository benchmark: three workloads, end-to-end and per-layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  ``perfbench/README.md`` lists
the workloads, every metric name and the layer each per-layer metric
belongs to.
"""
