"""End-to-end and per-layer benchmark of the repro package.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in its own process and prints one JSON
result line; see ``perfbench/README.md`` for the workloads, the metrics
and the steadiness record.
"""
