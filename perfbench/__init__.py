"""Host-time benchmark of the simulator: three workloads, one command.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from a single process through the
public APIs, checks every run's output and prints one JSON result line.
See :mod:`perfbench.run` for the metrics and :mod:`perfbench.suite` for
the workloads.
"""
