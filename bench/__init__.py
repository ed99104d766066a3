"""End-to-end and per-layer benchmark of the ``totneg`` command line.

Run ``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``--workload all`` runs every workload in its own process.
"""
