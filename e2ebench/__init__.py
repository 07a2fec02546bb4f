"""The repository's reference benchmark (see ``e2ebench/README.md``).

Run it with ``python3 e2ebench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
