"""Seeded serving benchmark for the RCKT stack (see ``README.md``).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` trains its own checkpoints, drives the serving stack from
outside, checks every reply, and prints one JSON result line.
"""
