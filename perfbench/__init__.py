"""End-to-end benchmark of the sensor metadata repository.

Run ``python3 perfbench/run.py --workload <query|live> --seed N
--seconds S --trace <0|1>`` from the repository root. See
``perfbench/README.md`` for what each workload measures and why.
"""
