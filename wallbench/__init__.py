"""Wall-clock benchmark for the LegoSDN stack.

``python3 wallbench/run.py --workload steady --seed 1 --seconds 15
--trace 0`` builds the sharded stack from source (``src/``), drives one
seeded, open-loop workload on the simulated clock in fresh child
processes, measures real time from outside the program, checks the
outputs, and prints the metrics listed in ``BENCHMARK.json``.  See
``wallbench/README.md``.
"""
