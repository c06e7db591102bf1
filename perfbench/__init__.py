"""Stage-resolved benchmark of the nrphy coding chain.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout. The benchmark imports the
program from ``src/`` next to this directory and drives only its public
functions; see ``run.py`` for the metrics it prints.
"""
