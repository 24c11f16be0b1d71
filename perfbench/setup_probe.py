"""Time a cold start in a fresh interpreter and print it in seconds:
``import dgs_opt``, ``parse_config``, the first ``build_objective`` and
``build_gh_rule(M)``.

Usage: python3 setup_probe.py <src directory> <config JSON>
"""
import json
import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()

from dgs_opt import harness  # noqa: E402  (the import is what is timed)

config = harness.parse_config(json.loads(sys.argv[2]))
harness.build_objective(config)
harness.build_gh_rule(config.quadrature_order)
print(time.perf_counter() - start)
