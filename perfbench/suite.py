"""Run every workload in BENCHMARK.json and check what the benchmark reports.

Usage, from the repository root:

    python3 perfbench/suite.py --smoke            # self-test, about a minute
    python3 perfbench/suite.py --seed 7           # full size, run_seconds each

Each workload runs once untraced and twice traced, each in its own process.
Prints every metric by name with its unit and exits 1 if any run fails a
correctness check, misses or mislabels a metric named in BENCHMARK.json, or
reports exact counters that differ between its two traced runs.
"""
from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from run import BENCH, EXACT, ROOT

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """(result object or None, list of problems) of one benchmark run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    problems = [] if done.returncode == 0 else [f"exit code {done.returncode}: {done.stderr.strip()}"]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, problems + ["last line of stdout is not JSON"]
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    return result, problems


def check_metrics(result: dict, spec: list[dict]) -> list[str]:
    metrics = result.get("metrics", {})
    problems = []
    if set(metrics) != {m["name"] for m in spec}:
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in spec})}")
    for m in spec:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sweeps, one second each")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = 1 if args.smoke else BENCH["run_seconds"]

    failures = 0
    for workload in (w["name"] for w in BENCH["workloads"]):
        problems = []
        result, found = run(workload, args.seed, seconds, 0, args.smoke)
        problems += found
        if result is not None:
            problems += check_metrics(result, BENCH["end_to_end"])
            for name, m in result["metrics"].items():
                print(f"{workload:16s} {name:20s} {m['value']:.6g} {m['unit']}")
        traced = []
        for _ in range(2):
            result, found = run(workload, args.seed, seconds, 1, args.smoke)
            problems += found
            if result is not None:
                problems += check_metrics(result, BENCH["per_layer"])
                traced.append(result["metrics"])
        if len(traced) == 2:
            differ = [n for n in EXACT
                      if traced[0].get(n, {}).get("value") != traced[1].get(n, {}).get("value")]
            if differ:
                problems.append(f"exact counters differ between traced runs: {differ}")
            for name, m in traced[0].items():
                print(f"{workload:16s} {name:38s} {m['value']:.6g} {m['unit']}")
        for p in problems:
            print(f"FAIL {workload}: {p}")
        failures += bool(problems)
    print("suite: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
