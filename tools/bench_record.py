"""Write BENCH_<n>.json: one record of the benchmark and of the test suite.

Usage, from the repository root:

    python3 tools/bench_record.py 17 --pytest-log test_output.txt

For each workload in BENCHMARK.json it runs ``perfbench/run.py`` once at
``--trace 0`` (end-to-end metrics) and once at ``--trace 1`` (per-layer
metrics), one after the other, at seed 1 and BENCHMARK.json's
``run_seconds``, so that every record is made at the same settings. From
each run it keeps the exit code, the ``# workload ... meta {...}`` line (CPU
count and model, Python and numpy versions, commit, ``src_lines``) and the
last line, the JSON result. A run that exits nonzero, or whose output lacks
those lines, keeps its exit code and the tail of its stderr instead, and
the other runs go on. The meta line's ``commit`` is the checked-out commit
the tree was measured on; ``dirty`` says whether tracked files differed
from it, as they do when a record is made for the change that commits it.
With ``--pytest-log`` it also keeps the summary line and the ``slowest 10
durations`` block of a pytest log, such as ``test_output.txt``. The file is
written to the repository root. It then prints each workload's end-to-end
metrics next to those of the newest earlier ``BENCH_<m>.json`` (m < n), with
the change in percent, and then the two ``src_lines``. Exits 1 if a run
failed or was not correct.
"""
from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

_META = re.compile(r"^# workload (\S+) seed (-?\d+) meta (\{.*\})$")
_DURATION = re.compile(r"^([\d.]+)s\s+(setup|call|teardown)\s+(\S+)$")
# "=== 1 failed, 349 passed in 128.98s (0:02:08) ===", or without the rules under -q
_SUMMARY = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*|no tests ran) in ([\d.]+)s\b")
_COUNT = re.compile(r"(\d+) ([a-z]+)")
_BENCH = re.compile(r"BENCH_(\d+)\.json")


def parse_run_output(stdout: str) -> dict:
    """The meta line's fields and the final JSON result of one run.py run."""
    lines = stdout.strip().splitlines()
    meta = next((m for m in map(_META.match, lines) if m), None)
    if meta is None:
        raise ValueError("no '# workload ... meta {...}' line in the run's output")
    return {"workload": meta[1], "seed": int(meta[2]), "meta": json.loads(meta[3]),
            "result": json.loads(lines[-1])}


def read_run(exit_code: int, stdout: str, stderr: str) -> dict:
    """One run's entry: its exit code and parsed output, or, when it exited
    nonzero or its output does not parse, the tail of its stderr."""
    if exit_code == 0:
        try:
            return {"exit_code": 0, **parse_run_output(stdout)}
        except ValueError as error:  # json.JSONDecodeError is a ValueError
            stderr = f"{stderr}unparsable output: {error}"
    return {"exit_code": exit_code, "stderr_tail": stderr.splitlines()[-20:]}


def parse_pytest_log(text: str) -> dict:
    """Counts, wall time and slowest durations from a pytest log's tail."""
    lines = text.splitlines()
    summary = next((m for m in map(_SUMMARY.match, reversed(lines)) if m), None)
    if summary is None:
        raise ValueError("no pytest summary line in the log")
    slowest = []
    start = next((i for i, line in enumerate(lines) if "slowest 10 durations" in line), None)
    for line in ([] if start is None else lines[start + 1:]):
        m = _DURATION.match(line)
        if m is None:
            break
        slowest.append({"seconds": float(m[1]), "phase": m[2], "test": m[3]})
    return {"summary": summary[1], "wall_s": float(summary[2]),
            "counts": {kind: int(n) for n, kind in _COUNT.findall(summary[1])},
            "slowest": slowest}


def run_workload(name: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return read_run(done.returncode, done.stdout, done.stderr)


def tree_dirty() -> bool | None:
    """Whether tracked files differ from the checked-out commit; None without git."""
    done = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=ROOT, capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def newest_before(number: int, root: Path) -> Path | None:
    """The BENCH_<m>.json in ``root`` with the largest m below ``number``."""
    found = [(int(m[1]), path) for path in root.glob("BENCH_*.json")
             if (m := _BENCH.fullmatch(path.name)) and int(m[1]) < number]
    return max(found)[1] if found else None


def _end_to_end(record: dict, workload: str) -> dict:
    """name -> value of one workload's end-to-end metrics, from its trace 0 run."""
    run = record["workloads"].get(workload, {}).get("trace0", {})
    return {name: metric["value"] for name, metric in
            run.get("result", {}).get("metrics", {}).items()}


def src_lines(runs) -> int | None:
    """The ``src/`` line count of the first of ``runs`` whose meta line has one."""
    return next((run["meta"]["src_lines"] for run in runs
                 if "src_lines" in run.get("meta", {})), None)


def compare(record: dict, earlier: dict, metrics: list[dict]) -> list[str]:
    """One line per workload of ``record`` and end-to-end metric: the value
    in ``earlier``, the value in ``record`` and the change in percent, or
    "-" where a run has no value. Then the ``src/`` line counts, with the
    change in lines."""
    lines = []
    for workload in record["workloads"]:
        now, before = _end_to_end(record, workload), _end_to_end(earlier, workload)
        for metric in metrics:
            a, b = before.get(metric["name"]), now.get(metric["name"])
            change = f"{(b - a) / abs(a):+.1%}" if a and b is not None else "-"
            values = " -> ".join("-" if v is None else f"{v:.6g}" for v in (a, b))
            lines.append(f"{workload:<16} {metric['name']:<17} {values} {metric['unit']} "
                         f"({change})")
    a, b = (src_lines(run for runs in r["workloads"].values() for run in runs.values())
            for r in (earlier, record))
    values = " -> ".join("-" if v is None else str(v) for v in (a, b))
    return lines + [f"src_lines {values} ({'-' if None in (a, b) else f'{b - a:+d}'})"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="n of BENCH_<n>.json")
    parser.add_argument("--pytest-log", type=Path, help="a pytest log to take the test times from")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    record = {"seed": SEED, "seconds": seconds, "dirty": tree_dirty(), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        record["workloads"][workload] = {
            f"trace{trace}": run_workload(workload, seconds, trace) for trace in (0, 1)}
    if args.pytest_log is not None:
        record["pytest"] = parse_pytest_log(args.pytest_log.read_text())
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    failed = [f"{w} {k}" for w, runs in record["workloads"].items() for k, r in runs.items()
              if r["exit_code"] or not r.get("result", {}).get("correct")]
    print(f"wrote {out.name}" + (f"; failed runs: {', '.join(failed)}" if failed else ""))
    earlier = newest_before(args.number, ROOT)
    if earlier is not None:
        print(f"end-to-end metrics and src/ lines, {earlier.name} -> {out.name}:")
        for line in compare(record, json.loads(earlier.read_text()), bench["end_to_end"]):
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
