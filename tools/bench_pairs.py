"""Alternated pairs of benchmark runs: a git revision against the working tree.

    python3 tools/bench_pairs.py HEAD --workload theorem3-cli --pairs 10 --seconds 30 --seed 101

Unpacks the revision with ``git archive <rev> | tar -x`` into a temporary
directory, touching neither the working tree nor ``.git``. Pair i runs
``perfbench/run.py --trace 0`` at seed ``--seed`` + i on both trees, the
revision first in even pairs. Prints, per workload and end-to-end metric of
BENCHMARK.json, the two medians, the revision's q1-q3 (its share of the median,
"unresolved" above the metric's bound) and the pairs the working tree won,
then the two trees' ``src_lines`` from the runs' meta lines; or, if a run
failed or was not correct, each such run's tree, pair, seed, exit code and
last stderr line. ``--workload`` may be given more than once. Exits 1 if a
run failed or was not correct.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import ROOT, read_run, src_lines  # noqa: E402


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One trace 0 run of ``tree``'s benchmark, as bench_record.read_run gives it."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return read_run(done.returncode, done.stdout, done.stderr)


def summarize(before: list[dict], after: list[dict], metrics: list[dict]) -> list[str]:
    """One line per metric of the pairs' values (name -> value per run)."""
    lines = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a, b = [run[name] for run in before], [run[name] for run in after]
        median_a, median_b = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1 else a * 3
        spread = (q3 - q1) / abs(median_a) if median_a else 0.0
        spread_text = f"{spread:.1%}" + (", unresolved" if spread > metric["bound"] else "")
        change = f"{(median_b - median_a) / abs(median_a):+.1%}" if median_a else "-"
        won = sum(y > x if higher else y < x for x, y in zip(a, b))
        lines.append(f"{name:<17} {median_a:.6g} -> {median_b:.6g} {metric['unit']} ({change}); "
                     f"q1-q3 {q1:.6g}-{q3:.6g} ({spread_text}); won {won}/{len(a)}")
    return lines


def failed_runs(tree: str, side: list[dict], first_seed: int) -> list[str]:
    """One line per run of ``side`` (one tree's runs, in pair order) that
    failed or was not correct: its tree, pair, seed, exit code and last
    stderr line ("-" without one)."""
    return [f"{tree}, pair {pair}, seed {first_seed + pair}: exit {run['exit_code']}, "
            f"{(run.get('stderr_tail') or ['-'])[-1]}"
            for pair, run in enumerate(side) if not run.get("result", {}).get("correct")]


def src_lines_line(before: list[dict], after: list[dict]) -> str:
    """The two trees' ``src/`` line counts from their runs' meta lines ("-"
    where no run has one)."""
    a, b = ("-" if n is None else n for n in (src_lines(before), src_lines(after)))
    return f"{'src_lines':<17} {a} -> {b}"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--workload", nargs="+", action="extend", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = (Path(tmp), ROOT)
        for workload in args.workload:
            runs: dict = {tree: [] for tree in trees}
            for i in range(args.pairs):
                for tree in trees if i % 2 == 0 else trees[::-1]:
                    runs[tree].append(run_side(tree, workload, args.seed + i, args.seconds))
            lines = [line for tree, side in zip((args.rev, "working tree"), runs.values())
                     for line in failed_runs(tree, side, args.seed)]
            failed |= bool(lines)
            print(f"{workload}: {args.rev} -> working tree, {args.pairs} pairs from seed "
                  f"{args.seed}" + (": a run failed or was not correct" if lines else ""))
            if not lines:
                values = [[{name: m["value"] for name, m in run["result"]["metrics"].items()}
                           for run in side] for side in runs.values()]
                lines = [*summarize(*values, metrics), src_lines_line(*runs.values())]
            print("\n".join(f"  {line}" for line in lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
