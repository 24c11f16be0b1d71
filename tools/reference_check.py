"""Check the package's sweeps against the benchmark's reference implementation
over a range of workload seeds, with the benchmark's own checks.

Usage, from the repository root:

    python3 tools/reference_check.py --workload bandlimited-m40 --seeds 0 50
    python3 tools/reference_check.py --workload periodic-m5 --seeds 0 1 --smoke

Workload seed n stands for the sweep configs with master seeds 4n .. 4n+3
(``perfbench/workloads.py``); ``--seeds A B`` takes seeds A .. B-1, and
``--smoke`` the workloads' tiny sizes. Each config is swept once, by the
sweep function ``perfbench/run.py`` uses for its workload, and checked by
its ``check_sweep`` against ``reference.sweep`` and by its
``check_objective``. Nothing is timed and no set-up probe runs; the
modules under ``perfbench/`` are imported, never written, not even as
bytecode. Prints each failing config with its failed checks, then the
count; exits 1 if any config failed.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import reference  # noqa: E402
import run as bench  # noqa: E402
from tracing import Capture  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def config_problems(workload, doc: dict, capture: Capture, work_dir: Path) -> list[str]:
    """The failed checks of one sweep of ``doc``, as perfbench/run.py
    checks a config's first sweep."""
    with capture.installed():
        if workload.cli:  # the seed reaches the CLI as --seed, as in run.py
            config_path = work_dir / "config.json"
            config_path.write_text(json.dumps(dict(doc, master_seed=0)))
            sweep = bench.run_cli(config_path, doc["master_seed"], work_dir, capture)
        else:
            sweep = bench.run_in_memory(doc, capture)
    return (bench.check_sweep(sweep, doc, None, reference.sweep(doc), workload.rel_tol)
            + bench.check_objective(doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("A", "B"),
                        help="workload seeds A .. B-1")
    parser.add_argument("--smoke", action="store_true", help="the workloads' tiny sizes")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    docs = [doc for seed in range(*args.seeds)
            for doc in workload.config_docs(seed, smoke=args.smoke)]
    capture, failed = Capture(), 0
    work_dir = Path(tempfile.mkdtemp(prefix="reference-check-"))
    try:
        for doc in docs:
            problems = config_problems(workload, doc, capture, work_dir)
            if problems:
                failed += 1
                print(f"master seed {doc['master_seed']}: {'; '.join(problems)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{workload.name}: {failed} of {len(docs)} configs failed "
          f"(workload seeds {args.seeds[0]} .. {args.seeds[1] - 1}"
          f"{', smoke sizes' if args.smoke else ''})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
