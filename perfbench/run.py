"""Benchmark of dgs-opt sweeps.

Usage, from the repository root:

    python3 perfbench/run.py --workload bandlimited-m40 --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and NOTES.md) as a closed loop: one
caller in one process, ``jobs=1``, each sweep starting when the previous one
has returned. The seed gives a few sweep configs that differ only in their
master seed. After the set-up probes, a reference sweep of each config and
one warm-up sweep, it cycles through the configs for ``--seconds`` seconds,
and at least once through all of them.

Every timed interval is bracketed by runs of a fixed yardstick, and its time
is reported at the yardstick's nominal speed (see speed.py): the machine's
speed swings, the program's share of the work does not.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced sweeps
alternate and the object holds the per-layer metrics, while the spans of the
first traced sweep go to ``perfbench/out/<workload>-trace.jsonl``. Lines
before it give run metadata and timing percentiles. The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when the package
cannot be found.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import speed
from tracing import Capture, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_PROBES = 15
SMOKE_SETUP_PROBES = 2
# Percentiles reported next to each median; the highest one with at least
# ten samples beyond it is printed.
TAIL_PERCENTILES = (99, 95, 90, 75)
# The objective is compared with the reference's at this many points drawn
# from the config's seed in the box, and at the same points scaled by 1e-3.
# The tolerance on |F - F_ref| / max(1, |F_ref|) admits reordered arithmetic
# (phases reach 1.3e8, whose ulp is 1.5e-8) but not a change of the noise.
OBJECTIVE_POINTS = 64
OBJECTIVE_TOL = 1e-6


@dataclass
class Sweep:
    """One sweep's timings and everything its checks need."""

    wall_s: float  # the whole workload: for the CLI, run plus plots
    run_s: float  # run_experiment, or `cli run`
    summary: object
    records: dict
    outputs: dict = field(default_factory=dict)  # file name -> bytes
    exit_codes: list = field(default_factory=list)
    # A yardstick run between `cli run` and the plots, outside both timings.
    mid_yardstick: float | None = None
    # Take the run's time, and the rest of the sweep's, to the nominal speed
    # (speed.py).
    run_factor: float = 1.0
    rest_factor: float = 1.0

    def set_speed(self, before: float, after: float) -> None:
        """Factors from the yardsticks run just before and after the sweep."""
        mid = self.mid_yardstick
        if mid is None:
            self.run_factor = self.rest_factor = speed.scale(before, after)
        else:
            self.run_factor, self.rest_factor = speed.scale(before, mid), speed.scale(mid, after)

    def scaled(self) -> tuple[float, float]:
        """(wall_s, run_s) at the nominal speed."""
        run = self.run_s * self.run_factor
        return run + (self.wall_s - self.run_s) * self.rest_factor, run


@dataclass(frozen=True)
class Timing:
    """What the end-to-end metrics keep of one measured sweep; times at
    the nominal speed."""

    wall_s: float
    run_s: float
    steps: int
    evals: int
    raw_wall_s: float

    @classmethod
    def of(cls, sweep: Sweep) -> "Timing":
        return cls(*sweep.scaled(),
                   sum(r.iterations_run for r in sweep.records.values()),
                   int(sweep.summary.evaluation_counts.sum()), sweep.wall_s)


def run_in_memory(doc: dict, capture) -> Sweep:
    from dgs_opt import harness

    capture.reset()
    start = perf_counter()
    config = harness.parse_config(doc)
    run_start = perf_counter()
    summary = harness.run_experiment(config, jobs=1)
    end = perf_counter()
    return Sweep(end - start, end - run_start, summary, capture.records)


def run_cli(config_path: Path, seed: int, work_dir: Path, capture, tracer=None) -> Sweep:
    from dgs_opt import cli, plotting

    capture.reset()
    out = Path(tempfile.mkdtemp(dir=work_dir))
    span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = perf_counter()
        with span("cli.run"):
            codes.append(cli.main(["run", str(config_path), "--out", str(out),
                                   "--seed", str(seed), "--jobs", "1"]))
        run_end = perf_counter()
        mid = speed.yardstick()
        plot_start = perf_counter()
        with span("cli.plot"):
            for kind in plotting.PLOT_KINDS:
                codes.append(cli.main(["plot", str(out / "summary.csv"), "--kind", kind,
                                       "--out", str(out / f"{kind}.svg")]))
        end = perf_counter()
    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    summary = capture.summaries[-1] if capture.summaries else None
    return Sweep(run_end - start + end - plot_start, run_end - start, summary,
                 capture.records, outputs, codes, mid)


# --- exact counters ----------------------------------------------------------


def counters(sweep: Sweep, max_iterations: int) -> dict[str, int]:
    """Counts derived from the trial records and the files written."""
    recs = sweep.records.values()
    traces = [b for name, b in sweep.outputs.items() if name.startswith("trace_grid")]
    svgs = [b for name, b in sweep.outputs.items() if name.endswith(".svg")]
    return {
        "optimizer.trial_steps": sum(r.iterations_run for r in recs),
        "optimizer.stops.ok": sum(r.status == "ok" and r.iterations_run == max_iterations
                                  for r in recs),
        "optimizer.stops.diverged": sum(r.status == "diverged" for r in recs),
        "optimizer.stops.sigma_floor": sum(r.status == "ok" and r.iterations_run < max_iterations
                                           for r in recs),
        "harness.trace_rows": sum(b.count(b"\n") - 1 for b in traces),
        "harness.trace_bytes": sum(len(b) for b in traces),
        "plotting.svg_bytes": sum(len(b) for b in svgs),
    }


def summary_digest(summary) -> str:
    """Hash of every number in a SweepSummary, NaN bit patterns included."""
    h = hashlib.sha256()
    for value in (summary.sigmas, summary.mean_final_dist, summary.std_final_dist,
                  summary.mean_final_objective, summary.trials_ok,
                  summary.evaluation_counts, summary.trials, summary.max_iterations,
                  *summary.mean_dist_traces, *summary.mean_cosine_traces):
        h.update(b"none" if value is None else np.asarray(value).tobytes())
    return h.hexdigest()


def outputs_digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name, data in sorted(outputs.items()):
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


# --- correctness -------------------------------------------------------------


def check_sweep(sweep: Sweep, doc: dict, first: Sweep | None, reference: dict | None,
                rel_tol: tuple[float, ...]) -> list[str]:
    """Failed checks of one sweep. ``first`` is the sweep every repeat must
    reproduce exactly; ``reference`` is reference.sweep(doc); ``rel_tol``
    holds one tolerance per grid point."""
    if any(code != 0 for code in sweep.exit_codes):
        return [f"CLI exit codes {sweep.exit_codes}"]
    s = sweep.summary
    if s is None:
        return ["no summary captured"]
    problems = []
    n_grid, trials = len(doc["sigma_grid"]), doc["trials"]
    evals_per_step = doc["quadrature_order"] * doc["objective"]["dimension"]
    if set(sweep.records) != {(g, t) for g in range(n_grid) for t in range(trials)}:
        return ["trial records missing"]
    for g in range(n_grid):
        recs = [sweep.records[(g, t)] for t in range(trials)]
        steps = sum(r.iterations_run for r in recs)
        if int(s.evaluation_counts[g]) != steps * evals_per_step:
            problems.append(f"grid {g}: evaluation_counts {int(s.evaluation_counts[g])} "
                            f"!= steps*M*d {steps * evals_per_step}")
        if int(s.trials_ok[g]) != sum(r.status == "ok" for r in recs):
            problems.append(f"grid {g}: trials_ok disagrees with the trial records")
    if reference is not None:
        if list(map(int, s.trials_ok)) != reference["trials_ok"]:
            problems.append(f"trials_ok {list(s.trials_ok)} != reference {reference['trials_ok']}")
        got = [[(sweep.records[(g, t)].status, sweep.records[(g, t)].iterations_run)
                for t in range(trials)] for g in range(n_grid)]
        if got != reference["per_trial"]:
            problems.append("per-trial (status, steps) differ from the reference")
        ref = np.array(reference["mean_final_dist"])
        mine = np.asarray(s.mean_final_dist, dtype=float)
        if not np.array_equal(np.isnan(ref), np.isnan(mine)):
            problems.append("mean_final_dist NaN pattern differs from the reference")
        else:
            for g in np.flatnonzero(~np.isnan(ref)):
                rel = abs(mine[g] - ref[g]) / abs(ref[g])
                if rel > rel_tol[g]:
                    problems.append(f"grid {g}: mean_final_dist off the reference by {rel:.3g} "
                                    f"(tolerance {rel_tol[g]:g})")
    for name, data in sweep.outputs.items():
        if name.endswith(".svg"):
            try:
                ET.fromstring(data)
            except ET.ParseError as e:
                problems.append(f"{name} is not XML: {e}")
    if first is not None:
        if summary_digest(s) != summary_digest(first.summary):
            problems.append("summary differs from the first sweep's")
        if outputs_digest(sweep.outputs) != outputs_digest(first.outputs):
            problems.append("output files differ from the first sweep's")
    return problems


def check_objective(doc: dict) -> list[str]:
    """The package's objective, noise included, against the reference's."""
    from dgs_opt import harness

    lo, hi = doc["objective"]["box"]
    points = np.random.default_rng(doc["master_seed"]).uniform(
        lo, hi, size=(OBJECTIVE_POINTS, doc["objective"]["dimension"]))
    points = np.vstack([points, points * 1e-3])
    mine = harness.build_objective(harness.parse_config(doc)).eval_batch(points)
    ref = reference.objective(doc)(points)
    err = float(np.max(np.abs(mine - ref) / np.maximum(1.0, np.abs(ref))))
    if err > OBJECTIVE_TOL:
        return [f"objective off the reference by {err:.3g} (tolerance {OBJECTIVE_TOL:g})"]
    return []


# --- metrics -----------------------------------------------------------------


def tail(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    text = f"median {statistics.median(values):.6g}"
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            text += f", p{p} {q:.6g}"
            break
    return text + f", n={len(values)}"


def setup_times(doc: dict, probes: int) -> tuple[list[float], list[float]]:
    """Cold-start times, each from a fresh interpreter, at the nominal speed
    and as measured; one discarded warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"),
           str(SRC), json.dumps(doc)]
    times, raw = [], []
    for i in range(probes + 1):
        before = speed.yardstick()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        after = speed.yardstick()
        if i:
            raw.append(float(done.stdout.strip().splitlines()[-1]))
            times.append(raw[-1] * speed.scale(before, after))
    return times, raw


def end_to_end(timings: list[Timing], firsts: dict[int, Sweep], setup: list[float]) -> dict[str, float]:
    recs = [r for s in firsts.values() for r in s.records.values()]
    return {
        "wall_s": statistics.median(t.wall_s for t in timings),
        "setup_s": statistics.median(setup),
        "trial_steps_per_s": statistics.median(t.steps / t.run_s for t in timings),
        "evals_per_s": statistics.median(t.evals / t.run_s for t in timings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(r.status == "ok" for r in recs) / len(recs),
    }


# Metric names and units, as BENCHMARK.json declares them.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# Per-layer times, reported at the nominal speed.
TIME_UNITS = ("s", "us", "ns")
# Counters that must repeat exactly between sweeps and between runs.
EXACT = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


def layer_metrics(tracer, exact: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, all but trace.overhead_s;
    layers the workload never calls read 0."""
    stats = tracer.layer_stats()

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def per(a, b, scale):
        return a / b * scale if b else 0.0

    m = dict(exact)
    for name in LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls(layer)
        elif kind == "self_s":
            m[name] = self_s(layer)
    m["noise.evaluate.points"] = tracer.noise_points
    m["noise.evaluate.ns_per_point"] = per(self_s("noise.evaluate"), tracer.noise_points, 1e9)
    m["smoothing.dgs_gradient.us_per_call"] = per(total("smoothing.dgs_gradient"),
                                                  calls("smoothing.dgs_gradient"), 1e6)
    m["smoothing.evals"] = tracer.smoothing_evals
    m["optimizer.us_per_trial_step"] = per(total("optimizer.run"),
                                           exact["optimizer.trial_steps"], 1e6)
    m["cli.run.wall_s"] = total("cli.run")
    m["cli.plot.wall_s"] = total("cli.plot")
    m["cli.plot.read_s"] = total("cli.plot") - total("plotting.render_plot")
    m["trace.spans"] = len(tracer.spans)
    return m


# --- run metadata ------------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# --- driver ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweeps and few set-up probes, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgs_opt" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'dgs_opt'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    docs = workload.config_docs(args.seed, smoke=args.smoke)
    meta = metadata()
    print(f"# workload {workload.name} seed {args.seed} meta {json.dumps(meta)}")

    setup, raw_setup = (([], []) if args.trace else
                        setup_times(docs[0], SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES))
    refs = [reference.sweep(doc) for doc in docs]

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    capture = Capture()
    try:
        if workload.cli:
            # Each config's seed reaches the CLI as --seed, overriding the file's.
            config_path = work_dir / "config.json"
            config_path.write_text(json.dumps(dict(docs[0], master_seed=0)))

            def sweep(j, tracer):
                return run_cli(config_path, docs[j]["master_seed"], work_dir, capture, tracer)
        else:
            def sweep(j, tracer):
                return run_in_memory(docs[j], capture)

        with capture.installed():
            result = measure(args, workload, docs, refs, sweep)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed, firsts, timings, traced = result
    if args.trace:
        # Counters are those of the first config; repeats are checked in measure.
        counts = traced[0][0]
        metrics = {name: counts[name] if name in EXACT
                   else statistics.median(m[name] for m, _ in traced) for name in counts}
        metrics["trace.overhead_s"] = (statistics.median(wall for _, wall in traced)
                                       - statistics.median(t.wall_s for t in timings))
        units = LAYER_UNITS
    else:
        print(f"# at nominal speed: wall_s {tail([t.wall_s for t in timings])} s; "
              f"run {tail([t.run_s for t in timings])} s; setup_s {tail(setup)} s")
        print(f"# as measured: wall_s {tail([t.raw_wall_s for t in timings])} s; "
              f"setup_s {tail(raw_setup)} s")
        metrics = end_to_end(timings, firsts, setup)
        units = E2E_UNITS
    for name, value in metrics.items():
        print(f"# {workload.name} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def measure(args, workload, docs, refs, sweep):
    """A warm-up sweep of config 0, then sweeps cycling through the configs
    for args.seconds and at least once through all of them; under --trace 1,
    untraced and traced sweeps alternate, each kind cycling on its own.

    A config's first sweep and its objective are checked against the
    reference, and every later sweep of it must reproduce that one exactly.
    Returns (attempted, failed, the first sweep of each config, timings of
    the untraced sweeps after the warm-up, [(layer metrics, wall_s)] of the
    traced sweeps).
    Only first sweeps are kept whole, so memory does not grow with the
    number of sweeps.
    """
    firsts: dict[int, Sweep] = {}
    traced_firsts: dict[int, dict] = {}
    timings, traced = [], []
    failed = 0

    def checked(j, tracer=None):
        nonlocal failed
        before = speed.yardstick()
        if tracer is None:
            s = sweep(j, None)
        else:
            with tracer.installed():
                s = sweep(j, tracer)
        s.set_speed(before, speed.yardstick())
        first = firsts.setdefault(j, s)
        if first is s:
            problems = (check_sweep(s, docs[j], None, refs[j], workload.rel_tol)
                        + check_objective(docs[j]))
        else:
            problems = check_sweep(s, docs[j], first, None, workload.rel_tol)
        if tracer is not None:
            metrics = layer_metrics(tracer, counters(s, docs[j]["max_iterations"]))
            for name in metrics:
                if LAYER_UNITS[name] in TIME_UNITS:
                    in_plots = name.startswith(("cli.plot", "plotting"))
                    metrics[name] *= s.rest_factor if in_plots else s.run_factor
            if not traced:
                write_spans(workload.name, args.seed, tracer)
            if any(metrics[k] != traced_firsts.setdefault(j, metrics)[k] for k in EXACT):
                problems.append(f"exact counters of config {j} differ between traced sweeps")
            traced.append((metrics, s.scaled()[0]))
        failed += report_problems(problems)
        return s

    checked(0)
    start = perf_counter()
    while (perf_counter() - start < args.seconds or len(timings) < len(docs)
           or (args.trace and not traced)):
        if args.trace and len(traced) < len(timings):
            checked(len(traced) % len(docs), Tracer())
        else:
            timings.append(Timing.of(checked(len(timings) % len(docs))))
    return 1 + len(timings) + len(traced), failed, firsts, timings, traced


def report_problems(problems: list[str]) -> int:
    """Print failed checks to stderr; 1 if there were any, else 0."""
    for p in problems:
        print(f"# check failed: {p}", file=sys.stderr)
    return int(bool(problems))


def write_spans(name: str, seed: int, tracer) -> None:
    """Spans of one traced sweep as JSON lines, times relative to its start."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(OUT / f"{name}-trace.jsonl", "w") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "meta": metadata()}) + "\n")
        for span_name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": span_name, "start": start - t0,
                                 "end": end - t0, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
