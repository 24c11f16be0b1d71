"""Command-line front-end: run sweeps, list presets, re-plot results, and
print theory bounds.

Exit codes: 0 success, 1 bad config or arguments, 2 at least one sigma grid
point had every trial diverge, 3 results could not be written.
"""
from __future__ import annotations

import argparse
import csv
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import theory
from .harness import (
    ConfigError,
    OutputError,
    SweepSummary,
    load_config,
    mean_traces,
    parse_config,
    run_experiment,
)
from .plotting import PLOT_KINDS, emit_plot
from .quadrature import MAX_ORDER

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


def _preset_dir():
    return resources.files("dgs_opt") / "presets"


def list_presets() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in _preset_dir().iterdir()
                  if p.name.endswith(".json"))


def _load_run_config(target: str):
    path = Path(target)
    if path.exists():
        return load_config(path)
    if target in list_presets():
        import json

        doc = json.loads((_preset_dir() / f"{target}.json").read_text())
        return parse_config(doc, where=f"preset {target}")
    raise ConfigError(
        f"{target!r} is neither a config file nor a preset "
        f"(presets: {', '.join(list_presets())})"
    )


def _cmd_run(args) -> int:
    config = _load_run_config(args.config)
    if args.seed is not None:
        import dataclasses

        config = dataclasses.replace(config, master_seed=args.seed)
    out_dir = args.out or config.output_dir or "results"
    summary = run_experiment(config, jobs=args.jobs, out_dir=out_dir)
    for g, sigma in enumerate(summary.sigmas):
        if summary.valid(g):
            print(
                f"sigma={sigma:g}: mean final dist {summary.mean_final_dist[g]:.6g} "
                f"({int(summary.trials_ok[g])}/{summary.trials} trials ok)"
            )
        else:
            print(f"sigma={sigma:g}: all {summary.trials} trials diverged")
    print(f"results written to {out_dir}")
    if any(not summary.valid(g) for g in range(len(summary.sigmas))):
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_presets(args) -> int:
    if args.action != "list":
        raise ConfigError(f"unknown presets action {args.action!r}")
    for name in list_presets():
        print(name)
    return EXIT_OK


_SUMMARY_COLUMNS = {"sigma": float, "mean_final_dist": float, "std_final_dist": float,
                    "mean_final_objective": float, "trials_ok": int}
_TRACE_COLUMNS = {"trial": int, "dist": float, "cosine_sim": float}


def _read_csv(path: Path, what: str, columns: dict) -> list[tuple]:
    """Each row of a CSV file as a tuple of ``columns`` (name -> converter).
    A file that cannot be read, or a missing column or a value its converter
    rejects, is a ConfigError that names the file."""
    try:
        with open(path) as fh:
            return [tuple(convert(row[name]) for name, convert in columns.items())
                    for row in csv.DictReader(fh)]
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed {what} {path}: {e!r}") from e


def _summary_from_csv(path: Path) -> SweepSummary:
    rows = _read_csv(path, "summary CSV", _SUMMARY_COLUMNS)
    if not rows:
        raise ConfigError(f"{path} is not a sweep summary CSV")
    sigmas, mean_final, std_final, mean_obj, ok = zip(*rows)
    ok = np.array(ok)
    dist_traces, cos_traces = _traces_from_csvs(path.parent, ok)
    return SweepSummary(
        sigmas=sigmas,
        mean_final_dist=np.array(mean_final),
        std_final_dist=np.array(std_final),
        mean_final_objective=np.array(mean_obj),
        trials_ok=ok,
        mean_dist_traces=dist_traces,
        mean_cosine_traces=cos_traces,
        evaluation_counts=np.zeros(len(ok), dtype=np.int64),
        trials=int(ok.max(initial=0)),
        max_iterations=0,
    )


def _traces_from_csvs(directory: Path, trials_ok):
    """Rebuild mean traces from the per-grid trace CSVs next to summary.csv.
    Grid points without a trace file, or where every trial diverged
    (``trials_ok`` 0, as ``run_experiment`` leaves them), plot as missing."""
    dist_traces: list = []
    cos_traces: list = []
    for g, ok in enumerate(trials_ok):
        path = directory / f"trace_grid{g:02d}.csv"
        per_trial_dist: dict[int, list[float]] = {}
        per_trial_cos: dict[int, list[float]] = {}
        if ok > 0 and path.exists():
            for t, dist, cos in _read_csv(path, "trace CSV", _TRACE_COLUMNS):
                per_trial_dist.setdefault(t, []).append(dist)
                per_trial_cos.setdefault(t, []).append(cos)
        dist = cos = None
        if per_trial_dist:
            dist, cos = mean_traces(
                per_trial_dist.values(),
                per_trial_cos.values(),
                max(len(v) for v in per_trial_dist.values()),
            )
        dist_traces.append(dist)
        cos_traces.append(cos)
    return dist_traces, cos_traces


def _cmd_plot(args) -> int:
    summary = _summary_from_csv(Path(args.summary))
    try:
        emit_plot(summary, args.kind, args.out)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if not 1 <= args.order <= MAX_ORDER:
        raise ConfigError(f"--order must be in 1..{MAX_ORDER}, got {args.order}")
    try:
        constants = theory.ConvexityConstants(L=args.L, tau=args.tau)
        if args.model == "periodic":
            bound = theory.periodic_noise_grad_bound(
                args.gamma, args.n, args.alpha, args.sigma, args.d
            )
            sigma_rec, branch = theory.recommend_sigma_periodic(
                constants, args.gamma, args.alpha
            )
            delta = theory.delta_sigma_periodic(
                constants, args.gamma, args.alpha, args.sigma, args.d, args.order
            )
            print(f"noise_gradient_bound = {bound:.10g}")
            print(f"delta_sigma          = {delta:.10g}")
            print(f"recommended_sigma    = {sigma_rec:.10g} ({branch})")
        elif args.model == "bandlimited":
            bound = theory.bandlimited_noise_grad_bound(
                args.gamma, args.alpha, args.sigma, args.d
            )
            sigma_rec, branch = theory.recommend_sigma_bandlimited(
                constants, args.gamma, args.alpha
            )
            print(f"noise_gradient_bound = {bound:.10g}")
            print(f"recommended_sigma    = {sigma_rec:.10g} ({branch})")
        else:  # diminishing
            bound = theory.diminishing_noise_grad_bound(
                args.beta, args.sigma, args.dist, args.d
            )
            rate = theory.diminishing_rate(constants, args.beta, args.d)
            ok = theory.diminishing_beta_condition(constants, args.beta, args.d)
            print(f"noise_gradient_bound = {bound:.10g}")
            print(f"per_step_rate        = {rate:.10g}")
            print(f"beta_condition_holds = {ok}")
    except (ArithmeticError, ValueError) as e:  # theory's range checks, overflow
        raise ConfigError(f"bad bounds arguments: {e}") from e
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgs-opt",
        description="Smoothing-based gradient estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file or preset")
    p_run.add_argument("config", help="path to a JSON config, or a preset name")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--out", default=None, help="output directory (default: results)")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.set_defaults(func=_cmd_run)

    p_presets = sub.add_parser("presets", help="inspect bundled experiment presets")
    p_presets.add_argument("action", choices=["list"])
    p_presets.set_defaults(func=_cmd_presets)

    p_plot = sub.add_parser("plot", help="render an SVG chart from sweep CSVs")
    p_plot.add_argument("summary", help="path to a summary.csv")
    p_plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=_cmd_plot)

    p_bounds = sub.add_parser("bounds", help="print theory bounds for a noise model")
    p_bounds.add_argument("--model", required=True,
                          choices=["periodic", "bandlimited", "diminishing"])
    p_bounds.add_argument("--sigma", type=float, default=0.5)
    p_bounds.add_argument("--d", type=int, default=5)
    p_bounds.add_argument("--L", type=float, default=2.0)
    p_bounds.add_argument("--tau", type=float, default=2.0)
    p_bounds.add_argument("--alpha", type=float, default=1.0,
                          help="frequency (periodic) or minimum frequency (bandlimited)")
    p_bounds.add_argument("--gamma", type=float, default=1.0,
                          help="derivative/spectrum bound of the noise")
    p_bounds.add_argument("--n", type=int, default=1,
                          help="derivative order the gamma bound refers to (periodic)")
    p_bounds.add_argument("--beta", type=float, default=0.001,
                          help="envelope curvature (diminishing)")
    p_bounds.add_argument("--dist", type=float, default=1.0,
                          help="distance to the optimum (diminishing)")
    p_bounds.add_argument("--order", type=int, default=5, help="quadrature order")
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
