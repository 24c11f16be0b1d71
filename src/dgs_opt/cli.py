"""Command-line front-end: run sweeps, list presets, re-plot results, and
print theory bounds.

Exit codes: 0 success, 1 bad config or arguments (a config too large to
allocate included), 2 at least one sigma grid point had every trial diverge,
3 results could not be written.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys
from importlib import resources
from pathlib import Path

from . import theory
from .harness import ConfigError, OutputError, load_config, read_sweep, run_experiment
from .plotting import CHARTS, PLOT_KINDS, emit_plot
from .quadrature import build_gh_rule

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
        return load_config(_preset_dir() / f"{target}.json")
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
    for name in list_presets():
        print(name)
    return EXIT_OK


def _cmd_plot(args) -> int:
    trace = CHARTS[args.kind].trace
    data = read_sweep(args.summary, (trace,) if trace else ())
    try:
        emit_plot(data, args.kind, args.out)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    try:
        build_gh_rule(args.order)  # rejects an order outside 1..MAX_ORDER
        constants = theory.ConvexityConstants(L=args.L, tau=args.tau)
        if args.model == "periodic":
            rows = {"noise_gradient_bound": theory.periodic_noise_grad_bound(
                        args.gamma, args.n, args.alpha, args.sigma, args.d),
                    "delta_sigma": theory.delta_sigma_periodic(
                        constants, args.gamma, args.alpha, args.sigma, args.d, args.order),
                    "recommended_sigma": theory.recommend_sigma_periodic(
                        constants, args.gamma, args.alpha)}
            reads = ("gamma n alpha sigma d", "L tau gamma alpha sigma d order")
        elif args.model == "bandlimited":
            rows = {"noise_gradient_bound": theory.bandlimited_noise_grad_bound(
                        args.gamma, args.alpha, args.sigma, args.d),
                    "recommended_sigma": theory.recommend_sigma_bandlimited(
                        constants, args.gamma, args.alpha)}
            reads = ("gamma alpha sigma d",)
        else:  # diminishing
            rate = theory.diminishing_rate(constants, args.beta, args.d)
            rows = {"noise_gradient_bound": theory.diminishing_noise_grad_bound(
                        args.beta, args.sigma, args.dist, args.d),
                    "per_step_rate": rate, "beta_condition_holds": rate < 1.0}
            reads = ("beta sigma dist d", "L tau beta d")
    except (ArithmeticError, ValueError) as e:  # theory's range checks, overflow
        raise ConfigError(f"bad bounds arguments: {e}") from e
    read = [option for (_, value), options in zip(rows.items(), reads) if value == math.inf
            for option in options.split()]  # reads: what each row but the last reads
    if read:  # a bound beyond the float range: name its rows and every option they read
        infinite = [name for name, value in rows.items() if value == math.inf]
        raise ConfigError(f"bad bounds arguments: {', '.join(infinite)} = inf at " + ", ".join(
            f"--{o} {v!r}" for o, v in vars(args).items() if o in read))
    for name, value in rows.items():
        text = f"{value[0]:.10g} ({value[1]})" if isinstance(value, tuple) else (
            value if isinstance(value, bool) else f"{value:.10g}")
        print(f"{name:<20} = {text}")
    return EXIT_OK


def _finite(text: str) -> float:
    """The value of a float option, which must be a finite number."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ConfigErrors, so a bad argument
    exits 1 like any bad input; subparsers are built from the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dgs-opt",
        description="Smoothing-based gradient estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file or preset")
    p_run.add_argument("config", help="path to a JSON config, or a preset name")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per trial")
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
    p_bounds.add_argument("--sigma", type=_finite, default=0.5)
    p_bounds.add_argument("--d", type=int, default=5)
    p_bounds.add_argument("--L", type=_finite, default=2.0)
    p_bounds.add_argument("--tau", type=_finite, default=2.0)
    p_bounds.add_argument("--alpha", type=_finite, default=1.0,
                          help="frequency (periodic) or minimum frequency (bandlimited)")
    p_bounds.add_argument("--gamma", type=_finite, default=1.0,
                          help="derivative/spectrum bound of the noise")
    p_bounds.add_argument("--n", type=int, default=1,
                          help="derivative order the gamma bound refers to (periodic)")
    p_bounds.add_argument("--beta", type=_finite, default=0.001,
                          help="envelope curvature (diminishing)")
    p_bounds.add_argument("--dist", type=_finite, default=1.0,
                          help="distance to the optimum (diminishing)")
    p_bounds.add_argument("--order", type=int, default=5, help="quadrature order")
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:  # numpy's message names the array, e.g. a huge basis
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
