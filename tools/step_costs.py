"""Where one step's time goes: the parts of a DGS estimate, timed one by one.

Usage, from the repository root:

    python3 tools/step_costs.py --workload bandlimited-m40 --repeats 9

For each workload of ``perfbench/workloads.py`` (all by default; ``--workload``
may be given more than once) it builds the workload's objective, GH rule and
basis from its master seed 0 config, the radius ``SIGMA`` and a point drawn
from its box, and times the parts of ``smoothing._gh_gradient`` on them (see
``estimate_by_parts``): ``x + offsets``; the one phi call (or ``evaluate``,
for an objective without a sine sum) on the k * M points; the GH
``c_einsum``; the sine sum's term (its cosines and the table's contraction;
"-" without one); and the map back to standard coordinates. Then the whole
estimate and one step of ``run``: the difference between a run of ``STEPS``
steps and a run of one, per step. Then the fixed costs of a sweep (see
``sweep_costs``): "trial setup", what a trial costs besides its steps, and
"aggregation", what ``run_experiment`` costs besides its trials. Each time
is the fastest of ``--repeats`` timeit repeats of ``NUMBER`` calls (runs and
sweeps: one call). It prints microseconds per part, one line each, after a
machine line (CPU count, processor, Python and numpy versions).
"""
from __future__ import annotations

import argparse
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from dgs_opt import SigmaSchedule, build_gh_rule, harness, noise, run, smoothing  # noqa: E402
from dgs_opt.smoothing import _ZERO, _gh_gradient, _gh_nodes, c_einsum  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIGMA = 1.0  # the radius of the estimates
NUMBER = 1000  # calls per timeit repeat
STEPS = 200  # steps of the longer run


def machine_line() -> str:
    return (f"# machine: {os.cpu_count()} CPUs ({platform.processor() or platform.machine()}), "
            f"Python {platform.python_version()}, numpy {np.__version__}")


def workload_shape(name: str) -> tuple:
    """Workload ``name``'s objective, GH rule, basis, step size, a point of
    its box and the nodes of radius SIGMA, from its master seed 0 config."""
    config = harness.parse_config(WORKLOADS[name].config_doc(0))
    f, rule = harness.build_objective(config), build_gh_rule(config.quadrature_order)
    basis = harness._BASES[config.basis](config.dimension, 0)
    x = np.random.default_rng(0).uniform(*config.box, size=config.dimension)
    return f, rule, basis, config.step_size, x, _gh_nodes(basis.columns, rule, f.sines)([SIGMA])[0]


def estimate_by_parts(f, x: np.ndarray, nodes: tuple) -> tuple[dict, np.ndarray]:
    """_gh_gradient(f, x, nodes) a part at a time, without its finiteness
    scan: the parts as calls of no arguments by name (None for a sine-sum
    term the objective does not have), and the estimate they give."""
    offsets, coefficients, scale, columns, identity, table, rates = nodes
    evaluate = f.evaluate if table is None else f.sines[0]
    points = x + offsets
    values = np.asarray(evaluate(points), dtype=float)
    derivatives = c_einsum("km,m->k", values.reshape(-1, len(coefficients)), coefficients)
    if table is not None:
        derivatives += c_einsum("kji,ji->k", table, np.cos(rates * x))
    derivatives *= scale
    parts = {
        "x + offsets": lambda: x + offsets,
        "phi" if table is not None else "evaluate": lambda: evaluate(points),
        "GH c_einsum": lambda: c_einsum("km,m->k", values.reshape(-1, len(coefficients)),
                                        coefficients),
        "sine-sum term": None if table is None else (
            lambda: c_einsum("kji,ji->k", table, np.cos(rates * x))),
        "map back": (lambda: derivatives + _ZERO) if identity else (lambda: columns @ derivatives),
    }
    return parts, parts["map back"]()


def step_costs(name: str, repeats: int) -> dict:
    """Microseconds per part of one estimate, and per run step, at workload
    ``name``'s shape (None for a part the workload does not have)."""
    f, rule, basis, step_size, x, nodes = workload_shape(name)

    def fastest(stmt, n=NUMBER) -> float:
        return min(timeit.repeat(stmt, number=n, repeat=repeats)) / n * 1e6

    def run_for(iterations):
        return run(f, x, SigmaSchedule(SIGMA), rule, basis, step_size, iterations)

    costs = {part: None if call is None else fastest(call)
             for part, call in estimate_by_parts(f, x, nodes)[0].items()}
    costs["estimate"] = fastest(lambda: _gh_gradient(f, x, nodes))
    taken = run_for(STEPS).iterations_run
    costs["run step"] = None if taken < 2 else (
        fastest(lambda: run_for(STEPS), 1) - fastest(lambda: run_for(1), 1)) / (taken - 1)
    return {**costs, **sweep_costs(name, repeats, costs["estimate"])}


def sweep_costs(name: str, repeats: int, estimate_us: float) -> dict:
    """Microseconds of workload ``name``'s fixed costs per sweep, from its
    master seed 0 config. "trial setup": the trials of a sweep of 1-step
    trials, run_trial by run_trial on a config parsed afresh for each
    repeat from empty draw and builder caches (as each sweep of the
    benchmark, whose seeds differ, parses its own), per trial, minus one
    estimate.
    "aggregation": run_experiment without output files, with run_trial
    handing out the sweep's records made beforehand, per sweep."""
    doc = WORKLOADS[name].config_doc(0)
    tasks = [(g, t) for g in range(len(doc["sigma_grid"])) for t in range(doc["trials"])]
    fresh = {}

    def trials(config) -> list:
        return [harness.run_trial(config, g, t) for g, t in tasks]

    def parse_cold():  # a sweep's parse finds no earlier draw or builder of its own
        noise.sample_bandlimited.cache_clear()
        smoothing._builder.cache_clear()
        fresh.update(config=harness.parse_config({**doc, "max_iterations": 1}))

    setup = min(timeit.repeat(lambda: trials(fresh["config"]), number=1, repeat=repeats,
                              setup=parse_cold))
    config, run_trial = harness.parse_config(doc), harness.run_trial
    records = dict(zip(tasks, trials(config)))
    harness.run_trial = lambda config, g, t: records[g, t]
    try:
        aggregation = min(timeit.repeat(lambda: harness.run_experiment(config), number=1,
                                        repeat=repeats))
    finally:
        harness.run_trial = run_trial
    return {"trial setup": setup / len(tasks) * 1e6 - estimate_us,
            "aggregation": aggregation * 1e6}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=list(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=9)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(machine_line())
    for name in args.workload or list(WORKLOADS):
        print(f"{name} (sigma {SIGMA:g}):")
        for part, us in step_costs(name, args.repeats).items():
            print(f"  {part:<14} " + ("-" if us is None else f"{us:8.2f} us"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
