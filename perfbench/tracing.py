"""Spans and result capture around the package's public calls, from outside.

Nothing in the package is edited. ``Capture`` keeps every ``TrialRecord`` and
``SweepSummary`` a sweep produces, so the exact counters and the correctness
checks can be derived from them; it adds one wrapper call per trial and is
installed for the whole run. ``Tracer`` replaces module attributes for the
duration of one traced sweep, so untraced sweeps run the package's own code
with no wrapper in the step loop.

A span is ``[name, start, end, parent]``, parent being the index of the
enclosing span (-1 at the top). A layer's self time is its spans' durations
minus the durations of their direct children.
"""
from __future__ import annotations

import contextlib
import importlib
from time import perf_counter

import numpy as np

# (module of dgs_opt, attribute, span name). A function is patched where its
# caller looks it up, which is the importing module's namespace.
_PATCHES = (
    ("harness", "parse_config", "harness.parse_config"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("cli", "run_experiment", "harness.run_experiment"),
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "build_gh_rule", "quadrature.build_gh_rule"),
    ("harness", "run", "optimizer.run"),
    ("harness", "write_trace_csv", "harness.write_trace_csv"),
    ("harness", "emit_csv", "harness.emit_csv"),
    ("optimizer", "sigma_at", "optimizer.sigma_at"),
    ("optimizer", "diminishing_rate", "theory.diminishing_rate"),
    ("optimizer", "dgs_gradient", "smoothing.dgs_gradient"),
    ("plotting", "render_plot", "plotting.render_plot"),
)


def _module(name: str):
    """dgs_opt.<name>, imported when first patched, after src/ is on the path."""
    return importlib.import_module(f"dgs_opt.{name}")


@contextlib.contextmanager
def _patched(replacements):
    """Set (module, attribute, value) triples, restoring the old values on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Capture:
    """Keeps the trial records and the summaries of the current sweep."""

    def __init__(self):
        self.records: dict[tuple[int, int], object] = {}
        self.summaries: list = []

    def reset(self) -> None:
        self.records = {}
        self.summaries = []

    def installed(self):
        harness, cli = _module("harness"), _module("cli")
        run_trial, run_experiment = harness.run_trial, cli.run_experiment

        def capture_trial(config, grid_index, trial_index):
            record = run_trial(config, grid_index, trial_index)
            self.records[(grid_index, trial_index)] = record
            return record

        def capture_summary(*args, **kwargs):
            summary = run_experiment(*args, **kwargs)
            self.summaries.append(summary)
            return summary

        return _patched([(harness, "run_trial", capture_trial),
                         (cli, "run_experiment", capture_summary)])


class Tracer:
    """In-memory spans and point counters for one traced sweep."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.noise_points = 0
        self.smoothing_evals = 0

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the benchmark's own calls."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap_evaluate(self, evaluate):
        traced = self.wrap("noise.evaluate", evaluate)
        spans, open_ = self.spans, self._open

        def counted(x):
            n = len(x) if np.ndim(x) == 2 else 1
            self.noise_points += n
            if open_ and spans[open_[-1]][0] == "smoothing.dgs_gradient":
                self.smoothing_evals += n
            return traced(x)

        return counted

    def installed(self):
        """Patch every layer boundary; objectives built meanwhile are traced."""
        harness = _module("harness")
        build_objective = harness.build_objective

        def traced_objective(config):
            f = build_objective(config)
            f.evaluate = self._wrap_evaluate(f.evaluate)
            if f.true_gradient is not None:
                f.true_gradient = self.wrap("noise.true_gradient", f.true_gradient)
            return f

        replacements = [(_module(mod), attr, self.wrap(name, getattr(_module(mod), attr)))
                        for mod, attr, name in _PATCHES]
        replacements.append((harness, "build_objective", traced_objective))
        return _patched(replacements)

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {name: tuple(v) for name, v in stats.items()}
