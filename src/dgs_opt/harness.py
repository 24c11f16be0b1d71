"""Experiment front-end: JSON configs, seeded multi-trial sigma sweeps,
aggregation, and the result CSVs, written and read back.

A config fixes everything: objective, noise, step size, sigma grid (as
multipliers of the noise wavelength), schedule, trial count, and master
seed. A sweep is then fully deterministic end to end, including the bytes
of every CSV it writes.
"""
from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import noise as noise_mod
from .optimizer import RunConfig, SigmaSchedule, TrialRecord, run, theorem3_schedule
from .quadrature import build_gh_rule
from .smoothing import Objective, identity_basis, random_orthonormal_basis

EXPERIMENT_IDS = ("periodic-sweep", "bandlimited-sweep", "diminishing-two-phase", "custom")

SUMMARY_HEADER = "sigma,mean_final_dist,std_final_dist,mean_final_objective,trials_ok"
TRACE_HEADER = "trial,iteration,sigma_t,dist,objective,cosine_sim"


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


class OutputError(OSError):
    """Result files could not be written."""


_REQUIRED = object()


def _fields(mapping, table: dict, where: str) -> dict:
    """The fields of a JSON object, converted by ``table`` (field ->
    (converter, default or _REQUIRED)); an absent field takes its default.
    A value that is not an object, a missing required field, a value a
    converter rejects or an unknown field is a ConfigError that names it."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    fields = {}
    for key, (convert, default) in table.items():
        if key not in mapping:
            if default is _REQUIRED:
                raise ConfigError(f"missing required field {key!r} in {where}")
            fields[key] = default
            continue
        try:
            fields[key] = convert(mapping[key])
        except ConfigError:  # from a section's own fields, already named
            raise
        except (OverflowError, TypeError, ValueError) as e:  # float(10**400) overflows
            raise ConfigError(f"bad value for {key!r} in {where}: {e}") from e
    unknown = set(mapping) - set(table)
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")
    return fields


def _json(kind: type):
    """Converter that passes values of one JSON type through unchanged."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"must be a {kind.__name__}, got {type(value).__name__}")
        return value
    return check


def _number(kind: type, positive: bool = False):
    """Converter of a JSON number, never a bool, to ``kind``. An int field
    takes an integer or an integral float such as 2.0; no field takes NaN or
    an infinity."""
    def convert(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"must be a number, got {type(value).__name__}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"must be an integer, got {value}")
        number = kind(value)
        if kind is float and not math.isfinite(number):  # an int is finite
            raise ValueError(f"must be finite, got {number}")
        if positive and not number > 0:
            raise ValueError(f"must be positive, got {number}")
        return number
    return convert


_FLOAT = _number(float)
_INT = _number(int)


def _one_of(choices):
    """Converter that passes one of ``choices`` through unchanged."""
    def convert(value):
        if value not in tuple(choices):  # a tuple compares a list instead of hashing it
            raise ValueError(f"must be one of {'/'.join(choices)}, got {value!r}")
        return value
    return convert


def _box(value) -> tuple[float, float]:
    lo, hi = map(_FLOAT, _json(list)(value))
    if not lo < hi:
        raise ValueError("must be [lo, hi] with lo < hi")
    if not math.isfinite(hi - lo):  # initial points are drawn uniform on it
        raise ValueError(f"must have a finite width, got [{lo}, {hi}]")
    return lo, hi


def _sigma_grid(value) -> tuple[float, ...]:
    grid = tuple(map(_number(float, positive=True), _json(list)(value)))
    if not grid:
        raise ValueError("must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("must be strictly increasing")
    return grid


def _section(name: str, kinds: dict):
    """Converter of the config section ``name``: a JSON object whose
    ``kind`` picks its row of ``kinds``, with its other fields. Gives (kind, fields)."""
    def convert(section):
        kind = section.get("kind") if isinstance(section, dict) else None
        table = kinds[kind].fields if kind in tuple(kinds) else {}
        fields = _fields(section, {"kind": (_one_of(kinds), _REQUIRED), **table}, name)
        return fields.pop("kind"), fields
    return convert


class _Kind(NamedTuple):  # one kind of a config section
    fields: dict  # field -> (converter, default or _REQUIRED)
    build: Callable  # what a sweep builds from the fields
    frequency: Optional[str] = None  # a noise's field whose inverse is the wavelength


def _bandlimited(config: ExperimentConfig) -> noise_mod.BandlimitedNoise:
    seed = mix_seed(config.master_seed, _NOISE_SEED_TAG)
    return noise_mod.sample_bandlimited(config.dimension, seed=seed, **config.noise_params)


def _sigma_schedule(config: ExperimentConfig, sigma0: float) -> SigmaSchedule:
    return SigmaSchedule(sigma0, **config.schedule_params)


def _theorem3(config: ExperimentConfig, sigma0: float) -> SigmaSchedule:
    return theorem3_schedule(dimension=config.dimension, **config.schedule_params)


_OBJECTIVE_FIELDS = {"dimension": (_number(int, positive=True), 5), "box": (_box, _REQUIRED)}
_OBJECTIVE_KINDS = {  # build(dimension, noise)
    "power-sum-sqrt": _Kind(_OBJECTIVE_FIELDS, noise_mod.power_sum_sqrt_objective),
    "quadratic": _Kind(_OBJECTIVE_FIELDS, noise_mod.quadratic_objective),
}
_NOISE_KINDS = {  # build(config)
    "periodic": _Kind({"alpha": (_FLOAT, _REQUIRED), "amplitude": (_FLOAT, 1.0)},
                      lambda config: noise_mod.PeriodicNoise(**config.noise_params), "alpha"),
    "bandlimited": _Kind({"alpha0": (_FLOAT, _REQUIRED), "num_components": (_INT, 20)},
                         _bandlimited, "alpha0"),
    "diminishing": _Kind({"beta": (_FLOAT, 1.0), "carrier_frequency": (_FLOAT, 1.0)},
                         lambda config: noise_mod.DiminishingNoise(**config.noise_params),
                         "carrier_frequency"),
    "none": _Kind({}, lambda config: None),
}
_SCHEDULE_KINDS = {  # build(config, sigma0)
    "constant": _Kind({}, _sigma_schedule),
    "two-phase-decay": _Kind({"switch_iteration": (_INT, 5000), "contraction": (_FLOAT, 0.999)},
                             _sigma_schedule),
    "theorem3": _Kind({key: (_FLOAT, _REQUIRED) for key in ("beta", "L", "tau", "r0_tilde")},
                      _theorem3),
}
# kind -> build(dimension, trial seed); a basis has no fields, and the first is the default
_BASES = {"identity": lambda d, seed: identity_basis(d),
          "random": lambda d, seed: random_orthonormal_basis(d, mix_seed(seed, _BASIS_SEED_TAG))}
_TOP_FIELDS = {
    "experiment": (_one_of(EXPERIMENT_IDS), _REQUIRED),
    "objective": (_section("objective", _OBJECTIVE_KINDS), _REQUIRED),
    "noise": (_section("noise", _NOISE_KINDS), _REQUIRED),
    "step_size": (_number(float, positive=True), _REQUIRED),
    "sigma_grid": (_sigma_grid, _REQUIRED),
    "trials": (_number(int, positive=True), _REQUIRED),
    "max_iterations": (_number(int, positive=True), _REQUIRED),
    "schedule": (_section("schedule", _SCHEDULE_KINDS), _REQUIRED),
    "quadrature_order": (lambda v: build_gh_rule(_INT(v)).order, 5),
    "basis": (_one_of(_BASES), next(iter(_BASES))),
    "master_seed": (_INT, _REQUIRED),
    "output_dir": (_json(str), None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    objective_kind: str
    dimension: int
    box: tuple[float, float]
    noise_kind: str
    noise_params: dict
    step_size: float
    sigma_grid: tuple[float, ...]  # multipliers of the noise wavelength
    trials: int
    max_iterations: int
    schedule_kind: str
    schedule_params: dict
    quadrature_order: int
    basis: str
    master_seed: int
    output_dir: Optional[str] = None

    @property
    def wavelength(self) -> float:
        """Base length scale the sigma multipliers refer to."""
        frequency = _NOISE_KINDS[self.noise_kind].frequency
        return 1.0 / self.noise_params[frequency] if frequency else 1.0

    @property
    def sigma_values(self) -> tuple[float, ...]:
        """Initial radius per grid point. A theorem3 schedule ignores it, so
        there the grid only labels groups of trials with different seeds."""
        return tuple(m * self.wavelength for m in self.sigma_grid)


def parse_config(doc: dict, where: str = "config") -> ExperimentConfig:
    """Validate a config document. Every bad value ends in a ConfigError:
    each field is checked by its table's converter, and the noise, schedule
    and quadrature constructors the sweep will call check their own ranges."""
    fields = _fields(doc, _TOP_FIELDS, where)
    fields["objective_kind"], objective = fields.pop("objective")
    fields["noise_kind"], fields["noise_params"] = fields.pop("noise")
    fields["schedule_kind"], fields["schedule_params"] = fields.pop("schedule")
    config = ExperimentConfig(**fields, **objective)
    try:
        _NOISE_KINDS[config.noise_kind].build(config)
        _SCHEDULE_KINDS[config.schedule_kind].build(config, config.sigma_values[0])
    except (ArithmeticError, ValueError) as e:  # a theorem3 rate can overflow
        raise ConfigError(f"bad noise or schedule in {where}: {e}") from e
    if not all(0 < s < math.inf for s in config.sigma_values):
        raise ConfigError(
            "sigma_grid times the noise wavelength must be positive and finite, "
            f"got {config.sigma_values}"
        )
    return config


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"parse error in {path} at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    return parse_config(doc, where=str(path))


# --- seeding -----------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def mix_seed(*parts: int) -> int:
    """SplitMix64-style mixer turning (master seed, grid index, trial index)
    into an independent 64-bit stream seed. Documented so sequences can be
    reproduced; cross-implementation byte-equality is a non-goal."""
    state = 0
    for p in parts:
        state = (state + (int(p) & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


_NOISE_SEED_TAG = 0x6E6F6973  # distinguishes the shared-noise stream
_BASIS_SEED_TAG = 0xB4515


def build_objective(config: ExperimentConfig) -> Objective:
    noise = _NOISE_KINDS[config.noise_kind].build(config)
    return _OBJECTIVE_KINDS[config.objective_kind].build(config.dimension, noise)


def run_trial(config: ExperimentConfig, grid_index: int, trial_index: int) -> TrialRecord:
    """One seeded run at one sigma grid point. Safe to call from workers."""
    seed = mix_seed(config.master_seed, grid_index, trial_index)
    sigma0 = config.sigma_values[grid_index]
    return run(RunConfig(
        objective=build_objective(config),
        rule=build_gh_rule(config.quadrature_order),
        basis=_BASES[config.basis](config.dimension, seed),
        step_size=config.step_size,
        max_iterations=config.max_iterations,
        schedule=_SCHEDULE_KINDS[config.schedule_kind].build(config, sigma0),
        initial_point=np.random.default_rng(seed).uniform(*config.box, size=config.dimension),
    ))


@dataclass(eq=False)
class PlotData:
    """What the plots draw of a sweep, per sigma grid point: the mean final
    distance and the mean distance and cosine traces (None where no trace
    is drawn). A trace field is None as a whole when it was not read."""

    sigmas: tuple[float, ...]
    mean_final_dist: np.ndarray
    mean_dist_traces: Optional[list]
    mean_cosine_traces: Optional[list]


@dataclass(eq=False)
class SweepSummary(PlotData):
    """Aggregates over the trials at each sigma grid point of a live run.

    Grid points where every trial diverged are invalid: trials_ok is 0, the
    mean fields are NaN and the traces None. Aggregation is order-insensitive
    in the trial index.
    """

    std_final_dist: np.ndarray
    mean_final_objective: np.ndarray
    trials_ok: np.ndarray
    evaluation_counts: np.ndarray  # summed over all trials
    trials: int
    max_iterations: int

    def valid(self, g: int) -> bool:
        return int(self.trials_ok[g]) > 0


def mean_trace(traces, mean=np.mean) -> np.ndarray:
    """Mean over trials of one trace, taken by ``mean`` (np.nanmean skips
    NaN). Each trial's trace is padded with its last value to the longest
    trace given, so trials that stopped early hold their final value."""
    length = max(map(len, traces))
    padded = [np.pad(np.asarray(t, dtype=float), (0, length - len(t)), mode="edge")
              for t in traces]
    with warnings.catch_warnings():
        # the final cosine is NaN in every trial; the all-NaN mean is fine
        warnings.simplefilter("ignore", RuntimeWarning)
        return mean(padded, axis=0)


# Each trace a sweep averages per grid point, by its PlotData field: the
# trace CSV column it is read back from, the TrialRecord array it is
# averaged from, and the mean that averages it.
TRACES = {
    "mean_dist_traces": ("dist", "distances", np.mean),
    "mean_cosine_traces": ("cosine_sim", "cosine_similarities", np.nanmean),
}


# --- result files ------------------------------------------------------------

# The summary columns read back to plot a sweep, with the type each must
# parse as.
_SUMMARY_PLOT_COLUMNS = {"sigma": float, "mean_final_dist": float, "trials_ok": int}


def _formatted(values) -> list[str]:
    """Each value as every CSV float is written: 17 significant digits, so it
    reads back bit for bit."""
    return list(map("%.17g".__mod__, np.asarray(values, dtype=float).tolist()))


def _trace_path(directory: Path, grid_index: int) -> Path:
    return directory / f"trace_grid{grid_index:02d}.csv"


def write_text(path, chunks, what: str) -> None:
    """Write the text ``chunks`` to ``path`` in order. An OSError is an
    OutputError that names the file as ``what``."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise OutputError(f"cannot write {what} {path}: {e}") from e


def _trace_chunks(records: list[TrialRecord]):
    """The trace CSV text, one chunk per trial, so a write never holds more
    than one trial's text. A trial's rows are formatted in one ``%`` pass,
    and each radius once per grid point: the trials share their radius law.
    Radii are told apart by their bits, as 0.0 and -0.0 print differently."""
    yield TRACE_HEADER + "\n"
    if not records:
        return
    bits = [np.asarray(rec.sigmas, dtype=float).view(np.uint64) for rec in records]
    distinct, where = np.unique(np.concatenate(bits), return_inverse=True)
    sigma_text = np.array(_formatted(distinct.view(float)), dtype=object)[where].tolist()
    start = 0
    for trial, (rec, sigmas) in enumerate(zip(records, bits)):
        rows = zip(range(len(sigmas)), sigma_text[start:start + len(sigmas)],
                   *(np.asarray(column, dtype=float).tolist() for column in (
                       rec.distances, rec.objective_values, rec.cosine_similarities)))
        start += len(sigmas)
        cells = tuple(chain.from_iterable(rows))
        yield (f"{trial},%d,%s,%.17g,%.17g,%.17g\n" * (len(cells) // 5)) % cells


def write_trace_csv(records: list[TrialRecord], path) -> None:
    """Per-trial trace CSV of one grid point's records, given in trial order."""
    write_text(path, _trace_chunks(records), "trace CSV")


def emit_csv(summary: SweepSummary, path) -> None:
    """Summary CSV: one row per sigma grid point, 17-significant-digit floats."""
    columns = map(_formatted, (summary.sigmas, summary.mean_final_dist,
                               summary.std_final_dist, summary.mean_final_objective))
    write_text(path, [SUMMARY_HEADER + "\n", *(
        f"{sigma},{mean},{std},{objective},{ok}\n"
        for sigma, mean, std, objective, ok in zip(*columns, map(int, summary.trials_ok))
    )], "summary CSV")


def _read_columns(path: Path, what: str, columns: dict) -> np.ndarray:
    """The named ``columns`` (name -> type) of a CSV file as one structured
    array. A file that cannot be read, a missing column or a value that does
    not parse as its column's type is a ConfigError that names the file.

    ``np.loadtxt`` parses the open file as it stands. A file it does not
    take (a whitespace-only line, no rows, a bad byte or value) is read
    again as the list of its non-blank lines, which gives the result or the
    error."""
    dtype = list(columns.items())

    def parse(lines, header: list[str]) -> np.ndarray:
        return np.loadtxt(lines, delimiter=",", dtype=dtype, ndmin=1,
                          usecols=[header.index(name) for name in columns])

    with contextlib.suppress(OSError, ValueError, UserWarning), open(path) as fh, \
            warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # np.loadtxt warns on no data
        return parse(fh, fh.readline().rstrip("\n").split(","))
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = [line for line in fh.read().splitlines() if line.strip()]
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e
    missing = [name for name in columns if name not in header]
    if missing:
        raise ConfigError(f"malformed {what} {path}: missing column(s) {missing}")
    if not rows:  # np.loadtxt warns on no data
        return np.empty(0, dtype=dtype)
    try:
        return parse(rows, header)
    except ValueError as e:
        raise ConfigError(f"malformed {what} {path}: {e}") from e


def read_sweep(summary_csv, traces=tuple(TRACES)) -> PlotData:
    """What the plots draw, read back from a sweep's ``summary.csv`` and the
    trace CSVs next to it. ``traces`` names the PlotData trace fields to
    read (see TRACES); only the ``trial`` column and their columns of each
    trace CSV are parsed, no trace CSV is opened when it is empty, and a
    field not named is None. Grid points where every trial diverged
    (trials_ok 0) or without a trace file get no traces; the trace means
    cover every trial in the file, in any row order, each padded to the
    longest."""
    path = Path(summary_csv)
    summary = _read_columns(path, "summary CSV", _SUMMARY_PLOT_COLUMNS)
    if not len(summary):
        raise ConfigError(f"{path} is not a sweep summary CSV")
    columns = {"trial": int, **{TRACES[name][0]: float for name in traces}}
    means: dict = {name: [] for name in traces}
    for g, ok in enumerate(summary["trials_ok"]):
        trace_path = _trace_path(path.parent, g)
        rows = (_read_columns(trace_path, "trace CSV", columns)
                if means and ok > 0 and trace_path.exists() else ())
        if len(rows):
            rows = rows[np.argsort(rows["trial"], kind="stable")]
            starts = np.flatnonzero(np.diff(rows["trial"])) + 1
        for name, field_means in means.items():
            column, _, mean = TRACES[name]
            field_means.append(mean_trace(np.split(rows[column], starts), mean)
                               if len(rows) else None)
    return PlotData(sigmas=tuple(summary["sigma"].tolist()),
                    mean_final_dist=np.array(summary["mean_final_dist"]),
                    **{name: means.get(name) for name in TRACES})


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, out_dir=None
) -> SweepSummary:
    """Run the full sigma sweep: config.trials seeded runs per grid point.

    Diverged trials are recorded but excluded from the means; a grid point
    where all trials diverge is marked invalid. With ``out_dir`` set, writes
    ``summary.csv`` plus one trace CSV per grid point. Deterministic for a
    fixed config regardless of ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    # before any trial runs, so a path that cannot be created costs no sweep
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise OutputError(f"cannot create output directory {out_path}: {e}") from e
    n_grid, trials = len(config.sigma_grid), config.trials
    tasks = [(g, t) for g in range(n_grid) for t in range(trials)]
    workers = min(jobs, len(tasks))
    if workers > 1:  # imported only here, so `import dgs_opt` loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        # run_trial is looked up per sweep, as perfbench's Capture replaces it
        records = list((pool.map if pool else map)(
            run_trial, [config] * len(tasks), *zip(*tasks)))

    mean_final = np.full(n_grid, np.nan)
    std_final = np.full(n_grid, np.nan)
    mean_obj = np.full(n_grid, np.nan)
    ok_counts = np.zeros(n_grid, dtype=int)
    eval_counts = np.zeros(n_grid, dtype=np.int64)
    means: dict = {name: [] for name in TRACES}

    for g in range(n_grid):
        grid_records = records[g * trials:(g + 1) * trials]
        if out_path is not None:
            write_trace_csv(grid_records, _trace_path(out_path, g))
        ok = [rec for rec in grid_records if rec.status == "ok"]
        ok_counts[g] = len(ok)
        eval_counts[g] = sum(rec.evaluation_count for rec in grid_records)
        if not ok:
            for field_means in means.values():
                field_means.append(None)
            continue
        finals = np.array([rec.final_distance for rec in ok])
        mean_final[g] = finals.mean()
        std_final[g] = finals.std()
        mean_obj[g] = np.mean([rec.objective_values[-1] for rec in ok])
        for name, (_, attribute, mean) in TRACES.items():
            means[name].append(mean_trace([getattr(rec, attribute) for rec in ok], mean))

    summary = SweepSummary(
        sigmas=config.sigma_values,
        mean_final_dist=mean_final,
        std_final_dist=std_final,
        mean_final_objective=mean_obj,
        trials_ok=ok_counts,
        evaluation_counts=eval_counts,
        trials=config.trials,
        max_iterations=config.max_iterations,
        **means,
    )
    if out_path is not None:
        emit_csv(summary, out_path / "summary.csv")
    return summary
