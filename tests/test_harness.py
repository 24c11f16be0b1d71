import concurrent.futures
import copy
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import plain_bandlimited
from dgs_opt import (
    BandlimitedNoise,
    ConfigError,
    DGSConfig,
    ExperimentConfig,
    OutputError,
    RunConfig,
    SigmaSchedule,
    build_gh_rule,
    emit_csv,
    emit_plot,
    identity_basis,
    load_config,
    mix_seed,
    parse_config,
    render_plot,
    run_experiment,
    run_trial,
    sample_bandlimited,
)
from dgs_opt import harness, plotting
from dgs_opt.cli import main as cli_main
from dgs_opt.harness import (SUMMARY_HEADER, TRACE_HEADER, PlotData, SweepSummary, read_sweep,
                             write_trace_csv)


def base_doc(**overrides):
    doc = {
        "experiment": "periodic-sweep",
        "objective": {"kind": "power-sum-sqrt", "dimension": 3, "box": [-5, 5]},
        "noise": {"kind": "periodic", "alpha": 1.0},
        "step_size": 0.01,
        "sigma_grid": [0.5, 1.0],
        "trials": 2,
        "max_iterations": 40,
        "schedule": {"kind": "constant"},
        "quadrature_order": 5,
        "basis": "identity",
        "master_seed": 99,
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_doc()))
        cfg = load_config(path)
        assert cfg.sigma_grid == (0.5, 1.0)
        assert cfg.dimension == 3
        assert cfg.wavelength == 1.0

    def test_sigma_values_scale_with_wavelength(self):
        cfg = parse_config(base_doc(noise={"kind": "periodic", "alpha": 2.0}))
        assert cfg.sigma_values == (0.25, 0.5)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(base_doc(typo_key=1))

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(base_doc(noise={"kind": "periodic", "alpha": 1.0, "alpha0": 2.0}))

    def test_missing_step_size_named_in_error(self):
        doc = base_doc()
        del doc["step_size"]
        with pytest.raises(ConfigError, match="step_size"):
            parse_config(doc)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(base_doc(sigma_grid=[1.0, 0.5]))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(base_doc(sigma_grid=[-1.0, 0.5]))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(base_doc(experiment="mystery"))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_string_grid_and_box_are_not_arrays(self):
        with pytest.raises(ConfigError, match="sigma_grid.*must be a list"):
            parse_config(base_doc(sigma_grid="12"))
        with pytest.raises(ConfigError, match="box.*must be a list"):
            parse_config(base_doc(objective={"kind": "power-sum-sqrt", "box": "01"}))

    def test_integral_float_is_an_int(self):
        cfg = parse_config(base_doc(trials=2.0, quadrature_order=7.0))
        assert (cfg.trials, cfg.quadrature_order) == (2, 7)
        assert type(cfg.trials) is int and type(cfg.quadrature_order) is int

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("A config pins everything")[1].split("```json\n")[1]
        cfg = parse_config(json.loads(example.split("```")[0]))
        assert cfg.experiment == "periodic-sweep"


# Valid configs that between them carry every section field of every kind.
_FUZZ_DOCS = [
    base_doc(
        noise={"kind": "periodic", "alpha": 1.0, "amplitude": 1.0},
        schedule={"kind": "two-phase-decay", "switch_iteration": 10, "contraction": 0.9},
        output_dir="out",
    ),
    base_doc(
        experiment="bandlimited-sweep",
        objective={"kind": "quadratic", "dimension": 4, "box": [-2, 2]},
        noise={"kind": "bandlimited", "alpha0": 1.0, "num_components": 5},
        schedule={"kind": "theorem3", "beta": 1e-4, "L": 2.0, "tau": 2.0, "r0_tilde": 1.0},
        basis="random",
    ),
    base_doc(noise={"kind": "diminishing", "beta": 0.01, "carrier_frequency": 2.0}),
]
_FUZZ_TARGETS = [
    (i, path)
    for i, doc in enumerate(_FUZZ_DOCS)
    for key, value in doc.items()
    for path in [(key,), *((key, k) for k in (value if isinstance(value, dict) else ()))]
]
# Numbers stay within +-1000 (besides NaN and +-inf): parse_config builds the
# noise, which allocates dimension x num_components values.
_JSON_SCALARS = (
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(-1000, 1000),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=8),
)
_JSON_VALUES = st.one_of(
    *_JSON_SCALARS,
    st.lists(st.one_of(*_JSON_SCALARS), max_size=3),
    st.dictionaries(st.text(max_size=8), st.one_of(*_JSON_SCALARS), max_size=3),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(target=st.sampled_from(_FUZZ_TARGETS), value=_JSON_VALUES)
def test_any_json_field_value_parses_or_is_config_error(target, value):
    index, path = target
    doc = copy.deepcopy(_FUZZ_DOCS[index])
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    try:
        config = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


def _run_config():
    return RunConfig(objective=harness.build_objective(parse_config(base_doc())),
                     rule=build_gh_rule(5), basis=identity_basis(3), step_size=0.1,
                     max_iterations=1, schedule=SigmaSchedule(1.0), initial_point=np.zeros(3))


# Every public dataclass with an array field, each from a factory.
_ARRAY_DATACLASSES = {
    "GHRule": lambda: build_gh_rule(5),
    "DirectionBasis": lambda: identity_basis(3),
    "BandlimitedNoise": lambda: sample_bandlimited(3, 1.0, 4, seed=0),
    "DGSConfig": lambda: DGSConfig(1.0, build_gh_rule(5), identity_basis(3)),
    "TrialRecord": lambda: run_trial(parse_config(base_doc(max_iterations=3)), 0, 0),
    "PlotData": lambda: PlotData((1.0,), np.zeros(1), [np.zeros(2)], [np.zeros(2)]),
    "SweepSummary": lambda: run_experiment(parse_config(base_doc(trials=1, max_iterations=3))),
    "Objective": lambda: harness.build_objective(parse_config(base_doc())),
    "RunConfig": _run_config,
}


@pytest.mark.parametrize("make", _ARRAY_DATACLASSES.values(), ids=_ARRAY_DATACLASSES.keys())
def test_equality_is_a_bool(make):
    value = make()
    assert (value == value) is True
    assert isinstance(value == copy.deepcopy(value), bool)


class TestSeedMixing:
    def test_deterministic(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)

    def test_order_sensitive_and_distinct(self):
        seeds = {mix_seed(7, g, t) for g in range(10) for t in range(10)}
        assert len(seeds) == 100
        assert mix_seed(7, 1, 2) != mix_seed(7, 2, 1)


@pytest.fixture(scope="module")
def small_summary():
    return run_experiment(parse_config(base_doc()))


class TestRunExperiment:
    def test_initial_point_drawn_from_trial_seed(self):
        cfg = parse_config(base_doc())
        lo, hi = cfg.box
        for g, t in [(0, 0), (0, 1), (1, 0)]:
            rng = np.random.default_rng(mix_seed(cfg.master_seed, g, t))
            np.testing.assert_array_equal(
                run_trial(cfg, g, t).iterates[0], rng.uniform(lo, hi, cfg.dimension)
            )

    def test_shapes(self, small_summary):
        s = small_summary
        assert s.sigmas == (0.5, 1.0)
        assert len(s.mean_final_dist) == 2
        assert all(len(tr) == 41 for tr in s.mean_dist_traces)
        assert np.all(s.trials_ok == 2)

    def test_trials_are_distinct(self):
        cfg = parse_config(base_doc())
        a = run_trial(cfg, 0, 0)
        b = run_trial(cfg, 0, 1)
        assert not np.array_equal(a.iterates[0], b.iterates[0])

    def test_byte_identical_outputs(self, tmp_path):
        cfg = parse_config(base_doc())
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for name in ("summary.csv", "trace_grid00.csv", "trace_grid01.csv"):
            ha = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert ha == hb

    def test_csv_headers_and_row_counts(self, tmp_path):
        cfg = parse_config(base_doc(trials=1, sigma_grid=[1.0]))
        run_experiment(cfg, out_dir=tmp_path)
        summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary_lines[0] == SUMMARY_HEADER
        assert len(summary_lines) == 2
        trace_lines = (tmp_path / "trace_grid00.csv").read_text().splitlines()
        assert trace_lines[0] == TRACE_HEADER
        assert len(trace_lines) == 1 + cfg.max_iterations + 1

    def test_all_diverged_grid_point_invalid(self):
        cfg = parse_config(base_doc(step_size=50.0, sigma_grid=[1.0], trials=2))
        s = run_experiment(cfg)
        assert s.trials_ok[0] == 0
        assert not s.valid(0)
        assert np.isnan(s.mean_final_dist[0])

    def test_empty_sweep_csv_is_header_only(self, tmp_path):
        empty = SweepSummary(
            sigmas=(), mean_final_dist=np.array([]), std_final_dist=np.array([]),
            mean_final_objective=np.array([]), trials_ok=np.array([], dtype=int),
            mean_dist_traces=[], mean_cosine_traces=[],
            evaluation_counts=np.array([], dtype=np.int64), trials=0, max_iterations=0,
        )
        emit_csv(empty, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == SUMMARY_HEADER + "\n"

    def test_unwritable_file_is_an_output_error_naming_it(self, small_summary, tmp_path):
        path = tmp_path / "not-a-directory" / "out"
        path.parent.write_text("")
        record = run_trial(parse_config(base_doc()), 0, 0)
        for write, what in [(lambda: write_trace_csv([record], path), "trace CSV"),
                            (lambda: emit_csv(small_summary, path), "summary CSV"),
                            (lambda: emit_plot(small_summary, "convergence-curves", path), "plot")]:
            with pytest.raises(OutputError, match=f"cannot write {what} {re.escape(str(path))}"):
                write()

    def test_uncreatable_output_directory_fails_before_any_trial(self, tmp_path, monkeypatch):
        calls = []
        trial = harness.run_trial
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a) or trial(*a))
        path = tmp_path / "not-a-directory" / "out"
        path.parent.write_text("")
        with pytest.raises(OutputError, match="cannot create output directory"):
            run_experiment(parse_config(base_doc()), out_dir=path)
        assert calls == []

    def test_bandlimited_csvs_match_the_plain_formula(self, tmp_path, monkeypatch):
        # the identity basis is where BandlimitedNoise reuses repeated sines
        cfg = parse_config(base_doc(noise={"kind": "bandlimited", "alpha0": 1.0},
                                    quadrature_order=12, sigma_grid=[0.1, 1.0]))
        run_experiment(cfg, out_dir=tmp_path / "kernel")
        calls = []
        monkeypatch.setattr(BandlimitedNoise, "evaluate",
                            lambda noise, x: calls.append(x) or plain_bandlimited(noise, x))
        run_experiment(cfg, out_dir=tmp_path / "plain")
        assert calls
        names = sorted(p.name for p in (tmp_path / "kernel").iterdir())
        assert names == ["summary.csv", "trace_grid00.csv", "trace_grid01.csv"]
        for name in names:
            digests = {hashlib.sha256((tmp_path / side / name).read_bytes()).hexdigest()
                       for side in ("kernel", "plain")}
            assert len(digests) == 1, name


def _assert_same_summary(a, b):
    for name in ("sigmas", "mean_final_dist", "std_final_dist", "mean_final_objective",
                 "trials_ok", "evaluation_counts"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    for got, want in [*zip(a.mean_dist_traces, b.mean_dist_traces),
                      *zip(a.mean_cosine_traces, b.mean_cosine_traces)]:
        assert (got is None) == (want is None)
        np.testing.assert_array_equal(got, want)


class TestExecutor:
    @pytest.mark.parametrize("doc", [
        base_doc(sigma_grid=[0.5, 50.0], step_size=0.1),
        base_doc(objective={"kind": "quadratic", "dimension": 3, "box": [-5, 5]},
                 noise={"kind": "diminishing", "beta": 1e-4}, basis="random",
                 schedule={"kind": "theorem3", "beta": 1e-4, "L": 2.0, "tau": 2.0,
                           "r0_tilde": 1.0}),
    ], ids=["one-grid-point-diverges", "theorem3-random-basis"])
    def test_two_workers_write_the_same_bytes(self, doc, tmp_path):
        cfg = parse_config(doc)
        run_experiment(cfg, jobs=1, out_dir=tmp_path / "serial")
        run_experiment(cfg, jobs=2, out_dir=tmp_path / "pooled")
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == ["summary.csv", "trace_grid00.csv", "trace_grid01.csv"]
        for name in names:
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "pooled" / name).read_bytes()), name

    def test_pool_is_never_larger_than_the_task_count(self, monkeypatch):
        sizes = []

        class InlinePool:  # starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        cfg = parse_config(base_doc())  # 2 grid points x 2 trials
        serial = run_experiment(cfg, jobs=1)
        # run_experiment imports the pool class where it uses it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        pooled = run_experiment(cfg, jobs=10_000)
        assert sizes == [4]
        _assert_same_summary(pooled, serial)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs, tmp_path, capsys):
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(parse_config(base_doc()), jobs=jobs)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc()))
        out = tmp_path / "o"
        assert cli_main(["run", str(cfg_path), "--out", str(out), "--jobs", str(jobs)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()


class TestPlots:
    @pytest.fixture()
    def summary(self, small_summary):
        return small_summary

    @pytest.mark.parametrize(
        "kind", ["convergence-curves", "cosine-vs-iteration", "final-dist-vs-sigma"]
    )
    def test_svg_is_well_formed_xml(self, summary, kind, tmp_path):
        path = tmp_path / f"{kind}.svg"
        emit_plot(summary, kind, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert any("polyline" in el.tag for el in root.iter())

    def test_one_polyline_per_grid_point(self, summary):
        svg = render_plot(summary, "convergence-curves")
        assert svg.count("<polyline") == len(summary.sigmas)

    def test_deterministic_bytes(self, summary):
        assert render_plot(summary, "final-dist-vs-sigma") == render_plot(
            summary, "final-dist-vs-sigma"
        )

    def test_unknown_kind_rejected(self, summary):
        with pytest.raises(ValueError):
            render_plot(summary, "pie-chart")

    def test_empty_summary_rejected(self):
        empty = PlotData(sigmas=(1.0,), mean_final_dist=np.array([np.nan]),
                         mean_dist_traces=[None], mean_cosine_traces=[None])
        with pytest.raises(ValueError, match="nothing to plot"):
            render_plot(empty, "convergence-curves")

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(log=st.booleans(), data=st.data())
    def test_axis_and_points_match_the_per_point_oracle(self, log, data):
        # every pixel has the bits of the scalar expression, and every point
        # the string _num gives it, on linear and log axes spanning the data,
        # as _render's do, a single value included
        values = st.floats(1e-16, 1e16) if log else st.floats(-1e12, 1e12)
        px_lo, px_hi = data.draw(st.sampled_from([(75, 630), (445, 30)]))
        xs = data.draw(st.lists(values, min_size=1, max_size=60))
        ys = data.draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
        lo, hi = min(xs + ys), max(xs + ys)
        axis = plotting._Axis(lo, hi, px_lo, px_hi, log)
        px, py = axis(xs), axis(ys)
        scalar = _ScalarAxis(lo, hi, px_lo, px_hi, log)
        want_x, want_y = scalar(xs), scalar(ys)
        assert px.tobytes() == np.array(want_x).tobytes()
        assert py.tobytes() == np.array(want_y).tobytes()
        assert plotting._points(px, py) == _scalar_points(want_x, want_y)

    @pytest.mark.parametrize("kind", plotting.PLOT_KINDS)
    @pytest.mark.parametrize("sweep", ["small", "theorem3-read-back"])
    def test_render_matches_the_per_point_oracle_on_sweep_traces(
            self, sweep, kind, summary, theorem3_read_back, monkeypatch):
        data = summary if sweep == "small" else theorem3_read_back
        got = render_plot(data, kind)
        monkeypatch.setattr(plotting, "_Axis", _ScalarAxis)
        monkeypatch.setattr(plotting, "_points", _scalar_points)
        assert render_plot(data, kind) == got


class _ScalarAxis(plotting._Axis):
    """_Axis as it mapped one value at a time: the reference for its
    vectorised mapping."""

    def __call__(self, vs):
        def one(v):
            v = math.log10(v) if self.log else v
            frac = (v - self.lo) / (self.hi - self.lo)
            return self.px_lo + frac * (self.px_hi - self.px_lo)
        return [one(v) for v in vs]


def _scalar_points(px, py):
    """_points as it formatted one point at a time."""
    return " ".join(f"{plotting._num(x)},{plotting._num(y)}" for x, y in zip(px, py))


@pytest.fixture(scope="module")
def theorem3_out(tmp_path_factory):
    """Directory of a theorem3 sweep's CSVs: every trial stops at the sigma
    floor after 1,740 steps, so each trace has 1,741 points."""
    out = tmp_path_factory.mktemp("theorem3")
    doc = base_doc(objective={"kind": "quadratic", "dimension": 5, "box": [-5, 5]},
                   noise={"kind": "diminishing", "beta": 1e-4}, step_size=0.005,
                   sigma_grid=[0.5, 1.0], trials=1, max_iterations=2000, basis="random",
                   schedule={"kind": "theorem3", "beta": 1e-4, "L": 2.0, "tau": 2.0,
                             "r0_tilde": 1.0})
    run_experiment(parse_config(doc), out_dir=out)
    return out


@pytest.fixture(scope="module")
def theorem3_read_back(theorem3_out):
    """PlotData read back from the theorem3 sweep's CSVs."""
    data = read_sweep(theorem3_out / "summary.csv")
    assert [len(t) for t in data.mean_dist_traces] == [1741, 1741]
    return data


# Sweeps written and read back by the plot tests: config, trials_ok per grid
# point, and whether the trace rows are rewritten interleaved, later trials
# first, where the order of three trials changes the bits of a mean. In
# "diverged-grid-point" every trial at sigma = 50 diverges, in
# "some-trials-diverge" some trials at each grid point do, and in
# "sigma-floor" every trial stops well before max_iterations.
_SWEEPS = {
    "base": (base_doc(), [2, 2], False),
    "diverged-grid-point": (base_doc(sigma_grid=[0.5, 50.0], step_size=0.1), [2, 0], False),
    "some-trials-diverge": (base_doc(trials=6, step_size=0.5), [5, 2], False),
    "interleaved": (base_doc(trials=3), [3, 3], True),
    "sigma-floor": (base_doc(schedule={"kind": "two-phase-decay", "switch_iteration": 0,
                                       "contraction": 0.3}), [2, 2], False),
}


def _write_sweep(name: str, out: Path) -> SweepSummary:
    """Run the sweep ``name`` of _SWEEPS into ``out``, interleaving its trace
    rows if it asks for that."""
    def interleaved(row):
        trial, iteration = map(int, row.split(",")[:2])
        return iteration, -trial

    doc, trials_ok, shuffle = _SWEEPS[name]
    summary = run_experiment(parse_config(doc), out_dir=out)
    assert list(summary.trials_ok) == trials_ok
    for path in out.glob("trace_grid*.csv") if shuffle else ():
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *sorted(rows, key=interleaved)]) + "\n")
    return summary


class TestCli:
    def test_run_and_plot_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc()))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        svg = tmp_path / "conv.svg"
        code = cli_main(
            ["plot", str(out / "summary.csv"), "--kind", "convergence-curves",
             "--out", str(svg)]
        )
        assert code == 0
        ET.parse(svg)

    def test_plot_reads_back_the_in_memory_traces(self, tmp_path):
        # both sides pad each trace to the longest trial they average; not
        # "some-trials-diverge", as read_sweep averages the diverged trials too
        for sweep in ("base", "diverged-grid-point", "interleaved", "sigma-floor"):
            out = tmp_path / sweep
            summary = _write_sweep(sweep, out)
            if sweep == "sigma-floor":
                max_iterations = _SWEEPS[sweep][0]["max_iterations"]
                assert all(len(tr) < max_iterations for tr in summary.mean_dist_traces)
            read = read_sweep(out / "summary.csv")
            pairs = [*zip(read.mean_dist_traces, summary.mean_dist_traces),
                     *zip(read.mean_cosine_traces, summary.mean_cosine_traces)]
            for got, want in pairs:
                assert (got is None) == (want is None)
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(read.mean_final_dist, summary.mean_final_dist)

    @pytest.mark.parametrize("kind", plotting.PLOT_KINDS)
    @pytest.mark.parametrize("sweep", ["theorem3", "diverged-grid-point", "some-trials-diverge",
                                       "interleaved"])
    def test_plot_draws_what_a_full_read_back_draws(self, sweep, kind, theorem3_out,
                                                    tmp_path, capsys):
        # each kind reads back only the trace it draws
        out = theorem3_out if sweep == "theorem3" else tmp_path / "sweep"
        if sweep != "theorem3":
            _write_sweep(sweep, out)
        svg = tmp_path / "plot.svg"
        assert cli_main(["plot", str(out / "summary.csv"), "--kind", kind,
                         "--out", str(svg)]) == 0
        assert svg.read_bytes() == render_plot(read_sweep(out / "summary.csv"), kind).encode()

    @pytest.mark.parametrize("traces", ["deleted", "malformed"])
    def test_final_dist_vs_sigma_reads_no_trace_csv(self, traces, tmp_path, capsys):
        _write_sweep("base", tmp_path)
        want = render_plot(read_sweep(tmp_path / "summary.csv"), "final-dist-vs-sigma")
        for path in tmp_path.glob("trace_grid*.csv"):
            if traces == "deleted":
                path.unlink()
            else:
                path.write_text("trial,dist\nx,y\n")
        svg = tmp_path / "plot.svg"
        assert cli_main(["plot", str(tmp_path / "summary.csv"), "--kind",
                         "final-dist-vs-sigma", "--out", str(svg)]) == 0
        assert svg.read_bytes() == want.encode()

    @pytest.mark.parametrize("fault", ["summary-sigma", "summary-trials-ok-1.5",
                                       "summary-header-only", "trace-trial-0.5",
                                       "trace-dist", "trace-no-dist", "trace-cosine"])
    def test_plot_malformed_csv_is_one_error_line(self, fault, tmp_path, capsys):
        run_experiment(parse_config(base_doc()), out_dir=tmp_path)
        name = "summary.csv" if fault.startswith("summary") else "trace_grid00.csv"
        path = tmp_path / name
        lines = path.read_text().splitlines()
        if fault == "summary-sigma":
            lines[1] = "x" + lines[1][lines[1].index(","):]
        elif fault == "summary-trials-ok-1.5":
            lines[1] = lines[1][:lines[1].rindex(",")] + ",1.5"
        elif fault == "summary-header-only":
            lines = lines[:1]
        elif fault == "trace-trial-0.5":
            lines[1] = "0.5" + lines[1][lines[1].index(","):]
        elif fault in ("trace-dist", "trace-cosine"):
            cells = lines[1].split(",")
            cells[3 if fault == "trace-dist" else 5] = "abc"
            lines[1] = ",".join(cells)
        else:
            lines = [",".join(c for i, c in enumerate(line.split(",")) if i != 3)
                     for line in lines]
        path.write_text("\n".join(lines) + "\n")
        kind = "cosine-vs-iteration" if fault == "trace-cosine" else "convergence-curves"
        code = cli_main(["plot", str(tmp_path / "summary.csv"), "--kind", kind,
                         "--out", str(tmp_path / "c.svg")])
        assert code == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), captured.err
        assert str(path) in err[0]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli_main(["run", str(path)]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"quadrature_order": 0},
            {"quadrature_order": 65},
            {"trials": "abc"},
            {"noise": {"kind": "diminishing", "beta": -1}},
            {"schedule": {"kind": "two-phase-decay", "contraction": 1.5}},
            {"sigma_grid": ["x"]},
            {"objective": {"kind": "power-sum-sqrt", "dimension": 3, "box": ["a", "b"]}},
            {"step_size": None},
            {"master_seed": "x"},
            {"noise": {"kind": "bandlimited", "alpha0": 1.0, "num_components": 0}},
            {"schedule": {"kind": "two-phase-decay", "switch_iteration": -1}},
            {"schedule": {"kind": "theorem3", "beta": 1e-4, "L": 1.0, "tau": 2.0,
                          "r0_tilde": 1.0}},
            {"schedule": {"kind": "theorem3", "beta": 0.0, "L": 2.0, "tau": 2.0,
                          "r0_tilde": 1.0}},
            {"noise": {"kind": "diminishing", "carrier_frequency": 0}},
            {"noise": 5},
            {"output_dir": 5},
            {"objective": {"kind": "power-sum-sqrt", "dimension": 1e999, "box": [-5, 5]}},
            {"trials": 1e999},
            {"max_iterations": 1e999},
            {"master_seed": 1e999},
            {"noise": {"kind": "bandlimited", "alpha0": 1e999}},
            {"schedule": {"kind": "theorem3", "beta": 1e-4, "L": 1e200, "tau": 1e200,
                          "r0_tilde": 1.0}},
            {"schedule": {"kind": "theorem3", "beta": 0.01, "L": 2.0, "tau": 2.0,
                          "r0_tilde": 1.0}},
            {"schedule": {"kind": "linear"}},
            {"sigma_grid": [1.0, 1e999]},
            {"noise": {"kind": "periodic", "alpha": 1e-300}, "sigma_grid": [1e10]},
            {"sigma_grid": "12"},
            {"objective": {"kind": "power-sum-sqrt", "dimension": 3, "box": "01"}},
            {"trials": 2.7},
            {"quadrature_order": 5.5},
            {"step_size": True},
        ],
        ids=[
            "order-0", "order-65", "trials-abc", "beta-negative", "contraction-1.5",
            "sigma-grid-x", "box-ab", "step-size-null", "seed-x", "components-0",
            "switch-negative", "L-below-tau", "theorem3-beta-0", "carrier-0",
            "noise-not-object", "output-dir-int", "dimension-inf", "trials-inf",
            "max-iterations-inf", "seed-inf", "alpha0-inf", "theorem3-overflow",
            "theorem3-rho-above-1", "schedule-kind-linear", "sigma-grid-inf",
            "sigma-overflow", "sigma-grid-string", "box-string", "trials-2.7", "order-5.5",
            "step-size-true",
        ],
    )
    def test_invalid_value_is_one_error_line(self, overrides, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(**overrides)))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("argv", [
        ["run", "periodic_alpha1", "--jobs", "abc"],
        ["bounds", "--model", "periodic", "--sigma", "abc"],
        [],
        ["plot", "x.csv"],
    ], ids=lambda a: " ".join(a) or "no-subcommand")
    def test_bad_argument_is_one_error_line(self, argv, capsys):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "--jobs" in capsys.readouterr().out

    def test_all_diverged_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(step_size=50.0, trials=1)))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_presets_list(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "periodic_alpha1" in out
        assert len(out) == 3

    def test_presets_are_loadable(self):
        from dgs_opt.cli import _load_run_config, list_presets

        for name in list_presets():
            cfg = _load_run_config(name)
            assert cfg.trials == 20
            assert cfg.sigma_grid[0] == 0.01 and cfg.sigma_grid[-1] == 50.0

    def test_seed_override_changes_results(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(sigma_grid=[1.0], trials=1, max_iterations=5)))
        cli_main(["run", str(cfg_path), "--out", str(tmp_path / "a")])
        cli_main(["run", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "7"])
        assert (tmp_path / "a" / "summary.csv").read_text() != (
            tmp_path / "b" / "summary.csv"
        ).read_text()

    @pytest.mark.parametrize(
        "args",
        [
            ["--sigma", "-1"],
            ["--n", "0"],
            ["--model", "bandlimited", "--alpha", "0"],
            ["--model", "diminishing", "--tau", "3"],
            ["--model", "diminishing", "--dist", "-1"],
            ["--order", "600"],
            ["--order", "0"],
            ["--L", "1e200", "--tau", "1e200"],
            ["--model", "diminishing", "--beta", "1e200"],
            ["--model", "bandlimited", "--sigma", "1e-300"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_bounds_bad_value_is_one_error_line(self, args, capsys):
        model = [] if "--model" in args else ["--model", "periodic"]
        assert cli_main(["bounds", *model, *args]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["--model", "bandlimited", "--L", "2", "--tau", "2", "--gamma", "1",
         "--alpha", "0.4010453259925992"],
        ["--model", "periodic", "--L", "3", "--tau", "2", "--gamma", "1.7",
         "--alpha", "0.6239177481057773"],
        ["--model", "periodic", "--order", "50"],
        ["--model", "periodic", "--order", "64"],
    ], ids=["bandlimited-above-threshold", "periodic-above-threshold", "order-50", "order-64"])
    def test_bounds_at_an_edge_prints_values(self, args, capsys):
        # just above a branch threshold, and at orders whose factorials
        # overflow a float
        assert cli_main(["bounds", *args]) == 0
        captured = capsys.readouterr()
        assert "recommended_sigma" in captured.out and captured.err == ""

    def test_bounds_prints_values(self, capsys):
        assert cli_main(["bounds", "--model", "periodic", "--alpha", "1", "--sigma", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "noise_gradient_bound" in out and "recommended_sigma" in out

    @pytest.mark.parametrize("beta,rate,holds", [("0.001", "0.9814662854", True),
                                                 ("0.01", "1.095913105", False)])
    def test_bounds_diminishing_prints_the_rate_and_whether_it_is_below_one(
            self, beta, rate, holds, capsys):
        assert cli_main(["bounds", "--model", "diminishing", "--beta", beta]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"per_step_rate        = {rate}", f"beta_condition_holds = {holds}"]
