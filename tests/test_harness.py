import concurrent.futures
import copy
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import plain_bandlimited
from dgs_opt import (
    ConfigError,
    ExperimentConfig,
    OutputError,
    TrialRecord,
    build_gh_rule,
    emit_csv,
    emit_plot,
    identity_basis,
    load_config,
    mix_seed,
    parse_config,
    power_sum_sqrt_objective,
    render_plot,
    run_experiment,
    run_trial,
    sample_bandlimited,
)
from dgs_opt import harness, plotting, smoothing
from dgs_opt import noise as noise_mod
from dgs_opt.cli import build_parser, main as cli_main
from dgs_opt.harness import (SUMMARY_HEADER, TRACE_HEADER, PlotData, SweepSummary, read_sweep,
                             write_trace_csv)


def _record_bytes(record: TrialRecord) -> list:
    """A record's fields, each array as its bytes."""
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(record).values()]


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


# One section of each kind in each of harness's kind tables, with only the
# required fields, but for a noise's frequency, which sets its wavelength.
_KIND_SECTIONS = {
    ("objective", "power-sum-sqrt"): {"box": [-1, 1]},
    ("objective", "quadratic"): {"box": [-1, 1]},
    ("noise", "periodic"): {"alpha": 2.0},
    ("noise", "bandlimited"): {"alpha0": 4.0},
    ("noise", "diminishing"): {"carrier_frequency": 0.5},
    ("noise", "none"): {},
    ("schedule", "constant"): {},
    ("schedule", "two-phase-decay"): {},
    ("schedule", "theorem3"): {"beta": 1e-4, "L": 2.0, "tau": 2.0, "r0_tilde": 1.0},
    ("basis", "identity"): None,
    ("basis", "random"): None,
}
_KIND_TABLES = {"objective": harness._OBJECTIVE_KINDS, "noise": harness._NOISE_KINDS,
                "schedule": harness._SCHEDULE_KINDS, "basis": harness._BASES}
_WAVELENGTHS = {"periodic": 1 / 2.0, "bandlimited": 1 / 4.0, "diminishing": 1 / 0.5, "none": 1.0}


def _kind_doc(section, kind):
    fields = _KIND_SECTIONS[section, kind]
    return base_doc(**{section: kind if fields is None else {"kind": kind, **fields}})


class TestConfigKinds:
    def test_every_kind_of_every_table_is_tested(self):
        assert set(_KIND_SECTIONS) == {
            (section, kind) for section, table in _KIND_TABLES.items() for kind in table}

    @pytest.mark.parametrize("section,kind", list(_KIND_SECTIONS))
    def test_every_kind_builds_from_a_minimal_config(self, section, kind):
        config = parse_config(_kind_doc(section, kind))
        assert getattr(config, section if section == "basis" else f"{section}_kind") == kind
        record = run_trial(config, 1, 0)
        assert record.status == "ok" and len(record.iterates) == config.max_iterations + 1
        if section == "noise":
            assert config.wavelength == _WAVELENGTHS[kind]
            assert config.sigma_values == (0.5 * _WAVELENGTHS[kind], _WAVELENGTHS[kind])

    @pytest.mark.parametrize("section", list(_KIND_TABLES))
    def test_the_kinds_parsed_are_the_kinds_of_the_table(self, section):
        doc = base_doc(**{section: "cubic" if section == "basis" else {"kind": "cubic"}})
        with pytest.raises(ConfigError, match=re.escape(
                f"must be one of {'/'.join(_KIND_TABLES[section])}, got 'cubic'")):
            parse_config(doc)


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


# Every public dataclass with an array field, each from a factory.
_ARRAY_DATACLASSES = {
    "GHRule": lambda: build_gh_rule(5),
    "DirectionBasis": lambda: identity_basis(3),
    "BandlimitedNoise": lambda: sample_bandlimited(3, 1.0, 4, seed=0),
    "TrialRecord": lambda: run_trial(parse_config(base_doc(max_iterations=3)), 0, 0),
    "PlotData": lambda: PlotData((1.0,), np.zeros(1), [np.zeros(2)], [np.zeros(2)]),
    "SweepSummary": lambda: run_experiment(parse_config(base_doc(trials=1, max_iterations=3))),
    "Objective": lambda: harness.build_objective(parse_config(base_doc())),
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

    def test_a_sweep_draws_its_bandlimited_noise_once(self):
        # at --jobs 1 the six trials share the draw parse_config made to validate the noise
        cfg = parse_config(base_doc(noise={"kind": "bandlimited", "alpha0": 1.0},
                                    sigma_grid=[0.5, 1.0, 2.0], max_iterations=3))
        run_experiment(cfg, jobs=1)
        assert noise_mod.sample_bandlimited.cache_info().misses == 1

    def test_equal_configs_share_one_draw_and_one_node_build(self, monkeypatch):
        # a fresh parse of one doc, as a later sweep or a --jobs worker's
        # copy, finds the draw and the builder that the first one's trial made
        builds, gh_nodes = [], smoothing._gh_nodes
        monkeypatch.setattr(smoothing, "_gh_nodes", lambda *a: builds.append(a) or gh_nodes(*a))
        doc = base_doc(noise={"kind": "bandlimited", "alpha0": 1.0})
        for t in range(2):
            run_trial(parse_config(doc), 1, t)
        assert len(builds) == 1 and noise_mod.sample_bandlimited.cache_info().misses == 1

    def test_a_noise_changed_in_place_after_a_trial_is_the_next_trial_s_noise(self):
        # run_trial builds from the config's values as they are at the call
        cfg = parse_config(base_doc())
        run_trial(cfg, 0, 0)
        cfg.noise_params["alpha"] = 3.0
        fresh = parse_config(base_doc(noise={"kind": "periodic", "alpha": 3.0}))
        assert _record_bytes(run_trial(cfg, 0, 0)) == _record_bytes(run_trial(fresh, 0, 0))

    @pytest.mark.parametrize("basis", ["identity", "random"])
    @pytest.mark.parametrize("schedule", [
        {"kind": "constant"},
        {"kind": "two-phase-decay", "switch_iteration": 3, "contraction": 0.9},
    ], ids=["constant", "two-phase"])
    def test_a_trial_has_the_same_bytes_whatever_the_caches_hold(self, schedule, basis):
        # from empty caches; again; after the other trial at its grid point,
        # which built the same radii; and after another config's trial
        cfg = parse_config(base_doc(noise={"kind": "bandlimited", "alpha0": 1.0},
                                    schedule=schedule, basis=basis, max_iterations=12))
        other = parse_config(base_doc(max_iterations=12))
        noise_mod.sample_bandlimited.cache_clear()  # the parse filled it
        smoothing._builder.cache_clear()
        cold = _record_bytes(run_trial(cfg, 1, 0))
        assert _record_bytes(run_trial(cfg, 1, 0)) == cold
        run_trial(cfg, 1, 1)
        assert _record_bytes(run_trial(cfg, 1, 0)) == cold
        run_trial(other, 1, 0)
        assert _record_bytes(run_trial(cfg, 1, 0)) == cold

    def test_threads_sharing_the_caches_get_each_trial_s_own_bytes(self):
        # the draw cache and the builder cache are replaced by whichever
        # thread misses last; each trial must still get its own objective and
        # nodes: more threads than cores, interleaving two configs' trials
        # with a short switch interval
        configs = [parse_config(base_doc(noise=noise, sigma_grid=[0.5, 1.0, 2.0],
                                         max_iterations=8))
                   for noise in ({"kind": "bandlimited", "alpha0": 1.0},
                                 {"kind": "periodic", "alpha": 2.0})]
        tasks = [(c, g, t) for g in range(3) for t in range(2) for c in configs] * 4

        def dump(task):
            record = run_trial(*task)
            return record.iterates.tobytes() + record.sigmas.tobytes()

        want = [dump(task) for task in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                got = list(pool.map(dump, tasks, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_bandlimited_csvs_match_the_plain_formula(self, tmp_path):
        # the estimates take the noise from its tables; the objective column
        # of the trace CSVs is still phi + the noise at each iterate, with
        # the bits of the bandlimited sum's defining formula
        cfg = parse_config(base_doc(noise={"kind": "bandlimited", "alpha0": 1.0},
                                    quadrature_order=12, sigma_grid=[0.1, 1.0]))
        run_experiment(cfg, out_dir=tmp_path)
        noise = harness._NOISE_KINDS["bandlimited"].build(cfg)
        phi = power_sum_sqrt_objective(cfg.dimension).evaluate
        for g in range(len(cfg.sigma_grid)):
            records = [run_trial(cfg, g, t) for t in range(cfg.trials)]
            for rec in records:
                rec.objective_values = phi(rec.iterates) + plain_bandlimited(noise, rec.iterates)
            write_trace_csv(records, tmp_path / "plain.csv")
            assert ((tmp_path / "plain.csv").read_bytes()
                    == (tmp_path / f"trace_grid{g:02d}.csv").read_bytes()), g


def _per_value_trace_csv(records) -> bytes:
    """The trace CSV as it was written one value at a time: each column
    formatted value by value and each row joined by an f-string. The
    reference for write_trace_csv's bytes."""
    def formatted(values):
        return list(map("%.17g".__mod__, np.asarray(values, dtype=float).tolist()))

    text = [TRACE_HEADER + "\n"]
    for trial, rec in enumerate(records):
        columns = map(formatted, (rec.sigmas, rec.distances,
                                  rec.objective_values, rec.cosine_similarities))
        text += (f"{trial},{t},{sigma},{dist},{objective},{cosine}\n"
                 for t, (sigma, dist, objective, cosine) in enumerate(zip(*columns)))
    return "".join(text).encode()


# float64 bit patterns the trace writer must print as the per-value writer
# did: any pattern, ordinary floats, and the edges drawn often: +-0.0,
# +-inf, 5e-324, the largest subnormal, 1.7976931348623157e308 and NaNs
# with either sign and several payloads, quiet and signalling.
_ZERO_AND_NAN_BITS = [0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000000,
                      0x7FF0000000000001, 0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF]
_EDGE_BITS = [*_ZERO_AND_NAN_BITS, 0x7FF0000000000000, 0xFFF0000000000000, 1,
              0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF]
_FLOAT64_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(_EDGE_BITS),
    st.floats(allow_nan=False).map(lambda x: int(np.float64(x).view(np.uint64))),
)


@st.composite
def _trace_records(draw):
    """Trials of unequal lengths at one grid point. Their sigma columns are
    prefixes of one shared column (constant, decaying, any bits, or only
    +-0.0 and NaNs), or each trial's own."""
    def column(n, bits=_FLOAT64_BITS):
        return np.array(draw(st.lists(bits, min_size=n, max_size=n)),
                        dtype=np.uint64).view(np.float64)

    lengths = draw(st.lists(st.integers(0, 12), max_size=4))
    longest = max(lengths, default=0)
    kind = draw(st.sampled_from(["constant", "decaying", "shared", "zeros-and-nans", "own"]))
    if kind == "constant":
        shared = np.full(longest, column(1)[0])
    elif kind == "decaying":
        sigma0 = draw(st.floats(1e-300, 1e300))
        contraction = draw(st.floats(0.5, 1.0))
        shared = np.array([sigma0 * contraction**t for t in range(longest)])
    else:
        shared = column(longest, st.sampled_from(_ZERO_AND_NAN_BITS)
                        if kind == "zeros-and-nans" else _FLOAT64_BITS)
    return [TrialRecord(iterates=np.zeros((n, 1)), distances=column(n),
                        objective_values=column(n), cosine_similarities=column(n),
                        sigmas=column(n) if kind == "own" else shared[:n],
                        iterations_run=n, status="ok")
            for n in lengths]


class TestTraceCsvBytes:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(records=_trace_records())
    def test_written_bytes_are_the_per_value_writers(self, records, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "trace-property.csv"
        write_trace_csv(records, path)
        assert path.read_bytes() == _per_value_trace_csv(records)

    @pytest.mark.parametrize("doc", [
        base_doc(),
        base_doc(sigma_grid=[0.5, 50.0], step_size=0.1),  # every trial at 50 diverges
        base_doc(objective={"kind": "quadratic", "dimension": 5, "box": [-5, 5]},
                 noise={"kind": "diminishing", "beta": 1e-4}, step_size=0.005,
                 max_iterations=2000, basis="random",
                 schedule={"kind": "theorem3", "beta": 1e-4, "L": 2.0, "tau": 2.0,
                           "r0_tilde": 1.0}),
    ], ids=["base", "diverged", "theorem3"])
    def test_sweep_records_are_written_as_the_per_value_writer_wrote_them(self, doc, tmp_path):
        config = parse_config(doc)
        for g in range(len(config.sigma_grid)):
            records = [run_trial(config, g, t) for t in range(config.trials)]
            write_trace_csv(records, tmp_path / "trace.csv")
            assert (tmp_path / "trace.csv").read_bytes() == _per_value_trace_csv(records)


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

    # Read-back files whose axis range cannot carry ticks, by the summary
    # rows, the trace_grid00.csv rows (None: no trace file), the kind, and
    # the reason the error gives. In "ulp-step" the cosine axis spans one
    # ulp of 1e16 (2.0), so a tick step of 0.5 would not advance.
    _NO_TICKS = {
        "ulp-step": (["1,1,0,1,1"], ["0,0,1,1,1,1e16", "0,1,1,1,1,1.0000000000000002e16"],
                     "cosine-vs-iteration", "the span is below float precision"),
        "linear-overflow": (["1,1,0,1,1"], ["0,0,1,1,1,1e308", "0,1,1,1,1,-1e308"],
                            "cosine-vs-iteration", "the span is beyond the float range"),
        "log-overflow": (["1,1,0,1,1"], ["0,0,1,1e305,1,1", "0,1,1,1.7e308,1,1"],
                         "convergence-curves", "a decade is beyond the float range"),
        "subnormal-sigma": (["5e-324,1,0,1,1"], None,
                            "final-dist-vs-sigma", "a decade is beyond the float range"),
    }

    @pytest.mark.parametrize("case", list(_NO_TICKS))
    def test_plot_range_without_float_ticks_is_one_error_line(self, case, tmp_path):
        # in a child process with a time and an address-space limit, so that
        # a tick loop that never ends fails the test rather than stalling it
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        summary, trace, kind, reason = self._NO_TICKS[case]
        (tmp_path / "summary.csv").write_text("\n".join([SUMMARY_HEADER, *summary]) + "\n")
        if trace is not None:
            (tmp_path / "trace_grid00.csv").write_text("\n".join([TRACE_HEADER, *trace]) + "\n")
        done = subprocess.run(
            [sys.executable, "-m", "dgs_opt.cli", "plot", str(tmp_path / "summary.csv"),
             "--kind", kind, "--out", str(tmp_path / "plot.svg")],
            capture_output=True, text=True, timeout=20, preexec_fn=limit_memory,
            env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])})
        assert done.returncode == 1, done.stderr
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot place "), done.stderr
        assert err[0].endswith(reason)
        assert not (tmp_path / "plot.svg").exists()

    @pytest.mark.parametrize("case", ["blank-lines", "no-final-newline", "crlf", "header-only",
                                      "blank-lines-then-bad-value", "non-utf8-last-row"])
    def test_plot_reads_an_irregular_trace_csv_as_its_lines_say(self, case, tmp_path, capsys):
        # blank and whitespace-only lines are skipped, a header-only file has
        # no rows, a bad value is named by its row among the non-blank ones
        # and an undecodable byte anywhere is "cannot read"; no case warns
        def plot(data):
            """Exit code and SVG bytes or standard error of a plot of the
            sweep with ``data`` as its trace_grid00.csv (None: no such file)."""
            if data is None:
                path.unlink()
            else:
                path.write_bytes(data)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # as outside pytest
                code = cli_main(["plot", str(tmp_path / "summary.csv"), "--kind",
                                 "convergence-curves", "--out", str(tmp_path / "plot.svg")])
            assert caught == []
            err = capsys.readouterr().err
            return code, err if code else (tmp_path / "plot.svg").read_bytes()

        _write_sweep("base", tmp_path)
        path = tmp_path / "trace_grid00.csv"
        text = path.read_bytes()
        header, *rows = text.splitlines()
        cells = rows[2].split(b",")
        cells[3] = b"abc"  # the dist of the third row
        bad = [*rows[:2], b",".join(cells), *rows[3:]]
        blank = [header, b"", rows[0], b"   ", b"\t", *rows[1:], b" "]
        blank_bad = [header, b"", b" ", *bad[:2], b"\t", *bad[2:]]
        irregular, regular = {
            "blank-lines": (b"\n".join(blank) + b"\n", text),
            "no-final-newline": (text[:-1], text),
            "crlf": (text.replace(b"\n", b"\r\n"), text),
            "header-only": (header + b"\n", None),
            "blank-lines-then-bad-value": (b"\n".join(blank_bad) + b"\n",
                                           b"\n".join([header, *bad]) + b"\n"),
            "non-utf8-last-row": (text[:-3] + b"\xff" + text[-2:], None),
        }[case]
        if case == "non-utf8-last-row":
            path.write_bytes(irregular)
            with pytest.raises(UnicodeDecodeError) as decode, open(path) as fh:
                fh.readline()  # the lines' reader: a header line, then the rest
                fh.read()
            want = (1, f"error: cannot read trace CSV {path}: {decode.value}\n")
        else:
            want = plot(regular)
        assert plot(irregular) == want

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli_main(["run", str(path)]) == 1

    def test_undecodable_config_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(json.dumps(base_doc()).encode()[:-1] + b"\xff}")
        assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot read config {path}: ")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "o").exists()

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
            {"objective": {"kind": "power-sum-sqrt", "dimension": 3, "box": [-math.inf, 0]}},
            {"objective": {"kind": "power-sum-sqrt", "dimension": 3, "box": [-1e308, 1e308]}},
            {"noise": {"kind": "periodic", "alpha": 1.0, "amplitude": math.nan}},
            {"step_size": math.inf},
            {"noise": {"kind": "diminishing", "beta": math.inf}},
            {"sigma_grid": [1e-15, 1.0]},
            {"sigma_grid": [1e-15, 1.0], "schedule": {"kind": "two-phase-decay"}},
            {"schedule": {"kind": "theorem3", "beta": 1e-4, "L": 2.0, "tau": 2.0,
                          "r0_tilde": 1e-12}},
        ],
        ids=[
            "order-0", "order-65", "trials-abc", "beta-negative", "contraction-1.5",
            "sigma-grid-x", "box-ab", "step-size-null", "seed-x", "components-0",
            "switch-negative", "L-below-tau", "theorem3-beta-0", "carrier-0",
            "noise-not-object", "output-dir-int", "dimension-inf", "trials-inf",
            "max-iterations-inf", "seed-inf", "alpha0-inf", "theorem3-overflow",
            "theorem3-rho-above-1", "schedule-kind-linear", "sigma-grid-inf",
            "sigma-overflow", "sigma-grid-string", "box-string", "trials-2.7", "order-5.5",
            "step-size-true", "box-minus-inf", "box-width-overflows", "amplitude-nan",
            "step-size-inf", "beta-inf", "constant-below-floor", "two-phase-below-floor",
            "theorem3-below-floor",
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

    @pytest.mark.parametrize("noise", [{"kind": "none"}, {"kind": "periodic", "alpha": 1.0}],
                             ids=["none", "periodic"])
    def test_dimension_too_large_to_allocate_is_one_error_line(self, noise, tmp_path, capsys):
        # the identity basis of 10**7 dimensions is 728 TiB, which numpy
        # refuses at once
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(
            objective={"kind": "quadratic", "dimension": 10**7, "box": [-5, 5]}, noise=noise)))
        assert cli_main(["run", str(cfg_path), "--jobs", "1", "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), captured.err
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

    @pytest.mark.parametrize("objective,noise", [
        ("power-sum-sqrt", {"kind": "periodic", "alpha": 1.0}),
        ("quadratic", {"kind": "none"}),
        ("power-sum-sqrt", {"kind": "bandlimited", "alpha0": 1.0}),
        ("quadratic", {"kind": "diminishing"}),
    ])
    def test_a_box_near_the_float_limit_runs_without_a_warning(self, objective, noise,
                                                               tmp_path, capsys):
        # phi's power or square at the first estimate's nodes printed numpy's
        # "overflow encountered in ..." before the trials ended diverged; the
        # sine sum's cosines and sines of inf phases, and inf plus -inf in
        # the diminishing noise, printed "invalid value encountered in ..."
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_doc(
            objective={"kind": objective, "dimension": 3, "box": [1e307, 1.5e307]},
            noise=noise, sigma_grid=[0.5], max_iterations=5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert "sigma=0.5: all 2 trials diverged" in captured.out
        assert "Warning" not in captured.out + captured.err

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
            ["--L", "1e200", "--tau", "1e-200"],
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

    # each names every option its infinite rows read: the line named --sigma
    # and --alpha alone, and a row that raised named none
    @pytest.mark.parametrize("model,args,message", [
        ("bandlimited", ["--sigma", "1e-170"],
         "noise_gradient_bound = inf at --sigma 1e-170, --d 5, --alpha 1.0, --gamma 1.0"),
        ("periodic", ["--sigma", "1e-170"],  # the n = 1 bound is finite there
         "delta_sigma = inf at --sigma 1e-170, --d 5, --L 2.0, --tau 2.0, --alpha 1.0, "
         "--gamma 1.0, --order 5"),
        ("periodic", ["--gamma", "1e200"],
         "delta_sigma = inf at --sigma 0.5, --d 5, --L 2.0, --tau 2.0, --alpha 1.0, "
         "--gamma 1e+200, --order 5"),
        ("periodic", ["--n", "3", "--alpha", "1e-200"],
         "noise_gradient_bound, delta_sigma = inf at --sigma 0.5, --d 5, --L 2.0, --tau 2.0, "
         "--alpha 1e-200, --gamma 1.0, --n 3, --order 5"),
        ("diminishing", ["--dist", "1e200"],
         "noise_gradient_bound = inf at --sigma 0.5, --d 5, --beta 0.001, --dist 1e+200"),
        ("diminishing", ["--beta", "1e200"],
         "per_step_rate = inf at --d 5, --L 2.0, --tau 2.0, --beta 1e+200"),
        ("periodic", ["--sigma", "1e100"],  # sigma^(4M - 2) raised "math range error"
         "delta_sigma = inf at --sigma 1e+100, --d 5, --L 2.0, --tau 2.0, --alpha 1.0, "
         "--gamma 1.0, --order 5"),
    ], ids=["bandlimited", "periodic", "periodic-huge-gamma", "periodic-n3-tiny-alpha",
            "diminishing-huge-dist", "diminishing-huge-beta", "periodic-huge-sigma"])
    def test_bounds_that_diverge_are_one_error_line_naming_the_options(self, model, args,
                                                                         message, capsys):
        assert cli_main(["bounds", "--model", model, *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: bad bounds arguments: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize("model,args,line", [
        ("bandlimited", ["--gamma", "1e308"], "noise_gradient_bound = 2.047565276e+306"),
        ("periodic", ["--L", "1e200", "--tau", "1e200"], "delta_sigma          = 255"),
        ("diminishing", ["--L", "1e200", "--tau", "1"], "per_step_rate        = 1.023936537"),
    ], ids=["bandlimited-huge-gamma", "periodic-huge-L-tau", "diminishing-huge-L"])
    def test_bounds_finite_beyond_an_overflowing_intermediate_print(self, model, args, line,
                                                                   capsys):
        # gamma sqrt(d) overflowed to inf, tau^2 raised OverflowError, and L^2
        # overflowed to a rate of inf
        assert cli_main(["bounds", "--model", model, *args]) == 0
        captured = capsys.readouterr()
        assert line in captured.out.splitlines() and captured.err == ""

    def test_bounds_at_a_huge_alpha_print_the_limits(self, capsys):
        # alpha**2 raised OverflowError
        assert cli_main(["bounds", "--model", "periodic", "--alpha", "1e200"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "noise_gradient_bound = 0", "delta_sigma          = 255"]

    # every float option of `dgs-opt bounds`, with a model that reads it
    _BOUNDS_FLOATS = {"--sigma": "periodic", "--L": "periodic", "--tau": "periodic",
                      "--alpha": "periodic", "--gamma": "bandlimited", "--beta": "diminishing",
                      "--dist": "diminishing"}

    def test_bounds_float_options_are_the_ones_tested(self):
        args = build_parser().parse_args(["bounds", "--model", "periodic"])
        assert {f"--{name}" for name, value in vars(args).items()
                if isinstance(value, float)} == set(self._BOUNDS_FLOATS)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("option", list(_BOUNDS_FLOATS))
    def test_bounds_non_finite_value_is_one_error_line_naming_it(self, option, value, capsys):
        # `--model periodic --alpha inf` printed delta_sigma = 255 and
        # recommended_sigma = nan, and exited 0
        model = self._BOUNDS_FLOATS[option]
        assert cli_main(["bounds", "--model", model, f"{option}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: dgs-opt bounds: argument {option}: must be a finite number, got {value!r}"]
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
