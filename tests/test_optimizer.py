import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import dgs_opt
from dgs_opt import (
    ConvexityConstants,
    EvaluationError,
    Objective,
    PeriodicNoise,
    RunConfig,
    SigmaSchedule,
    build_gh_rule,
    dgs_gradient,
    diminishing_rate,
    identity_basis,
    power_sum_sqrt_objective,
    quadratic_objective,
    random_orthonormal_basis,
    run,
    sample_bandlimited,
    sigma_at,
    theorem3_schedule,
)
from dgs_opt.optimizer import DIVERGENCE_NORM, SIGMA_FLOOR
from dgs_opt.smoothing import _gh_nodes


def make_run_config(objective, sigma0=0.5, schedule=None, seed=42, **kwargs):
    d = objective.dimension
    defaults = dict(
        objective=objective,
        rule=build_gh_rule(5),
        basis=identity_basis(d),
        step_size=0.01,
        max_iterations=50,
        schedule=schedule or SigmaSchedule(sigma0),
        initial_point=np.random.default_rng(seed).uniform(-5.0, 5.0, size=d),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestSchedules:
    def test_constant(self):
        sched = SigmaSchedule(0.7)
        assert sigma_at(sched, 0) == 0.7
        assert sigma_at(sched, 10_000) == 0.7

    def test_two_phase_decay(self):
        sched = SigmaSchedule(1.0, switch_iteration=100, contraction=0.99)
        assert sigma_at(sched, 0) == 1.0
        assert sigma_at(sched, 99) == 1.0
        np.testing.assert_allclose(sigma_at(sched, 100), 1.0)
        np.testing.assert_allclose(sigma_at(sched, 150), 0.99**50)

    def test_theorem3_is_positive_and_geometric(self):
        sched = theorem3_schedule(beta=0.001, L=2.0, tau=2.0, r0_tilde=1.0, dimension=5)
        vals = [sigma_at(sched, t) for t in range(0, 400, 100)]
        assert all(v > 0 for v in vals)
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert ratios[0] < 1.0

    def test_theorem3_contraction_is_root_of_rate(self):
        sched = theorem3_schedule(beta=1e-4, L=2.0, tau=1.5, r0_tilde=1.0, dimension=3)
        rho = diminishing_rate(ConvexityConstants(L=2.0, tau=1.5), 1e-4, 3)
        assert sched.switch_iteration == 0
        assert sched.contraction == math.sqrt(rho)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(sigma0=0.0), dict(sigma0=1e-15), dict(sigma0=1.0, contraction=0.0),
         dict(sigma0=1.0, contraction=1.5), dict(sigma0=1.0, switch_iteration=-1)],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SigmaSchedule(**kwargs)

    @pytest.mark.parametrize("sigma0", [math.inf, math.nan])
    def test_infinite_or_nan_radius_rejected(self, sigma0):
        # an infinite radius was accepted, and run then warned and reported
        # diverged after 0 steps, which blames the objective
        with pytest.raises(ValueError, match="sigma0 must be finite"):
            SigmaSchedule(sigma0)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            sigma_at(SigmaSchedule(1.0), -1)

    @pytest.mark.parametrize("switch", [2.5, 3.0, True, "3"])
    def test_switch_iteration_not_an_integer_rejected(self, switch):
        # 2.5 was accepted, and sigma_at(..., 3) then returned 0.5 ** 0.5
        with pytest.raises(ValueError, match="switch_iteration must be a nonnegative integer"):
            SigmaSchedule(1.0, switch_iteration=switch, contraction=0.5)

    def test_numpy_integer_switch_accepted(self):
        assert sigma_at(SigmaSchedule(1.0, np.int64(2), 0.5), 3) == 0.5

    def test_float32_parameters_are_stored_as_python_floats(self):
        # a float32 radius made every radius, step and record column float32
        sched = SigmaSchedule(np.float32(0.5), 2, np.float32(0.75))
        assert type(sched.sigma0) is float and type(sched.contraction) is float
        assert sigma_at(sched, 4) == 0.5 * 0.75**2
        f = quadratic_objective(3)
        got = run(make_run_config(f, schedule=sched))
        want = run(make_run_config(f, schedule=SigmaSchedule(0.5, 2, 0.75)))
        assert got.sigmas.dtype == got.iterates.dtype == np.float64
        assert got.sigmas.tobytes() == want.sigmas.tobytes()
        assert got.iterates.tobytes() == want.iterates.tobytes()


def _old_sigma(kind, t, sigma0=1.0, switch=0, c=1.0, beta=1.0, L=2.0, tau=2.0, r0=1.0, d=5):
    """The per-kind radius formulas the schedule kinds were written with."""
    if kind == "constant":
        return sigma0
    if kind == "two-phase-decay":
        return sigma0 if t < switch else sigma0 * c ** (t - switch)
    rho = diminishing_rate(ConvexityConstants(L=L, tau=tau), beta, d)
    scale = np.sqrt(beta) / (8.0 * L**2 * np.pi + 4.0 * beta**2) ** 0.25
    return float(scale * rho ** (t / 2.0) * r0)


@pytest.mark.parametrize("sigma0,switch,c", [(0.7, 0, 1.0), (2.5, 0, 1.0), (1.0, 100, 0.99),
                                             (0.3, 5000, 0.999), (1e-3, 0, 0.5)])
def test_law_matches_constant_and_two_phase_bit_for_bit(sigma0, switch, c):
    kind = "constant" if c == 1.0 else "two-phase-decay"
    sched = SigmaSchedule(sigma0, switch, c)
    for t in range(20_001):
        assert sigma_at(sched, t) == _old_sigma(kind, t, sigma0, switch, c)


@pytest.mark.parametrize("beta", [1e-4, 1e-3])
@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("r0", [1.0, 0.7])
@pytest.mark.parametrize("tau", [2.0, 1.5])
def test_law_matches_theorem3_to_rounding(beta, d, r0, tau):
    sched = theorem3_schedule(beta=beta, L=2.0, tau=tau, r0_tilde=r0, dimension=d)
    got = np.array([sigma_at(sched, t) for t in range(5001)])
    want = np.array([_old_sigma("theorem3", t, beta=beta, tau=tau, r0=r0, d=d)
                     for t in range(5001)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_every_exported_name_resolves():
    for name in dgs_opt.__all__:
        assert getattr(dgs_opt, name) is not None, name
    # __all__ lists each name the package imports from its modules, once
    tree = ast.parse(Path(dgs_opt.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert len(dgs_opt.__all__) == len(set(dgs_opt.__all__))
    assert sorted(dgs_opt.__all__) == sorted(imported)


class TestGdStep:
    def test_matches_explicit_update(self):
        x = np.array([1.0, -2.0, 0.5])
        rec = run(make_run_config(quadratic_objective(3), rule=build_gh_rule(4),
                                  step_size=0.1, max_iterations=1, initial_point=x))
        # estimator is exact on quadratics, so this is plain gradient descent
        np.testing.assert_allclose(rec.iterates[1], x - 0.1 * 2.0 * x, atol=1e-10)


class TestRun:
    def test_deterministic_given_seed(self):
        cfg = make_run_config(quadratic_objective(4))
        a, b = run(cfg), run(cfg)
        np.testing.assert_array_equal(a.iterates, b.iterates)
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_different_seeds_differ(self):
        f = quadratic_objective(4)
        a = run(make_run_config(f, seed=1))
        b = run(make_run_config(f, seed=2))
        assert not np.array_equal(a.iterates[0], b.iterates[0])

    def test_record_shapes_consistent(self):
        rec = run(make_run_config(quadratic_objective(3), max_iterations=20))
        n = len(rec.iterates)
        assert n == 21
        assert rec.iterations_run == 20
        for arr in (rec.distances, rec.objective_values, rec.cosine_similarities, rec.sigmas):
            assert len(arr) == n
        assert np.isnan(rec.cosine_similarities[-1])

    def test_converges_on_quadratic(self):
        rec = run(make_run_config(quadratic_objective(5), max_iterations=500, step_size=0.1))
        assert rec.status == "ok"
        assert rec.final_distance < 1e-8
        assert np.all(np.diff(rec.distances) <= 1e-12)

    def test_cosine_similarity_near_one_on_quadratic(self):
        rec = run(make_run_config(quadratic_objective(5), max_iterations=10))
        np.testing.assert_allclose(rec.cosine_similarities[:-1], 1.0, atol=1e-9)

    def test_evaluation_count(self):
        rec = run(make_run_config(quadratic_objective(3), max_iterations=20))
        assert rec.evaluation_count == 20 * 5 * 3  # steps * order * d

    def test_divergence_detected(self):
        rec = run(
            make_run_config(quadratic_objective(2), step_size=10.0, max_iterations=200)
        )
        assert rec.status == "diverged"
        assert rec.iterations_run < 200
        assert np.all(np.isfinite(rec.iterates))

    def test_sigma_floor_stops_run(self):
        sched = SigmaSchedule(1e-13, switch_iteration=0, contraction=0.5)
        rec = run(
            make_run_config(quadratic_objective(2), sigma0=1e-13, schedule=sched,
                            max_iterations=1000)
        )
        assert rec.status == "ok"
        assert rec.iterations_run < 10
        assert sigma_at(sched, rec.iterations_run) < SIGMA_FLOOR

    def test_explicit_initial_point(self):
        x0 = np.array([1.0, 2.0, 3.0])
        rec = run(make_run_config(quadratic_objective(3), initial_point=x0))
        np.testing.assert_array_equal(rec.iterates[0], x0)

    @pytest.mark.parametrize("step_size", [math.inf, math.nan, 0.0, -0.1])
    def test_step_size_not_positive_and_finite_rejected(self, step_size):
        # an infinite step size was accepted, and run then reported diverged
        # after 1 step
        with pytest.raises(ValueError, match="step_size must be positive and finite"):
            make_run_config(quadratic_objective(3), step_size=step_size)

    @pytest.mark.parametrize("max_iterations", [2.5, 3.0, True, "3"])
    def test_max_iterations_not_an_integer_rejected(self, max_iterations):
        # 2.5 was accepted, and run then raised TypeError from range()
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            make_run_config(quadratic_objective(3), max_iterations=max_iterations)

    def test_numpy_integer_max_iterations_accepted(self):
        rec = run(make_run_config(quadratic_objective(3), max_iterations=np.int64(3)))
        assert rec.iterations_run == 3

    def test_initial_point_shape_validated(self):
        with pytest.raises(ValueError):
            run(make_run_config(quadratic_objective(3), initial_point=np.zeros(2)))

    def test_basis_of_another_dimension_is_rejected_before_a_step(self):
        # (M, 1) offsets would broadcast against a 3-D point and move every
        # coordinate by one derivative
        config = make_run_config(quadratic_objective(3), basis=identity_basis(1))
        with pytest.raises(ValueError, match=r"basis \(1, 1\) is not 3-dimensional"):
            run(config)


def _concave_capped(d):
    """-|x|^2, minus infinity outside the cube |x_i| <= 6: descent walks out of
    the cube until an estimator evaluation lands beyond it."""

    def evaluate(points):
        p = np.asarray(points, dtype=float)
        return np.where(np.abs(p).max(axis=-1) > 6.0, -np.inf, -(p**2).sum(axis=-1))

    return Objective(dimension=d, evaluate=evaluate, true_gradient=lambda x: -2.0 * x)


_STOPS = {
    "full-length": dict(objective=quadratic_objective(3), max_iterations=20),
    "sigma-floor": dict(
        objective=quadratic_objective(2),
        sigma0=1e-13,
        schedule=SigmaSchedule(1e-13, switch_iteration=0, contraction=0.5),
        max_iterations=1000,
    ),
    "norm-blowup": dict(objective=quadratic_objective(2), step_size=10.0, max_iterations=200),
    "nonfinite-eval": dict(
        objective=_concave_capped(3), initial_point=np.ones(3), step_size=0.1,
        max_iterations=200,
    ),
}


@pytest.mark.parametrize("stop", list(_STOPS))
def test_stop_semantics(stop):
    cfg = make_run_config(**_STOPS[stop])
    rec = run(cfg)
    assert rec.status == ("diverged" if stop in ("norm-blowup", "nonfinite-eval") else "ok")
    assert 0 < rec.iterations_run <= cfg.max_iterations
    if stop == "full-length":
        assert rec.iterations_run == cfg.max_iterations
    else:
        assert rec.iterations_run < cfg.max_iterations
    # a blown-up step is counted but its iterate is not recorded
    rows = rec.iterations_run + (0 if stop == "norm-blowup" else 1)
    assert len(rec.iterates) == rows
    for arr in (rec.distances, rec.objective_values, rec.cosine_similarities, rec.sigmas):
        assert len(arr) == rows
    assert list(rec.sigmas) == [sigma_at(cfg.schedule, t) for t in range(rows)]
    if stop == "sigma-floor":
        assert rec.sigmas[-1] < SIGMA_FLOOR
    assert np.isnan(rec.cosine_similarities[-1])
    d = cfg.objective.dimension
    assert rec.evaluation_count == rec.iterations_run * cfg.rule.order * d
    assert np.all(np.isfinite(rec.iterates))
    minimizer = cfg.objective.minimizer
    if minimizer is None:
        assert np.all(np.isnan(rec.distances))
    else:  # bit for bit, as the per-row norm the trace CSVs were written with
        want = [np.linalg.norm(x - minimizer) for x in rec.iterates]
        np.testing.assert_array_equal(rec.distances, want)
    _assert_per_step_columns(cfg, rec)


def _assert_per_step_columns(cfg, rec):
    """The objective and cosine columns, computed after the loop from the
    stacked iterates, equal their per-step definitions bit for bit."""
    f = cfg.objective
    np.testing.assert_array_equal(rec.objective_values,
                                  [float(f.evaluate(x)) for x in rec.iterates])
    want = []
    for x, sigma in zip(rec.iterates[:-1], rec.sigmas):
        e = dgs_gradient(f, x, sigma, cfg.rule, cfg.basis)
        g = f.true_gradient(x)
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN at a zero norm
            want.append(np.dot(e, g) / (np.linalg.norm(e) * np.linalg.norm(g)))
    np.testing.assert_array_equal(rec.cosine_similarities[:-1], want)


def test_cosine_is_nan_where_the_true_gradient_is_zero():
    cfg = make_run_config(power_sum_sqrt_objective(3), initial_point=np.zeros(3),
                          max_iterations=20)
    rec = run(cfg)
    assert rec.status == "ok" and rec.iterations_run == 20
    assert np.isnan(rec.cosine_similarities[0])
    _assert_per_step_columns(cfg, rec)


def test_loop_records_no_column_per_step():
    # the objective and cosine columns take one batched call each per trial,
    # so the step loop evaluates only through the estimator
    calls = {"evaluate": 0, "true_gradient": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    f = quadratic_objective(3)
    f.evaluate = counted("evaluate", f.evaluate)
    f.true_gradient = counted("true_gradient", f.true_gradient)
    rec = run(make_run_config(f, max_iterations=30))
    assert rec.iterations_run == 30
    assert calls == {"evaluate": 30 + 1, "true_gradient": 1}


def test_evaluate_is_called_once_per_step_also_on_the_step_that_raises():
    # a step evaluates its node set once; its finiteness test scans the
    # values it already holds, so the step that raises makes no second call
    calls = []
    f = _concave_capped(3)
    evaluate = f.evaluate
    f.evaluate = lambda points: calls.append(len(points)) or evaluate(points)
    rec = run(make_run_config(f, initial_point=np.ones(3), step_size=0.1, max_iterations=200))
    assert rec.status == "diverged" and rec.iterations_run < 200
    # each step taken, the step that raised, then the objective column
    assert calls == [5 * 3] * (rec.iterations_run + 1) + [rec.iterations_run + 1]


def _reference_steps(cfg):
    """run's step loop with a dgs_gradient call every step: (iterates,
    sigmas, steps taken, status)."""
    f = cfg.objective
    x = np.array(cfg.initial_point, dtype=float)
    iterates, sigmas = [x], []
    for t in range(cfg.max_iterations + 1):
        sigma = sigma_at(cfg.schedule, t)
        sigmas.append(sigma)
        if t == cfg.max_iterations or sigma < SIGMA_FLOOR:
            return iterates, sigmas, t, "ok"
        try:
            estimate = dgs_gradient(f, x, sigma, cfg.rule, cfg.basis)
        except EvaluationError:
            return iterates, sigmas, t, "diverged"
        x = x - cfg.step_size * estimate
        if not np.linalg.norm(x) <= DIVERGENCE_NORM:
            return iterates, sigmas, t + 1, "diverged"
        iterates.append(x)


_NOISES = {
    "bandlimited": lambda: sample_bandlimited(5, 1.0, 20, seed=8),
    # amplitude 1.0 skips the product with the amplitude, 2.5 makes it
    "periodic-amplitude-1": lambda: PeriodicNoise(1.0),
    "periodic-amplitude-2.5": lambda: PeriodicNoise(1.0, amplitude=2.5),
}
_BASIS_NOISE = [(basis, noise) for noise in _NOISES for basis in ("identity", "random")]


@pytest.mark.parametrize("basis,noise", _BASIS_NOISE, ids=[
    basis if noise == "bandlimited" else f"{basis}-{noise}" for basis, noise in _BASIS_NOISE])
@pytest.mark.parametrize("schedule", [
    SigmaSchedule(0.3),
    SigmaSchedule(0.3, switch_iteration=15, contraction=0.9),
    theorem3_schedule(beta=1e-4, L=2.0, tau=2.0, r0_tilde=1.0, dimension=5),
], ids=["constant", "two-phase", "theorem3"])
def test_run_reuses_node_offsets_per_radius_without_moving_a_bit(schedule, basis, noise):
    # run builds a radius's node offsets only when the radius changes
    f = power_sum_sqrt_objective(5, noise=_NOISES[noise]())
    cfg = make_run_config(
        f, schedule=schedule, rule=build_gh_rule(7), max_iterations=40,
        basis=identity_basis(5) if basis == "identity" else random_orthonormal_basis(5, 3))
    rec = run(cfg)
    iterates, sigmas, steps, status = _reference_steps(cfg)
    assert rec.iterates.tobytes() == np.array(iterates).tobytes()
    assert rec.sigmas.tobytes() == np.array(sigmas).tobytes()
    assert (rec.iterations_run, rec.status) == (steps, status)
    _assert_per_step_columns(cfg, rec)


_SIGNED_ZERO_CASES = {
    # M = 1: the one node has coefficient 0, and F < 0 near the start, so
    # each term F * 0 is -0.0 (einsum sums them from +0.0)
    "order-1-negative-objective": (
        lambda x: np.add.reduce(np.asarray(x) ** 2, -1) - 1.0, 1, 0.5),
    # F = -1e-30 at each + node and 0 at each - node: each derivative is a
    # negative sum times a factor of 8e-301, which underflows to -0.0
    "underflowed-derivatives": (
        lambda x: np.where(np.add.reduce(np.asarray(x), -1) > 0, -1e-30, 0.0), 2, 1e300),
}


@pytest.mark.parametrize("case", list(_SIGNED_ZERO_CASES))
def test_zero_estimate_from_a_minus_zero_start_keeps_the_basis_product_bits(case):
    # the product with the identity basis gives +0.0 for a zero derivative,
    # and x - step * (+0.0) keeps x's -0.0; a -0.0 estimate would step each
    # -0.0 coordinate to +0.0
    evaluate, order, sigma0 = _SIGNED_ZERO_CASES[case]
    d = 3
    cfg = make_run_config(Objective(dimension=d, evaluate=evaluate), sigma0=sigma0,
                          rule=build_gh_rule(order), initial_point=np.full(d, -0.0),
                          max_iterations=5)
    if case == "underflowed-derivatives":
        offsets, coefficients, scale = _gh_nodes(cfg.basis.columns, cfg.rule)([sigma0])[0][:3]
        values = evaluate(cfg.initial_point + offsets).reshape(d, order)
        derivatives = np.einsum("km,m->k", values, coefficients) * scale
        assert np.signbit(derivatives).all() and not derivatives.any()
    rec = run(cfg)
    assert (rec.iterations_run, rec.status) == (5, "ok")
    assert rec.iterates.tobytes() == np.full((6, d), -0.0).tobytes()
    iterates, sigmas, steps, status = _reference_steps(cfg)
    assert rec.iterates.tobytes() == np.array(iterates).tobytes()
    assert (steps, status) == (5, "ok")


_THEOREM3 = theorem3_schedule(beta=1e-4, L=2.0, tau=2.0, r0_tilde=1.0, dimension=5)
_STOP_CASES = {
    # name: (run config overrides, status, steps taken)
    "constant": (dict(schedule=SigmaSchedule(0.3), max_iterations=74), "ok", 74),
    "two-phase-switch-at-34": (
        dict(schedule=SigmaSchedule(0.3, 34, 0.9), max_iterations=92), "ok", 92),
    "two-phase-switch-at-46": (
        dict(schedule=SigmaSchedule(0.3, 46, 0.9), max_iterations=92), "ok", 92),
    # the radius holds for 46 steps, then its first contraction is below the floor
    "floor-after-switch-at-45": (
        dict(schedule=SigmaSchedule(1.0, 45, 1e-15), max_iterations=92), "ok", 46),
    # a new radius every step up to max_iterations
    "decaying-to-max-iterations": (dict(schedule=_THEOREM3, max_iterations=69), "ok", 69),
    # 1,740 steps to the floor, as in the theorem3-cli benchmark workload
    "theorem3-to-floor": (dict(schedule=_THEOREM3, max_iterations=2000), "ok", 1740),
    "norm-blowup": (
        dict(objective=quadratic_objective(5), step_size=1.05, max_iterations=2000,
             schedule=SigmaSchedule(0.3, 11, 0.99)), "diverged", 271),
    "nonfinite-eval": (
        dict(objective=_concave_capped(5), initial_point=np.ones(5), step_size=0.1,
             max_iterations=2000, schedule=_THEOREM3), "diverged", 10),
}


@pytest.mark.parametrize("basis", ["identity", "random"])
@pytest.mark.parametrize("case", list(_STOP_CASES))
def test_run_builds_each_new_radius_without_moving_a_bit(case, basis):
    # run reads each step's radius and builds its node offsets when it
    # changes; radius changes and stops of every kind keep the per-step
    # reference's bits, steps and status
    overrides, want_status, want_steps = _STOP_CASES[case]
    kwargs = dict(objective=power_sum_sqrt_objective(
        5, noise=sample_bandlimited(5, 1.0, 20, seed=8)), rule=build_gh_rule(7),
        basis=identity_basis(5) if basis == "identity" else random_orthonormal_basis(5, 3))
    cfg = make_run_config(**{**kwargs, **overrides})
    rec = run(cfg)
    iterates, sigmas, steps, status = _reference_steps(cfg)
    assert (rec.iterations_run, rec.status) == (want_steps, want_status)
    assert rec.iterates.tobytes() == np.array(iterates).tobytes()
    assert rec.sigmas.tobytes() == np.array(sigmas).tobytes()
    assert (rec.iterations_run, rec.status) == (steps, status)


def test_radius_underflowing_below_the_floor_stops_without_a_warning():
    # the radii after the floor underflow to 0; the run must neither build
    # their nodes nor warn
    cfg = make_run_config(quadratic_objective(3), schedule=SigmaSchedule(1.0, 0, 1e-10),
                          max_iterations=500)
    assert sigma_at(cfg.schedule, 40) == 0.0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rec = run(cfg)
    assert (rec.iterations_run, rec.status) == (2, "ok")
    assert rec.sigmas.tolist() == [1.0, 1e-10, sigma_at(cfg.schedule, 2)]
    iterates, sigmas, steps, status = _reference_steps(cfg)
    assert rec.iterates.tobytes() == np.array(iterates).tobytes()
    assert (steps, status) == (2, "ok")


def _changes(radii, last=None):
    """The radii that differ from the one before (the first included)."""
    return [s for i, s in enumerate(radii) if (radii[i - 1] if i else last) != s]


@pytest.mark.parametrize("case,max_iterations,new_radii", [
    ("constant", 1500, 1),
    # the constant phase, t = 0 to 34, then a new radius each step from 35 to 91
    ("two-phase-switch-at-34", None, 1 + 57),
    ("theorem3-to-floor", None, 1740),
    # a block reaches past max_iterations, whose radius is read but not built
    ("decaying-to-max-iterations", None, 69),
    # the radius below the floor stops the run unbuilt
    ("floor-after-switch-at-45", None, 1),
    # the radius holds to t = 11, then decays to the blow-up step at t = 270
    ("norm-blowup", None, 1 + 259),
    # stops within 10 steps of a million
    ("nonfinite-eval", 10**6, 10),
])
def test_each_stepped_radius_is_built_once_a_block_at_a_time(case, max_iterations, new_radii,
                                                              monkeypatch):
    # the rule's and the basis's share is shaped once per trial; the radii
    # are read once each, in step order, up to a block ahead and never past
    # the first below the floor; each block's new radii are built in one
    # call, so a constant radius is built once per trial, and none below the
    # floor or at max_iterations; the look-ahead reads at most one block
    # past the stop, and builds at most what it read
    builders, blocks, read = [], [], []
    gh_nodes, read_sigma = dgs_opt.optimizer._gh_nodes, dgs_opt.optimizer.sigma_at

    def counted(directions, rule, sines=None):
        nodes_at = gh_nodes(directions, rule, sines)
        builders.append(rule)
        return lambda radii: blocks.append(list(radii)) or nodes_at(radii)

    monkeypatch.setattr(dgs_opt.optimizer, "_gh_nodes", counted)
    monkeypatch.setattr(dgs_opt.optimizer, "sigma_at",
                        lambda schedule, t: read.append(t) or read_sigma(schedule, t))
    overrides = dict(_STOP_CASES[case][0], rule=build_gh_rule(7))
    overrides.setdefault("objective", quadratic_objective(5))
    if max_iterations is not None:
        overrides["max_iterations"] = max_iterations
    cfg = make_run_config(**overrides)
    rec = run(cfg)
    block = dgs_opt.optimizer._BLOCK_BYTES // (8 * 5 * 5 * 7)
    stepped = rec.sigmas[:rec.iterations_run].tolist()
    radii_read = [sigma_at(cfg.schedule, t) for t in read]
    assert min(radii_read[:-1], default=SIGMA_FLOOR) >= SIGMA_FLOOR
    ahead = [s for t, s in zip(read, radii_read) if t < cfg.max_iterations and s >= SIGMA_FLOOR]
    built = [s for radii in blocks for s in radii]
    assert builders == [cfg.rule] and all(blocks) and max(map(len, blocks)) <= block
    assert len(_changes(stepped)) == new_radii
    assert built == _changes(ahead) and built[:new_radii] == _changes(stepped)
    assert all(_changes(radii, radii_before[-1] if radii_before else None) == radii
               for radii, radii_before in zip(blocks, [[]] + blocks))
    assert min(built) >= SIGMA_FLOOR
    assert read == list(range(len(read)))
    assert rec.iterations_run < len(read) <= rec.iterations_run + 1 + block
