import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgs_opt import (
    DGSConfig,
    DirectionBasis,
    EvaluationError,
    Objective,
    build_gh_rule,
    dgs_gradient,
    PeriodicNoise,
    identity_basis,
    sample_bandlimited,
    power_sum_sqrt_objective,
    quadratic_objective,
    random_orthonormal_basis,
)
from dgs_opt.smoothing import SIGMA_FLOOR, _gh_derivatives, _gh_nodes


def counting_objective(d, fn):
    counter = {"n": 0}

    def evaluate(x):
        x = np.atleast_2d(x)
        counter["n"] += len(x)
        return fn(np.asarray(x, dtype=float))

    return Objective(dimension=d, evaluate=evaluate), counter


class TestBases:
    def test_identity_basis(self):
        basis = identity_basis(4)
        np.testing.assert_array_equal(basis.columns, np.eye(4))

    def test_random_basis_is_orthonormal(self):
        basis = random_orthonormal_basis(6, seed=3)
        np.testing.assert_allclose(basis.columns.T @ basis.columns, np.eye(6), atol=1e-12)

    def test_random_basis_deterministic_in_seed(self):
        a = random_orthonormal_basis(5, seed=11)
        b = random_orthonormal_basis(5, seed=11)
        np.testing.assert_array_equal(a.columns, b.columns)
        c = random_orthonormal_basis(5, seed=12)
        assert not np.array_equal(a.columns, c.columns)

    def test_non_orthonormal_columns_rejected(self):
        with pytest.raises(ValueError):
            DirectionBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DirectionBasis(np.eye(3)[:, :2])

    def test_list_of_rows_is_stored_as_an_array(self):
        basis = DirectionBasis([[1.0, 0.0], [0.0, 1.0]])
        assert basis.dimension == 2
        config = DGSConfig(sigma=0.5, rule=build_gh_rule(3), basis=basis)
        np.testing.assert_allclose(dgs_gradient(quadratic_objective(2), np.ones(2), config),
                                   [2.0, 2.0], atol=1e-12)

    def test_caller_cannot_change_the_checked_columns(self):
        columns = np.eye(2)
        basis = DirectionBasis(columns)
        columns[0, 1] = 5.0
        np.testing.assert_array_equal(basis.columns, np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            basis.columns[0, 1] = 5.0


class TestDirectionalDerivative:
    def test_linear_function_is_exact(self):
        f = Objective(
            dimension=3,
            evaluate=lambda x: np.asarray(x, dtype=float) @ np.array([2.0, -1.0, 0.5]),
        )
        config = DGSConfig(sigma=0.7, rule=build_gh_rule(2), basis=identity_basis(3))
        np.testing.assert_allclose(dgs_gradient(f, np.zeros(3), config), [2.0, -1.0, 0.5],
                                   atol=1e-12)

    def test_nonfinite_value_raises_with_point(self):
        f = Objective(
            dimension=1,
            evaluate=lambda x: np.where(np.asarray(x)[..., 0] > 1.0, np.inf, 0.0),
        )
        config = DGSConfig(sigma=2.0, rule=build_gh_rule(5), basis=identity_basis(1))
        with pytest.raises(EvaluationError) as err:
            dgs_gradient(f, np.zeros(1), config)
        assert err.value.point[0] > 1.0


class TestDGSGradient:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_exact_on_quadratic_identity_basis(self, sigma):
        f = quadratic_objective(5)
        x = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        got = dgs_gradient(f, x, DGSConfig(sigma=sigma, rule=build_gh_rule(3), basis=identity_basis(5)))
        np.testing.assert_allclose(got, 2.0 * x, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_on_quadratic_random_basis(self, seed):
        f = quadratic_objective(5)
        x = np.array([0.3, 1.7, -0.4, 2.2, -3.1])
        basis = random_orthonormal_basis(5, seed=seed)
        got = dgs_gradient(f, x, DGSConfig(sigma=1.0, rule=build_gh_rule(4), basis=basis))
        np.testing.assert_allclose(got, 2.0 * x, atol=1e-9)

    def test_uses_exactly_order_times_d_evaluations(self):
        f, counter = counting_objective(4, lambda x: (x**2).sum(axis=-1))
        dgs_gradient(
            f, np.zeros(4), DGSConfig(sigma=0.5, rule=build_gh_rule(6), basis=identity_basis(4))
        )
        assert counter["n"] == 6 * 4

    @pytest.mark.parametrize("d, order", [(1, 5), (4, 7), (5, 5), (5, 40), (9, 64)])
    def test_identity_basis_matches_directional_derivatives_bitwise(self, d, order):
        f = power_sum_sqrt_objective(d, noise=PeriodicNoise(alpha=1.0))
        x = np.random.default_rng(d).uniform(-3.0, 3.0, d)
        rule = build_gh_rule(order)
        got = dgs_gradient(f, x, DGSConfig(sigma=0.4, rule=rule, basis=identity_basis(d)))
        # each direction's derivative on its own, from its own one-row node set
        want = []
        for e in np.eye(d):
            want.append(_gh_derivatives(f, x, _gh_nodes(e[None, :], rule)(0.4))[0])
        np.testing.assert_array_equal(got, want)

    def test_bit_reproducible(self):
        f = quadratic_objective(3)
        cfg = DGSConfig(sigma=0.3, rule=build_gh_rule(5), basis=random_orthonormal_basis(3, 9))
        x = np.array([0.1, -0.2, 0.7])
        a = dgs_gradient(f, x, cfg)
        b = dgs_gradient(f, x, cfg)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("basis", [identity_basis(5), random_orthonormal_basis(5, 4)],
                             ids=["identity", "random"])
    def test_reused_config_matches_a_fresh_one_per_call(self, basis):
        # a config builds its node offsets once; reusing it changes no bit
        f = power_sum_sqrt_objective(5, noise=sample_bandlimited(5, 1.0, 20, seed=2))
        rule = build_gh_rule(40)
        reused = DGSConfig(sigma=0.3, rule=rule, basis=basis)
        for x in np.random.default_rng(6).uniform(-20.0, 20.0, size=(20, 5)):
            got = dgs_gradient(f, x, reused)
            want = dgs_gradient(f, x, DGSConfig(sigma=0.3, rule=rule, basis=basis))
            assert got.tobytes() == want.tobytes()

    def test_wrong_point_shape_rejected(self):
        f = quadratic_objective(3)
        cfg = DGSConfig(sigma=0.3, rule=build_gh_rule(5), basis=identity_basis(3))
        with pytest.raises(ValueError):
            dgs_gradient(f, np.zeros(4), cfg)

    @pytest.mark.parametrize("sigma", [1e-320, np.nextafter(SIGMA_FLOOR, 0.0), 0.0, -1.0, np.nan,
                                       np.inf])
    def test_radius_below_the_floor_or_infinite_rejected(self, sigma):
        # at 1e-320 the factor sqrt(2) / (sqrt(pi) sigma) overflows to inf,
        # and every estimate made with the config would be NaN; at inf the
        # middle node's offset is inf * 0
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and at least 1e-14"):
                DGSConfig(sigma, build_gh_rule(5), identity_basis(3))

    def test_radius_at_the_floor_accepted(self):
        config = DGSConfig(SIGMA_FLOOR, build_gh_rule(5), identity_basis(3))
        assert np.all(np.isfinite(dgs_gradient(quadratic_objective(3), np.ones(3), config)))


_RADII = st.floats(-12.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(order=st.integers(1, 64), d=st.integers(1, 17),
       basis_seed=st.none() | st.integers(0, 2**32 - 1),
       sigmas=st.lists(_RADII, min_size=1, max_size=5).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)))
def test_each_radius_gets_the_single_radius_expression_bits(order, d, basis_seed, sigmas):
    # one builder serves a trial's radii, repeats included, in two array
    # operations each; every radius gets, from it and in a config, the node
    # offsets, coefficients and factor of the plain single-radius expression,
    # byte for byte, and a later radius leaves an earlier one's untouched
    rule = build_gh_rule(order)
    basis = identity_basis(d) if basis_seed is None else random_orthonormal_basis(d, basis_seed)
    directions = basis.columns.T
    nodes_at = _gh_nodes(directions, rule)
    built = [nodes_at(sigma) for sigma in sigmas]
    for sigma, nodes in zip(sigmas, built):
        config = DGSConfig(sigma, rule, basis)
        assert (config.sigma, config.rule, config.basis) == (sigma, rule, basis)
        want = (np.sqrt(2.0) * sigma * rule.nodes[None, :, None] * directions[:, None, :],
                rule.weights * rule.nodes, np.sqrt(2.0) / (np.sqrt(np.pi) * sigma))
        for offsets, coefficients, scale in (nodes, config._nodes):
            assert offsets.tobytes() == np.reshape(want[0], (d * order, d)).tobytes()
            assert coefficients.tobytes() == want[1].tobytes()
            assert np.float64(scale).tobytes() == np.float64(want[2]).tobytes()


_INJECTED = st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300, 1e308])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(order=st.integers(1, 9), d=st.integers(1, 6),
       basis_seed=st.none() | st.integers(0, 2**32 - 1), data=st.data())
def test_nonfinite_value_raises_where_eval_batch_does(order, d, basis_seed, data):
    # dgs_gradient scans the values only when the dot of its derivatives is
    # not finite. Values are replaced at any node, the zero-coefficient
    # middle node of an odd M included, by inf, -inf, NaN or finite values
    # large enough to overflow that dot: it raises exactly where
    # Objective.eval_batch on the same points does, at the same point, and
    # otherwise returns the bits of the estimate made from eval_batch.
    rule = build_gh_rule(order)
    basis = identity_basis(d) if basis_seed is None else random_orthonormal_basis(d, basis_seed)
    sigma = 0.7
    config = DGSConfig(sigma, rule, basis)
    x = np.linspace(-1.0, 2.0, d)
    n = order * d
    injected = data.draw(st.dictionaries(st.integers(0, n - 1), _INJECTED, max_size=3))
    if order % 2 and data.draw(st.booleans()):  # a middle node, whose coefficient is 0
        injected[data.draw(st.integers(0, d - 1)) * order + order // 2] = data.draw(_INJECTED)
    plain = quadratic_objective(d)

    def evaluate(points):
        values = np.array(plain.evaluate(points), dtype=float)
        for i, v in injected.items():
            values[i] = v
        return values

    f = Objective(dimension=d, evaluate=evaluate)
    points = x + config._nodes[0]
    try:
        values = f.eval_batch(points)
    except EvaluationError as err:
        with pytest.raises(EvaluationError) as got:
            dgs_gradient(f, x, config)
        first = min(i for i, v in injected.items() if not np.isfinite(v))
        assert got.value.point.tobytes() == err.point.tobytes() == points[first].tobytes()
        return
    scale = np.sqrt(2.0) / (np.sqrt(np.pi) * sigma)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 overflows the sums
        want = basis.columns @ (np.einsum("km,m->k", values.reshape(d, order),
                                          rule.weights * rule.nodes) * scale)
        got = dgs_gradient(f, x, config)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [None, "first", "middle"])
def test_evaluate_is_called_once_per_estimate_also_when_it_raises(bad):
    # the finiteness test reuses the values it has: no second evaluation
    calls = []
    order, d = 5, 3

    def evaluate(points):
        calls.append(len(points))
        values = (np.asarray(points) ** 2).sum(axis=-1)
        if bad is not None:
            values[0 if bad == "first" else order + order // 2] = np.nan
        return values

    f = Objective(dimension=d, evaluate=evaluate)
    config = DGSConfig(0.5, build_gh_rule(order), random_orthonormal_basis(d, 1))
    if bad is None:
        dgs_gradient(f, np.ones(d), config)
    else:
        with pytest.raises(EvaluationError):
            dgs_gradient(f, np.ones(d), config)
    assert calls == [order * d]

