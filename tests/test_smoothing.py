import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgs_opt import (
    BandlimitedNoise,
    DiminishingNoise,
    DirectionBasis,
    EvaluationError,
    Objective,
    SigmaSchedule,
    build_gh_rule,
    dgs_gradient,
    PeriodicNoise,
    identity_basis,
    power_sum_sqrt_objective,
    quadratic_objective,
    random_orthonormal_basis,
    run,
    sample_bandlimited,
)
from dgs_opt.smoothing import SIGMA_FLOOR, _gh_gradient, _gh_nodes


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
        for columns in (np.array([[1.0, 1.0], [0.0, 1.0]]),
                        np.eye(3) * (1 + 4e-6),  # |Q^T Q - I| = 8e-6: within allclose's rtol
                        np.diag([1.0, np.nan])):
            with pytest.raises(ValueError, match="not orthonormal to 1e-12"):
                DirectionBasis(columns)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DirectionBasis(np.eye(3)[:, :2])

    def test_list_of_rows_is_stored_as_an_array(self):
        basis = DirectionBasis([[1.0, 0.0], [0.0, 1.0]])
        assert isinstance(basis.columns, np.ndarray) and basis.columns.shape == (2, 2)
        got = dgs_gradient(quadratic_objective(2), np.ones(2), 0.5, build_gh_rule(3), basis)
        np.testing.assert_allclose(got, [2.0, 2.0], atol=1e-12)

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
        got = dgs_gradient(f, np.zeros(3), 0.7, build_gh_rule(2), identity_basis(3))
        np.testing.assert_allclose(got, [2.0, -1.0, 0.5], atol=1e-12)

    def test_nonfinite_value_raises_with_point(self):
        f = Objective(
            dimension=1,
            evaluate=lambda x: np.where(np.asarray(x)[..., 0] > 1.0, np.inf, 0.0),
        )
        with pytest.raises(EvaluationError) as err:
            dgs_gradient(f, np.zeros(1), 2.0, build_gh_rule(5), identity_basis(1))
        assert err.value.point[0] > 1.0


class TestDGSGradient:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_exact_on_quadratic_identity_basis(self, sigma):
        f = quadratic_objective(5)
        x = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        got = dgs_gradient(f, x, sigma, build_gh_rule(3), identity_basis(5))
        np.testing.assert_allclose(got, 2.0 * x, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_on_quadratic_random_basis(self, seed):
        f = quadratic_objective(5)
        x = np.array([0.3, 1.7, -0.4, 2.2, -3.1])
        basis = random_orthonormal_basis(5, seed=seed)
        got = dgs_gradient(f, x, 1.0, build_gh_rule(4), basis)
        np.testing.assert_allclose(got, 2.0 * x, atol=1e-9)

    def test_uses_exactly_order_times_d_evaluations(self):
        f, counter = counting_objective(4, lambda x: (x**2).sum(axis=-1))
        dgs_gradient(f, np.zeros(4), 0.5, build_gh_rule(6), identity_basis(4))
        assert counter["n"] == 6 * 4

    @pytest.mark.parametrize("d, order", [(1, 5), (4, 7), (5, 5), (5, 40), (9, 64)])
    def test_identity_basis_matches_directional_derivatives_bitwise(self, d, order):
        f = power_sum_sqrt_objective(d, noise=PeriodicNoise(alpha=1.0))
        x = np.random.default_rng(d).uniform(-3.0, 3.0, d)
        rule = build_gh_rule(order)
        got = dgs_gradient(f, x, 0.4, rule, identity_basis(d))
        # each direction's derivative on its own, from its own one-row node set
        want = []
        for i, e in enumerate(np.eye(d)):
            nodes = _gh_nodes(e[:, None], rule, f.sines)([0.4])[0]
            want.append(_gh_gradient(f, x, nodes)[i])
        np.testing.assert_array_equal(got, want)

    def test_bit_reproducible(self):
        f = quadratic_objective(3)
        rule, basis = build_gh_rule(5), random_orthonormal_basis(3, 9)
        x = np.array([0.1, -0.2, 0.7])
        a = dgs_gradient(f, x, 0.3, rule, basis)
        b = dgs_gradient(f, x, 0.3, rule, basis)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(4,), (2,), (), (1, 3), (3, 1)], ids=str)
    def test_wrong_point_shape_rejected(self, shape):
        f = quadratic_objective(3)
        with pytest.raises(ValueError, match=r"point has shape .*, expected \(3,\)"):
            dgs_gradient(f, np.zeros(shape), 0.3, build_gh_rule(5), identity_basis(3))

    @pytest.mark.parametrize("objective", [quadratic_objective, power_sum_sqrt_objective])
    @pytest.mark.parametrize("basis", [identity_basis(4), random_orthonormal_basis(4, 2)],
                             ids=["identity", "random"])
    def test_objective_of_another_dimension_rejected(self, objective, basis):
        # a 3-dimensional quadratic would return a 4-vector, and the
        # power-sum-sqrt objective a numpy broadcast error
        with pytest.raises(ValueError, match="objective is 3-dimensional, "
                                             "basis and point are 4-dimensional"):
            dgs_gradient(objective(3), np.ones(4), 0.5, build_gh_rule(5), basis)

    @pytest.mark.parametrize("sigma", [1e-320, np.nextafter(SIGMA_FLOOR, 0.0), 0.0, -1.0, np.nan,
                                       np.inf])
    def test_radius_below_the_floor_or_infinite_rejected(self, sigma):
        # at 1e-320 the factor sqrt(2) / (sqrt(pi) sigma) overflows to inf,
        # and the estimate would be NaN; at inf the middle node's offset is
        # inf * 0
        f, counter = counting_objective(3, lambda x: (x**2).sum(axis=-1))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and at least 1e-14"):
                dgs_gradient(f, np.ones(3), sigma, build_gh_rule(5), identity_basis(3))
        assert counter["n"] == 0

    @pytest.mark.parametrize("sigma", [np.array([0.5]), [0.5], np.ones((1, 1)), np.ones(2)],
                             ids=["array", "list", "matrix", "two"])
    def test_radius_that_is_not_a_scalar_rejected(self, sigma):
        with pytest.raises(ValueError, match="is not a scalar"):
            dgs_gradient(quadratic_objective(2), np.ones(2), sigma, build_gh_rule(3),
                         identity_basis(2))

    @pytest.mark.parametrize("sigma", [np.float32(0.5), np.float64(0.5), np.array(0.5), 0.5])
    def test_radius_of_any_float_type_gives_the_float_estimate(self, sigma):
        # a float32 radius made the nodes and factor float32: [1.99999987, 3.99999975]
        got = dgs_gradient(quadratic_objective(2), [1, 2], sigma, build_gh_rule(3),
                           identity_basis(2))
        assert got.dtype == np.float64 and got.tolist() == [2.0, 4.0]

    def test_radius_at_the_floor_accepted(self):
        got = dgs_gradient(quadratic_objective(3), np.ones(3), SIGMA_FLOOR, build_gh_rule(5),
                           identity_basis(3))
        assert np.all(np.isfinite(got))


_RADII = st.floats(-12.0, 3.0).map(lambda e: 10.0**e) | st.sampled_from(
    [SIGMA_FLOOR, float(np.nextafter(SIGMA_FLOOR, 1.0))])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(order=st.integers(1, 64), d=st.integers(1, 17), components=st.integers(0, 24),
       basis_seed=st.none() | st.integers(0, 2**32 - 1),
       sigmas=st.lists(_RADII, min_size=1, max_size=5).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)))
def test_each_radius_gets_the_single_radius_expression_bits(order, d, components, basis_seed,
                                                            sigmas):
    # one call builds a block of radii, repeats and radii at the floor
    # included, with or without a sine sum of J = components frequencies per
    # axis; every radius gets, from it and from a one-radius call as
    # dgs_gradient makes, the node offsets, coefficients, factor and table
    # of the plain single-radius expression, byte for byte (the table's sum
    # over the nodes in einsum's order for one radius)
    rule = build_gh_rule(order)
    basis = identity_basis(d) if basis_seed is None else random_orthonormal_basis(d, basis_seed)
    directions = basis.columns.T
    sines = None
    if components:
        rng = np.random.default_rng([order, d, components])
        sines = (None, 10.0 ** rng.uniform(-1.0, 6.0, (d, components)), rng.uniform(0.05, 2.0))
    built = _gh_nodes(basis.columns, rule, sines)(sigmas)
    assert len(built) == len(sigmas)
    for sigma, nodes in zip(sigmas, built):
        fresh = _gh_nodes(basis.columns, rule, sines)([sigma])[0]
        scaled = np.sqrt(2.0) * sigma
        want = (scaled * rule.nodes[None, :, None] * directions[:, None, :],
                rule.weights * rule.nodes, np.sqrt(2.0) / (np.sqrt(np.pi) * sigma))
        for offsets, coefficients, scale, columns, identity, table, rates in (nodes, fresh):
            assert offsets.tobytes() == np.reshape(want[0], (d * order, d)).tobytes()
            assert coefficients.tobytes() == want[1].tobytes()
            assert np.float64(scale).tobytes() == np.float64(want[2]).tobytes()
            assert columns is basis.columns
            assert identity == np.array_equal(columns, np.eye(d))
            if sines is None:
                assert table is None and rates is None
                continue
            positive = rule.nodes > 0
            assert rates.tobytes() == (2.0 * np.pi * sines[1].T).tobytes()
            units = (rule.nodes[positive, None] * directions[:, None, :])[:, :, None, :] * rates
            halves = 2.0 * sines[2] * (rule.weights * rule.nodes)[positive]
            want_table = np.einsum("m,kmji->kji", halves, np.sin(scaled * units))
            assert table.shape == (d, components, d)
            assert table.tobytes() == want_table.tobytes()


# -1e-30 times the factor at sigma = 1e300 underflows to -0.0; 1.7e308 overflows the sums
_VALUES = st.sampled_from([-1.0, 2.5, -0.0, 0.0, -1e-30, 1e-30, 1.7e308, -1.7e308])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(order=st.integers(1, 6), d=st.integers(1, 6), sigma=st.sampled_from([0.7, 1e300]),
       data=st.data())
def test_identity_basis_estimate_has_the_basis_product_bits(order, d, sigma, data):
    # along the identity basis dgs_gradient makes no product with the basis,
    # and still returns the bits of np.eye(d) @ derivatives: a -0.0
    # derivative becomes +0.0, and an overflowed one makes the others NaN
    values = np.array(data.draw(st.lists(_VALUES, min_size=order * d, max_size=order * d)))
    f = Objective(dimension=d, evaluate=lambda points: values.copy())
    rule = build_gh_rule(order)
    scale = np.sqrt(2.0) / (np.sqrt(np.pi) * sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        derivatives = np.einsum("km,m->k", values.reshape(d, order),
                                rule.weights * rule.nodes) * scale
        got = dgs_gradient(f, np.zeros(d), sigma, rule, identity_basis(d))
        want = np.eye(d) @ derivatives
    assert got.tobytes() == want.tobytes()


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
    points = x + _gh_nodes(basis.columns, rule)([sigma])[0][0]
    try:
        values = f.eval_batch(points)
    except EvaluationError as err:
        with pytest.raises(EvaluationError) as got:
            dgs_gradient(f, x, sigma, rule, basis)
        first = min(i for i, v in injected.items() if not np.isfinite(v))
        assert got.value.point.tobytes() == err.point.tobytes() == points[first].tobytes()
        return
    scale = np.sqrt(2.0) / (np.sqrt(np.pi) * sigma)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 overflows the sums
        want = basis.columns @ (np.einsum("km,m->k", values.reshape(d, order),
                                          rule.weights * rule.nodes) * scale)
        got = dgs_gradient(f, x, sigma, rule, basis)
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
    rule, basis = build_gh_rule(order), random_orthonormal_basis(d, 1)
    if bad is None:
        dgs_gradient(f, np.ones(d), 0.5, rule, basis)
    else:
        with pytest.raises(EvaluationError):
            dgs_gradient(f, np.ones(d), 0.5, rule, basis)
    assert calls == [order * d]



def _evaluate_path(f, x, sigma, rule, basis):
    """The estimate from F at every node, f.evaluate's sine sum included:
    the oracle of the sine-sum tables."""
    nodes = _gh_nodes(basis.columns, rule)([sigma])[0]
    return _gh_gradient(Objective(dimension=f.dimension, evaluate=f.evaluate), x, nodes)


def _term_sizes(f, x, sigma, rule, basis):
    """Per direction, the size of the terms its GH sum adds: the factor
    times sum_m |w_m v_m| (|phi| + |weight| d J) at its nodes. Both paths
    round at this scale; the evaluate path also rounds each node point, so
    that its sines are off by up to 1.1e-16 of their phase."""
    offsets, coefficients, scale = _gh_nodes(basis.columns, rule)([sigma])[0][:3]
    phi, frequencies, weight = f.sines
    bound = np.abs(phi(x + offsets)) + abs(weight) * frequencies.size
    return scale * (bound.reshape(-1, rule.order) @ np.abs(coefficients))


_SMOOTH = {
    "power-sum-sqrt": power_sum_sqrt_objective,
    "quadratic": quadratic_objective,
    "none": lambda d, noise: Objective(dimension=d, evaluate=noise.evaluate,
                                       sines=(lambda x: np.zeros(len(x)),
                                              *noise.sine_sum(d))),
}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(order=st.integers(1, 64), d=st.integers(1, 6), components=st.integers(1, 20),
       basis_seed=st.none() | st.integers(0, 2**32 - 1), sigma=st.floats(1e-2, 50.0),
       kind=st.sampled_from(["periodic", "bandlimited"]),
       amplitude=st.sampled_from([2.5, -0.75, 1e-3, 40.0]),
       smooth=st.sampled_from(list(_SMOOTH)), seed=st.integers(0, 2**32 - 1))
def test_sine_sum_table_matches_the_evaluate_path(order, d, components, basis_seed, sigma,
                                                  kind, amplitude, smooth, seed):
    # the table estimate within 1e-12 of F evaluated at every node, relative
    # to the size of the GH terms. The frequencies keep every phase 2 pi
    # alpha y, at x and at each node y, below 1e4 rad: beyond that the
    # evaluate path's own point rounding reaches 1e-12
    rng = np.random.default_rng(seed)
    rule = build_gh_rule(order)
    basis = identity_basis(d) if basis_seed is None else random_orthonormal_basis(d, basis_seed)
    x = rng.uniform(-20.0, 20.0, d)
    reach = np.abs(x).max() + np.sqrt(2.0) * sigma * rule.nodes[-1]
    top = 1e4 / (2.0 * np.pi * reach)  # the largest frequency allowed
    if kind == "periodic":  # J = 1, with an amplitude other than 1
        noise = PeriodicNoise(top * rng.uniform(1e-3, 1.0), amplitude)
    else:
        frequencies = top * rng.uniform(1e-3, 1.0, (d, components))
        noise = BandlimitedNoise(frequencies.min(), frequencies)
    f = _SMOOTH[smooth](d, noise)
    got = dgs_gradient(f, x, sigma, rule, basis)
    want = _evaluate_path(f, x, sigma, rule, basis)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(_term_sizes(f, x, sigma, rule,
                                                                            basis))


_WORKLOAD_NOISES = {  # each shipped noise kind at its benchmark workload's shape
    "periodic-m5": (PeriodicNoise(1.0), 5, identity_basis(5)),
    "bandlimited-m40": (sample_bandlimited(5, 1.0, 20, seed=11), 40, identity_basis(5)),
    "bandlimited-m40-random": (sample_bandlimited(5, 1.0, 20, seed=12), 40,
                               random_orthonormal_basis(5, 4)),
}


@pytest.mark.parametrize("workload", list(_WORKLOAD_NOISES))
def test_sine_sum_table_matches_the_evaluate_path_at_the_workload_shapes(workload):
    # power-sum-sqrt plus the noise, at the benchmark's sigma grid and box:
    # within 1e-12 of the evaluate path relative to the estimate itself
    noise, order, basis = _WORKLOAD_NOISES[workload]
    f, rule = power_sum_sqrt_objective(5, noise), build_gh_rule(order)
    assert f.sines is not None
    worst = 0.0
    for x in np.random.default_rng(5).uniform(-20.0, 20.0, (20, 5)):
        for sigma in (0.01, 0.1, 1.0, 10.0, 50.0):
            got = dgs_gradient(f, x, sigma, rule, basis)
            want = _evaluate_path(f, x, sigma, rule, basis)
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    assert worst <= 1e-12


@pytest.mark.parametrize("f", [
    quadratic_objective(5, DiminishingNoise(beta=1e-4)),  # the theorem3-cli workload's
    quadratic_objective(5),
    Objective(dimension=5, evaluate=PeriodicNoise(1.0).evaluate),  # a user objective
], ids=["diminishing", "noise-free", "user"])
def test_objectives_without_a_sine_sum_keep_the_evaluate_path(f):
    assert f.sines is None
    rule, basis = build_gh_rule(5), random_orthonormal_basis(5, 2)
    x = np.random.default_rng(1).uniform(-5.0, 5.0, 5)
    got = dgs_gradient(f, x, 0.3, rule, basis)
    assert got.tobytes() == _evaluate_path(f, x, 0.3, rule, basis).tobytes()


def _zero(x):
    return np.zeros(len(x))


@pytest.mark.parametrize("sines, match", [
    ((None, np.ones((3, 2)), 0.5), "phi callable"),  # a table with no phi to add it to
    ((np.ones((3, 2)), 0.5), "phi callable"),  # phi left out
    ((_zero, np.ones((4, 2)), 0.5), r"be \(3, J\), got \(4, 2\)"),  # another dimension
    ((_zero, np.ones(3), 0.5), r"be \(3, J\), got \(3,\)"),  # not (d, J)
], ids=["phi-none", "phi-missing", "alpha-other-dimension", "alpha-1d"])
def test_objective_rejects_a_sine_sum_it_cannot_use(sines, match):
    with pytest.raises(ValueError, match=match):
        Objective(dimension=3, evaluate=_zero, sines=sines)


def _recording(f):
    """f, with the batches that reach its evaluate or phi kept in a list."""
    batches = []

    def keep(fn):
        return lambda points: batches.append(points) or fn(points)

    sines = None if f.sines is None else (keep(f.sines[0]), *f.sines[1:])
    return Objective(dimension=f.dimension, evaluate=keep(f.evaluate), sines=sines), batches


def _c_ordered(f):
    """f, evaluating each batch as a C-ordered copy: the row sums of the
    coordinates then run along each row, as they did before the batches
    were coordinate-major."""

    def copying(fn):
        return lambda points: fn(np.ascontiguousarray(points))

    sines = None if f.sines is None else (copying(f.sines[0]), *f.sines[1:])
    return Objective(dimension=f.dimension, evaluate=copying(f.evaluate), sines=sines)


def _noisy(kind, d):
    noise = {"periodic": PeriodicNoise(1.0), "bandlimited": sample_bandlimited(d, 1.0, 20, d),
             "diminishing": DiminishingNoise(1e-4), "none": None}[kind]
    return power_sum_sqrt_objective(d, noise)


@pytest.mark.parametrize("order", [5, 40])
@pytest.mark.parametrize("basis", ["identity", "random"])
@pytest.mark.parametrize("kind", ["bandlimited", "diminishing"])  # phi, then evaluate
def test_the_estimate_evaluates_a_coordinate_major_batch(order, basis, kind):
    # each radius's k * M points reach phi or evaluate F-ordered, from a
    # one-radius build (dgs_gradient), a block build, and run at a decaying
    # radius (which builds a block of radii where _block_size allows it)
    f, batches = _recording(_noisy(kind, 5))
    rule = build_gh_rule(order)
    basis = identity_basis(5) if basis == "identity" else random_orthonormal_basis(5, 3)
    x = np.linspace(-2.0, 3.0, 5)
    dgs_gradient(f, x, 0.5, rule, basis)
    for nodes in _gh_nodes(basis.columns, rule, f.sines)([0.5, 0.25, 0.5]):
        _gh_gradient(f, x, nodes)
    rec = run(f, x, SigmaSchedule(0.5, 0, 0.5), rule, basis, 1e-3, 4)
    assert rec.iterations_run == 4 and len(batches) == 1 + 3 + 4 + 1  # + the objective column
    for points in batches[:-1]:
        assert points.shape == (5 * order, 5)
        assert points.flags.f_contiguous and not points.flags.c_contiguous


@pytest.mark.parametrize("order", [5, 40])
@pytest.mark.parametrize("basis", ["identity", "random"])
@pytest.mark.parametrize("kind", ["periodic", "bandlimited", "diminishing", "none"])
def test_the_coordinate_major_batch_keeps_the_bits_up_to_7_dimensions(order, basis, kind):
    # numpy adds fewer than 8 coordinates of a row one after the other, as
    # it adds the columns of an F-ordered batch: the same bits at d <= 7
    rng, rule = np.random.default_rng(order), build_gh_rule(order)
    for d in range(1, 8):
        f = _noisy(kind, d)
        directions = identity_basis(d) if basis == "identity" else random_orthonormal_basis(d, d)
        for x in rng.uniform(-20.0, 20.0, (5, d)):
            for sigma in (0.01, 1.0, 10.0):
                got = dgs_gradient(f, x, sigma, rule, directions)
                want = dgs_gradient(_c_ordered(f), x, sigma, rule, directions)
                assert got.tobytes() == want.tobytes(), (d, x, sigma)


@pytest.mark.parametrize("d", [8, 10, 16])
def test_the_coordinate_major_batch_sums_8_or_more_coordinates_in_another_order(d):
    # numpy pairwise-sums a contiguous row of 8 or more values, and adds the
    # columns one after the other, so the last bits move. Two orders of a
    # sum of d terms differ by at most 2 (d - 1) u times the sum of their
    # sizes: the estimates agree within d eps of the GH terms' sizes, the
    # factor times sum_m |w_m v_m| |F| (measured: at most 1.5 eps).
    rng, eps = np.random.default_rng(d), np.finfo(float).eps
    for kind in ("periodic", "bandlimited", "diminishing", "none"):
        f = _noisy(kind, d)
        for order in (5, 40):
            rule = build_gh_rule(order)
            for basis in (identity_basis(d), random_orthonormal_basis(d, 3)):
                for x in rng.uniform(-20.0, 20.0, (3, d)):
                    for sigma in (0.01, 1.0, 10.0):
                        got = dgs_gradient(f, x, sigma, rule, basis)
                        want = dgs_gradient(_c_ordered(f), x, sigma, rule, basis)
                        offsets, weights, scale = _gh_nodes(basis.columns, rule)([sigma])[0][:3]
                        values = (f.evaluate if f.sines is None else f.sines[0])(x + offsets)
                        sizes = scale * (np.abs(values).reshape(d, order) @ np.abs(weights))
                        assert np.linalg.norm(got - want) <= d * eps * np.linalg.norm(sizes)


def test_dgs_gradient_twice_at_one_radius_builds_once(monkeypatch):
    # the second call gets the first call's builder and its radius's nodes,
    # read-only, and so the same bits as a build of its own
    from dgs_opt import smoothing

    f = power_sum_sqrt_objective(5, noise=sample_bandlimited(5, 1.0, 20, seed=3))
    rule, basis, x = build_gh_rule(9), identity_basis(5), np.linspace(-1.0, 1.0, 5)
    builders, given = [], []
    monkeypatch.setattr(smoothing, "_gh_nodes", lambda *a: builders.append(a) or _gh_nodes(*a))
    monkeypatch.setattr(smoothing, "_gh_gradient",
                        lambda f, x, nodes: given.append(nodes) or _gh_gradient(f, x, nodes))
    first = dgs_gradient(f, x, 0.5, rule, basis)
    second = dgs_gradient(f, x, 0.5, rule, basis)
    assert len(builders) == 1 and given[0] is given[1]
    assert not any(a.flags.writeable for a in given[0] if isinstance(a, np.ndarray))
    fresh = _gh_gradient(f, x, _gh_nodes(basis.columns, rule, f.sines)([0.5])[0])
    assert first.tobytes() == second.tobytes() == fresh.tobytes()


def test_an_objective_whose_sines_were_replaced_gets_no_stale_table():
    # the builder cache is keyed on the values of the objective's sines: an
    # estimate or a run after the replacement builds the new noise's table,
    # though the cache holds the old one's builder
    rule, basis, x = build_gh_rule(7), identity_basis(5), np.linspace(-1.0, 1.0, 5)
    calls = [lambda h: dgs_gradient(h, x, 0.5, rule, basis),
             lambda h: run(h, x, SigmaSchedule(0.5), rule, basis, 0.01, 5).iterates]
    for call in calls:
        f = power_sum_sqrt_objective(5, noise=PeriodicNoise(1.0))
        g = power_sum_sqrt_objective(5, noise=PeriodicNoise(3.0))
        before = call(f).tobytes()
        f.sines, f.evaluate = g.sines, g.evaluate
        assert call(f).tobytes() == call(g).tobytes() != before
