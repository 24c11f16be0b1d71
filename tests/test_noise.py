import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import plain_bandlimited
from dgs_opt import (
    BandlimitedNoise,
    DiminishingNoise,
    Objective,
    PeriodicNoise,
    build_gh_rule,
    closed_form_smoothed_sine_derivative,
    dgs_gradient,
    identity_basis,
    noise_only_objective,
    power_sum_sqrt_objective,
    quadratic_objective,
    random_orthonormal_basis,
    sample_bandlimited,
)
from dgs_opt.noise import MIN_WAVELENGTH


def finite_difference_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


class TestPeriodicNoise:
    def test_closed_form_values(self):
        noise = PeriodicNoise(alpha=1.0)
        x = np.array([0.25, 0.0, -0.25])
        # sin(pi/2) + sin(0) + sin(-pi/2) = 0
        np.testing.assert_allclose(noise.evaluate(x), 0.0, atol=1e-14)
        np.testing.assert_allclose(
            PeriodicNoise(alpha=2.0, amplitude=3.0).evaluate(np.array([1 / 8])),
            3.0,
            rtol=1e-14,
        )

    def test_periodicity(self):
        noise = PeriodicNoise(alpha=0.5)
        x = np.array([0.3, -1.2])
        np.testing.assert_allclose(
            noise.evaluate(x), noise.evaluate(x + 1.0 / noise.alpha), atol=1e-12
        )

    def test_batched_evaluation_matches_loop(self):
        noise = PeriodicNoise(alpha=1.3)
        pts = np.random.default_rng(0).uniform(-2, 2, size=(10, 4))
        np.testing.assert_allclose(
            noise.evaluate(pts), [noise.evaluate(p) for p in pts], rtol=1e-14
        )

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            PeriodicNoise(alpha=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=math.inf), dict(alpha=math.nan), dict(alpha=1.0, amplitude=math.inf),
        dict(alpha=1.0, amplitude=-math.inf), dict(alpha=1.0, amplitude=math.nan)])
    def test_infinite_or_nan_parameters_rejected(self, kwargs):
        # an infinite amplitude was accepted and gave NaN at every point, with
        # a RuntimeWarning
        with pytest.raises(ValueError, match="must be .*finite"):
            PeriodicNoise(**kwargs)

    @pytest.mark.parametrize("amplitude", [1.0, 2.5, -1.0, 0.0])
    @pytest.mark.parametrize("shape", [(5,), (40, 5)])
    def test_values_have_the_plain_formula_bits(self, amplitude, shape):
        # at amplitude 1.0 the product with the amplitude is skipped, as
        # 1.0 * v is v, signed zeros and NaN included
        x = np.random.default_rng(3).uniform(-3.0, 3.0, shape)
        x.flat[:2] = [-0.0, 0.0]
        if x.ndim == 2:
            x[1, 0] = np.nan
        noise = PeriodicNoise(alpha=1.3, amplitude=amplitude)
        got = noise.evaluate(x)
        want = amplitude * np.add.reduce(np.sin(2.0 * np.pi * 1.3 * x), -1)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestBandlimitedNoise:
    def test_sampling_respects_minimum_frequency(self):
        noise = sample_bandlimited(d=4, alpha0=2.0, num_components=20, seed=1)
        assert noise.frequencies.shape == (4, 20)
        assert np.all(noise.frequencies >= 2.0)
        assert np.all(1.0 / noise.frequencies >= MIN_WAVELENGTH)

    @pytest.mark.parametrize("alpha0", [0.0, 5e5 * 1.001, 1e6, np.inf, np.nan])
    def test_alpha0_outside_sampling_range_rejected(self, alpha0):
        # at alpha0 >= 1 / MIN_WAVELENGTH every draw would be resampled forever
        with pytest.raises(ValueError):
            sample_bandlimited(2, alpha0, 3, seed=0)

    def test_deterministic_in_seed(self):
        a = sample_bandlimited(3, 1.0, 20, seed=5)
        b = sample_bandlimited(3, 1.0, 20, seed=5)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        c = sample_bandlimited(3, 1.0, 20, seed=6)
        assert not np.array_equal(a.frequencies, c.frequencies)

    def test_amplitude_bounded_by_d(self):
        noise = sample_bandlimited(d=5, alpha0=1.0, num_components=20, seed=2)
        pts = np.random.default_rng(3).uniform(-20, 20, size=(200, 5))
        assert np.all(np.abs(noise.evaluate(pts)) <= 5.0 + 1e-12)

    def test_low_frequency_component_rejected(self):
        freqs = np.full((2, 3), 0.5)
        with pytest.raises(ValueError):
            BandlimitedNoise(alpha0=1.0, frequencies=freqs)

    @pytest.mark.parametrize("alpha0,frequency,name", [
        (math.nan, 2.0, "alpha0"), (math.inf, 2.0, "alpha0"), (-math.inf, 2.0, "alpha0"),
        (1.0, math.inf, "frequencies"), (1.0, math.nan, "frequencies")])
    def test_infinite_or_nan_parameters_rejected(self, alpha0, frequency, name):
        # a NaN alpha0 was accepted, as frequencies < NaN is all False, and an
        # infinite frequency gave NaN with "invalid value encountered in sin"
        freqs = np.full((2, 3), 2.0)
        freqs[1, 2] = frequency
        with pytest.raises(ValueError, match=f"{name} must .*finite"):
            BandlimitedNoise(alpha0=alpha0, frequencies=freqs)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


_NOISES = st.builds(sample_bandlimited, d=st.integers(1, 6),
                    alpha0=st.sampled_from([0.1, 1.0, 1e3]),
                    num_components=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(noise=_NOISES, order=st.integers(1, 64), log10_sigma=st.floats(-4.0, 2.0),
       basis_seed=st.none() | st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
def test_bandlimited_dgs_node_sets_match_the_plain_formula(noise, order, log10_sigma,
                                                           basis_seed, seed):
    # the points a DGS estimate evaluates: along the identity basis each row
    # moves one coordinate of x, along a random one every coordinate
    d = noise.frequencies.shape[0]
    basis = (identity_basis(d) if basis_seed is None
             else random_orthonormal_basis(d, basis_seed))
    batches = []
    capture = Objective(dimension=d, evaluate=lambda p: batches.append(p) or np.zeros(len(p)))
    x = np.random.default_rng(seed).uniform(-20.0, 20.0, d)
    dgs_gradient(capture, x, 10.0**log10_sigma, build_gh_rule(order), basis)
    (points,) = batches
    assert_same_bits(noise.evaluate(points), plain_bandlimited(noise, points))


# bit patterns of +0, -0, +inf, -inf, and NaNs with three payloads or signs
_SPECIALS = np.array([0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                      0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                     dtype=np.uint64).view(float)


@st.composite
def _batches(draw, d):
    """(n, d) points whose rows come from a pool of a few, so that runs of
    repeated rows and repeated entries are common."""
    pool_size = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(0, len(_SPECIALS) - 1),
                      st.floats(-50.0, 50.0, allow_subnormal=True))
    pool = np.empty((pool_size, d))
    for i in range(pool_size):
        for j in range(d):
            e = draw(entry)
            pool[i, j] = _SPECIALS[e] if isinstance(e, int) else e
    return pool[draw(st.lists(st.integers(0, pool_size - 1), max_size=12))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), noise=_NOISES,
       shape=st.sampled_from(["batch", "fortran-ordered batch", "row", "point"]))
def test_bandlimited_batches_match_the_plain_formula(data, noise, shape):
    points = data.draw(_batches(noise.frequencies.shape[0]))
    if shape == "fortran-ordered batch":  # the plain formula sums in another order
        points = np.asfortranarray(points)
    elif shape == "row":  # (1, d), or (0, d) when the batch is empty
        points = points[:1]
    elif shape == "point":
        if not len(points):
            return
        points = points[0]
    with np.errstate(invalid="ignore"):  # sin(inf) is NaN
        got = noise.evaluate(points)
        want = plain_bandlimited(noise, points)
    assert_same_bits(got, want)


def test_bandlimited_signed_zeros_and_nan_payloads_match_the_plain_formula():
    noise = sample_bandlimited(d=2, alpha0=1.0, num_components=3, seed=0)
    points = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0],
                       [_SPECIALS[4], 1.0], [_SPECIALS[5], 1.0], [_SPECIALS[5], 0.5]])
    assert points.view(np.uint64)[6, 0] == 0x7FF8000000000001  # the payload survived
    assert_same_bits(noise.evaluate(points), plain_bandlimited(noise, points))


class TestDiminishingNoise:
    def test_quadratic_envelope(self):
        noise = DiminishingNoise(beta=0.7)
        pts = np.random.default_rng(4).uniform(-10, 10, size=(500, 3))
        vals = noise.evaluate(pts)
        bound = 0.7 * (pts**2).sum(axis=-1)
        assert np.all(np.abs(vals) <= bound + 1e-12)

    def test_vanishes_at_minimizer(self):
        assert DiminishingNoise(beta=1.0).evaluate(np.zeros(2)) == 0.0

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            DiminishingNoise(beta=-1.0)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(beta=math.inf), "beta"), (dict(beta=math.nan), "beta"),
        (dict(carrier_frequency=math.inf), "carrier_frequency"),
        (dict(carrier_frequency=math.nan), "carrier_frequency")])
    def test_infinite_or_nan_parameters_rejected(self, kwargs, name):
        # an infinite beta or carrier frequency was accepted and evaluated to
        # NaN with a RuntimeWarning
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            DiminishingNoise(**kwargs)


class TestClosedFormSineDerivative:
    def test_frozen_oracle_values(self):
        # high-precision quadrature oracle, 17 significant digits
        np.testing.assert_allclose(
            closed_form_smoothed_sine_derivative(1.0, 0.5, 0.3),
            -0.013963840112898421,
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            closed_form_smoothed_sine_derivative(0.5, 0.25, 0.0),
            2.3078232132082664,
            rtol=1e-13,
        )

    def test_attenuation_at_sigma_equal_to_wavelength(self):
        got = closed_form_smoothed_sine_derivative(1.0, 1.0, 0.0)
        np.testing.assert_allclose(got / (2 * np.pi), np.exp(-2 * np.pi**2), rtol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            closed_form_smoothed_sine_derivative(0.0, 1.0, 0.0)


class TestSyntheticObjectives:
    def test_power_sum_sqrt_gradient_matches_finite_differences(self):
        f = power_sum_sqrt_objective(5)
        x = np.array([1.2, -0.8, 2.0, 0.5, -1.5])
        np.testing.assert_allclose(
            f.true_gradient(x),
            finite_difference_gradient(f.evaluate, x),
            rtol=1e-5,
        )

    def test_power_sum_sqrt_minimum_at_origin(self):
        f = power_sum_sqrt_objective(4)
        assert f.evaluate(np.zeros(4)) == 0.0
        np.testing.assert_array_equal(f.minimizer, np.zeros(4))
        np.testing.assert_array_equal(f.true_gradient(np.zeros(4)), np.zeros(4))

    def test_quadratic_gradient(self):
        f = quadratic_objective(3)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(f.true_gradient(x), 2 * x, rtol=1e-14)

    @pytest.mark.parametrize("f", [power_sum_sqrt_objective(5), quadratic_objective(3)],
                             ids=["power-sum-sqrt", "quadratic"])
    def test_batched_gradient_matches_rows(self, f):
        pts = np.random.default_rng(11).uniform(-3, 3, size=(6, f.dimension))
        pts[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning from the zero row fails the test
            batch = f.true_gradient(pts)
            rows = [f.true_gradient(p) for p in pts]
        assert batch.shape == pts.shape
        assert batch.tobytes() == np.array(rows).tobytes()
        assert np.zeros(f.dimension).tobytes() == batch[2].tobytes()

    def test_noise_attaches_additively(self):
        noise = PeriodicNoise(alpha=1.0)
        clean = quadratic_objective(2)
        noisy = quadratic_objective(2, noise=noise)
        x = np.array([0.3, 0.7])
        np.testing.assert_allclose(
            noisy.evaluate(x), clean.evaluate(x) + noise.evaluate(x), rtol=1e-14
        )

    def test_noise_only_objective_isolates_noise(self):
        noise = PeriodicNoise(alpha=2.0)
        f = noise_only_objective(3, noise)
        x = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(f.evaluate(x), noise.evaluate(x), rtol=1e-14)
        assert f.minimizer is None

    def test_batched_objective_matches_loop(self):
        f = power_sum_sqrt_objective(3, noise=PeriodicNoise(alpha=1.0))
        pts = np.random.default_rng(7).uniform(-3, 3, size=(8, 3))
        np.testing.assert_allclose(
            f.eval_batch(pts), [f.evaluate(p) for p in pts], rtol=1e-14
        )
