import math
import warnings

import numpy as np
import pytest

from conftest import plain_bandlimited
from dgs_opt import (
    BandlimitedNoise,
    DiminishingNoise,
    PeriodicNoise,
    closed_form_smoothed_sine_derivative,
    noise_only_objective,
    power_sum_sqrt_objective,
    quadratic_objective,
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
        # a call in a row with the same arguments shares the draw, which is immutable
        assert sample_bandlimited(3, 1.0, 20, seed=5) is a and not a.frequencies.flags.writeable
        sample_bandlimited.cache_clear()
        b = sample_bandlimited(3, 1.0, 20, seed=5)
        assert b is not a
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        c = sample_bandlimited(3, 1.0, 20, seed=6)
        assert not np.array_equal(a.frequencies, c.frequencies)

    def test_amplitude_bounded_by_d(self):
        noise = sample_bandlimited(d=5, alpha0=1.0, num_components=20, seed=2)
        pts = np.random.default_rng(3).uniform(-20, 20, size=(200, 5))
        assert np.all(np.abs(noise.evaluate(pts)) <= 5.0 + 1e-12)

    @pytest.mark.parametrize("shape", [(5,), (40, 5), (0, 5)])
    def test_values_have_the_plain_formula_bits(self, shape):
        x = np.random.default_rng(3).uniform(-3.0, 3.0, shape)
        if x.size:
            x.flat[:2] = [-0.0, 0.0]
        if x.ndim == 2 and len(x):
            x[1, 0] = np.nan
        noise = sample_bandlimited(5, 1.0, 20, seed=4)
        got, want = noise.evaluate(x), plain_bandlimited(noise, x)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()

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

    @pytest.mark.parametrize("args,name", [
        # a RuntimeWarning and NaN
        ((math.inf, 1.0, 0.0), "alpha"),
        # a RuntimeWarning and NaN
        ((1.0, 1.0, math.inf), "phase_point"),
        # a NaN without a warning
        ((1.0, 1.0, math.nan), "phase_point"),
        # 0.0, the limit of the decay, for a radius that is no radius
        ((1.0, math.inf, 0.0), "sigma"),
    ], ids=["alpha-inf", "phase-inf", "phase-nan", "sigma-inf"])
    def test_nonfinite_argument_is_a_value_error_naming_it(self, args, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
                closed_form_smoothed_sine_derivative(*args)

    def test_huge_finite_arguments_neither_overflow_nor_warn(self):
        # alpha**2 raised OverflowError, and cos of an overflowed phase warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert closed_form_smoothed_sine_derivative(1e200, 1.0, 0.0) == 0.0
            assert closed_form_smoothed_sine_derivative(1e300, 1e-300, 1.0) != 0.0
            with pytest.raises(ValueError, match="overflows"):
                closed_form_smoothed_sine_derivative(1.0, 1.0, 1e308)


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
