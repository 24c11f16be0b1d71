import math

import mpmath
import numpy as np
import pytest

from dgs_opt import (
    ConvexityConstants,
    bandlimited_noise_grad_bound,
    contraction_rate,
    delta_sigma_periodic,
    diminishing_noise_grad_bound,
    diminishing_rate,
    gh_error_term,
    periodic_noise_grad_bound,
    recommend_sigma_bandlimited,
    recommend_sigma_periodic,
)

LT = ConvexityConstants(L=2.0, tau=2.0)


# The bounds in 50-digit arithmetic, each formula as its docstring states it.
def _periodic_50(gamma_n, n, alpha, sigma, d):
    a = 2 * mpmath.pi**2 * (mpmath.mpf(alpha) * sigma) ** 2
    tail = {1: mpmath.sqrt(mpmath.pi / a) / 2, 2: mpmath.log1p(1 / a) / 2}.get(n, 1 / (2 * a))
    return (4 / mpmath.pi * gamma_n * mpmath.sqrt(d) * (2 * mpmath.pi * alpha) ** (1 - n)
            * mpmath.exp(-a) * (1 + tail))


def _bandlimited_50(gamma, alpha0, sigma, d):
    a = 2 * mpmath.pi**2 * (mpmath.mpf(alpha0) * sigma) ** 2
    return gamma * mpmath.sqrt(d) * mpmath.exp(-a) / (mpmath.pi * mpmath.mpf(sigma) ** 2)


def _diminishing_50(beta, sigma, dist, d):
    return beta * mpmath.sqrt(2 * mpmath.mpf(d) / mpmath.pi) * (2 * mpmath.mpf(sigma)
                                                                 + mpmath.mpf(dist) ** 2 / sigma)


def _rate_50(constants, beta, d):
    L, tau, beta = mpmath.mpf(constants.L), mpmath.mpf(constants.tau), mpmath.mpf(beta)
    return (1 - tau / (32 * L) + (6 / (tau * L) + 3 / (8 * L**2)) * d * beta
            * mpmath.sqrt(2 * L**2 * mpmath.pi + beta**2) / mpmath.pi)


def _delta_50(constants, gamma1, alpha, sigma, d, order):
    L, tau, sigma = mpmath.mpf(constants.L), mpmath.mpf(constants.tau), mpmath.mpf(sigma)
    square = (alpha * sigma) ** 2
    gh = (mpmath.pi * d * mpmath.factorial(order) ** 2 * sigma ** (4 * order - 2)
          / (4**order * mpmath.factorial(2 * order) ** 2))
    noise = (96 / mpmath.pi**2 * mpmath.mpf(gamma1) ** 2 * d
             * mpmath.exp(-4 * mpmath.pi**2 * square) * (1 + 1 / (8 * mpmath.pi * square)))
    return (4 / tau**2 + 1 / (4 * L * tau)) * (gh + 48 * L**2 * d * sigma**2 + noise)


class TestConstants:
    def test_tau_cannot_exceed_L(self):
        with pytest.raises(ValueError):
            ConvexityConstants(L=1.0, tau=2.0)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ConvexityConstants(L=0.0, tau=0.0)

    @pytest.mark.parametrize("L,tau", [(math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0),
                                       (2.0, math.nan)])
    def test_finite_required(self, L, tau):
        # an infinite L was accepted, and so were L = tau = inf
        with pytest.raises(ValueError, match="must be positive and finite"):
            ConvexityConstants(L=L, tau=tau)


class TestNoiseGradientBounds:
    # frozen values from a 40-digit arithmetic oracle
    def test_periodic_frozen_values(self):
        np.testing.assert_allclose(
            periodic_noise_grad_bound(1.0, 1, 1.0, 0.5, 5),
            0.028644256360880004, rtol=1e-14,
        )
        np.testing.assert_allclose(
            periodic_noise_grad_bound(1.0, 2, 1.0, 0.5, 5),
            0.0035594601684190158, rtol=1e-14,
        )
        np.testing.assert_allclose(
            periodic_noise_grad_bound(1.0, 3, 1.0, 0.5, 5),
            0.00057120501526716784, rtol=1e-14,
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_periodic_bound_clears_single_sine_supremum(self, n):
        # a unit sine sin(2 pi alpha y) has |h^(n)| <= (2 pi alpha)^n, and its
        # smoothed derivative reaches 2 pi alpha exp(-2 pi^2 alpha^2 sigma^2)
        # on every axis at x = 0
        d = 5
        for alpha in (0.5, 1.0, 2.0):
            for sigma in np.geomspace(0.05, 5.0, 41):
                supremum = (
                    2.0 * math.pi * alpha * math.sqrt(d)
                    * math.exp(-2.0 * math.pi**2 * alpha**2 * sigma**2)
                )
                bound = periodic_noise_grad_bound(
                    (2.0 * math.pi * alpha) ** n, n, alpha, sigma, d
                )
                assert bound >= supremum, (alpha, sigma, bound, supremum)

    def test_bandlimited_frozen_value(self):
        np.testing.assert_allclose(
            bandlimited_noise_grad_bound(1.0, 1.0, 0.5, 5),
            0.020475652757210546, rtol=1e-14,
        )

    def test_diminishing_frozen_value(self):
        np.testing.assert_allclose(
            diminishing_noise_grad_bound(0.01, 0.5, 1.5, 5),
            0.098126826388402411, rtol=1e-14,
        )

    def test_bounds_decay_with_sigma(self):
        sigmas = [0.25, 0.5, 1.0, 2.0]
        per = [periodic_noise_grad_bound(1.0, 1, 1.0, s, 5) for s in sigmas]
        band = [bandlimited_noise_grad_bound(1.0, 1.0, s, 5) for s in sigmas]
        assert all(b > a for a, b in zip(per[1:], per[:-1]))
        assert all(b > a for a, b in zip(band[1:], band[:-1]))

    def test_diminishing_bound_vanishes_with_dist_and_sigma(self):
        small = diminishing_noise_grad_bound(1.0, 1e-6, 0.0, 5)
        assert small < 1e-5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            periodic_noise_grad_bound(1.0, 1, -1.0, 0.5, 5)
        with pytest.raises(ValueError):
            bandlimited_noise_grad_bound(1.0, 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            diminishing_noise_grad_bound(1.0, 1.0, -0.1, 5)

    # (alpha sigma)^2 underflows at sigma = 1e-170, and alpha^2 overflowed at
    # alpha = 1e200: each raised ZeroDivisionError or OverflowError
    @pytest.mark.parametrize("bound,value", [
        (lambda: periodic_noise_grad_bound(1.0, 3, 1.0, 1e-170, 5), math.inf),
        (lambda: periodic_noise_grad_bound(1.0, 1, 1e-200, 1e-200, 5), math.inf),
        (lambda: bandlimited_noise_grad_bound(1.0, 1.0, 1e-170, 5), math.inf),
        (lambda: delta_sigma_periodic(LT, 1.0, 1.0, 1e-170, 5, 5), math.inf),
        *[(lambda n=n: periodic_noise_grad_bound(1.0, n, 1e200, 0.5, 5), 0.0)
          for n in (1, 2, 3)],
        (lambda: bandlimited_noise_grad_bound(1.0, 1e200, 0.5, 5), 0.0),
        (lambda: bandlimited_noise_grad_bound(1.0, 1e200, 1e-170, 5), 0.0),
        (lambda: diminishing_noise_grad_bound(1e-3, 1e-320, 1.0, 5), math.inf),
    ], ids=["periodic-n3-tiny-sigma", "periodic-tiny-alpha-sigma",
            "bandlimited-tiny-sigma", "delta-tiny-sigma",
            *(f"periodic-n{n}-huge-alpha" for n in (1, 2, 3)), "bandlimited-huge-alpha",
            "bandlimited-huge-alpha-tiny-sigma", "diminishing-tiny-sigma"])
    def test_bounds_take_their_limits_at_extreme_valid_inputs(self, bound, value):
        assert bound() == value

    # Each raised, returned NaN or returned inf at a finite value: an
    # intermediate (gamma sqrt(d), (2 pi alpha)^(1 - n), 1/a, dist^2, beta^2,
    # gamma1^2, L^2, tau L, sigma^(4M - 2)) overflowed or underflowed where
    # the value did not; but rate-tiny-tau-L-beta-unscaled, which the plain
    # formula gets right and a scaling by L's exponent alone did not.
    @pytest.mark.parametrize("bound,reference,args", [
        (bandlimited_noise_grad_bound, _bandlimited_50, (1e308, 1.0, 0.5, 5)),
        (periodic_noise_grad_bound, _periodic_50, (1e308, 1, 1.0, 0.5, 5)),
        (periodic_noise_grad_bound, _periodic_50, (1.0, 3, 1e-200, 0.5, 5)),
        (periodic_noise_grad_bound, _periodic_50, (1.0, 100, 1e10, 1e-180, 5)),
        (periodic_noise_grad_bound, _periodic_50, (1.0, 1, 1.0, 1e-170, 5)),
        (periodic_noise_grad_bound, _periodic_50, (1.0, 2, 1.0, 1e-170, 5)),
        (periodic_noise_grad_bound, _periodic_50, (1e-300, 30, 1e-100, 1e99, 5)),
        (diminishing_noise_grad_bound, _diminishing_50, (1e-3, 0.5, 1e200, 5)),
        (diminishing_noise_grad_bound, _diminishing_50, (1e-300, 1.0, 1e10, 5)),
        (diminishing_rate, _rate_50, (LT, 1e300, 5)),
        (diminishing_rate, _rate_50, (ConvexityConstants(1e200, 1.0), 1e-3, 5)),
        (diminishing_rate, _rate_50, (ConvexityConstants(4.5e206, 5.9e154), 4.4e179, 69)),
        (diminishing_rate, _rate_50, (ConvexityConstants(1.5e-257, 1.5e-257), 1e-3, 5)),
        (diminishing_rate, _rate_50, (ConvexityConstants(1e200, 1e-120), 1e-3, 5)),
        (diminishing_rate, _rate_50, (ConvexityConstants(1e150, 1e-158), 1e-160, 5)),
        # past L/tau = 2^1530, where no power of two keeps L L and tau normal
        (diminishing_rate, _rate_50, (ConvexityConstants(1e300, 1e-300), 1e-3, 5)),
        (diminishing_rate, _rate_50, (ConvexityConstants(1e300, 1e-300), 1e-300, 5)),
        (diminishing_rate, _rate_50, (ConvexityConstants(1e300, 1e-200), 5e-324, 5)),
        (delta_sigma_periodic, _delta_50, (LT, 1e200, 1.0, 0.5, 5, 5)),
        (delta_sigma_periodic, _delta_50, (LT, 1.0, 1e200, 0.5, 5, 5)),
        (delta_sigma_periodic, _delta_50, (ConvexityConstants(1e200, 1e200), 1.0, 1.0, 0.5, 5, 5)),
        (delta_sigma_periodic, _delta_50, (LT, 1.0, 1.0, 1e100, 5, 5)),
    ], ids=["bandlimited-huge-gamma", "periodic-huge-gamma", "periodic-n3-tiny-alpha",
            "periodic-n100-tiny-sigma", "periodic-n1-tiny-sigma", "periodic-n2-tiny-sigma",
            "periodic-n30-huge-power", "diminishing-huge-dist", "diminishing-tiny-beta",
            "rate-huge-beta", "rate-huge-L", "rate-huge-L-tau-beta", "rate-tiny-L-tau",
            "rate-huge-L-over-tau", "rate-tiny-tau-L-beta-unscaled", "rate-past-2^1530",
            "rate-past-2^1530-tiny-beta", "rate-past-2^1530-subnormal-beta",
            "delta-huge-gamma", "delta-huge-alpha", "delta-huge-L-tau", "delta-huge-sigma"])
    def test_bounds_at_extreme_valid_inputs_match_50_digit_values(self, bound, reference, args):
        with mpmath.workdps(50):
            want = float(reference(*args))  # inf or 0.0 beyond the float range
        got = bound(*args)
        if want in (0.0, math.inf):
            assert got == want
        else:  # a log-space product: |log| up to ~700 times the unit roundoff
            assert got == pytest.approx(want, rel=1e-13)


class TestRecommendedSigma:
    def test_periodic_low_frequency_branch(self):
        # threshold for L=2, gamma1=1 is 2/(2*sqrt(2)) ~ 0.7071
        sigma, branch = recommend_sigma_periodic(LT, 1.0, 0.5)
        assert branch == "low-frequency"
        assert sigma == 2.0

    def test_periodic_high_frequency_branch_frozen_value(self):
        sigma, branch = recommend_sigma_periodic(LT, 1.0, 4.0)
        assert branch == "high-frequency"
        np.testing.assert_allclose(sigma, 0.074072648446412726599, rtol=1e-14)

    def test_bandlimited_low_frequency_branch(self):
        sigma, branch = recommend_sigma_bandlimited(LT, 1.0, 0.2)
        assert branch == "low-frequency"
        assert sigma == 5.0

    def test_bandlimited_high_frequency_branch_frozen_value(self):
        # threshold for L=2, gamma=1 is 2^(1/3)/pi ~ 0.40105
        sigma, branch = recommend_sigma_bandlimited(LT, 1.0, 1.0)
        assert branch == "high-frequency"
        np.testing.assert_allclose(sigma, 0.37264303843113413, rtol=1e-14)

    @pytest.mark.parametrize("recommend,threshold", [
        (recommend_sigma_periodic, lambda L, gamma: L / (2.0 * math.sqrt(2.0) * gamma)),
        (recommend_sigma_bandlimited,
         lambda L, gamma: L ** (1.0 / 3.0) / (math.pi * gamma ** (1.0 / 3.0))),
    ], ids=["periodic", "bandlimited"])
    def test_recommended_sigma_on_the_first_ulps_above_the_threshold(self, recommend,
                                                                     threshold):
        # alpha above the threshold can leave the branch argument rounded to 1:
        # sigma stays positive and finite, the branch turns high-frequency
        # once along the walk and stays so, and it is there 64 ulps up
        for L in (0.5, 1.0, 2.0, 3.0, 7.5):
            constants = ConvexityConstants(L=L, tau=min(L, 2.0))
            for gamma in (0.3, 1.0, 1.7, 4.0):
                alpha = threshold(L, gamma)
                branches = []
                for _ in range(64):
                    alpha = math.nextafter(alpha, math.inf)
                    sigma, branch = recommend(constants, gamma, alpha)
                    assert 0.0 < sigma < math.inf, (L, gamma, alpha)
                    branches.append(branch)
                high = branches.index("high-frequency")
                assert set(branches[high:]) == {"high-frequency"}, (L, gamma)
                assert set(branches[:high]) <= {"low-frequency"}, (L, gamma)

    def test_recommended_sigma_below_wavelength_on_high_branch(self):
        for alpha in (2.0, 4.0, 16.0):
            sigma, branch = recommend_sigma_periodic(LT, 1.0, alpha)
            assert branch == "high-frequency"
            assert 0 < sigma < 1.0 / alpha


class TestDiscrepancyAndRates:
    def test_gh_error_term_frozen_value(self):
        np.testing.assert_allclose(
            gh_error_term(5, 0.5, 5), 6.3990635728421293e-17, rtol=1e-13
        )

    @pytest.mark.parametrize("order,sigma,value", [
        (50, 0.5, 3.2758469626291514066e-276),
        (64, 100.0, 4.9979745418131641795e217),
        (64, 0.5, 0.0),  # 1.73e-367 underflows
    ])
    def test_gh_error_term_at_high_orders(self, order, sigma, value):
        # values from 50-digit arithmetic; the factorials and sigma^(4M - 2)
        # overflow a float on their own
        np.testing.assert_allclose(gh_error_term(5, sigma, order), value, rtol=1e-14)

    def test_gh_error_term_beyond_the_float_range_raises(self):
        # as documented; delta_sigma_periodic takes it in log space (delta-huge-sigma)
        with pytest.raises(OverflowError):
            gh_error_term(5, 1e100, 5)

    def test_gh_error_term_is_finite_at_every_valid_order(self):
        for order in range(1, 65):
            for sigma in (0.5, 1.0, 2.0):
                assert math.isfinite(gh_error_term(5, sigma, order)), (order, sigma)

    def test_delta_sigma_frozen_value(self):
        np.testing.assert_allclose(
            delta_sigma_periodic(LT, 1.0, 1.0, 0.5, 5, 5),
            255.00309811255925694558, rtol=1e-13,
        )

    def test_contraction_rate_reference_point(self):
        # lambda = 1/(16 L) with tau = L gives 1 - tau/(32 L) = 0.96875
        assert contraction_rate(LT, 1.0 / 32.0) == pytest.approx(0.96875, abs=1e-15)

    def test_contraction_rate_step_size_cap(self):
        with pytest.raises(ValueError):
            contraction_rate(LT, 1.0 / 8.0 / 2.0 + 0.2)

    def test_diminishing_rate_frozen_value(self):
        np.testing.assert_allclose(
            diminishing_rate(LT, 0.001, 5), 0.98146628544077812, rtol=1e-14
        )

    def test_beta_condition_matches_rate_below_one(self):
        # the rate is below 1 exactly when beta meets the smallness condition
        # beta sqrt(2 L^2 pi + beta^2) < (pi / (32 d)) 8 tau^2 L / (48 L + 3 tau)
        rng = np.random.default_rng(11)
        for _ in range(2000):
            L = float(rng.uniform(0.1, 10.0))
            tau = float(rng.uniform(0.05, 1.0)) * L
            d = int(rng.integers(1, 50))
            beta = 10.0 ** float(rng.uniform(-8.0, 1.0))
            holds = beta * math.sqrt(2.0 * L**2 * math.pi + beta**2) < (
                math.pi / (32.0 * d) * 8.0 * tau**2 * L / (48.0 * L + 3.0 * tau))
            constants = ConvexityConstants(L=L, tau=tau)
            assert holds == (diminishing_rate(constants, beta, d) < 1.0), (L, tau, d, beta)

    def test_rate_increases_with_beta_and_dimension(self):
        assert diminishing_rate(LT, 0.01, 5) > diminishing_rate(LT, 0.001, 5)
        assert diminishing_rate(LT, 0.001, 50) > diminishing_rate(LT, 0.001, 5)
