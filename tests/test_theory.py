import math

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
