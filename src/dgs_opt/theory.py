"""Closed-form bounds on the noise part of the DGS gradient, optimal
smoothing-radius selection rules, and the contraction-rate formulas used to
check optimization runs against theory."""
from __future__ import annotations

import math
from dataclasses import dataclass


def _exp(log_value: float) -> float:
    """e^log_value, inf where that overflows (math.exp would raise)."""
    return math.exp(log_value) if log_value <= 709.782712893384 else math.inf  # log(max float)


def _log1p_exp(z: float) -> float:
    """log(1 + e^z), without overflow."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


@dataclass(frozen=True)
class ConvexityConstants:
    """Gradient Lipschitz constant L and strong-convexity parameter tau."""

    L: float
    tau: float

    def __post_init__(self):
        if not (0 < self.L < math.inf and 0 < self.tau < math.inf):
            raise ValueError(f"L and tau must be positive and finite, "
                             f"got {self.L} and {self.tau}")
        if self.tau > self.L:
            raise ValueError(f"tau ({self.tau}) cannot exceed L ({self.L})")


def periodic_noise_grad_bound(gamma_n: float, n: int, alpha: float, sigma: float, d: int) -> float:
    """Norm bound on the DGS gradient of a periodic noise whose cross-sections
    have period 1/alpha and n-th derivative bounded by gamma_n.

    A real cross-section h with |h^(n)| <= gamma_n has Fourier coefficients
    |c_k| <= (2/pi) gamma_n / (2 pi alpha |k|)^n (equality when h^(n) is a
    square wave). Smoothing multiplies c_k by exp(-a k^2), a = 2 pi^2
    alpha^2 sigma^2, so each of the d directional derivatives is at most
    sum over k = +-1, +-2, ... of 2 pi alpha |k| |c_k| exp(-a k^2)
      = (4/pi) gamma_n (2 pi alpha)^(1-n) sum_{k>=1} k^(1-n) exp(-a k^2),
    and the k >= 2 tail is bounded by an integral: exp(-a) times
    sqrt(pi/a)/2 for n = 1, log(1 + 1/a)/2 for n = 2 and 1/(2a) for n >= 3.
    A unit sine (gamma_1 = 2 pi alpha) reaches 2 pi alpha sqrt(d) exp(-a),
    (pi/4) times the leading term. The product is taken in log space: no
    factor overflows or underflows where the bound is finite and nonzero.
    """
    if not (gamma_n > 0 and alpha > 0 and sigma > 0 and d >= 1 and n >= 1):
        raise ValueError("all parameters must be positive")
    a = 2.0 * math.pi**2 * (alpha * sigma) * (alpha * sigma)  # inf only where exp(-a) is 0
    log_a = math.log(2.0 * math.pi**2) + 2.0 * (math.log(alpha) + math.log(sigma))
    if n == 2:  # log(1 + log1p(1/a)/2)
        log_tail = math.log1p(0.5 * _log1p_exp(-log_a))
    else:  # log(1 + sqrt(pi/a)/2) for n = 1, log(1 + 1/(2a)) for n >= 3
        log_inverse = 0.5 * (log_a - math.log(math.pi)) if n == 1 else log_a
        log_tail = _log1p_exp(-math.log(2.0) - log_inverse)
    return _exp(math.log(4.0 / math.pi) + math.log(gamma_n) + 0.5 * math.log(d) - a + log_tail
                + (1 - n) * (math.log(2.0 * math.pi) + math.log(alpha)))


def bandlimited_noise_grad_bound(gamma: float, alpha0: float, sigma: float, d: int) -> float:
    """Norm bound for noise whose cross-section spectra vanish below alpha0
    and are bounded by gamma: gamma sqrt(d) exp(-2 pi^2 alpha0^2 sigma^2) /
    (pi sigma^2), taken in log space as periodic_noise_grad_bound is."""
    if not (gamma > 0 and alpha0 > 0 and sigma > 0 and d >= 1):
        raise ValueError("all parameters must be positive")
    a = 2.0 * math.pi**2 * (alpha0 * sigma) * (alpha0 * sigma)
    return _exp(math.log(gamma) + 0.5 * math.log(d) - a - math.log(math.pi) - 2.0 * math.log(sigma))


def diminishing_noise_grad_bound(beta: float, sigma: float, dist: float, d: int) -> float:
    """Norm bound for noise enveloped by beta * ||x - x*||^2, at distance
    dist from the minimizer: beta sqrt(2 d / pi) (2 sigma + dist^2 / sigma),
    each term taken in log space."""
    if not (beta > 0 and sigma > 0 and d >= 1 and dist >= 0):
        raise ValueError("beta, sigma must be positive; dist nonnegative")
    log_scale = math.log(beta) + 0.5 * math.log(2.0 * d / math.pi) + math.log(sigma)
    far = _exp(log_scale + 2.0 * (math.log(dist) - math.log(sigma))) if dist else 0.0
    return _exp(log_scale + math.log(2.0)) + far


def recommend_sigma_periodic(
    constants: ConvexityConstants, gamma1: float, alpha: float
) -> tuple[float, str]:
    """Smoothing radius minimizing the periodic-noise convergence radius.

    The minimizer of 48 L^2 d sigma^2 + (96/pi^2) gamma1^2 d exp(-4 pi^2
    alpha^2 sigma^2), the sigma-dependent terms of delta_sigma_periodic
    without the quadrature term and the 1/sigma^2 correction: sigma =
    sqrt(ln(2 sqrt(2) alpha gamma1 / L)) / (sqrt(2) pi alpha) when alpha >
    L / (2 sqrt(2) gamma1) (high-frequency branch). Otherwise the expression
    increases with sigma (its infimum is at sigma -> 0), and the 1/alpha of
    the low-frequency branch is a convention, not its argmin; the result
    jumps at the threshold (1.414 to 5.2e-5 at L = 2, gamma1 = 1).
    """
    if not (gamma1 > 0 and alpha > 0):
        raise ValueError("gamma1 and alpha must be positive")
    arg = 2.0 * math.sqrt(2.0) * alpha * gamma1 / constants.L
    # the branch test alpha > threshold, on the computed argument: just above
    # the threshold, alpha > threshold can hold while arg rounds to 1
    if arg > 1.0:
        sigma = math.sqrt(math.log(arg)) / (math.sqrt(2.0) * math.pi * alpha)
        return sigma, "high-frequency"
    return 1.0 / alpha, "low-frequency"


def recommend_sigma_bandlimited(
    constants: ConvexityConstants, gamma: float, alpha0: float
) -> tuple[float, str]:
    """Smoothing radius minimizing the bandlimited-noise convergence radius.

    High-frequency branch when alpha0 > L^(1/3) / (pi gamma^(1/3)), otherwise
    sigma = 1/alpha0.
    """
    if not (gamma > 0 and alpha0 > 0):
        raise ValueError("gamma and alpha0 must be positive")
    arg = math.pi * alpha0 * gamma ** (1.0 / 3.0) / constants.L ** (1.0 / 3.0)
    if arg > 1.0:  # alpha0 above the threshold, tested as recommend_sigma_periodic does
        sigma = (
            math.sqrt(3.0)
            / (math.pi * alpha0 * math.sqrt(2.0))
            * math.sqrt(math.log(arg))
        )
        return sigma, "high-frequency"
    return 1.0 / alpha0, "low-frequency"


def gh_error_term(d: int, sigma: float, order: int) -> float:
    """Quadrature contribution to the estimator-discrepancy bound:
    pi (M!)^2 d / (4^M ((2M)!)^2) * sigma^(4M - 2). The theory does not fix
    the bound's constant, so it is taken as 1: use the term for shape
    comparisons, not absolute thresholds.

    The factorial ratio is one correctly rounded division of exact integers,
    and sigma^(4M - 2) is taken as a mantissa power times a power of two, so
    neither overflows where the term is finite (up to MAX_ORDER). A term
    beyond the float range is an OverflowError; one below it is 0.0."""
    return math.ldexp(*_gh_parts(d, sigma, order))


def _gh_parts(d: int, sigma: float, order: int) -> tuple[float, int]:
    """gh_error_term as (p, e), p * 2^e, with neither p nor e out of range."""
    m = order
    ratio = math.factorial(m) ** 2 / (4**m * math.factorial(2 * m) ** 2)
    mantissa, exponent = math.frexp(sigma)
    ratio_mantissa, ratio_exponent = math.frexp(ratio)
    return (math.pi * d * ratio_mantissa * mantissa ** (4 * m - 2),
            ratio_exponent + exponent * (4 * m - 2))


def delta_sigma_periodic(
    constants: ConvexityConstants,
    gamma1: float,
    alpha: float,
    sigma: float,
    d: int,
    order: int,
) -> float:
    """Squared radius of the neighborhood of convergence under periodic noise.

    The noise term is 3 B^2, B = periodic_noise_grad_bound(gamma1, 1, ...),
    bounded with (1 + x)^2 <= 2 (1 + x^2). The constant of the quadrature
    term is not determined by theory and is taken as 1 (gh_error_term); use
    this function for shape comparisons, not absolute thresholds. Each term
    times the lead 4/tau^2 + 1/(4 L tau) is taken in log space, as in
    periodic_noise_grad_bound, the quadrature term's from gh_error_term's parts.
    """
    L, tau = constants.L, constants.tau
    log_lead = math.log(4.0 + 0.25 * tau / L) - 2.0 * math.log(tau)
    gh_product, gh_exponent = _gh_parts(d, sigma, order)
    logs = (math.log(gh_product) + gh_exponent * math.log(2.0),
            math.log(48.0 * d) + 2.0 * (math.log(L) + math.log(sigma)),
            math.log(96.0 / math.pi**2 * d) + 2.0 * math.log(gamma1)
            - 4.0 * math.pi**2 * (alpha * sigma) * (alpha * sigma)
            + _log1p_exp(-math.log(8.0 * math.pi) - 2.0 * (math.log(alpha) + math.log(sigma))))
    return sum(_exp(log_lead + term) for term in logs)


def contraction_rate(constants: ConvexityConstants, lam: float) -> float:
    """Per-step multiplicative bound on the squared distance to the optimum:
    1 - (lambda tau - 8 lambda^2 tau L), valid for lambda <= 1/(8L).
    At lambda = 1/(16L) this equals 1 - tau/(32L)."""
    if lam > 1.0 / (8.0 * constants.L):
        raise ValueError(
            f"step size {lam} exceeds 1/(8L) = {1.0 / (8.0 * constants.L)}"
        )
    return 1.0 - (lam * constants.tau - 8.0 * lam**2 * constants.tau * constants.L)


def diminishing_rate(constants: ConvexityConstants, beta: float, d: int) -> float:
    """Per-step squared-distance factor of the decaying-radius scheme:
    (1 - tau/(32L)) + (6/(tau L) + 3/(8 L^2)) d beta sqrt(2 L^2 pi + beta^2) / pi.
    Below 1 exactly when the noise envelope's curvature meets the smallness
    condition of the exact-convergence guarantee,
    beta sqrt(2 L^2 pi + beta^2) < (pi / (32 d)) * 8 tau^2 L / (48 L + 3 tau).
    The plain formula wherever L L and tau L are normal floats; elsewhere L, tau
    and beta are first scaled alike (the rate does not change) by the power of
    two that brings tau L nearest 1 with L L and tau normal. Past L/tau =
    2^1530 none does; there tau/(32 L) and 3/(8 L^2), below 2^-1534 of 1 and
    of 6/(tau L), drop out, and the root is L hypot(sqrt(2 pi), beta/L)."""
    L, tau = constants.L, constants.tau
    if not (L * L < math.inf and tau * L >= 2.0**-1022):  # 2^-1022: the least normal
        e_L, e_tau = math.frexp(L)[1], math.frexp(tau)[1]
        if e_L - e_tau > 1530:
            root_over_L = math.hypot(math.sqrt(2.0 * math.pi), beta / L)
            return 1.0 + 6.0 * d * (beta / tau) * root_over_L / math.pi
        exponent = min(-((e_L + e_tau) // 2), 510 - e_L)
        try:
            L, tau, beta = (math.ldexp(v, exponent) for v in (L, tau, beta))
        except OverflowError:  # a scaled beta beyond the float range, and so the rate
            return math.inf
    return (1.0 - tau / (32.0 * L)) + (
        6.0 / (tau * L) + 3.0 / (8.0 * L * L)
    ) * d * beta * math.sqrt(2.0 * L * L * math.pi + beta * beta) / math.pi

