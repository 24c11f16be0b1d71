"""Analytic noise models and the synthetic objectives built from them.

Three deterministic noise families: single-frequency periodic, high-frequency
bandlimited (an aggregation of sines whose wavelengths are sampled uniformly
up to a maximum), and quadratically diminishing noise that vanishes at the
minimizer. Each evaluates in closed form and supports batched points.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .smoothing import _TWO_PI, Objective

# Wavelengths below this are resampled when drawing bandlimited components:
# the corresponding frequencies are too large to evaluate meaningfully in
# double precision.
MIN_WAVELENGTH = 1e-6


@dataclass(frozen=True)
class PeriodicNoise:
    """eps(x) = amplitude * sum_i sin(2 pi alpha x_i); period 1/alpha per axis."""

    alpha: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha < np.inf and np.isfinite(self.amplitude)):
            raise ValueError(f"alpha must be positive and finite and amplitude finite, "
                             f"got {self.alpha} and {self.amplitude}")

    def evaluate(self, x: np.ndarray) -> np.ndarray | float:
        return self.amplitude * np.add.reduce(
            np.sin(_TWO_PI * self.alpha * np.asarray(x, dtype=float)), -1)

    def sine_sum(self, d: int) -> tuple[np.ndarray, float]:
        """(alpha, weight) in d dimensions: eps(x) = weight * sum_ij sin(2 pi alpha_ij x_i)."""
        return np.full((d, 1), float(self.alpha)), self.amplitude


@dataclass(frozen=True, eq=False)
class BandlimitedNoise:
    """eps(x) = (1/J) sum_i sum_j sin(2 pi alpha_ij x_i), all alpha_ij >= alpha0."""

    alpha0: float
    frequencies: np.ndarray  # (d, J)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.ndim != 2:
            raise ValueError("frequencies must be (d, J)")
        if not 0 < self.alpha0 < np.inf:
            raise ValueError(f"alpha0 must be positive and finite, got {self.alpha0}")
        if not np.all((freqs >= self.alpha0) & (freqs < np.inf)):  # False at NaN
            raise ValueError("all frequencies must be finite and >= alpha0")

    def evaluate(self, x: np.ndarray) -> np.ndarray | float:
        phases = _TWO_PI * np.asarray(x, dtype=float)[..., None] * self.frequencies
        return np.add.reduce(np.sin(phases), (-1, -2)) / self.frequencies.shape[1]

    def sine_sum(self, d: int) -> tuple[np.ndarray, float]:
        """(alpha, weight): eps(x) = weight * sum_ij sin(2 pi alpha_ij x_i)."""
        return self.frequencies, 1.0 / self.frequencies.shape[1]


@functools.lru_cache(maxsize=1, typed=True)
def sample_bandlimited(
    d: int, alpha0: float, num_components: int, seed: int
) -> BandlimitedNoise:
    """Draw a bandlimited noise whose wavelengths 1/alpha_ij are i.i.d.
    uniform on (0, 1/alpha0]. Wavelengths below MIN_WAVELENGTH are resampled
    (probability ~ MIN_WAVELENGTH * alpha0 per draw, so alpha0 is capped at
    half of 1 / MIN_WAVELENGTH, beyond which the resampling would not end).
    The noise is immutable, its frequencies read-only, so calls in a row with
    the same arguments (a sweep's trials) share one draw."""
    if not 0 < alpha0 <= 0.5 / MIN_WAVELENGTH:
        raise ValueError(f"alpha0 must be in (0, {0.5 / MIN_WAVELENGTH:g}], got {alpha0}")
    if num_components < 1:
        raise ValueError(f"num_components must be >= 1, got {num_components}")
    rng = np.random.default_rng(seed)
    wavelengths = np.empty((d, num_components))
    remaining = np.ones((d, num_components), dtype=bool)
    while remaining.any():
        draw = rng.uniform(0.0, 1.0 / alpha0, size=int(remaining.sum()))
        wavelengths[remaining] = draw
        remaining &= wavelengths < MIN_WAVELENGTH
    freqs = 1.0 / wavelengths
    freqs.setflags(write=False)
    return BandlimitedNoise(alpha0=alpha0, frequencies=freqs)


@dataclass(frozen=True)
class DiminishingNoise:
    """eps(x) = beta * sum_i x_i^2 sin(2 pi c x_i), which vanishes at the
    objectives' minimizer x* = 0.

    Satisfies |eps(x)| <= beta * ||x||^2 everywhere.
    """

    beta: float = 1.0
    carrier_frequency: float = 1.0

    def __post_init__(self):
        if not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0 < self.carrier_frequency < np.inf:
            raise ValueError(f"carrier_frequency must be positive and finite, "
                             f"got {self.carrier_frequency}")

    def evaluate(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        return self.beta * np.add.reduce(x**2 * np.sin(_TWO_PI * self.carrier_frequency * x), -1)


def closed_form_smoothed_sine_derivative(
    alpha: float, sigma: float, phase_point: float
) -> float:
    """Exact smoothed derivative of a unit-amplitude sine cross-section:
    d/dy E_v[sin(2 pi alpha (p + y + sigma v))] at y = 0 equals
    2 pi alpha exp(-2 pi^2 alpha^2 sigma^2) cos(2 pi alpha p). An argument
    out of range, NaN or infinite is a ValueError that names it."""
    for name, value in (("alpha", alpha), ("sigma", sigma)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not np.isfinite(phase_point):
        raise ValueError(f"phase_point must be finite, got {phase_point}")
    phase = _TWO_PI * alpha * phase_point
    if not np.isfinite(phase):
        raise ValueError(f"2 pi alpha phase_point overflows at {alpha} and {phase_point}")
    ratio = alpha * sigma  # squared as a product, which overflows to inf, not an error
    return float(_TWO_PI * alpha * np.exp(-2.0 * np.pi**2 * ratio * ratio) * np.cos(phase))


def _noisy_objective(d: int, phi, noise, **known) -> Objective:
    """The objective phi + noise. A noise that is a sine sum is also kept
    apart from phi, so the estimators take it from its tables."""
    if noise is None:
        return Objective(dimension=d, evaluate=phi, **known)

    def evaluate(x):
        return phi(x) + noise.evaluate(x)

    if hasattr(noise, "sine_sum"):
        known.update(sines=(phi, *noise.sine_sum(d)))
    return Objective(dimension=d, evaluate=evaluate, **known)


def power_sum_sqrt_objective(d: int = 5, noise=None) -> Objective:
    """phi(x) = (sum_i |x_i|^(2+i))^(1/2), unique minimum 0 at the origin."""
    powers = np.arange(1, d + 1) + 2.0

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.add.reduce(np.abs(x) ** powers, -1))

    def grad(x):
        x = np.asarray(x, dtype=float)
        s = np.expand_dims(phi(x), -1)
        # rows where s == 0 (the minimum) divide by 0; their gradient is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            g = powers * np.abs(x) ** (powers - 1) * np.sign(x) / (2.0 * s)
        return np.where(s == 0, 0.0, g)

    return _noisy_objective(d, phi, noise, true_gradient=grad, minimizer=np.zeros(d))


def quadratic_objective(d: int = 5, noise=None) -> Objective:
    """phi(x) = sum_i x_i^2; gradient 2x, minimum at the origin."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.add.reduce(x**2, -1)

    def grad(x):
        return 2.0 * np.asarray(x, dtype=float)

    return _noisy_objective(d, phi, noise, true_gradient=grad, minimizer=np.zeros(d))


def noise_only_objective(d: int, noise) -> Objective:
    """Objective whose smooth part is 0; isolates the DGS gradient of the noise."""
    return Objective(dimension=d, evaluate=noise.evaluate)
