"""Analytic noise models and the synthetic objectives built from them.

Three deterministic noise families: single-frequency periodic, high-frequency
bandlimited (an aggregation of sines whose wavelengths are sampled uniformly
up to a maximum), and quadratically diminishing noise that vanishes at the
minimizer. Each evaluates in closed form and supports batched points.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .smoothing import Objective

_TWO_PI = 2.0 * np.pi

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
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def period(self) -> float:
        return 1.0 / self.alpha

    def evaluate(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.sin(_TWO_PI * self.alpha * x).sum(axis=-1)


@dataclass(frozen=True)
class BandlimitedNoise:
    """eps(x) = (1/J) sum_i sum_j sin(2 pi alpha_ij x_i), all alpha_ij >= alpha0."""

    alpha0: float
    frequencies: np.ndarray  # (d, J)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.ndim != 2:
            raise ValueError("frequencies must be (d, J)")
        if np.any(freqs < self.alpha0):
            raise ValueError("all frequencies must be >= alpha0")

    @property
    def dimension(self) -> int:
        return self.frequencies.shape[0]

    def evaluate(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        phases = _TWO_PI * x[..., None] * self.frequencies
        return np.sin(phases).sum(axis=(-1, -2)) / self.frequencies.shape[1]


def sample_bandlimited(
    d: int, alpha0: float, num_components: int, seed: int
) -> BandlimitedNoise:
    """Draw a bandlimited noise whose wavelengths 1/alpha_ij are i.i.d.
    uniform on (0, 1/alpha0]. Wavelengths below MIN_WAVELENGTH are resampled
    (probability ~ MIN_WAVELENGTH * alpha0 per draw, so alpha0 is capped at
    half of 1 / MIN_WAVELENGTH, beyond which the resampling would not end)."""
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
    """eps(x) = beta * sum_i (x_i - x*_i)^2 sin(2 pi c (x_i - x*_i)).

    Satisfies |eps(x)| <= beta * ||x - x*||^2 everywhere.
    """

    beta: float = 1.0
    minimizer: Optional[np.ndarray] = None
    carrier_frequency: float = 1.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.carrier_frequency > 0:
            raise ValueError(
                f"carrier_frequency must be positive, got {self.carrier_frequency}"
            )

    def evaluate(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if self.minimizer is not None:
            x = x - np.asarray(self.minimizer, dtype=float)
        return self.beta * (x**2 * np.sin(_TWO_PI * self.carrier_frequency * x)).sum(
            axis=-1
        )


def closed_form_smoothed_sine_derivative(
    alpha: float, sigma: float, phase_point: float
) -> float:
    """Exact smoothed derivative of a unit-amplitude sine cross-section:
    d/dy E_v[sin(2 pi alpha (p + y + sigma v))] at y = 0 equals
    2 pi alpha exp(-2 pi^2 alpha^2 sigma^2) cos(2 pi alpha p)."""
    if not (alpha > 0 and sigma > 0):
        raise ValueError("alpha and sigma must be positive")
    return float(
        _TWO_PI
        * alpha
        * np.exp(-2.0 * np.pi**2 * alpha**2 * sigma**2)
        * np.cos(_TWO_PI * alpha * phase_point)
    )


def _attach_noise(phi, noise):
    if noise is None:
        return phi
    def evaluate(x):
        return phi(x) + noise.evaluate(x)
    return evaluate


def power_sum_sqrt_objective(d: int = 5, noise=None) -> Objective:
    """phi(x) = (sum_i |x_i|^(2+i))^(1/2), unique minimum 0 at the origin."""
    powers = np.arange(1, d + 1) + 2.0

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt((np.abs(x) ** powers).sum(axis=-1))

    def grad(x):
        x = np.asarray(x, dtype=float)
        s = phi(x)
        if s == 0:
            return np.zeros(d)
        return powers * np.abs(x) ** (powers - 1) * np.sign(x) / (2.0 * s)

    return Objective(
        dimension=d,
        evaluate=_attach_noise(phi, noise),
        true_gradient=grad,
        minimizer=np.zeros(d),
    )


def quadratic_objective(d: int = 5, noise=None) -> Objective:
    """phi(x) = sum_i x_i^2; gradient 2x, minimum at the origin."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        return (x**2).sum(axis=-1)

    def grad(x):
        return 2.0 * np.asarray(x, dtype=float)

    return Objective(
        dimension=d,
        evaluate=_attach_noise(phi, noise),
        true_gradient=grad,
        minimizer=np.zeros(d),
    )


def noise_only_objective(d: int, noise) -> Objective:
    """Objective whose smooth part is 0; isolates the DGS gradient of the noise."""
    return Objective(dimension=d, evaluate=noise.evaluate)
