"""Analytic noise models and the synthetic objectives built from them.

Three deterministic noise families: single-frequency periodic, high-frequency
bandlimited (an aggregation of sines whose wavelengths are sampled uniformly
up to a maximum), and quadratically diminishing noise that vanishes at the
minimizer. Each evaluates in closed form and supports batched points.
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class BandlimitedNoise:
    """eps(x) = (1/J) sum_i sum_j sin(2 pi alpha_ij x_i), all alpha_ij >= alpha0.

    A C-ordered (n, d) batch computes the J sines of entry x_ri only where
    x_ri differs, bit for bit, from x_(r-1)i in the row above, and reuses
    them below. Along the identity basis a DGS node set moves one coordinate
    per row, so most entries repeat; a random basis or stacked iterates
    repeat none and take the plain formula. Either way every value has the
    bits of the plain formula, as the sum runs over the same terms in the
    same order.
    """

    alpha0: float
    frequencies: np.ndarray  # (d, J)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.ndim != 2:
            raise ValueError("frequencies must be (d, J)")
        if np.any(freqs < self.alpha0):
            raise ValueError("all frequencies must be >= alpha0")

    def evaluate(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        freqs = self.frequencies
        # A single row has no row above to reuse. The sum below runs in x's
        # memory order and the gathered sines are in C order, so only a
        # C-ordered x keeps its bits through the gather.
        if x.ndim == 2 and len(x) > 1 and x.flags.c_contiguous:
            bits = x.view(np.uint64)  # so -0.0 and each NaN payload count as new
            new = np.empty(x.shape, dtype=bool)
            new[0] = True
            np.not_equal(bits[1:], bits[:-1], out=new[1:])
            if not new.all():
                rows, cols = np.nonzero(new)  # row-major, so ids grow down each column
                sines = np.sin(_TWO_PI * x[rows, cols][:, None] * freqs[cols])
                ids = np.zeros(x.shape, dtype=np.intp)
                ids[rows, cols] = np.arange(len(rows))
                np.maximum.accumulate(ids, axis=0, out=ids)  # the last new entry above
                return np.take(sines, ids, axis=0).sum(axis=(-1, -2)) / freqs.shape[1]
        phases = _TWO_PI * x[..., None] * freqs
        return np.sin(phases).sum(axis=(-1, -2)) / freqs.shape[1]


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
    """eps(x) = beta * sum_i x_i^2 sin(2 pi c x_i), which vanishes at the
    objectives' minimizer x* = 0.

    Satisfies |eps(x)| <= beta * ||x||^2 everywhere.
    """

    beta: float = 1.0
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
        s = np.expand_dims(phi(x), -1)
        # rows where s == 0 (the minimum) divide by 0; their gradient is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            g = powers * np.abs(x) ** (powers - 1) * np.sign(x) / (2.0 * s)
        return np.where(s == 0, 0.0, g)

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
