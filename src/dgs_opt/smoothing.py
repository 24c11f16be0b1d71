"""Directional-Gaussian-smoothing gradient estimators.

The central object is the nonlocal gradient assembled from d one-dimensional
Gaussian-smoothed directional derivatives along an orthonormal basis, each
approximated by Gauss-Hermite quadrature. A plain Monte Carlo estimator of
the globally-smoothed gradient is kept as the baseline.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import GHRule

_SQRT2 = np.sqrt(2.0)
_SQRT_PI = np.sqrt(np.pi)


class EvaluationError(RuntimeError):
    """Objective returned a non-finite value; carries the offending point."""

    def __init__(self, point: np.ndarray):
        self.point = np.array(point, copy=True)
        super().__init__(f"objective returned a non-finite value at {self.point}")


@dataclass(eq=False)
class Objective:
    """A noisy observable F(x) = phi(x) + eps(x).

    ``evaluate`` must be a pure, deterministic map that takes an (n, d) array
    of points and returns n values (a single (d,) point gives one value),
    and be safe for concurrent calls; the estimators batch their node
    evaluations through it. ``true_gradient`` and ``minimizer`` are available
    only for synthetic objectives; ``true_gradient`` also takes (n, d) batches.
    The optimizer calls both once per trial on its stacked iterates.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    true_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    minimizer: Optional[np.ndarray] = None

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (n, d) array, in row order; raises
        EvaluationError at the first row whose value is not finite."""
        values = np.asarray(self.evaluate(points), dtype=float)
        if not np.isfinite(values).all():
            raise EvaluationError(points[int(np.argmax(~np.isfinite(values)))])
        return values


@dataclass(frozen=True, eq=False)
class DirectionBasis:
    """d orthonormal unit vectors, stored as the columns of a d x d matrix."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise ValueError(f"basis must be a square matrix, got shape {cols.shape}")
        if not np.allclose(cols.T @ cols, np.eye(len(cols)), atol=1e-12):
            raise ValueError("basis columns are not orthonormal to 1e-12")

    @property
    def dimension(self) -> int:
        return self.columns.shape[0]


def identity_basis(d: int) -> DirectionBasis:
    return DirectionBasis(np.eye(d))


def random_orthonormal_basis(d: int, seed: int) -> DirectionBasis:
    """Orthogonally-invariant random basis: QR of a Gaussian matrix with the
    sign of R's diagonal fixed. Deterministic given the seed."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return DirectionBasis(q * signs)


def _gh_nodes(directions: np.ndarray, sigmas: list, rule: GHRule) -> list:
    """What a Gauss-Hermite estimate along each row xi of ``directions``
    needs besides x and F, for each radius sigma in ``sigmas``: the node
    offsets sqrt(2) sigma v_m xi from x, as one (k * M, d) array,
    direction-major; the coefficients w_m v_m; and the factor
    sqrt(2) / (sqrt(pi) sigma). One broadcast serves the whole stack of
    radii, with the association of a single radius, so each gets the same
    bits on its own or in a stack."""
    k, d = directions.shape
    sigmas = np.asarray(sigmas, dtype=float)
    offsets = ((_SQRT2 * sigmas)[:, None, None, None] * rule.nodes[None, None, :, None]
               * directions[None, :, None, :]).reshape(len(sigmas), k * rule.order, d)
    coefficients = rule.weights * rule.nodes
    return [(o, coefficients, scale) for o, scale in zip(offsets, _SQRT2 / (_SQRT_PI * sigmas))]


@dataclass(frozen=True, eq=False)
class DGSConfig:
    """Smoothing radius, quadrature rule and direction basis for one estimate.

    The node offsets and coefficients depend on these alone, so a config
    builds them once, and every estimate made with it reuses them. A config
    built directly is the stack-of-one case of ``_gh_nodes``; ``_stack``
    builds the configs of many radii in one broadcast, with the same bits.
    """

    sigma: float
    rule: GHRule
    basis: DirectionBasis

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        # rows of the transposed basis are the directions xi_i
        object.__setattr__(self, "_nodes",
                           _gh_nodes(self.basis.columns.T, [self.sigma], self.rule)[0])

    @classmethod
    def _stack(cls, sigmas: list, rule: GHRule, basis: DirectionBasis) -> list:
        """One config per radius in ``sigmas`` (each > 0), with the bits
        ``DGSConfig(sigma, rule, basis)`` has, and their node offsets built
        in one broadcast."""
        configs = []
        for sigma, nodes in zip(sigmas, _gh_nodes(basis.columns.T, sigmas, rule)):
            config = object.__new__(cls)
            config.__dict__.update(sigma=sigma, rule=rule, basis=basis, _nodes=nodes)
            configs.append(config)
        return configs


def _gh_derivatives(f: Objective, x: np.ndarray, nodes: tuple) -> np.ndarray:
    """Smoothed directional derivatives at x along each direction xi of
    ``nodes`` (see _gh_nodes): (1 / (sqrt(pi) * sigma)) * sum_m w_m
    F(x + sqrt(2) sigma v_m xi) * sqrt(2) v_m, from k * M evaluations."""
    offsets, coefficients, scale = nodes
    # x is added last, so each point has the bits of x + (sqrt(2) sigma v_m xi)
    values = f.eval_batch(x + offsets).reshape(-1, len(coefficients))
    # einsum, not values @ coefficients: BLAS rounds a row of a
    # matrix-vector product differently depending on how many rows it is
    # given, and a direction's derivative should not depend on the others.
    return np.einsum("km,m->k", values, coefficients) * scale


def directional_derivative_gh(
    f: Objective,
    x: np.ndarray,
    xi: np.ndarray,
    sigma: float,
    rule: GHRule,
) -> float:
    """Gauss-Hermite estimate of the smoothed directional derivative at x
    along the unit vector xi, from exactly ``rule.order`` evaluations."""
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector (1e-10 tolerance)")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    return float(_gh_derivatives(f, x, _gh_nodes(xi[None, :], [sigma], rule)[0])[0])


def dgs_gradient(f: Objective, x: np.ndarray, config: DGSConfig) -> np.ndarray:
    """DGS gradient estimate at x: the d directional GH derivatives along the
    basis directions, mapped back to standard coordinates.

    Uses exactly M * d objective evaluations; evaluation and reduction order
    are fixed, so the result is bit-reproducible, and the same whether the
    config is new or reused.
    """
    x = np.asarray(x, dtype=float)
    d = config.basis.dimension
    if x.shape != (d,):
        raise ValueError(f"point has shape {x.shape}, expected ({d},)")
    return config.basis.columns @ _gh_derivatives(f, x, config._nodes)


def gs_gradient_mc(
    f: Objective,
    x: np.ndarray,
    sigma: float,
    samples: int,
    seed: int,
) -> np.ndarray:
    """Monte Carlo estimate of the globally-smoothed gradient:
    (1 / (N sigma)) * sum_k F(x + sigma u_k) u_k with u_k standard Gaussian.

    Plain (no antithetic pairing) estimator; exactly ``samples`` objective
    evaluations; deterministic given the seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, x.shape[0]))
    values = f.eval_batch(x[None, :] + sigma * u)
    return (values @ u) / (samples * sigma)
