"""Directional-Gaussian-smoothing gradient estimators.

The central object is the nonlocal gradient assembled from d one-dimensional
Gaussian-smoothed directional derivatives along an orthonormal basis, each
approximated by Gauss-Hermite quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import GHRule

_SQRT2 = np.sqrt(2.0)
_SQRT_PI = np.sqrt(np.pi)

# The smallest radius an estimate is made at: below it estimates only amplify
# rounding noise, and far below it the factor sqrt(2) / (sqrt(pi) sigma) overflows.
SIGMA_FLOOR = 1e-14


class EvaluationError(RuntimeError):
    """Objective returned a non-finite value; carries the offending point."""

    def __init__(self, point: np.ndarray):
        self.point = np.array(point, copy=True)
        super().__init__(f"objective returned a non-finite value at {self.point}")


def _raise_at_nonfinite(points: np.ndarray, values: np.ndarray) -> None:
    """Raise EvaluationError at the first row of ``points`` whose value is
    not finite, if there is one."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise EvaluationError(points[int(np.argmax(bad))])


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
        _raise_at_nonfinite(points, values)
        return values


@dataclass(frozen=True, eq=False)
class DirectionBasis:
    """d orthonormal unit vectors, stored as the columns of a d x d matrix:
    a read-only float copy of the one given, so it stays the matrix checked."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.array(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise ValueError(f"basis must be a square matrix, got shape {cols.shape}")
        if not np.allclose(cols.T @ cols, np.eye(len(cols)), atol=1e-12):
            raise ValueError("basis columns are not orthonormal to 1e-12")
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

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


def _gh_nodes(directions: np.ndarray, rule: GHRule) -> Callable[[float], tuple]:
    """The builder, one radius at a time, of what a Gauss-Hermite estimate
    along each row xi of ``directions`` needs besides x and F: ``nodes_at(sigma)``
    gives the node offsets ((sqrt(2) sigma) v_m) xi from x, as a (k * M, d)
    array, direction-major; the coefficients w_m v_m; and the factor
    sqrt(2) / (sqrt(pi) sigma). The coefficients and the shaped nodes and
    directions depend on the rule and the directions alone, so they are built
    here once, and each radius costs two array operations."""
    k, d = directions.shape
    nodes, coefficients = rule.nodes[:, None], rule.weights * rule.nodes
    # C-ordered directions give C-ordered offsets, which reshape without a copy
    directions = np.ascontiguousarray(directions)[:, None, :]

    def nodes_at(sigma: float) -> tuple:
        offsets = ((_SQRT2 * sigma) * nodes) * directions
        return (offsets.reshape(k * rule.order, d), coefficients,
                float(_SQRT2 / (_SQRT_PI * sigma)))

    return nodes_at


@dataclass(frozen=True, eq=False)
class DGSConfig:
    """Smoothing radius, quadrature rule and direction basis for one estimate.

    The node offsets, coefficients and factor depend on these alone, so a
    config builds them once, with _gh_nodes, and every estimate made with it
    reuses them. A radius below SIGMA_FLOOR, or infinite, is a ValueError.
    """

    sigma: float
    rule: GHRule
    basis: DirectionBasis

    def __post_init__(self):
        if not SIGMA_FLOOR <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and at least {SIGMA_FLOOR:g}, "
                             f"got {self.sigma}")
        # rows of the transposed basis are the directions xi_i
        object.__setattr__(self, "_nodes", _gh_nodes(self.basis.columns.T, self.rule)(self.sigma))


def _gh_derivatives(f: Objective, x: np.ndarray, nodes: tuple) -> np.ndarray:
    """Smoothed directional derivatives at x along each direction xi of
    ``nodes`` (a radius's offsets, coefficients and factor from _gh_nodes):
    (1 / (sqrt(pi) * sigma)) * sum_m w_m F(x + sqrt(2) sigma v_m xi) *
    sqrt(2) v_m, from one evaluation of k * M points. Raises EvaluationError
    at the first point whose value is not finite, as Objective.eval_batch."""
    offsets, coefficients, scale = nodes
    # x is added last, so each point has the bits of x + (sqrt(2) sigma v_m xi)
    points = x + offsets
    values = np.asarray(f.evaluate(points), dtype=float)
    # einsum, not values @ coefficients: BLAS rounds a row of a
    # matrix-vector product differently depending on how many rows it is
    # given, and a direction's derivative should not depend on the others.
    derivatives = np.einsum("km,m->k", values.reshape(-1, len(coefficients)),
                            coefficients) * scale
    # A value that is not finite makes its derivative, and so their sum, not
    # finite: a zero coefficient gives 0 * inf = NaN. Only then are the
    # values scanned; a sum that merely overflowed finds none. Python floats
    # overflow to inf without numpy's warning.
    if not math.isfinite(sum(derivatives.tolist())):
        _raise_at_nonfinite(points, values)
    return derivatives


def dgs_gradient(f: Objective, x: np.ndarray, config: DGSConfig) -> np.ndarray:
    """DGS gradient estimate at x: the d directional GH derivatives along the
    basis directions, mapped back to standard coordinates.

    Uses exactly M * d objective evaluations; evaluation and reduction order
    are fixed, so the result is bit-reproducible, and the same whether the
    config is new or reused.
    """
    x = np.asarray(x, dtype=float)
    columns = config.basis.columns
    if x.shape != columns.shape[1:]:
        raise ValueError(f"point has shape {x.shape}, expected ({len(columns)},)")
    return columns @ _gh_derivatives(f, x, config._nodes)
