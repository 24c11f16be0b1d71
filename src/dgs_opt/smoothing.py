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

try:  # what np.einsum(..., optimize=False) forwards to, without its Python wrapper
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

_SQRT2, _SQRT_PI = math.sqrt(2.0), math.sqrt(math.pi)  # floats: no numpy scalar per radius
_ZERO = np.zeros(())  # adds +0.0 in fewer steps than the Python float 0.0

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


def _gh_nodes(columns: np.ndarray, rule: GHRule) -> Callable[[float], tuple]:
    """The builder, one radius at a time, of what a Gauss-Hermite estimate
    along each column xi of ``columns`` (d x k) needs besides x and F:
    ``nodes_at(sigma)`` gives the node offsets ((sqrt(2) sigma) v_m) xi from
    x, as a (k * M, d) array, direction-major; the coefficients w_m v_m; the
    factor sqrt(2) / (sqrt(pi) sigma); and the columns, with whether they are
    the identity. All but the offsets and factor are built here once, so
    each radius costs two array operations."""
    d = len(columns)
    identity = np.array_equal(columns, np.eye(d))
    nodes, coefficients = rule.nodes[:, None], rule.weights * rule.nodes
    # C-ordered directions give C-ordered offsets, which reshape without a copy
    directions = np.ascontiguousarray(columns.T)[:, None, :]

    def nodes_at(sigma: float) -> tuple:
        offsets = ((_SQRT2 * sigma) * nodes) * directions
        return offsets.reshape(-1, d), coefficients, _SQRT2 / (_SQRT_PI * sigma), columns, identity

    return nodes_at


def _gh_gradient(f: Objective, x: np.ndarray, nodes: tuple) -> np.ndarray:
    """The DGS estimate at x from one evaluation of k * M points: the
    smoothed directional derivatives along each direction xi of ``nodes`` (a
    radius's offsets, coefficients, factor and columns from _gh_nodes),
    (1 / (sqrt(pi) * sigma)) * sum_m w_m F(x + sqrt(2) sigma v_m xi) *
    sqrt(2) v_m, mapped back to standard coordinates by the product with the
    columns. Raises EvaluationError at the first point whose value is not
    finite, as Objective.eval_batch."""
    offsets, coefficients, scale, columns, identity = nodes
    # x is added last, so each point has the bits of x + (sqrt(2) sigma v_m xi)
    points = x + offsets
    values = np.asarray(f.evaluate(points), dtype=float)
    # einsum's loop, not values @ coefficients: BLAS rounds a row of a
    # matrix-vector product differently depending on how many rows it is
    # given, and a direction's derivative should not depend on the others.
    # np.vecdot, np.matvec and (V * c).sum(1) each round unlike einsum too.
    derivatives = c_einsum("km,m->k", values.reshape(-1, len(coefficients)), coefficients)
    derivatives *= scale
    # A value that is not finite makes its derivative, and so their sum, not
    # finite: a zero coefficient gives 0 * inf = NaN. Only then are the
    # values scanned; a sum that merely overflowed finds none. Python floats
    # overflow to inf without numpy's warning. The product with identity
    # columns adds 0 * each other derivative to each: for finite ones that
    # only turns -0.0 (an underflowed factor) into +0.0, as + 0.0 does.
    finite = math.isfinite(sum(derivatives.tolist()))
    if not finite:
        _raise_at_nonfinite(points, values)
    return derivatives + _ZERO if finite and identity else columns @ derivatives


def dgs_gradient(f: Objective, x: np.ndarray, sigma: float, rule: GHRule,
                 basis: DirectionBasis) -> np.ndarray:
    """DGS gradient estimate at x with radius sigma: the d directional GH
    derivatives along the basis directions, mapped back to standard
    coordinates, from exactly M * d evaluations in a fixed order, so it is
    bit-reproducible. A radius below SIGMA_FLOOR or infinite, a point of
    another shape, or an objective of another dimension is a ValueError."""
    if not SIGMA_FLOOR <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and at least {SIGMA_FLOOR:g}, got {sigma}")
    x = np.asarray(x, dtype=float)
    columns = basis.columns
    if x.shape != columns.shape[1:]:
        raise ValueError(f"point has shape {x.shape}, expected ({len(columns)},)")
    if f.dimension != len(columns):
        raise ValueError(f"objective is {f.dimension}-dimensional, "
                         f"basis and point are {len(columns)}-dimensional")
    return _gh_gradient(f, x, _gh_nodes(columns, rule)(sigma))
