"""Directional-Gaussian-smoothing gradient estimators.

The central object is the nonlocal gradient assembled from d one-dimensional
Gaussian-smoothed directional derivatives along an orthonormal basis, each
approximated by Gauss-Hermite quadrature.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import GHRule

try:  # what np.einsum(..., optimize=False) forwards to, without its Python wrapper
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

_SQRT2, _SQRT_PI = math.sqrt(2.0), math.sqrt(math.pi)  # floats: no numpy scalar per radius
_TWO_PI = 2.0 * math.pi
_ZERO = np.zeros(())  # adds +0.0 in fewer steps than the Python float 0.0
_BLOCK_BYTES = 1 << 16  # the most one nodes_at call of a run builds (see _block_size)

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
    of points and returns n values (a single (d,) point gives one value), and
    be safe for concurrent calls; the estimators batch their node evaluations
    through it as F-ordered (n, d) arrays, unless ``sines`` is set (phi then
    gets them). ``true_gradient`` and ``minimizer`` are available only for
    synthetic objectives; ``true_gradient`` also takes (n, d) batches. The
    optimizer calls both once per trial on its stacked iterates.

    When eps = weight * sum_ij sin(2 pi alpha_ij x_i), alpha (d, J), ``sines``
    may be (phi, alpha, weight): the estimators then evaluate phi alone and
    take eps from a table per radius (see _gh_nodes), never ``evaluate``.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    true_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    minimizer: Optional[np.ndarray] = None
    sines: Optional[tuple[Callable[[np.ndarray], np.ndarray], np.ndarray, float]] = None

    def __post_init__(self):
        if self.sines is not None and (len(self.sines) != 3 or not callable(self.sines[0])):
            raise ValueError("sines must be (phi, alpha, weight) with phi callable")
        shape = np.shape(self.sines[1]) if self.sines is not None else (self.dimension, 0)
        if len(shape) != 2 or shape[0] != self.dimension:
            raise ValueError(f"sines: alpha must be ({self.dimension}, J), got {shape}")

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
        # all(<=), not max: False at NaN, and True for an empty matrix
        if not (abs(cols.T @ cols - np.eye(len(cols))) <= 1e-12).all():
            raise ValueError("basis columns are not orthonormal to 1e-12")
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)


@functools.lru_cache(typed=True)
def identity_basis(d: int) -> DirectionBasis:
    """The d x d identity basis, built once per process: later calls return
    the same object, so the trials of a sweep share its node builds (_builder)."""
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _gh_nodes(columns: np.ndarray, rule: GHRule, sines=None) -> Callable[[Sequence[float]], tuple]:
    """The builder, many radii at once, of what a Gauss-Hermite estimate along
    each column xi of ``columns`` (d x k) needs besides x and F: per float
    sigma in ``radii``, with the bits of its build alone, ``nodes_at(radii)``
    gives the node offsets ((sqrt(2) sigma) v_m) xi from x, as an F-ordered (k * M, d)
    array, direction-major; the coefficients w_m v_m; the factor sqrt(2) /
    (sqrt(pi) sigma); the columns, with whether they are the identity; and, for
    an objective's ``sines`` (phi, alpha, weight), a table and the rates 2 pi
    alpha^T (else None twice). With p_ij = 2 pi alpha_ij x_i and q_kmij = 2 pi
    alpha_ij (sqrt(2) sigma v_m) xi_ki, sin(p + q) = sin p cos q + cos p sin q;
    summed with w_m v_m over the mirror-symmetric nodes (GHRule) the cos q part
    cancels and the sin q part doubles. So the sine sum adds
    sum_ij table[k, j, i] cos(p_ij) to direction k's sum: d * J cosines for
    any M, where table[k, j, i] = 2 weight sum_(v_m > 0) w_m v_m sin(q_kmij).
    The rest is built once. The arrays handed out are read-only, and a call
    with the radii of the one before returns that call's tuple again."""
    d = len(columns)
    nodes, coefficients = rule.nodes[:, None], _read_only(rule.weights * rule.nodes)
    # C-ordered directions give C-ordered tables, whose contraction's bits follow their layout
    directions = np.ascontiguousarray(columns.T)[:, None, :]
    identity, rates = np.array_equal(columns, np.eye(d)), None
    if sines is not None:
        rates = _read_only(np.ascontiguousarray(_TWO_PI * np.transpose(sines[1])))  # (J, d)
        positive = slice((rule.order + 1) // 2, None)  # nodes increase from -v to v
        halves = (2.0 * sines[2]) * coefficients[positive]
        units = (nodes[positive] * directions)[:, :, None, :] * rates  # q / (sqrt(2) sigma)

    @functools.lru_cache(maxsize=1)
    def build(radii: tuple) -> tuple:
        scaled = _SQRT2 * np.array(radii, dtype=float)
        offsets = _read_only((scaled[:, None] * rule.nodes)[:, None, None, :] * columns[:, :, None])
        tables = [None] * len(radii) if sines is None else _read_only(c_einsum(
            "m,nkmji->nkji", halves, np.sin(scaled[:, None, None, None, None] * units)))
        return tuple((o.T, coefficients, _SQRT2 / (_SQRT_PI * sigma), columns, identity, table,
                      rates)
                     for o, sigma, table in zip(offsets.reshape(len(radii), d, -1), radii, tables))

    return lambda radii: build(tuple(radii))


def _sines_key(sines) -> Optional[tuple]:
    """What _gh_nodes reads of an objective's ``sines``, as values that
    rebuild it bit for bit (see _builder): None, or the (dtype, shape,
    bytes) of alpha and of the weight."""
    if sines is None:
        return None
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, sines[1:]))


@functools.lru_cache(maxsize=1)
def _builder(basis: DirectionBasis, rule: GHRule, sines_key: Optional[tuple]) -> Callable:
    """_gh_nodes(basis.columns, rule, sines) for the sines whose _sines_key is
    ``sines_key``, built once for calls in a row with one key: the trials of
    a sweep (one GH rule, and one identity basis per dimension) share one
    builder, and so a radius's build when they ask for the same radii."""
    sines = sines_key and (None, *(np.frombuffer(data, dtype).reshape(shape)
                                   for dtype, shape, data in sines_key))
    return _gh_nodes(basis.columns, rule, sines)


def _block_size(columns: np.ndarray, rule: GHRule, sines=None) -> int:
    """Radii per nodes_at call of _gh_nodes(columns, rule, sines) within _BLOCK_BYTES, at
    least 1: a radius's offsets and sine intermediates take at most d M (d + d J) floats."""
    d, j = (len(columns), 0) if sines is None else np.shape(sines[1])
    return _BLOCK_BYTES // (8 * d * rule.order * (d + d * j)) or 1


def _gh_gradient(f: Objective, x: np.ndarray, nodes: tuple) -> np.ndarray:
    """The DGS estimate at x from one evaluation of k * M points: the
    smoothed directional derivatives along each direction xi of ``nodes`` (a
    radius's build from _gh_nodes), (1 / (sqrt(pi) * sigma)) * sum_m w_m
    F(x + sqrt(2) sigma v_m xi) * sqrt(2) v_m, mapped back to standard
    coordinates by the product with the columns; with a sine-sum table, F is
    the objective's phi plus the table's term, on F-ordered points: a sum over
    their d coordinates is d - 1 column adds, in the order numpy sums a
    C-ordered row of fewer than 8. Raises EvaluationError at the first point
    whose value is not finite, as Objective.eval_batch."""
    offsets, coefficients, scale, columns, identity, table, rates = nodes
    # x is added last, so each point has the bits of x + (sqrt(2) sigma v_m xi)
    points = x + offsets
    values = np.asarray((f.evaluate if table is None else f.sines[0])(points), dtype=float)
    # einsum's loop, not values @ coefficients: BLAS rounds a row of a
    # matrix-vector product differently depending on how many rows it is
    # given, and a direction's derivative should not depend on the others.
    # np.vecdot, np.matvec and (V * c).sum(1) each round unlike einsum too.
    derivatives = c_einsum("km,m->k", values.reshape(-1, len(coefficients)), coefficients)
    if table is not None:
        derivatives += c_einsum("kji,ji->k", table, np.cos(rates * x))
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
    bit-reproducible. A radius not a scalar, below SIGMA_FLOOR or infinite, a
    point of another shape, or an objective of another dimension is a ValueError."""
    if np.ndim(sigma) != 0 or not SIGMA_FLOOR <= (sigma := float(sigma)) < math.inf:
        raise ValueError(f"sigma {sigma} is not a scalar, finite and at least {SIGMA_FLOOR:g}")
    x = np.asarray(x, dtype=float)
    columns = basis.columns
    if x.shape != columns.shape[1:]:
        raise ValueError(f"point has shape {x.shape}, expected ({len(columns)},)")
    if f.dimension != len(columns):
        raise ValueError(f"objective is {f.dimension}-dimensional, "
                         f"basis and point are {len(columns)}-dimensional")
    return _gh_gradient(f, x, _builder(basis, rule, _sines_key(f.sines))([sigma])[0])
