"""Gauss-Hermite quadrature rules (physicists' weight exp(-v^2))."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

MAX_ORDER = 64


@dataclass(frozen=True, eq=False)
class GHRule:
    """An M-point Gauss-Hermite rule.

    Nodes are the roots of the M-th physicists' Hermite polynomial, strictly
    increasing and symmetric about 0 bit for bit (nodes == -nodes[::-1], +0.0
    in the middle at odd M). Weights are positive, mirror-symmetric bit for
    bit (weights == weights[::-1]) and sum to sqrt(pi). So sum_m w_m v_m
    g(v_m) cancels for an even g, as a sine sum's table needs (smoothing).
    The rule integrates v^k exp(-v^2) exactly for all k <= 2M - 1.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(typed=True)
def build_gh_rule(order: int) -> GHRule:
    """Build the Gauss-Hermite rule of the given order.

    ``numpy.polynomial.hermite.hermgauss`` takes the nodes as eigenvalues of
    the symmetric Jacobi matrix (Golub & Welsch, 1969), polishes them with
    one Newton step and symmetrizes nodes and weights. Deterministic: the
    same order always yields a bit-identical rule, built once per process:
    later calls return the same object, whose arrays are read-only. An order
    that is not an int, such as 5.0, is a TypeError. Orders above MAX_ORDER
    are rejected; their smallest weights underflow to irrelevance at double
    precision.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}, got {order}")
    nodes, weights = hermgauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GHRule(order=order, nodes=nodes, weights=weights)
