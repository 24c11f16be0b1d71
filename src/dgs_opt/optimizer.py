"""Gradient descent driven by the DGS gradient estimate, with fixed or
scheduled smoothing radius and full per-iteration trajectory records."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import GHRule
from .smoothing import (SIGMA_FLOOR, DirectionBasis, EvaluationError, Objective,
                        _gh_gradient, _gh_nodes)
# unused by run, but perfbench/tracing.py patches optimizer.dgs_gradient by name
from .smoothing import dgs_gradient  # noqa: F401
from .theory import ConvexityConstants, diminishing_rate

# Iterates beyond this norm abort the run before NaN cascades set in.
DIVERGENCE_NORM = 1e12
_BLOCK_BYTES = 1 << 16  # bytes of one block's build; a radius takes at most d M (d + d J) floats


@dataclass(frozen=True)
class SigmaSchedule:
    """Smoothing radius at iteration t: sigma0 until switch_iteration, then
    sigma0 * contraction^(t - switch_iteration). The defaults are a constant
    radius; theorem3_schedule builds Theorem 3's, which decays from t = 0."""

    sigma0: float
    switch_iteration: int = 0
    contraction: float = 1.0

    def __post_init__(self):
        if not SIGMA_FLOOR <= self.sigma0 < math.inf:  # else a run would take no step
            raise ValueError(f"sigma0 must be finite and >= {SIGMA_FLOOR:g}, got {self.sigma0}")
        if not 0.0 < self.contraction <= 1.0:
            raise ValueError(f"contraction must be in (0,1], got {self.contraction}")
        n = self.switch_iteration
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"switch_iteration must be a nonnegative integer, got {n!r}")
        for name in ("sigma0", "contraction"):  # Python floats: a float32 one makes all float32
            object.__setattr__(self, name, float(getattr(self, name)))


def theorem3_schedule(beta: float, L: float, tau: float, r0_tilde: float,
                      dimension: int) -> SigmaSchedule:
    """Theorem 3's exact-convergence radius sqrt(beta) / (8 L^2 pi +
    4 beta^2)^(1/4) * rho^(t/2) * r0_tilde, rho = diminishing_rate(...).
    Raises ValueError unless 0 < tau <= L, beta > 0 and rho < 1, the
    smallness condition on beta (see diminishing_rate)."""
    constants = ConvexityConstants(L=L, tau=tau)  # raises unless 0 < tau <= L
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    rho = diminishing_rate(constants, beta, dimension)
    if not rho < 1.0:
        raise ValueError(f"rho = {rho:.6g} >= 1: beta is too large for the decaying radius")
    scale = np.sqrt(beta) / (8.0 * L**2 * np.pi + 4.0 * beta**2) ** 0.25
    return SigmaSchedule(scale * r0_tilde, 0, np.sqrt(rho))


def sigma_at(schedule: SigmaSchedule, t: int) -> float:
    """Smoothing radius used at iteration t (t >= 0)."""
    if t < 0:
        raise ValueError(f"iteration index must be nonnegative, got {t}")
    if t < schedule.switch_iteration:
        return schedule.sigma0
    return schedule.sigma0 * schedule.contraction ** (t - schedule.switch_iteration)


@dataclass(frozen=True, eq=False)
class RunConfig:
    objective: Objective
    rule: GHRule
    basis: DirectionBasis
    step_size: float
    max_iterations: int
    schedule: SigmaSchedule
    initial_point: np.ndarray

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {n!r}")


@dataclass(eq=False)
class TrialRecord:
    """Per-iteration trace of one seeded run.

    Row t holds the iterate before step t; the final row is the last iterate.
    ``cosine_similarities`` compares the DGS estimate at x_t with the true
    gradient (NaN when either is unavailable, including the final row).
    ``evaluation_count`` counts estimator evaluations only: M * d per step.
    """

    iterates: np.ndarray
    distances: np.ndarray
    objective_values: np.ndarray
    cosine_similarities: np.ndarray
    sigmas: np.ndarray
    evaluation_count: int
    iterations_run: int
    status: str  # "ok" | "diverged"

    @property
    def final_distance(self) -> float:
        return float(self.distances[-1])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of a and b. Each row gets the bits of np.dot on
    it, and so of np.linalg.norm, which einsum and norm(axis=1) do not."""
    return (a[:, None, :] @ b[:, :, None]).ravel()


def run(config: RunConfig) -> TrialRecord:
    """Iterate the DGS descent scheme from the initial point, recording each step.

    Deterministic given the config. Stops at max_iterations, when the
    scheduled radius underflows SIGMA_FLOOR, or with a diverged status when
    an evaluation is not finite or an iterate blows up; the returned record
    always ends at the last finite iterate. At a new radius with none built
    ahead, the loop reads up to a block of radii ahead from sigma_at (to
    max_iterations or the first below SIGMA_FLOOR) and builds the new ones in
    one _gh_nodes call, so a constant radius is built once per trial. Each
    estimate is _gh_gradient's, as in dgs_gradient. The objective and cosine
    columns are computed after the loop, from the stacked iterates.
    """
    f, rule, columns = config.objective, config.rule, config.basis.columns
    d, nodes_at = f.dimension, _gh_nodes(columns, rule, f.sines)
    step_size, schedule, last = config.step_size, config.schedule, config.max_iterations
    x = np.array(config.initial_point, dtype=float)
    if x.shape != (d,) or columns.shape != (d, d):  # checked once per trial, not per step
        raise ValueError(f"initial point {x.shape} or basis {columns.shape} is not {d}-dimensional")
    size = _BLOCK_BYTES // (8 * d * rule.order * (d + np.size(f.sines[1] if f.sines else []))) or 1

    iterates = [x]
    estimates: list[np.ndarray] = []
    sigmas: list[float] = []  # the radii read, up to a block ahead of t
    status, radius, built = "ok", None, []  # built: the nodes of the new radii read, last first
    for t in range(last + 1):
        if t == len(sigmas):
            sigmas.append(sigma_at(schedule, t))
        sigma = sigmas[t]
        if t == last:
            break
        if sigma != radius:  # a radius below the floor always differs from the last
            if sigma < SIGMA_FLOOR:
                break
            if not built:  # read a block ahead; build this radius and the block's new ones
                for t_ahead in range(t + 1, min(t + size, last)):
                    sigmas.append(sigma_at(schedule, t_ahead))
                    if sigmas[-1] < SIGMA_FLOOR:
                        break
                ahead = sigmas[t:]  # the last may be below the floor
                new = [s for s, p in zip(ahead, [radius] + ahead) if p != s >= SIGMA_FLOOR]
                built = nodes_at(new)[::-1]
            nodes, radius = built.pop(), sigma
        try:
            estimate = _gh_gradient(f, x, nodes)
        except EvaluationError:
            status = "diverged"
            break
        x_next = x - step_size * estimate
        # the decision of np.linalg.norm(x_next) > DIVERGENCE_NORM, NaN and inf included
        if not math.sqrt(x_next.dot(x_next)) <= DIVERGENCE_NORM:
            status = "diverged"
            t += 1  # a step that blows up was taken, so it counts
            break
        x = x_next
        iterates.append(x)
        estimates.append(estimate)

    iterates = np.array(iterates)
    estimates = np.reshape(estimates, (-1, d))
    cosines = np.full(len(iterates), np.nan)  # the final row and zero norms stay NaN
    if f.true_gradient is not None:
        grads = np.asarray(f.true_gradient(iterates[:-1]), dtype=float)
        e_norm = np.sqrt(_row_dots(estimates, estimates))
        g_norm = np.sqrt(_row_dots(grads, grads))
        np.divide(_row_dots(estimates, grads), e_norm * g_norm, out=cosines[:-1],
                  where=(e_norm != 0) & (g_norm != 0))
    o = iterates - (np.nan if f.minimizer is None else f.minimizer)  # NaN without one
    return TrialRecord(
        iterates=iterates,
        distances=np.sqrt(_row_dots(o, o)),
        objective_values=np.asarray(f.evaluate(iterates), dtype=float),
        cosine_similarities=cosines,
        sigmas=np.array(sigmas[:len(iterates)]),
        evaluation_count=t * rule.order * d,
        iterations_run=t,
        status=status,
    )
