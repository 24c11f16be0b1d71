"""Independent reference implementation of a seeded DGS sweep.

The benchmark's correctness gate compares the program's sweep results
against this module for whatever seed it is given. It re-derives each trial
from the method's definition rather than from the package's code:

* Gauss-Hermite rules come from ``numpy.polynomial.hermite.hermgauss``, not
  from the package's Newton builder, so nodes differ in the last few ulps.
* The DGS gradient is written as one matrix product per step.

It shares with the package only the seeding contract (the SplitMix64 mixer,
the stream tags and the order of random draws), which defines the inputs.
Results therefore agree with the program to rounding, not bit for bit.
Only the noise models (periodic, bandlimited, diminishing) and schedules (constant,
theorem3) that the workloads use are implemented.
"""
from __future__ import annotations

import math

import numpy as np

SIGMA_FLOOR = 1e-14
DIVERGENCE_NORM = 1e12
MIN_WAVELENGTH = 1e-6
NOISE_SEED_TAG = 0x6E6F6973
BASIS_SEED_TAG = 0xB4515
_MASK64 = (1 << 64) - 1


def mix_seed(*parts: int) -> int:
    state = 0
    for p in parts:
        state = (state + (int(p) & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


def _wavelength(noise: dict) -> float:
    if noise["kind"] == "periodic":
        return 1.0 / noise["alpha"]
    if noise["kind"] == "bandlimited":
        return 1.0 / noise["alpha0"]
    return 1.0 / noise.get("carrier_frequency", 1.0)


def _noise_fn(noise: dict, d: int, master_seed: int):
    """eps(X) for an (n, d) array of points."""
    if noise["kind"] == "periodic":
        a, amp = noise["alpha"], noise.get("amplitude", 1.0)
        return lambda X: amp * np.sin(2 * np.pi * a * X).sum(axis=1)
    if noise["kind"] == "bandlimited":
        alpha0, j = noise["alpha0"], noise.get("num_components", 20)
        rng = np.random.default_rng(mix_seed(master_seed, NOISE_SEED_TAG))
        wl = np.empty((d, j))
        redo = np.ones((d, j), dtype=bool)
        while redo.any():
            wl[redo] = rng.uniform(0.0, 1.0 / alpha0, size=int(redo.sum()))
            redo &= wl < MIN_WAVELENGTH
        freqs = 1.0 / wl
        return lambda X: np.sin(2 * np.pi * X[:, :, None] * freqs).sum(axis=(1, 2)) / j
    beta, c = noise.get("beta", 1.0), noise.get("carrier_frequency", 1.0)
    return lambda X: beta * (X**2 * np.sin(2 * np.pi * c * X)).sum(axis=1)


def objective(doc: dict):
    """F(X) = phi(X) + eps(X) on an (n, d) array; the minimizer is 0."""
    d = doc["objective"]["dimension"]
    eps = _noise_fn(doc["noise"], d, doc["master_seed"])
    if doc["objective"]["kind"] == "power-sum-sqrt":
        powers = np.arange(1, d + 1) + 2.0
        return lambda X: np.sqrt((np.abs(X) ** powers).sum(axis=1)) + eps(X)
    return lambda X: (X**2).sum(axis=1) + eps(X)


def _schedule(doc: dict, sigma0: float):
    sched = doc["schedule"]
    if sched["kind"] == "constant":
        return lambda t: sigma0
    # theorem3: sqrt(beta) / (8 L^2 pi + 4 beta^2)^(1/4) * rho^(t/2) * r0_tilde
    beta, L, tau, r0 = sched["beta"], sched["L"], sched["tau"], sched["r0_tilde"]
    d = doc["objective"]["dimension"]
    rho = (1.0 - tau / (32.0 * L)) + (6.0 / (tau * L) + 3.0 / (8.0 * L**2)) * d * beta * (
        math.sqrt(2.0 * L**2 * math.pi + beta**2) / math.pi
    )
    scale = math.sqrt(beta) / (8.0 * L**2 * math.pi + 4.0 * beta**2) ** 0.25
    return lambda t: scale * rho ** (t / 2.0) * r0


def _basis(doc: dict, trial_seed: int) -> np.ndarray:
    """Columns are the d orthonormal directions."""
    d = doc["objective"]["dimension"]
    if doc.get("basis", "identity") == "identity":
        return np.eye(d)
    a = np.random.default_rng(mix_seed(trial_seed, BASIS_SEED_TAG)).standard_normal((d, d))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def run_trial(doc: dict, grid_index: int, trial_index: int) -> tuple[str, int, float]:
    """(status, steps taken, final distance to the minimizer) of one trial."""
    d = doc["objective"]["dimension"]
    lo, hi = doc["objective"]["box"]
    seed = mix_seed(doc["master_seed"], grid_index, trial_index)
    F = objective(doc)
    sigma_of = _schedule(doc, doc["sigma_grid"][grid_index] * _wavelength(doc["noise"]))
    xi = _basis(doc, seed)
    nodes, weights = np.polynomial.hermite.hermgauss(doc.get("quadrature_order", 5))
    # offsets[i*M + m] = sqrt(2) v_m xi_i, scaled by sigma each step
    offsets = (math.sqrt(2.0) * nodes[None, :, None] * xi.T[:, None, :]).reshape(-1, d)
    coef = weights * math.sqrt(2.0) * nodes / math.sqrt(math.pi)

    x = np.random.default_rng(seed).uniform(lo, hi, size=d)
    steps = 0
    status = "ok"
    for t in range(doc["max_iterations"]):
        sigma = sigma_of(t)
        if sigma < SIGMA_FLOOR:
            break
        values = F(x + sigma * offsets)
        if not np.all(np.isfinite(values)):
            status = "diverged"
            break
        grad = xi @ (values.reshape(d, -1) @ coef) / sigma
        x_next = x - doc["step_size"] * grad
        steps += 1
        if not np.all(np.isfinite(x_next)) or np.linalg.norm(x_next) > DIVERGENCE_NORM:
            status = "diverged"
            break
        x = x_next
    return status, steps, float(np.linalg.norm(x))


def sweep(doc: dict) -> dict:
    """Per-grid-point trials_ok and mean final distance over ok trials, and
    per-trial (status, steps), indexed [grid][trial]."""
    trials_ok, mean_final, per_trial = [], [], []
    for g in range(len(doc["sigma_grid"])):
        runs = [run_trial(doc, g, t) for t in range(doc["trials"])]
        finals = [dist for status, _, dist in runs if status == "ok"]
        trials_ok.append(len(finals))
        mean_final.append(float(np.mean(finals)) if finals else math.nan)
        per_trial.append([(status, steps) for status, steps, _ in runs])
    return {"trials_ok": trials_ok, "mean_final_dist": mean_final, "per_trial": per_trial}
