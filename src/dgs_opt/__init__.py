"""Nonlocal gradient estimation by directional Gaussian smoothing, with the
noise models, theory bounds, optimizer, and experiment harness built on it."""

from .harness import (
    ConfigError,
    ExperimentConfig,
    OutputError,
    SweepSummary,
    emit_csv,
    load_config,
    mix_seed,
    parse_config,
    run_experiment,
    run_trial,
)
from .noise import (
    BandlimitedNoise,
    DiminishingNoise,
    PeriodicNoise,
    closed_form_smoothed_sine_derivative,
    noise_only_objective,
    power_sum_sqrt_objective,
    quadratic_objective,
    sample_bandlimited,
)
from .optimizer import SigmaSchedule, TrialRecord, run, sigma_at, theorem3_schedule
from .plotting import emit_plot, render_plot
from .quadrature import GHRule, build_gh_rule
from .smoothing import (
    DirectionBasis,
    EvaluationError,
    Objective,
    dgs_gradient,
    identity_basis,
    random_orthonormal_basis,
)
from .theory import (
    ConvexityConstants,
    bandlimited_noise_grad_bound,
    contraction_rate,
    delta_sigma_periodic,
    diminishing_noise_grad_bound,
    diminishing_rate,
    gh_error_term,
    periodic_noise_grad_bound,
    recommend_sigma_bandlimited,
    recommend_sigma_periodic,
)

__version__ = "0.1.0"

__all__ = [
    "BandlimitedNoise", "ConfigError", "ConvexityConstants", "DiminishingNoise",
    "DirectionBasis", "EvaluationError", "ExperimentConfig", "GHRule", "Objective",
    "OutputError", "PeriodicNoise", "SigmaSchedule", "SweepSummary", "TrialRecord",
    "bandlimited_noise_grad_bound", "build_gh_rule",
    "closed_form_smoothed_sine_derivative", "contraction_rate",
    "delta_sigma_periodic", "dgs_gradient", "diminishing_noise_grad_bound",
    "diminishing_rate", "emit_csv", "emit_plot", "gh_error_term",
    "identity_basis", "load_config", "mix_seed", "noise_only_objective", "parse_config",
    "periodic_noise_grad_bound", "power_sum_sqrt_objective",
    "quadratic_objective", "random_orthonormal_basis",
    "recommend_sigma_bandlimited", "recommend_sigma_periodic", "render_plot",
    "run", "run_experiment", "run_trial", "sample_bandlimited", "sigma_at",
    "theorem3_schedule",
]
