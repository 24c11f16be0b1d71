"""Shared test plumbing: collects the acceptance criterion result lines and
echoes them in the terminal summary, outside pytest's output capture; starts
each test with empty value-keyed caches; and holds the reference formulas
that several test files compare against."""
import numpy as np
import pytest

from dgs_opt import noise as noise_mod, smoothing

CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _empty_value_caches():
    """Clear the caches keyed on values (the bandlimited draw, the node
    builder), so that a test counting draws or builds does not depend on
    the tests run before it. build_gh_rule and identity_basis keep theirs:
    tests rely on the identity of what they return."""
    noise_mod.sample_bandlimited.cache_clear()
    smoothing._builder.cache_clear()


def plain_bandlimited(noise, x):
    """BandlimitedNoise's defining formula, with every sine computed."""
    x = np.asarray(x, dtype=float)
    phases = 2.0 * np.pi * x[..., None] * noise.frequencies
    return np.sin(phases).sum(axis=(-1, -2)) / noise.frequencies.shape[1]
