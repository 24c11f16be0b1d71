"""Shared test plumbing: collects the acceptance criterion result lines and
echoes them in the terminal summary, outside pytest's output capture, and
holds the reference formulas that several test files compare against."""
import numpy as np

CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


def plain_bandlimited(noise, x):
    """BandlimitedNoise's defining formula, with every sine computed."""
    x = np.asarray(x, dtype=float)
    phases = 2.0 * np.pi * x[..., None] * noise.frequencies
    return np.sin(phases).sum(axis=(-1, -2)) / noise.frequencies.shape[1]
