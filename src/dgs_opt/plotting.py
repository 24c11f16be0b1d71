"""Self-contained SVG plots of sweep summaries.

No plotting dependency: the charts are assembled as SVG text directly, so
the output bytes are a pure function of the summary. Curves are decimated
by striding before drawing to keep files small.
"""
from __future__ import annotations

import math

import numpy as np

from .harness import PlotData, write_text

# The PlotData traces each kind draws (see harness.TRACES), and so the only
# ones `dgs-opt plot` reads back for it.
PLOT_TRACES = {
    "convergence-curves": ("mean_dist_traces",),
    "cosine-vs-iteration": ("mean_cosine_traces",),
    "final-dist-vs-sigma": (),
}
PLOT_KINDS = tuple(PLOT_TRACES)

_WIDTH, _HEIGHT = 800, 500
_LEFT, _RIGHT, _TOP, _BOTTOM = 75, 170, 30, 55
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)
_MAX_POINTS = 2000


def _num(x: float) -> str:
    return format(float(x), ".6g")


def _log_ticks(lo: float, hi: float) -> list[float]:
    a = math.floor(math.log10(lo))
    b = math.ceil(math.log10(hi))
    step = max(1, (b - a) // 8)
    return [10.0**e for e in range(a, b + 1, step)]


def _linear_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw) * mag
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


class _Axis:
    """Maps data coordinates to pixels on one axis, linear or log10."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool):
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi
        self.log = log

    def __call__(self, vs) -> np.ndarray:
        """The pixel of each value in ``vs``: px_lo + (v - lo) / (hi - lo) *
        (px_hi - px_lo), one numpy operation at a time in that order, so each
        has the bits the scalar expression gives it."""
        # math.log10 per value: np.log10 may differ from it by an ulp
        v = np.asarray([math.log10(u) for u in vs] if self.log else vs, dtype=float)
        return self.px_lo + (v - self.lo) / (self.hi - self.lo) * (self.px_hi - self.px_lo)


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """SVG "x,y x,y ..." of pixel coordinates, each formatted as _num does,
    in one formatting pass."""
    return " ".join(["%.6g,%.6g"] * len(px)) % tuple(np.column_stack([px, py]).ravel().tolist())


def _tick_label(v: float, log: bool) -> str:
    if log:
        e = round(math.log10(v))
        if abs(v - 10.0**e) / v < 1e-9:
            return f"1e{e}"
    return _num(v)


def _decimate(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(xs) <= _MAX_POINTS:
        return xs, ys
    stride = int(np.ceil(len(xs) / _MAX_POINTS))
    idx = np.arange(0, len(xs), stride)
    if idx[-1] != len(xs) - 1:
        idx = np.append(idx, len(xs) - 1)
    return xs[idx], ys[idx]


def _render(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    x_label: str,
    y_label: str,
    x_log: bool,
    y_log: bool,
    y_floor: float = 1e-16,
    markers: bool = False,
) -> str:
    clipped = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if y_log:
            ys = np.maximum(ys, y_floor)
        if x_log:
            keep &= xs > 0
        xs, ys = _decimate(xs[keep], ys[keep])
        if len(xs):
            clipped.append((label, xs, ys))
    if not clipped:
        raise ValueError("nothing to plot: no finite data points")

    x_min = min(s[1].min() for s in clipped)
    x_max = max(s[1].max() for s in clipped)
    y_min = min(s[2].min() for s in clipped)
    y_max = max(s[2].max() for s in clipped)
    if not y_log:
        pad = 0.05 * (y_max - y_min or 1.0)
        y_min, y_max = y_min - pad, y_max + pad
    if not x_log and x_max == x_min:
        x_max = x_min + 1.0

    ax = _Axis(x_min, x_max, _LEFT, _WIDTH - _RIGHT, x_log)
    ay = _Axis(y_min, y_max, _HEIGHT - _BOTTOM, _TOP, y_log)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes box
    out.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_WIDTH - _RIGHT - _LEFT}" '
        f'height="{_HEIGHT - _BOTTOM - _TOP}" fill="none" stroke="black"/>'
    )
    x_ticks = _log_ticks(x_min, x_max) if x_log else _linear_ticks(x_min, x_max)
    for t, px in zip(x_ticks, ax(x_ticks)):
        if not _LEFT - 0.5 <= px <= _WIDTH - _RIGHT + 0.5:
            continue
        out.append(
            f'<line x1="{_num(px)}" y1="{_HEIGHT - _BOTTOM}" x2="{_num(px)}" '
            f'y2="{_HEIGHT - _BOTTOM + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_num(px)}" y="{_HEIGHT - _BOTTOM + 18}" text-anchor="middle">'
            f"{_tick_label(t, x_log)}</text>"
        )
    y_ticks = _log_ticks(y_min, y_max) if y_log else _linear_ticks(y_min, y_max)
    for t, py in zip(y_ticks, ay(y_ticks)):
        if not _TOP - 0.5 <= py <= _HEIGHT - _BOTTOM + 0.5:
            continue
        out.append(
            f'<line x1="{_LEFT - 5}" y1="{_num(py)}" x2="{_LEFT}" y2="{_num(py)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_LEFT - 8}" y="{_num(py + 4)}" text-anchor="end">'
            f"{_tick_label(t, y_log)}</text>"
        )
    out.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) // 2}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{(_TOP + _HEIGHT - _BOTTOM) // 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_TOP + _HEIGHT - _BOTTOM) // 2})">{y_label}</text>'
    )

    for k, (label, xs, ys) in enumerate(clipped):
        color = _PALETTE[k % len(_PALETTE)]
        px, py = ax(xs), ay(ys)
        out.append(
            f'<polyline points="{_points(px, py)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        if markers:
            for x, y in zip(px, py):
                out.append(f'<circle cx="{_num(x)}" cy="{_num(y)}" r="3" fill="{color}"/>')
        ly = _TOP + 15 + 18 * k
        lx = _WIDTH - _RIGHT + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_plot(summary: PlotData, kind: str) -> str:
    """SVG text for one chart of a sweep: a live ``SweepSummary`` or the
    ``PlotData`` read back from its CSVs."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"plot kind must be one of {PLOT_KINDS}, got {kind!r}")
    if kind == "final-dist-vs-sigma":
        sig = np.array(summary.sigmas)
        series = [("mean final dist", sig, np.asarray(summary.mean_final_dist))]
        return _render(
            series,
            title="Final distance to optimum vs smoothing radius",
            x_label="sigma",
            y_label="mean final distance",
            x_log=True,
            y_log=True,
            markers=True,
        )
    (field,) = PLOT_TRACES[kind]
    traces = getattr(summary, field)
    series = []
    for g, sigma in enumerate(summary.sigmas):
        trace = traces[g]
        if trace is None:
            continue
        its = np.arange(len(trace), dtype=float)
        series.append((f"sigma={_num(sigma)}", its, np.asarray(trace)))
    if kind == "convergence-curves":
        return _render(
            series,
            title="Mean distance to optimum vs iteration",
            x_label="iteration",
            y_label="mean distance",
            x_log=False,
            y_log=True,
        )
    return _render(
        series,
        title="Mean gradient cosine similarity vs iteration",
        x_label="iteration",
        y_label="mean cosine similarity",
        x_log=False,
        y_log=False,
    )


def emit_plot(summary: PlotData, kind: str, path) -> None:
    """Write one chart as a standalone SVG file. Deterministic bytes for a
    fixed summary."""
    write_text(path, [render_plot(summary, kind)], "plot")
