"""Self-contained SVG plots of sweep summaries.

No plotting dependency: the charts are assembled as SVG text directly, so
the output bytes are a pure function of the summary. Curves are decimated
by striding before drawing to keep files small.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from .harness import PlotData, write_text


class Chart(NamedTuple):
    """One chart kind: the PlotData trace it draws against the iteration
    (None: the mean final distance against sigma, with markers), its title
    and axis labels, and whether each axis is log10."""

    trace: Optional[str]
    title: str
    x_label: str
    y_label: str
    x_log: bool
    y_log: bool


# A kind's trace (see harness.TRACES) is the only one `dgs-opt plot` reads
# back for it.
CHARTS = {
    "convergence-curves": Chart("mean_dist_traces", "Mean distance to optimum vs iteration",
                                "iteration", "mean distance", False, True),
    "cosine-vs-iteration": Chart("mean_cosine_traces",
                                 "Mean gradient cosine similarity vs iteration",
                                 "iteration", "mean cosine similarity", False, False),
    "final-dist-vs-sigma": Chart(None, "Final distance to optimum vs smoothing radius",
                                 "sigma", "mean final distance", True, True),
}
PLOT_KINDS = tuple(CHARTS)

_WIDTH, _HEIGHT = 800, 500
_LEFT, _RIGHT, _TOP, _BOTTOM = 75, 170, 30, 55
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)
_MAX_POINTS = 2000
_Y_FLOOR = 1e-16  # the least value a log y axis draws


def _num(x: float) -> str:
    return format(float(x), ".6g")


def _log_ticks(lo: float, hi: float) -> list[float]:
    a = math.floor(math.log10(lo))
    b = math.ceil(math.log10(hi))
    if a < -323 or b > 308:  # 10.0**a would be 0, or 10.0**b overflow
        raise ValueError(f"cannot place log ticks from {_num(lo)} to {_num(hi)}: "
                         "a decade is beyond the float range")
    step = max(1, (b - a) // 8)
    return [10.0**e for e in range(a, b + 1, step)]


def _linear_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / 5.0
    # the step is at least raw: below an ulp of the ends it would not advance
    # t, and below the least normal float it has no power of ten
    if not max(math.ulp(max(abs(lo), abs(hi))), sys.float_info.min) <= raw < math.inf:
        why = "beyond the float range" if raw == math.inf else "below float precision"
        raise ValueError(f"cannot place ticks from {_num(lo)} to {_num(hi)}: the span is {why}")
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
    """Maps data coordinates to pixels on one axis, linear or log10, and
    places its ticks. An empty linear range is widened by 1."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool):
        if not log and hi <= lo:
            hi = lo + 1.0
        self.ends = lo, hi  # the data range the ticks cover
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

    def ticks(self) -> list[tuple[float, str]]:
        """The pixel and label of each tick within half a pixel of the axis;
        a ValueError when the range cannot carry float ticks."""
        values = (_log_ticks if self.log else _linear_ticks)(*self.ends)
        first, last = sorted((self.px_lo, self.px_hi))
        return [(px, _tick_label(t, self.log)) for t, px in zip(values, self(values))
                if first - 0.5 <= px <= last + 0.5]


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


def _render(series: list[tuple[str, np.ndarray, np.ndarray]], chart: Chart) -> str:
    clipped = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if chart.y_log:
            ys = np.maximum(ys, _Y_FLOOR)
        if chart.x_log:
            keep &= xs > 0
        xs, ys = _decimate(xs[keep], ys[keep])
        if len(xs):
            clipped.append((label, xs, ys))
    if not clipped:
        raise ValueError("nothing to plot: no finite data points")

    # Python floats: a span beyond the float range is inf, without a warning
    x_min, y_min = (float(min(s[i].min() for s in clipped)) for i in (1, 2))
    x_max, y_max = (float(max(s[i].max() for s in clipped)) for i in (1, 2))
    if not chart.y_log:
        pad = 0.05 * (y_max - y_min or 1.0)
        y_min, y_max = y_min - pad, y_max + pad

    ax = _Axis(x_min, x_max, _LEFT, _WIDTH - _RIGHT, chart.x_log)
    ay = _Axis(y_min, y_max, _HEIGHT - _BOTTOM, _TOP, chart.y_log)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" font-size="15">{chart.title}</text>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_WIDTH - _RIGHT - _LEFT}" '
        f'height="{_HEIGHT - _BOTTOM - _TOP}" fill="none" stroke="black"/>',  # the axes box
    ]
    for px, label in ax.ticks():
        out += [f'<line x1="{_num(px)}" y1="{_HEIGHT - _BOTTOM}" x2="{_num(px)}" '
                f'y2="{_HEIGHT - _BOTTOM + 5}" stroke="black"/>',
                f'<text x="{_num(px)}" y="{_HEIGHT - _BOTTOM + 18}" text-anchor="middle">'
                f"{label}</text>"]
    for py, label in ay.ticks():
        out += [f'<line x1="{_LEFT - 5}" y1="{_num(py)}" x2="{_LEFT}" y2="{_num(py)}" '
                'stroke="black"/>',
                f'<text x="{_LEFT - 8}" y="{_num(py + 4)}" text-anchor="end">{label}</text>']
    out += [f'<text x="{(_LEFT + _WIDTH - _RIGHT) // 2}" y="{_HEIGHT - 12}" '
            f'text-anchor="middle">{chart.x_label}</text>',
            f'<text x="18" y="{(_TOP + _HEIGHT - _BOTTOM) // 2}" text-anchor="middle" '
            f'transform="rotate(-90 18 {(_TOP + _HEIGHT - _BOTTOM) // 2})">{chart.y_label}</text>']

    for k, (label, xs, ys) in enumerate(clipped):
        color = _PALETTE[k % len(_PALETTE)]
        px, py = ax(xs), ay(ys)
        out.append(f'<polyline points="{_points(px, py)}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        if chart.trace is None:  # the sigma chart marks its few points
            out += [f'<circle cx="{_num(x)}" cy="{_num(y)}" r="3" fill="{color}"/>'
                    for x, y in zip(px, py)]
        ly, lx = _TOP + 15 + 18 * k, _WIDTH - _RIGHT + 12
        out += [f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>',
                f'<text x="{lx + 28}" y="{ly}">{label}</text>']

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_plot(summary: PlotData, kind: str) -> str:
    """SVG text for one chart of a sweep: a live ``SweepSummary`` or the
    ``PlotData`` read back from its CSVs."""
    if kind not in CHARTS:
        raise ValueError(f"plot kind must be one of {PLOT_KINDS}, got {kind!r}")
    chart = CHARTS[kind]
    if chart.trace is None:
        series = [("mean final dist", summary.sigmas, summary.mean_final_dist)]
    else:
        series = [(f"sigma={_num(sigma)}", np.arange(len(trace), dtype=float), trace)
                  for sigma, trace in zip(summary.sigmas, getattr(summary, chart.trace))
                  if trace is not None]
    return _render(series, chart)


def emit_plot(summary: PlotData, kind: str, path) -> None:
    """Write one chart as a standalone SVG file. Deterministic bytes for a
    fixed summary."""
    write_text(path, [render_plot(summary, kind)], "plot")
