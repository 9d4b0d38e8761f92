"""Minimal SVG 1.1 line charts, no plotting dependency."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"]
N_TICKS = 6  # target tick count per axis


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / (N_TICKS - 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * abs(hi):
        out.append(round(v, 12))
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(series: dict[str, tuple[list[float], list[float]]],
              title: str = "", xlabel: str = "", ylabel: str = "",
              ylog: bool = False) -> str:
    """The SVG text of a polyline chart; series maps label -> (x values, y
    values).  ValueError if no point is plottable."""
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys
              if math.isfinite(y) and (not ylog or y > 0)]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    if ylog:
        y_lo, y_hi = math.log10(min(ys_all)), math.log10(max(ys_all))
    else:
        y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        yv = math.log10(y) if ylog else y
        return MARGIN_T + ph - (yv - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{title}</text>')
    for xt in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(xt):.1f}" y1="{MARGIN_T + ph}" '
                     f'x2="{sx(xt):.1f}" y2="{MARGIN_T + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{sx(xt):.1f}" y="{MARGIN_T + ph + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(xt)}</text>')
    for yt in _ticks(y_lo, y_hi):
        yv = 10 ** yt if ylog else yt
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{sy(yv):.1f}" '
                     f'x2="{MARGIN_L}" y2="{sy(yv):.1f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{sy(yv) + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_fmt(yv)}</text>')
    if xlabel:
        parts.append(f'<text x="{MARGIN_L + pw / 2}" y="{HEIGHT - 10}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="13">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="18" y="{MARGIN_T + ph / 2}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13" '
                     f'transform="rotate(-90 18 {MARGIN_T + ph / 2})">{ylabel}</text>')

    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(y) and (not ylog or y > 0))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        parts.append(f'<text x="{MARGIN_L + pw - 6}" y="{MARGIN_T + 16 + 15 * i}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
