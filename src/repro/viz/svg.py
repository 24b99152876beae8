"""Self-contained SVG figures for the bench reports: no plotting library.

A figure is a title, an optional legend and a stack of full-width
panels.  A panel is :class:`Bars` (grouped bars: one bar per series in
each group) or :class:`Lines` (series over a numeric x axis; a dashed
series is drawn as a reference line without points).  Each panel has a
title, gridlines at zero, half and full scale, and a y axis from 0 to a
round ceiling above its largest value.  The figures of
:mod:`repro.viz.policies` and :mod:`repro.viz.scaleout` are specs of
these panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

FONT = 'font-family="Helvetica,Arial,sans-serif"'
WIDTH = 880

_LABEL = 'font-size="10" fill="#444" text-anchor="middle"'
_AXIS = 'font-size="10" fill="#666" text-anchor="middle"'
_TICK = 'font-size="10" fill="#666" text-anchor="end"'
_TITLE = 'font-size="13" fill="#222" font-weight="bold"'


class Series(NamedTuple):
    """One named, colored run of values."""

    label: str
    color: str
    values: Sequence[float]
    dashed: bool = False


@dataclass(frozen=True)
class Bars:
    """Grouped bars; ``label`` formats a value printed above each bar."""

    title: str
    groups: Sequence[str]
    series: Sequence[Series]
    unit: str
    label: str | None = None


@dataclass(frozen=True)
class Lines:
    """Series over the numeric ``x``; ``label`` formats each point's value."""

    title: str
    x: Sequence[float]
    series: Sequence[Series]
    unit: str
    x_unit: str
    label: str = "{:g}"


class _Plot(NamedTuple):
    """A panel's plot area (left edge, width, top, baseline) and top value."""

    x: float
    w: float
    top: float
    base: float
    peak: float

    def py(self, value: float) -> float:
        return self.base - (self.base - self.top) * value / self.peak


def nice_ceiling(value: float) -> float:
    """A round axis maximum >= value (1/2/5 ladder)."""
    if value <= 0:
        return 1.0
    magnitude = 1.0
    while magnitude * 10 <= value:
        magnitude *= 10
    while magnitude > value:
        magnitude /= 10
    for factor in (1, 2, 5, 10):
        if magnitude * factor >= value:
            return magnitude * factor
    return magnitude * 10


def escape(text: str) -> str:
    """``text`` escaped for SVG character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x: float, y: float, body: str, style: str = _LABEL) -> str:
    return f'<text x="{x:.1f}" y="{y:.1f}" {FONT} {style}>{escape(body)}</text>'


def _frame(out: list[str], panel: Bars | Lines, top: float, height: float) -> _Plot:
    """Title, gridlines with their y labels, the baseline and the unit."""
    values = [v for series in panel.series for v in series.values]
    peak = nice_ceiling(max(values, default=0))
    plot = _Plot(68, WIDTH - 96, top + 26, top + height - 30, peak)
    out.append(_text(16, top + 12, panel.title, _TITLE))
    for frac in (0.0, 0.5, 1.0):
        gy = plot.py(peak * frac)
        out.append(
            f'<line x1="{plot.x}" y1="{gy:.1f}" x2="{plot.x + plot.w}" '
            f'y2="{gy:.1f}" stroke="{"#888" if frac == 0 else "#ddd"}"/>'
        )
        out.append(_text(plot.x - 6, gy + 4, f"{peak * frac:g}", _TICK))
    mid = (plot.top + plot.base) / 2
    rotate = f' transform="rotate(-90 24 {mid:.1f})"'
    out.append(_text(24, mid, panel.unit, _AXIS + rotate))
    return plot


def _bars(out: list[str], panel: Bars, plot: _Plot) -> None:
    group_w = plot.w / max(len(panel.groups), 1)
    bar_w = min(40.0, group_w * 0.8 / len(panel.series))
    for gi, group in enumerate(panel.groups):
        cx = plot.x + group_w * (gi + 0.5)
        start = cx - bar_w * len(panel.series) / 2
        for si, series in enumerate(panel.series):
            value = series.values[gi]
            bx, by = start + si * bar_w, plot.py(value)
            out.append(
                f'<rect x="{bx:.1f}" y="{by:.1f}" width="{bar_w - 1:.1f}" '
                f'height="{max(plot.base - by, 0.5):.1f}" '
                f'fill="{series.color}"><title>{escape(group)} / '
                f"{escape(series.label)}: {value:g} {escape(panel.unit)}"
                "</title></rect>"
            )
            if panel.label is not None:
                out.append(_text(bx + bar_w / 2, by - 5, panel.label.format(value)))
        out.append(_text(cx, plot.base + 14, group))


def _lines(out: list[str], panel: Lines, plot: _Plot) -> None:
    span = max(panel.x[-1] - panel.x[0], 1)
    xs = [plot.x + plot.w * (x - panel.x[0]) / span for x in panel.x]
    for x, px in zip(panel.x, xs):
        out.append(_text(px, plot.base + 14, f"{x:g}"))
    out.append(_text(plot.x + plot.w / 2, plot.base + 28, panel.x_unit, _AXIS))
    for series in panel.series:
        points = [(px, plot.py(v)) for px, v in zip(xs, series.values)]
        coords = " ".join(f"{px:.1f},{py:.1f}" for px, py in points)
        dash = ' stroke-dasharray="6 4"' if series.dashed else ""
        out.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{series.color}" stroke-width="2"{dash}/>'
        )
        if series.dashed:  # a reference line: no points, a name at its end
            px, py = points[-1]
            out.append(_text(px - 4, py - 6, series.label, _TICK))
            continue
        for (px, py), x, value in zip(points, panel.x, series.values):
            label = panel.label.format(value)
            out.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" '
                f'fill="{series.color}"><title>{escape(series.label)}, '
                f"{escape(panel.x_unit)} {x:g}: {escape(label)}</title></circle>"
            )
            out.append(_text(px, py - 9, label))


def figure(
    title: str,
    panels: Sequence[Bars | Lines],
    legend: Sequence[Series] = (),
    panel_height: int = 190,
) -> str:
    """A titled SVG document: the legend, then the panels top to bottom."""
    top = 52 if legend else 34
    height = top + panel_height * len(panels) + 18
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
        _text(16, 22, title, 'font-size="15" fill="#111" font-weight="bold"'),
    ]
    lx = 16
    for entry in legend:
        out.append(
            f'<rect x="{lx}" y="30" width="12" height="12" fill="{entry.color}"/>'
        )
        out.append(_text(lx + 16, 40, entry.label, 'font-size="11" fill="#333"'))
        lx += 16 + 7 * len(entry.label) + 24
    for i, panel in enumerate(panels):
        plot = _frame(out, panel, top + panel_height * i, panel_height)
        if isinstance(panel, Bars):
            _bars(out, panel, plot)
        else:
            _lines(out, panel, plot)
    out.append("</svg>")
    return "\n".join(out) + "\n"
