"""Minimal self-contained SVG log-log line charts.

No plotting dependency: the experiment sweep is small enough that writing
the handful of polylines and gridlines directly keeps output deterministic
and reviewable in any browser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_WIDTH = 760
_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 208
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 58


@dataclass(frozen=True)
class Curve:
    label: str
    color: str
    dash: str | None
    values: np.ndarray


def _decade_range(values) -> tuple[int, int]:
    lo = math.floor(math.log10(min(values)))
    hi = math.ceil(math.log10(max(values)))
    if hi == lo:
        hi += 1
    return lo, hi


def _decade_grid(lo, hi, position, span, place) -> list[str]:
    """Lines and labels of the decades ``lo`` to ``hi`` along one axis.

    Each decade gives its major line and label, then, except after the last,
    minor lines at 2 to 9 times the decade.  ``span(at)`` and ``place(at)``
    give the position attributes of a line and a label at pixel ``at``.
    """

    def line(value, color):
        return f'<line {span(position(value))} stroke="{color}" stroke-width="1"/>'

    parts = []
    for exponent in range(lo, hi + 1):
        decade = 10.0**exponent
        parts.append(line(decade, "#c8c8c8"))
        parts.append(f"<text {place(position(decade))}>1e{exponent}</text>")
        if exponent < hi:
            parts.extend(line(mantissa * decade, "#ececec") for mantissa in range(2, 10))
    return parts


def write_loglog_chart(path, x_values, curves, *, x_label, y_label):
    """Write a log-log line chart of one or more positive-valued curves."""
    x = np.asarray(x_values, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two x values to draw a chart")
    if (x <= 0).any():
        raise ValueError("x values must be positive on a log axis")
    for curve in curves:
        if len(curve.values) != x.size:
            raise ValueError(f"curve {curve.label!r} length does not match x grid")
        if (np.asarray(curve.values) <= 0).any():
            raise ValueError(f"curve {curve.label!r} must be positive on a log axis")
    x_lo, x_hi = _decade_range(x)
    y_all = np.concatenate([np.asarray(c.values, dtype=float) for c in curves])
    y_lo, y_hi = _decade_range(y_all)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(value: float) -> float:
        return _MARGIN_LEFT + (math.log10(value) - x_lo) / (x_hi - x_lo) * plot_w

    def py(value: float) -> float:
        return _MARGIN_TOP + (y_hi - math.log10(value)) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    bottom = _MARGIN_TOP + plot_h
    right = _MARGIN_LEFT + plot_w
    parts += _decade_grid(
        x_lo,
        x_hi,
        px,
        lambda at: f'x1="{at:.2f}" y1="{_MARGIN_TOP}" x2="{at:.2f}" y2="{bottom}"',
        lambda at: f'x="{at:.2f}" y="{bottom + 18}" text-anchor="middle"',
    )
    parts += _decade_grid(
        y_lo,
        y_hi,
        py,
        lambda at: f'x1="{_MARGIN_LEFT}" y1="{at:.2f}" x2="{right}" y2="{at:.2f}"',
        lambda at: f'x="{_MARGIN_LEFT - 8}" y="{at + 4:.2f}" text-anchor="end"',
    )
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for curve in curves:
        points = " ".join(
            f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x, curve.values)
        )
        dash = f' stroke-dasharray="{curve.dash}"' if curve.dash else ""
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{curve.color}" '
            f'stroke-width="1.8"{dash}/>'
        )
    legend_x = right + 16
    legend_y = _MARGIN_TOP + 10
    for index, curve in enumerate(curves):
        row_y = legend_y + index * 22
        dash = f' stroke-dasharray="{curve.dash}"' if curve.dash else ""
        parts.append(
            f'<line x1="{legend_x}" y1="{row_y}" x2="{legend_x + 30}" y2="{row_y}" '
            f'stroke="{curve.color}" stroke-width="1.8"{dash}/>'
        )
        parts.append(
            f'<text x="{legend_x + 38}" y="{row_y + 4}">{curve.label}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.2f})">{y_label}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(parts))
        handle.write("\n")
