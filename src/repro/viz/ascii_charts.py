"""ASCII/Unicode chart rendering for terminals.

Pure-text output, suitable for piping into logs or EXPERIMENTS.md code
blocks.  All functions return strings (no printing) and cope with
degenerate inputs (constant series, empty groups) without raising.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.utils.validation import check_integer

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_BAR_CHAR = "█"


def _as_finite_1d(values: Sequence[float], name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def sanitize_series(values: Sequence[float]) -> list[float]:
    """Drop non-finite entries from a series (dashboard-side tolerance).

    The chart functions deliberately reject NaN/inf — silently bending a
    figure's axes around bad data would hide bugs.  Live dashboards have
    the opposite need: a feed with a hole in it should still render.  This
    is the explicit bridge: filter first, then chart.
    """
    v = np.asarray(list(values), dtype=float)
    return [float(x) for x in v[np.isfinite(v)]]


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline of a series using block characters.

    A constant series renders at the lowest level.
    """
    v = _as_finite_1d(values, "values")
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return _SPARK_LEVELS[0] * v.size
    scaled = (v - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 1)
    return "".join(_SPARK_LEVELS[int(round(s))] for s in scaled)


def bar_chart(data: Mapping[str, float], *, width: int = 40,
              value_fmt: str = ".1f", title: str | None = None) -> str:
    """Horizontal bar chart of labelled values.

    Bars scale to the largest value; negative values are rendered as zero
    width with their numeric value still shown.
    """
    if not data:
        raise ValueError("data must not be empty")
    width = check_integer(width, "width", minimum=1)
    label_w = max(len(k) for k in data)
    peak = max(max(data.values()), 0.0)
    lines = [title] if title else []
    for label, value in data.items():
        n = int(round(width * value / peak)) if peak > 0 and value > 0 else 0
        lines.append(
            f"{label.ljust(label_w)} | {_BAR_CHAR * n}"
            f"{' ' if n else ''}{format(value, value_fmt)}"
        )
    return "\n".join(lines)


def line_chart(series: Mapping[str, Sequence[float]], *, height: int = 10,
               width: int = 60, title: str | None = None) -> str:
    """Multi-series line chart on a character grid.

    Each series gets a marker (its label's first letter); overlapping points
    show the later series' marker.  The y-axis is annotated with min/max.
    """
    if not series:
        raise ValueError("series must not be empty")
    height = check_integer(height, "height", minimum=2)
    width = check_integer(width, "width", minimum=2)
    arrays = {k: _as_finite_1d(v, k) for k, v in series.items()}
    lo = min(float(a.min()) for a in arrays.values())
    hi = max(float(a.max()) for a in arrays.values())
    span = hi - lo if hi > lo else 1.0
    grid = [[" "] * width for _ in range(height)]
    # Unique marker per series: first unused character of the label, falling
    # back to a symbol cycle when labels collide on every character.
    markers: dict[str, str] = {}
    fallback = iter("*+x#@%&~")
    for label in arrays:
        marker = next(
            (c for c in label if c.strip() and c not in markers.values()),
            None,
        ) or next(fallback)
        markers[label] = marker
    for label, a in arrays.items():
        marker = markers[label]
        xs = (
            np.linspace(0, width - 1, a.size).round().astype(int)
            if a.size > 1 else np.array([0])
        )
        ys = ((a - lo) / span * (height - 1)).round().astype(int)
        for x, y in zip(xs, ys):
            grid[height - 1 - y][x] = marker
    lines = [title] if title else []
    lines.append(f"{hi:10.2f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{lo:10.2f} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + "└" + "─" * width)
    legend = "   ".join(f"{markers[k]} = {k}" for k in arrays)
    lines.append(" " * 13 + legend)
    return "\n".join(lines)
