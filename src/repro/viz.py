"""Terminal visualisation helpers.

The repository has no plotting dependencies, so the examples and the CLI
render trade-off scatters and curves as Unicode text. Deterministic and
easily testable.
"""

from __future__ import annotations

__all__ = ["scatter", "curve"]

_MARKERS = "ox+*#@%&"


def scatter(series: dict[str, list[tuple[float, float]]],
            width: int = 72, height: int = 20,
            xlabel: str = "x", ylabel: str = "y",
            vline: float | None = None) -> str:
    """Render labelled (x, y) point series as a text scatter plot.

    Parameters
    ----------
    series:
        Mapping from series label to its points; each series gets its own
        marker character (cycled from a fixed set).
    vline:
        Optional vertical line (e.g. a deadline) drawn with ``|``.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if vline is not None:
        x_lo, x_hi = min(x_lo, vline), max(x_hi, vline)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    if vline is not None:
        col = int(round((vline - x_lo) / x_span * (width - 1)))
        for row in grid:
            row[col] = "|"
    legend = []
    for idx, (label, pts) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        legend.append(f"{marker} {label}")
        for x, y in pts:
            col = int(round((x - x_lo) / x_span * (width - 1)))
            row = height - 1 - int(round((y - y_lo) / y_span * (height - 1)))
            grid[row][col] = marker

    lines = []
    for i, row in enumerate(grid):
        y_val = y_hi - i * y_span / (height - 1)
        prefix = f"{y_val:8.3f} " if i % 4 == 0 else " " * 9
        lines.append(prefix + "".join(row))
    lines.append(" " * 9 + f"{x_lo:<10.3f}{xlabel:^{max(width - 20, 1)}}"
                 f"{x_hi:>10.3f}")
    lines.append("   " + "   ".join(legend))
    lines.append(f"   (y: {ylabel})")
    return "\n".join(lines)


def curve(xs, ys, width: int = 72, height: int = 16,
          xlabel: str = "x", ylabel: str = "y") -> str:
    """Render a single (x, y) curve as a text plot."""
    return scatter({ylabel: list(zip(xs, ys))}, width, height,
                   xlabel, ylabel)
