"""Table rendering: fixed-width terminal output, CSV export, sparklines."""

from __future__ import annotations

from repro.errors import ConfigurationError

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
#: Characters in a sparkline; longer series are downsampled to it.
SPARKLINE_WIDTH = 60


def _render_cells(
    headers: list[str], rows: list[list[object]], float_format: str
) -> list[list[str]]:
    """Validate row widths and stringify every cell.

    Floats format with ``float_format``; everything else with ``str``.
    """
    if any(len(row) != len(headers) for row in rows):
        raise ConfigurationError("every row must match the header width")
    return [
        [
            float_format.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render a fixed-width ASCII table; floats show three decimals."""
    rendered = _render_cells(headers, rows, "{:.3f}")
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_csv(headers: list[str], rows: list[list[object]]) -> str:
    """Render a table as minimal CSV (no quoting; cells must be delimiter-free).

    Campaign exports go through this, so floats use a round-trippable
    general format rather than the fixed display precision.
    """
    cells = _render_cells(headers, rows, "{:.6g}")
    for row in [list(headers)] + cells:
        for cell in row:
            if "," in cell or "\n" in cell:
                raise ConfigurationError(
                    f"CSV cell may not contain a comma or newline: {cell!r}"
                )
    lines = [",".join(headers)]
    lines.extend(",".join(row) for row in cells)
    return "\n".join(lines)


def sparkline(values: list[float]) -> str:
    """A one-line unicode sparkline of a series (downsampled to
    :data:`SPARKLINE_WIDTH`)."""
    if not values:
        return ""
    if len(values) > SPARKLINE_WIDTH:
        stride = len(values) / SPARKLINE_WIDTH
        values = [values[int(i * stride)] for i in range(SPARKLINE_WIDTH)]
    low = min(values)
    high = max(values)
    if high == low:
        return _SPARK_LEVELS[0] * len(values)
    span = high - low
    chars = []
    for value in values:
        index = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[index])
    return "".join(chars)


def format_series(label: str, values: list[float]) -> str:
    """Label + min/max annotation + sparkline, for temperature traces."""
    if not values:
        return f"{label}: (empty)"
    return f"{label}: [{min(values):7.2f} .. {max(values):7.2f}] {sparkline(values)}"
