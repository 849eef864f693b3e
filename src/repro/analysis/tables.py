"""Plain-text table rendering for the benchmark harness."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.stats import AnalysisError


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None, float_format: str = "{:.4f}") -> str:
    """Render a simple aligned table.

    Floats use ``float_format``; everything else uses str().
    """
    if not headers:
        raise AnalysisError("table needs headers")
    rendered_rows = []
    for row in rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row of {len(row)} cells does not match {len(headers)} headers"
            )
        rendered_rows.append([
            float_format.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ])
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered_rows)) if rendered_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
