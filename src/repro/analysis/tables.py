"""Plain-text report tables for benchmark output.

Benchmarks print the same rows the paper reports; this module renders
them as aligned monospace tables so the "shape" comparison against the
paper is easy to eyeball.
"""

from __future__ import annotations

from typing import Any, List, Sequence


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (matches the paper's MB/GB axis labels)."""
    value = float(nbytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_ratio(value: float, baseline: float) -> str:
    """Render ``value`` as a percentage of ``baseline``."""
    if baseline == 0:
        return "n/a"
    return f"{100.0 * value / baseline:.1f}%"


class Table:
    """One set of headers and rows; aligned text or markdown at the edge."""

    def __init__(self, headers: Sequence[str], title: str = ""):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt(self.headers))
        lines.append("-+-".join("-" * w for w in widths))
        lines.extend(fmt(row) for row in self.rows)
        return "\n".join(lines)

    def markdown(self) -> str:
        """The same headers and rows in GitHub table syntax (no title)."""
        lines = ["| " + " | ".join(self.headers) + " |",
                 "|" + "---|" * len(self.headers)]
        lines.extend("| " + " | ".join(row) + " |" for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
