"""The records text format of every qk report.

A report is a run of records separated by one blank line; a record is
key<TAB>value rows.  A value prints as true or false for a bool, as its
items joined by spaces for a list or tuple ('-' when there are none), and
as str() otherwise.  The table style aligns the keys into one column in
place of the tab.
"""

from __future__ import annotations

def value_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return " ".join(map(value_text, v)) if v else "-"
    return str(v)


class Records:
    """Accumulates the lines of a report in the records style; renders them
    as they are or as an aligned table."""

    def __init__(self):
        self.lines: list[str] = []

    def put(self, key: str, value) -> None:
        self.lines.append(f"{key}\t{value_text(value)}")

    def sep(self) -> None:
        """End the current record."""
        self.lines.append("")

    def render(self, fmt: str = "records") -> str:
        lines = self.lines
        if fmt == "table":
            rows = [line.partition("\t") for line in lines]
            w = max((len(k) for k, _, _ in rows), default=0) + 2
            lines = [f"{k:<{w}}{v}" if tab else "" for k, tab, v in rows]
        return "\n".join(lines) + "\n"
