"""Per-iteration solver traces, exportable as CSV for external plotting."""

from __future__ import annotations

import io
from dataclasses import dataclass, field


@dataclass
class SolverTrace:
    """Append-only record of solver iterations.

    ``columns`` fixes the CSV header and the meaning of each row tuple;
    every iterative solver documents its own column layout.
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def append(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                f"trace row has {len(values)} fields, expected {len(self.columns)}"
            )
        self.rows.append(tuple(values))

    def note(self, message: str):
        self.notes.append(message)

    def __len__(self):
        return len(self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(map(str, row)) + "\n")
        return buf.getvalue()
