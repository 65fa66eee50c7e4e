"""Per-iteration solver traces; ``relaybeam solve --trace`` puts one in its report."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SolverTrace:
    """Append-only record of solver iterations.

    ``columns`` names the entries of each row tuple; every iterative
    solver documents its own column layout.
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def append(self, *values):
        self.rows.append(values)

    def note(self, message: str):
        self.notes.append(message)

    def __len__(self):
        return len(self.rows)
