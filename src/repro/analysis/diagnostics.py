"""Structured findings emitted by the circuit linter.

Every rule in :mod:`repro.analysis.rules` reports :class:`Diagnostic` objects
with a stable code (``QL003`` ...), a :class:`Severity`, a human-readable
message, and — when the finding is anchored to a specific instruction — its
position in the linted table and its qubits, so a caller can map the finding
back to the offending instruction.  A :class:`LintReport` bundles the findings of one
lint run with filtering, table/JSON rendering and the suppression bookkeeping
used by the ``repro lint`` CLI.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union


class Severity(enum.Enum):
    """How serious a lint finding is.

    ``ERROR`` findings mean the circuit cannot be executed as-is (illegal
    edge, out-of-range qubit, corrupted IR); ``WARNING`` findings are likely
    mistakes that still execute (missing measurement, non-basis 1q gate);
    ``INFO`` findings are observations (idle device qubits).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Numeric severity for sorting: higher is more severe."""
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one lint rule, anchored to the IR where possible."""

    code: str
    severity: Severity
    message: str
    #: Qubits (or device wires) the finding concerns, when applicable.
    qubits: Tuple[int, ...] = ()
    #: Position of the offending instruction in the linted table, if any.
    node_index: Optional[int] = None
    #: Name of the offending instruction's gate, if any.
    gate: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the ``--format json`` payload)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "qubits": list(self.qubits),
            "node_index": self.node_index,
            "gate": self.gate,
        }

    def __str__(self) -> str:
        anchor = ""
        if self.node_index is not None:
            anchor = f" [node {self.node_index}]"
        return f"{self.code} {self.severity.value}: {self.message}{anchor}"


class LintReport:
    """The findings of one :class:`~repro.analysis.linter.CircuitLinter` run."""

    def __init__(
        self,
        diagnostics: Iterable[Diagnostic] = (),
        suppressed: Iterable[str] = (),
        subject: str = "",
    ) -> None:
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        #: Rule codes excluded from this run (per-rule suppression).
        self.suppressed: Tuple[str, ...] = tuple(suppressed)
        #: Human-readable name of what was linted (circuit name, file path).
        self.subject = subject

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    # ------------------------------------------------------------------
    def by_code(self, code: str) -> List[Diagnostic]:
        """All findings with the given rule code."""
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> List[str]:
        """Distinct rule codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def at_severity(self, severity: Union[Severity, str]) -> List[Diagnostic]:
        """All findings at exactly the given severity."""
        if isinstance(severity, str):
            severity = Severity(severity)
        return [d for d in self.diagnostics if d.severity is severity]

    def errors(self) -> List[Diagnostic]:
        """The error-severity findings (what fails a lint gate)."""
        return self.at_severity(Severity.ERROR)

    def warnings(self) -> List[Diagnostic]:
        return self.at_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    # ------------------------------------------------------------------
    def sorted(self) -> List[Diagnostic]:
        """Findings ordered most-severe first, then by code, then by anchor."""
        return sorted(
            self.diagnostics,
            key=lambda d: (
                -d.severity.rank,
                d.code,
                d.node_index if d.node_index is not None else -1,
            ),
        )

    def summary(self) -> str:
        """One-line tally, e.g. ``"2 errors, 1 warning, 3 info"``."""
        counts = {
            Severity.ERROR: 0,
            Severity.WARNING: 0,
            Severity.INFO: 0,
        }
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        parts = []
        for severity, noun in (
            (Severity.ERROR, "error"),
            (Severity.WARNING, "warning"),
            (Severity.INFO, "info"),
        ):
            count = counts[severity]
            plural = "s" if count != 1 and noun != "info" else ""
            parts.append(f"{count} {noun}{plural}")
        return ", ".join(parts)

    def to_table(self) -> str:
        """Fixed-width diagnostic table (the default ``repro lint`` output)."""
        if not self.diagnostics:
            return "no findings"
        rows = [("code", "severity", "node", "qubits", "message")]
        for diagnostic in self.sorted():
            rows.append(
                (
                    diagnostic.code,
                    diagnostic.severity.value,
                    "-" if diagnostic.node_index is None else str(diagnostic.node_index),
                    ",".join(map(str, diagnostic.qubits)) or "-",
                    diagnostic.message,
                )
            )
        widths = [
            max(len(row[column]) for row in rows) for column in range(4)
        ]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(
                    [row[column].ljust(widths[column]) for column in range(4)]
                    + [row[4]]
                )
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths) + "  " + "-" * 7)
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """JSON-ready representation of the whole report."""
        return {
            "subject": self.subject,
            "summary": self.summary(),
            "suppressed": list(self.suppressed),
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LintReport({self.subject!r}, {self.summary()})"
