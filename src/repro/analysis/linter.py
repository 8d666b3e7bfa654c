"""The circuit linter: run every registered rule over a circuit or DAG.

:class:`CircuitLinter` is the front door of :mod:`repro.analysis`.  It accepts
a :class:`~repro.circuits.circuit.QuantumCircuit`, a
:class:`~repro.circuits.dag.DagCircuit` or a
:class:`~repro.compiler.result.CompilationResult`, runs the structural rules
always and the hardware-legality rules when a target is available, and returns
a :class:`~repro.analysis.diagnostics.LintReport`.

::

    from repro.analysis import CircuitLinter

    report = CircuitLinter(target=target).lint(result)
    if report.has_errors:
        print(report.to_table())
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Type, Union

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import DagCircuit
from ..exceptions import AnalysisError
from ..hardware.target import Target
from ..hardware.topology import CouplingMap
from .diagnostics import Diagnostic, LintReport
from .rules import ALL_RULES, RULES_BY_CODE, LintContext, LintRule

#: Codes of the purely structural IR rules (run by the contract validator's
#: ``full`` mode after every pass, where no layout/target context applies).
STRUCTURAL_CODES: Tuple[str, ...] = ("QL003", "QL004", "QL005")


def _as_mapping(layout) -> Optional[Dict[int, int]]:
    """Normalise a layout argument (dict, ``Layout`` object or None) to a dict."""
    if layout is None:
        return None
    if isinstance(layout, dict):
        return layout
    to_dict = getattr(layout, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise AnalysisError(
        f"expected a layout mapping or Layout, got {type(layout).__name__}"
    )


class CircuitLinter:
    """Run lint rules over circuits, DAGs or compilation results.

    Parameters
    ----------
    target:
        Device model to check hardware legality against.  Accepts a
        :class:`Target` or a bare :class:`CouplingMap` (wrapped via
        :meth:`Target.of`).  Without one, only target-independent rules run.
    suppress:
        Rule codes (``"QL202"``) to exclude.  Unknown codes raise
        :class:`~repro.exceptions.AnalysisError` immediately rather than
        silently suppressing nothing.
    rules:
        Explicit rule classes to run instead of the full registry — used by
        the contract validator to run just the structural subset.
    """

    def __init__(
        self,
        target: Optional[Union[Target, CouplingMap]] = None,
        suppress: Iterable[str] = (),
        rules: Optional[Sequence[Type[LintRule]]] = None,
    ) -> None:
        self.target = Target.of(target) if target is not None else None
        self.suppress: Tuple[str, ...] = tuple(suppress)
        for code in self.suppress:
            if code not in RULES_BY_CODE:
                known = ", ".join(sorted(RULES_BY_CODE))
                raise AnalysisError(
                    f"cannot suppress unknown rule code {code!r}; known codes "
                    f"are {known}"
                )
        rule_classes = tuple(rules) if rules is not None else ALL_RULES
        self.rules: Tuple[LintRule, ...] = tuple(
            rule_class()
            for rule_class in rule_classes
            if rule_class.code not in self.suppress
        )

    # ------------------------------------------------------------------
    def lint(
        self,
        subject: Union[QuantumCircuit, DagCircuit, "object"],
        *,
        initial_layout: Optional[Dict[int, int]] = None,
        final_layout: Optional[Dict[int, int]] = None,
        name: str = "",
    ) -> LintReport:
        """Lint a circuit, DAG or compilation result.

        A :class:`~repro.compiler.result.CompilationResult` carries its own
        layouts and target; explicit keyword arguments override them.
        """
        dag, ctx_name, result_initial, result_final, result_target = (
            self._unpack(subject)
        )
        target = self.target if self.target is not None else result_target
        ctx = LintContext(
            dag,
            target=target,
            initial_layout=_as_mapping(
                initial_layout if initial_layout is not None else result_initial
            ),
            final_layout=_as_mapping(
                final_layout if final_layout is not None else result_final
            ),
        )
        diagnostics: list[Diagnostic] = []
        for rule in self.rules:
            if rule.needs_target and target is None:
                continue
            diagnostics.extend(rule.check(ctx))
        return LintReport(
            diagnostics,
            suppressed=self.suppress,
            subject=name or ctx_name,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _unpack(subject):
        """Normalise the lint subject into (dag, name, layouts, target)."""
        if isinstance(subject, DagCircuit):
            return subject, subject.name, None, None, None
        if isinstance(subject, QuantumCircuit):
            return (
                DagCircuit.from_circuit(subject),
                subject.name,
                None,
                None,
                None,
            )
        # CompilationResult (structural duck-check avoids an import cycle:
        # compiler.result imports this module for its lint() convenience).
        circuit = getattr(subject, "circuit", None)
        if isinstance(circuit, QuantumCircuit):
            target = getattr(subject, "target", None)
            if target is None:
                coupling_map = getattr(subject, "coupling_map", None)
                if coupling_map is not None:
                    target = Target.of(coupling_map)
            return (
                DagCircuit.from_circuit(circuit),
                circuit.name,
                getattr(subject, "initial_layout", None),
                getattr(subject, "final_layout", None),
                target,
            )
        raise AnalysisError(
            "lint() expects a QuantumCircuit, DagCircuit or "
            f"CompilationResult, got {type(subject).__name__}"
        )


def structural_linter() -> CircuitLinter:
    """A linter restricted to the QL00x structural IR invariants.

    This is what ``PassManager(validate="full")`` runs after every pass:
    target-independent, layout-independent, O(n) in the circuit.
    """
    return CircuitLinter(
        rules=[RULES_BY_CODE[code] for code in STRUCTURAL_CODES]
    )


def lint_circuit(
    subject,
    target: Optional[Union[Target, CouplingMap]] = None,
    suppress: Iterable[str] = (),
    **kwargs,
) -> LintReport:
    """One-shot convenience: ``lint_circuit(result)``."""
    return CircuitLinter(target=target, suppress=suppress).lint(
        subject, **kwargs
    )
