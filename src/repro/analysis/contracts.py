"""Pass contracts: declared pipeline invariants, checked between stages.

Every pass declares four class attributes (defaulted on
:class:`~repro.passes.base.BasePass`):

* ``requires`` — properties that must hold *before* the pass runs
  (``MappingAwareToffoliDecomposePass`` requires ``"routed_toffoli"``);
* ``establishes`` — properties guaranteed to hold after the pass
  (``GreedySwapRouter`` establishes ``"routed"``);
* ``invalidates`` — properties the pass may destroy (every transformation
  invalidates ``"scheduled"`` by default);
* ``checks`` — per-pass assertions evaluated after every execution
  (``"gate_count_nonincreasing"`` on the cancellation passes).

:class:`ContractValidator` hooks into :meth:`PassManager.run <repro.passes.base.PassManager.run>`
and tracks each property as *held*, *absent* (explicitly invalidated) or
*unknown* (never mentioned).  A ``requires`` clause is only violated when the
property is known-absent — partial pipelines built by tests start with every
property unknown and stay valid.  In ``"full"`` mode the validator
additionally re-verifies checkable held properties against the actual DAG
after every pass and runs the structural QL00x lint rules, so the first pass
that corrupts the IR or un-routes the circuit is named in the error and in
``properties["contract_violation"]``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Set

from ..circuits.dag import DagCircuit
from ..exceptions import AnalysisError, ContractViolationError
from .linter import structural_linter

#: The recognised validation modes, in increasing strictness.
VALIDATION_MODES = ("off", "contracts", "full")

#: Environment variable consulted when no explicit mode is given.  The test
#: suite and CI export ``REPRO_VALIDATE=full`` so every pipeline they build is
#: checked; library users get ``off`` unless they opt in.
VALIDATE_ENV_VAR = "REPRO_VALIDATE"


def resolve_validation_mode(value) -> str:
    """Normalise a ``validate=`` argument into ``"off"|"contracts"|"full"``.

    ``None`` defers to the ``REPRO_VALIDATE`` environment variable (default
    ``"off"``); booleans map to ``"contracts"``/``"off"``; strings must be one
    of the recognised modes.
    """
    if value is None:
        value = os.environ.get(VALIDATE_ENV_VAR, "off") or "off"
    if value is False:
        return "off"
    if value is True:
        return "contracts"
    if isinstance(value, str):
        mode = value.lower()
        if mode in ("none",):
            return "off"
        if mode in VALIDATION_MODES:
            return mode
    raise AnalysisError(
        f"invalid validation mode {value!r}; expected one of "
        f"{', '.join(VALIDATION_MODES)} (or True/False/None)"
    )


# ----------------------------------------------------------------------
# Property checkers (the "full" mode re-verification).  Each returns None
# when the property genuinely holds on the DAG, a human-readable detail
# string when it does not, and None-without-checking when the needed context
# (e.g. a coupling map) is unavailable.
# ----------------------------------------------------------------------
def _check_routed(dag: DagCircuit, properties) -> Optional[str]:
    coupling_map = properties.get("coupling_map")
    if coupling_map is None:
        return None
    for node, instruction in enumerate(dag.instructions):
        gate = instruction.gate
        if not gate.is_unitary:
            continue
        if gate.num_qubits == 2:
            a, b = instruction.qubits
            if not coupling_map.are_adjacent(a, b):
                return (
                    f"{gate.name} on non-adjacent qubits ({a}, {b}) "
                    f"[node {node}]"
                )
        elif gate.num_qubits >= 3:
            return (
                f"{gate.num_qubits}q unitary {gate.name!r} survives routing "
                f"[node {node}]"
            )
    return None


def _check_routed_toffoli(dag: DagCircuit, properties) -> Optional[str]:
    """Like ``routed``, but 3q Toffoli-family gates on connected trios are ok."""
    coupling_map = properties.get("coupling_map")
    if coupling_map is None:
        return None
    for node, instruction in enumerate(dag.instructions):
        gate = instruction.gate
        if not gate.is_unitary:
            continue
        if gate.num_qubits == 2:
            a, b = instruction.qubits
            if not coupling_map.are_adjacent(a, b):
                return (
                    f"{gate.name} on non-adjacent qubits ({a}, {b}) "
                    f"[node {node}]"
                )
        elif gate.num_qubits == 3 and gate.name in ("ccx", "ccz", "cswap"):
            a, b, c = instruction.qubits
            adjacent = sum(
                coupling_map.are_adjacent(x, y)
                for x, y in ((a, b), (a, c), (b, c))
            )
            if adjacent < 2:
                return (
                    f"{gate.name} trio ({a}, {b}, {c}) is not connected on "
                    f"the device [node {node}]"
                )
        elif gate.num_qubits >= 3:
            return (
                f"{gate.num_qubits}q unitary {gate.name!r} survives trio "
                f"routing [node {node}]"
            )
    return None


def _check_decomposed(dag: DagCircuit, properties) -> Optional[str]:
    for node, instruction in enumerate(dag.instructions):
        gate = instruction.gate
        if gate.is_unitary and gate.num_qubits >= 3:
            return (
                f"{gate.num_qubits}q unitary {gate.name!r} survives "
                f"decomposition [node {node}]"
            )
    return None


def _check_swaps_expanded(dag: DagCircuit, properties) -> Optional[str]:
    for node, instruction in enumerate(dag.instructions):
        if instruction.name == "swap":
            return f"swap gate survives expansion [node {node}]"
    return None


#: ``property name -> checker``.  Properties without a checker (``scheduled``,
#: ``unitary_equivalent``) are tracked declaratively only — ``full`` mode
#: cannot re-derive them statically.
PROPERTY_CHECKERS: Dict[str, Callable[[DagCircuit, dict], Optional[str]]] = {
    "routed": _check_routed,
    "routed_toffoli": _check_routed_toffoli,
    "decomposed": _check_decomposed,
    "swaps_expanded": _check_swaps_expanded,
}


class ContractValidator:
    """Checks declared pass contracts during one :class:`PassManager` run.

    The validator is stateful across the run: it remembers which properties
    are held (some pass established them), which are absent (some pass
    invalidated them and nothing re-established them), and treats everything
    else as unknown.  One instance validates one run.
    """

    def __init__(self, mode: str = "contracts") -> None:
        self.mode = resolve_validation_mode(mode)
        self._held: Set[str] = set()
        self._absent: Set[str] = set()
        self._invalidated_by: Dict[str, str] = {}
        self._size_before = 0
        self._structural = structural_linter() if self.mode == "full" else None

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def held(self) -> Set[str]:
        """The properties currently known to hold (a copy)."""
        return set(self._held)

    # ------------------------------------------------------------------
    def before_pass(self, single_pass, dag: DagCircuit, properties) -> None:
        """Validate ``requires`` clauses and snapshot pre-pass state."""
        if not self.enabled:
            return
        self._size_before = len(dag)
        for required in getattr(single_pass, "requires", ()):
            if required in self._absent:
                culprit = self._invalidated_by.get(required, "an earlier pass")
                self._violate(
                    single_pass,
                    properties,
                    required,
                    f"requires {required!r}, which was invalidated by "
                    f"{culprit} and never re-established",
                    kind="requires",
                )

    def after_pass(self, single_pass, dag: DagCircuit, properties) -> None:
        """Run ``checks``, update the property state, re-verify in full mode."""
        if not self.enabled:
            return
        for check in getattr(single_pass, "checks", ()):
            self._run_check(single_pass, check, dag, properties)

        preserves = getattr(single_pass, "preserves", "*")
        if preserves != "*":
            kept = set(preserves)
            for prop in list(self._held):
                if prop not in kept:
                    self._held.discard(prop)  # unknown now, not absent
        for prop in getattr(single_pass, "invalidates", ()):
            self._held.discard(prop)
            self._absent.add(prop)
            self._invalidated_by[prop] = single_pass.name
        for prop in getattr(single_pass, "establishes", ()):
            self._held.add(prop)
            self._absent.discard(prop)

        if self.mode == "full":
            self._verify_structure(single_pass, dag, properties)
            self._verify_held(single_pass, dag, properties)

    # ------------------------------------------------------------------
    def _run_check(self, single_pass, check: str, dag, properties) -> None:
        if check == "gate_count_nonincreasing":
            if len(dag) > self._size_before:
                self._violate(
                    single_pass,
                    properties,
                    check,
                    f"grew the circuit from {self._size_before} to "
                    f"{len(dag)} instructions",
                    kind="check",
                )
        # other check names ("unitary_equivalent") are declarative metadata
        # for tooling; they have no static checker

    def _verify_structure(self, single_pass, dag, properties) -> None:
        assert self._structural is not None
        report = self._structural.lint(dag)
        if report.has_errors:
            first = report.errors()[0]
            self._violate(
                single_pass,
                properties,
                first.code,
                f"corrupted the IR: {first.message}",
                kind="structure",
            )

    def _verify_held(self, single_pass, dag, properties) -> None:
        for prop in sorted(self._held):
            checker = PROPERTY_CHECKERS.get(prop)
            if checker is None:
                continue
            detail = checker(dag, properties)
            if detail is not None:
                self._violate(
                    single_pass,
                    properties,
                    prop,
                    f"broke held invariant {prop!r}: {detail}",
                    kind="invariant",
                )

    # ------------------------------------------------------------------
    def _violate(
        self, single_pass, properties, invariant: str, detail: str, kind: str
    ) -> None:
        """Record the violation in telemetry, then raise naming the pass."""
        record = {
            "pass": single_pass.name,
            "stage": properties.get("_current_stage"),
            "kind": kind,
            "invariant": invariant,
            "detail": detail,
        }
        properties["contract_violation"] = record
        raise ContractViolationError(
            f"pass {single_pass.name!r} "
            f"(stage {properties.get('_current_stage')!r}) {detail}"
        )
