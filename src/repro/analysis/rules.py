"""The linter's rule set: structural, hardware-legality and resource checks.

Rules are small classes with a stable ``code`` (``QL0xx`` structural IR
invariants, ``QL1xx`` hardware legality, ``QL2xx`` resource/usage analyses),
a default :class:`~repro.analysis.diagnostics.Severity` and a ``check``
method that yields :class:`~repro.analysis.diagnostics.Diagnostic` objects.
All rules run over a shared :class:`LintContext` holding the instruction
table, so a full lint stays O(n) in the circuit size per registered rule.

Unlike the simulation-based equivalence harness (bounded at ~20 qubits),
every rule here is purely structural and runs at any width — this is the
machine check that covers the Figure 9/10 cells the dynamic verifier skips.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple, Type

from ..circuits.circuit import Instruction
from ..circuits.dag import DagCircuit
from ..hardware.target import Target
from .diagnostics import Diagnostic, Severity

#: Two-qubit gates whose unitary is symmetric under qubit exchange; QL102
#: (edge direction) never fires for these.
SYMMETRIC_2Q_GATES: Tuple[str, ...] = ("swap", "cz", "cp", "rzz")

#: Gate names allowed besides the target basis: non-unitary operations plus
#: the routing-internal ``swap`` (expanded by ``DecomposeSwapsPass``).
ALWAYS_LEGAL_NAMES: Tuple[str, ...] = ("measure", "reset", "barrier", "swap")


class LintContext:
    """Everything one lint run needs, computed once and shared by all rules."""

    def __init__(
        self,
        dag: DagCircuit,
        target: Optional[Target] = None,
        initial_layout: Optional[Dict[int, int]] = None,
        final_layout: Optional[Dict[int, int]] = None,
    ) -> None:
        self.dag = dag
        self.target = target
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        #: The table's entries in linear (topological) order; a rule's node
        #: is a position in this list.
        self.instructions: List[Instruction] = dag.instructions

    @property
    def num_qubits(self) -> int:
        return self.dag.num_qubits


class LintRule:
    """Base class: a stable code, a default severity, and a check generator."""

    code: str = "QL000"
    severity: Severity = Severity.ERROR
    description: str = ""
    #: Whether the rule needs a :class:`Target` to say anything.
    needs_target: bool = False

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def make(
        self,
        message: str,
        qubits: Tuple[int, ...] = (),
        node: Optional[int] = None,
        instruction: Optional[Instruction] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Build a diagnostic carrying this rule's code and severity."""
        return Diagnostic(
            code=self.code,
            severity=severity if severity is not None else self.severity,
            message=message,
            qubits=qubits,
            node_index=node,
            gate=instruction.name if instruction is not None else None,
        )


# ----------------------------------------------------------------------
# QL0xx — structural IR invariants
# ----------------------------------------------------------------------
class DuplicateQubitArgsRule(LintRule):
    """QL003: an instruction must not name the same qubit twice."""

    code = "QL003"
    severity = Severity.ERROR
    description = "instruction applies a gate to a repeated qubit"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node, instruction in enumerate(ctx.instructions):
            qubits = instruction.qubits
            if len(set(qubits)) != len(qubits):
                yield self.make(
                    f"{instruction.name} applied to repeated qubit arguments {qubits}",
                    qubits=qubits,
                    node=node,
                    instruction=instruction,
                )


class QubitRangeRule(LintRule):
    """QL004: every qubit must lie inside the DAG's declared register."""

    code = "QL004"
    severity = Severity.ERROR
    description = "qubit index outside the circuit register"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node, instruction in enumerate(ctx.instructions):
            for qubit in instruction.qubits:
                if not 0 <= qubit < ctx.num_qubits:
                    yield self.make(
                        f"{instruction.name} touches qubit {qubit}, outside the "
                        f"{ctx.num_qubits}-qubit register",
                        qubits=instruction.qubits,
                        node=node,
                        instruction=instruction,
                    )


class TopologicalOrderRule(LintRule):
    """QL005: every wire successor must come later in the linear order."""

    code = "QL005"
    severity = Severity.ERROR
    description = "wire chain disagrees with the linear instruction order"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node, instruction in enumerate(ctx.instructions):
            for successor in ctx.dag.successors(node):
                if successor <= node:
                    yield self.make(
                        f"node {node} ({instruction.name}) has wire successor "
                        f"{successor} but the linear order disagrees",
                        qubits=instruction.qubits,
                        node=node,
                        instruction=instruction,
                    )


# ----------------------------------------------------------------------
# QL1xx — hardware legality (need a Target)
# ----------------------------------------------------------------------
class CouplingEdgeRule(LintRule):
    """QL101: every two-qubit unitary must act on a coupled pair."""

    code = "QL101"
    severity = Severity.ERROR
    description = "two-qubit gate on a pair the device does not couple"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        coupling_map = ctx.target.coupling_map
        for node, instruction in enumerate(ctx.instructions):
            gate = instruction.gate
            if not gate.is_unitary or gate.num_qubits != 2:
                continue
            a, b = instruction.qubits
            if a == b or not 0 <= a < coupling_map.num_qubits \
                    or not 0 <= b < coupling_map.num_qubits:
                continue  # QL003/QL104 report these
            if not coupling_map.are_adjacent(a, b):
                yield self.make(
                    f"{instruction.name} on qubits ({a}, {b}) but the device has no "
                    f"({a}, {b}) coupling",
                    qubits=instruction.qubits,
                    node=node,
                    instruction=instruction,
                )


class EdgeDirectionRule(LintRule):
    """QL102: direction-sensitive gates must follow the native edge direction.

    Only meaningful when the target declares ``directed_edges``; devices
    modelled with an undirected coupling map (the paper's) skip this rule.
    Exchange-symmetric gates (``cz``, ``cp``, ``rzz``, ``swap``) are exempt.
    """

    code = "QL102"
    severity = Severity.ERROR
    description = "two-qubit gate against the native edge direction"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        directed = ctx.target.directed_edges
        if not directed:
            return
        for node, instruction in enumerate(ctx.instructions):
            gate = instruction.gate
            if not gate.is_unitary or gate.num_qubits != 2:
                continue
            if instruction.name in SYMMETRIC_2Q_GATES:
                continue
            pair = (instruction.qubits[0], instruction.qubits[1])
            if pair not in directed and (pair[1], pair[0]) in directed:
                yield self.make(
                    f"{instruction.name} on qubits {pair} runs against the native "
                    f"direction; the device only drives ({pair[1]}, {pair[0]})",
                    qubits=instruction.qubits,
                    node=node,
                    instruction=instruction,
                )


class BasisGateRule(LintRule):
    """QL103: gates should belong to the target's native basis.

    Multi-qubit gates outside the basis are errors (the hardware cannot run
    them); single-qubit strays are warnings — any 1q unitary is trivially
    synthesisable into ``u3``, so they cost a synthesis step, not
    executability.
    """

    code = "QL103"
    severity = Severity.ERROR
    description = "gate outside the target's basis gate set"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        legal = set(ctx.target.basis_gates) | set(ALWAYS_LEGAL_NAMES)
        for node, instruction in enumerate(ctx.instructions):
            gate = instruction.gate
            if not gate.is_unitary or instruction.name in legal:
                continue
            if gate.num_qubits == 1:
                yield self.make(
                    f"1q gate {instruction.name!r} is outside the "
                    f"{'/'.join(ctx.target.basis_gates)} basis (synthesisable)",
                    qubits=instruction.qubits,
                    node=node,
                    instruction=instruction,
                    severity=Severity.WARNING,
                )
            else:
                yield self.make(
                    f"{gate.num_qubits}q gate {instruction.name!r} is outside the "
                    f"{'/'.join(ctx.target.basis_gates)} basis",
                    qubits=instruction.qubits,
                    node=node,
                    instruction=instruction,
                )


class DeviceSizeRule(LintRule):
    """QL104: every qubit must exist on the device."""

    code = "QL104"
    severity = Severity.ERROR
    description = "qubit index outside the device"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        device_size = ctx.target.num_qubits
        for node, instruction in enumerate(ctx.instructions):
            for qubit in instruction.qubits:
                if qubit >= device_size:
                    yield self.make(
                        f"{instruction.name} touches qubit {qubit} but the device "
                        f"has only {device_size} qubits",
                        qubits=instruction.qubits,
                        node=node,
                        instruction=instruction,
                    )


class LayoutValidityRule(LintRule):
    """QL105: the recorded layouts must be valid device permutations."""

    code = "QL105"
    severity = Severity.ERROR
    description = "initial/final layout is not a valid placement"
    needs_target = True

    def _check_one(
        self, which: str, mapping: Dict[int, int], device_size: int
    ) -> Iterator[Diagnostic]:
        used: Dict[int, int] = {}
        for logical, physical in mapping.items():
            if not 0 <= physical < device_size:
                yield self.make(
                    f"{which} layout places logical qubit {logical} on "
                    f"physical qubit {physical}, outside the "
                    f"{device_size}-qubit device",
                    qubits=(physical,),
                )
            if physical in used:
                yield self.make(
                    f"{which} layout places logical qubits {used[physical]} "
                    f"and {logical} on the same physical qubit {physical}",
                    qubits=(physical,),
                )
            used[physical] = logical
        expected = set(range(len(mapping)))
        if set(mapping) != expected:
            yield self.make(
                f"{which} layout does not cover logical qubits 0.."
                f"{len(mapping) - 1} (got {sorted(mapping)})"
            )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.target is not None
        device_size = ctx.target.num_qubits
        for which, mapping in (
            ("initial", ctx.initial_layout),
            ("final", ctx.final_layout),
        ):
            if mapping is not None:
                yield from self._check_one(which, mapping, device_size)
        if ctx.initial_layout is not None and ctx.final_layout is not None:
            if set(ctx.initial_layout) != set(ctx.final_layout):
                yield self.make(
                    "initial and final layouts place different logical qubits"
                )


class MultiQubitGateRule(LintRule):
    """QL106: three-or-more-qubit unitaries cannot execute on hardware."""

    code = "QL106"
    severity = Severity.ERROR
    description = "unitary acting on three or more qubits"
    needs_target = True

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node, instruction in enumerate(ctx.instructions):
            gate = instruction.gate
            if gate.is_unitary and gate.num_qubits >= 3:
                yield self.make(
                    f"{gate.num_qubits}q unitary {instruction.name!r} has no native "
                    "implementation; decompose it first",
                    qubits=instruction.qubits,
                    node=node,
                    instruction=instruction,
                )


# ----------------------------------------------------------------------
# QL2xx — resource / usage analyses
# ----------------------------------------------------------------------
class IdleQubitRule(LintRule):
    """QL201: device/register qubits no instruction ever touches."""

    code = "QL201"
    severity = Severity.INFO
    description = "qubits never used by any instruction"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        touched: Set[int] = set()
        for node, instruction in enumerate(ctx.instructions):
            touched.update(instruction.qubits)
        idle = sorted(set(range(ctx.num_qubits)) - touched)
        if idle:
            yield self.make(
                f"{len(idle)} of {ctx.num_qubits} qubits are never used: "
                f"{idle}",
                qubits=tuple(idle),
            )


class MeasurementCoverageRule(LintRule):
    """QL202: active qubits should be measured.

    A circuit with no measurements at all gets one finding (common for
    unitary benchmarks); otherwise each active-but-unmeasured qubit is
    reported individually — the classic "dropped measurement" bug.
    """

    code = "QL202"
    severity = Severity.WARNING
    description = "active qubit is never measured"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        active: Set[int] = set()
        measured: Set[int] = set()
        for node, instruction in enumerate(ctx.instructions):
            if instruction.name == "measure":
                measured.update(instruction.qubits)
            elif instruction.gate.is_unitary:
                active.update(instruction.qubits)
        if not measured:
            if active:
                yield self.make(
                    "circuit contains no measurements; results are "
                    "unobservable"
                )
            return
        for qubit in sorted(active - measured):
            yield self.make(
                f"qubit {qubit} is operated on but never measured",
                qubits=(qubit,),
            )


class ClobberedClbitRule(LintRule):
    """QL203: a classical bit written by more than one measurement."""

    code = "QL203"
    severity = Severity.WARNING
    description = "classical bit overwritten by a second measurement"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        writer: Dict[int, int] = {}
        for node, instruction in enumerate(ctx.instructions):
            if instruction.name != "measure":
                continue
            for clbit in instruction.clbits:
                if clbit in writer:
                    yield self.make(
                        f"measurement into clbit {clbit} overwrites the "
                        f"result recorded by node {writer[clbit]}",
                        qubits=instruction.qubits,
                        node=node,
                        instruction=instruction,
                    )
                writer[clbit] = node


class OperationAfterMeasureRule(LintRule):
    """QL204: a unitary applied to a qubit after its final measurement."""

    code = "QL204"
    severity = Severity.WARNING
    description = "gate applied after the qubit was measured"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        measured_at: Dict[int, int] = {}
        for node, instruction in enumerate(ctx.instructions):
            if instruction.name == "measure":
                for qubit in instruction.qubits:
                    measured_at[qubit] = node
                continue
            if not instruction.gate.is_unitary:
                continue
            for qubit in instruction.qubits:
                if qubit in measured_at:
                    yield self.make(
                        f"{instruction.name} acts on qubit {qubit} after it was "
                        f"measured (node {measured_at[qubit]}); the "
                        "result no longer reflects the final state",
                        qubits=instruction.qubits,
                        node=node,
                        instruction=instruction,
                    )
                    del measured_at[qubit]  # one finding per measurement


class AncillaReturnRule(LintRule):
    """QL205: an ancilla wire whose last operation is a 1q non-identity gate.

    With a final layout available, device wires that carry no program qubit
    at the end of the circuit are ancillas and must return to |0⟩.  A full
    check needs simulation, but one failure mode is visible statically: a
    correctly compiled circuit never *ends* an ancilla wire with a
    single-qubit gate (a trailing 1q gate marks the final home of some
    program qubit), so a non-identity 1q tail on an ancilla wire is a
    leftover that likely perturbs the ancilla's state.
    """

    code = "QL205"
    severity = Severity.WARNING
    description = "ancilla wire ends in a non-identity single-qubit gate"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.final_layout is None:
            return
        data_wires = set(ctx.final_layout.values())
        for wire in range(ctx.num_qubits):
            if wire in data_wires:
                continue
            tail = ctx.dag.wire_back(wire)
            if tail is None:
                continue
            instruction = ctx.instructions[tail]
            gate = instruction.gate
            if (
                gate.is_unitary
                and gate.num_qubits == 1
                and not gate.is_identity()
            ):
                yield self.make(
                    f"ancilla wire {wire} ends with {instruction.name}; ancillas "
                    "must be returned to |0⟩ for the routed circuit to be "
                    "equivalent",
                    qubits=(wire,),
                    node=tail,
                    instruction=instruction,
                )


#: Every registered rule, in code order.  ``CircuitLinter`` instantiates from
#: this list; new rules only need to be appended here.
ALL_RULES: Tuple[Type[LintRule], ...] = (
    DuplicateQubitArgsRule,
    QubitRangeRule,
    TopologicalOrderRule,
    CouplingEdgeRule,
    EdgeDirectionRule,
    BasisGateRule,
    DeviceSizeRule,
    LayoutValidityRule,
    MultiQubitGateRule,
    IdleQubitRule,
    MeasurementCoverageRule,
    ClobberedClbitRule,
    OperationAfterMeasureRule,
    AncillaReturnRule,
)

#: ``code -> rule class`` for suppression validation and documentation.
RULES_BY_CODE: Dict[str, Type[LintRule]] = {
    rule.code: rule for rule in ALL_RULES
}
