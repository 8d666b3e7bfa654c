"""Circuit-level optimisation passes, each one forward rewrite over the table.

These mirror the "light optimisation" the paper says Qiskit's default transpile
performs (§5.2): single-qubit gate consolidation and adjacent inverse-gate
cancellation, plus the SWAP→3-CNOT expansion that every routed circuit needs
before gate counting, scheduling and noise estimation.

Every pass reads its input :class:`~repro.circuits.dag.DagCircuit` once, in
order, and appends its output table as it goes, carrying the
``canonical_1q`` flag of each entry it passes through.  A pass that rewrote
nothing returns its input table, which is how the
:class:`~repro.passes.base.FixedPoint` loops see convergence.
:class:`CleanupLoop` adds the argument that lets the level 1-2 clean-up stop
after the first sweep that dropped no identity.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..circuits.circuit import Instruction, placed
from ..circuits.dag import DagCircuit
from ..circuits import library
from ..circuits.gate import NON_UNITARY_NAMES, SELF_INVERSE_NAMES
from .base import FixedPoint, PropertySet, TransformationPass
from .synthesis import merged_run_instruction


class DecomposeSwapsPass(TransformationPass):
    """Expand every explicit SWAP into its three-CNOT implementation (§2.2)."""

    establishes = ("swaps_expanded",)

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        cx = library.cx_gate()
        out: List[Instruction] = []
        flags: List[bool] = []
        for instruction, canonical in zip(dag.instructions, dag.canonical_1q):
            if instruction.name == "swap":
                a, b = instruction.qubits
                forward = placed(cx, (a, b))
                out += (forward, placed(cx, (b, a)), forward)
                flags += (False, False, False)
            else:
                out.append(instruction)
                flags.append(canonical)
        return dag if len(out) == len(dag) else dag.derive(out, flags)


def _drop(
    dag: DagCircuit, keep_entry
) -> Tuple[DagCircuit, int]:
    """``dag`` without the entries ``keep_entry`` rejects, and how many went."""
    out: List[Instruction] = []
    flags: List[bool] = []
    for instruction, canonical in zip(dag.instructions, dag.canonical_1q):
        if keep_entry(instruction):
            out.append(instruction)
            flags.append(canonical)
    dropped = len(dag) - len(out)
    return (dag.derive(out, flags) if dropped else dag), dropped


class RemoveBarriersPass(TransformationPass):
    """Drop barrier markers (they carry no semantics for our simulators)."""

    checks = ("gate_count_nonincreasing",)

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        return _drop(dag, lambda instruction: instruction.name != "barrier")[0]


def is_inverse_pair(first: Instruction, second: Instruction) -> bool:
    """Whether ``first · second`` is the identity: same qubits, inverse gates.

    The shared cancellation test of :class:`CancelAdjacentInversesPass` and the
    commutation-aware :class:`~repro.passes.commutation.CommutativeCancellationPass`.
    It answers exactly ``first.gate.is_unitary and second.gate.is_unitary and
    first.qubits == second.qubits and first.gate == second.gate.inverse()``,
    cheapest test first, and builds no inverse for a self-inverse gate.
    """
    if first.qubits != second.qubits:
        return False
    gate = first.gate
    other = second.gate
    if other.name in SELF_INVERSE_NAMES:
        # ``inverse()`` of a self-inverse gate is the gate itself.
        return gate is other or gate == other
    # Compare ``first == second.inverse()`` (not the flipped form): the two
    # differ at the object level for gates whose ``inverse()`` changes the
    # gate name (``u2`` inverts to a ``u3``), and this orientation is the one
    # the byte-frozen level-1 pipelines have always used.
    return (
        gate.name not in NON_UNITARY_NAMES
        and other.name not in NON_UNITARY_NAMES
        and gate == other.inverse()
    )


class CancelAdjacentInversesPass(TransformationPass):
    """Cancel neighbouring gate pairs ``G · G⁻¹`` acting on the same qubits.

    Routing frequently produces back-to-back CNOT pairs (end of one SWAP,
    start of the next gate); removing them is the cheapest of Qiskit's standard
    clean-ups and keeps the baseline comparison fair.

    A gate cancels when the last live output entry *on every one of its
    wires* is one single gate applied to the same qubits in the same order
    whose gate object is the inverse.  The pass keeps, per wire, the stack
    of its live output entries; a cancellation retracts the partner entry,
    popping it off its wires' stacks so each wire's last live entry is again
    the partner's own predecessor.  Cancellations enabled by earlier ones
    (e.g. ``[X, CX, CX, X]``) are therefore found in the same sweep, and one
    sweep is a fixed point: a surviving entry's predecessor can only be
    retracted together with a later gate on the same qubits, which would
    have the survivor, not the predecessor, as its neighbour.
    """

    checks = ("gate_count_nonincreasing",)

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        instructions = dag.instructions
        # Per qubit, the input indices of its live entries (-1: wire start).
        live: List[List[int]] = [[-1] for _ in range(dag.num_qubits)]
        cancelled: List[int] = []
        for index, instruction in enumerate(instructions):
            qubits = instruction.qubits
            count = len(qubits)
            if count == 1:
                stack = live[qubits[0]]
                partner = stack[-1]
                if partner >= 0 and is_inverse_pair(instructions[partner], instruction):
                    stack.pop()
                    cancelled += (partner, index)
                else:
                    stack.append(index)
                continue
            if count == 2:
                partner = live[qubits[0]][-1]
                adjacent = partner >= 0 and live[qubits[1]][-1] == partner
            else:
                partner = live[qubits[0]][-1]
                adjacent = partner >= 0 and all(live[q][-1] == partner for q in qubits[1:])
            if adjacent and is_inverse_pair(instructions[partner], instruction):
                for qubit in qubits:
                    live[qubit].pop()
                cancelled += (partner, index)
            else:
                for qubit in qubits:
                    live[qubit].append(index)
        if not cancelled:
            return dag
        gone = set(cancelled)
        keep = [i for i in range(len(instructions)) if i not in gone]
        flags = dag.canonical_1q
        return dag.derive([instructions[i] for i in keep], [flags[i] for i in keep])


class Consolidate1qRunsPass(TransformationPass):
    """Merge runs of single-qubit gates on a wire into a single ``u3`` gate.

    This is Qiskit's "single qubit gate consolidation" (§5.2).  Runs that
    multiply to the identity are dropped entirely.  The merged ``u3`` is
    emitted immediately before the instruction that ended the run (or at the
    end of the table, in qubit order).

    ZYZ synthesis is not byte-idempotent (re-deriving the angles of a ``u3``
    from its own matrix can wobble in the last float bit or wrap a phase), so
    entries this pass emits are flagged ``canonical_1q``; a later sweep that
    finds a run consisting of one already-canonical gate leaves it in place
    and reports no change.  That makes the pass a genuine fixed point while
    keeping its first application bit-identical to the historical behaviour.

    The pass only collects each wire's run of entries; what a run becomes is
    answered at flush by
    :func:`~repro.passes.synthesis.merged_run_instruction`, which composes
    with numpy ``@`` on purpose and memoises the merged ``u3``
    :class:`Instruction` on the exact bits of the run's gates and its qubit.
    Scalar complex products round differently in the last bit, and the ZYZ
    angles derived from the product carry that difference into the emitted
    ``u3`` gates: 43 of the 88 Figure 9/10 compiles then miss their frozen
    sha256.  Over 99% of a sweep's flushes are memo hits, and a hit hands
    back a shared instruction, so a repeated run allocates nothing.

    After each run, :attr:`identity_runs_dropped` counts the runs that
    multiplied to the identity — the only rewrite here that can make two
    other gates wire-adjacent.
    """

    checks = ("gate_count_nonincreasing",)

    def __init__(self) -> None:
        self.identity_runs_dropped = 0

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        out: list = []  # entries, None once merged away
        flags: List[bool] = []
        # Per-qubit pending run: the output slots of its gates, in order.
        pending: Dict[int, List[int]] = {}
        changed = False
        dropped = 0

        def flush(qubit: int, slots: List[int]) -> None:
            nonlocal changed, dropped
            if len(slots) == 1 and flags[slots[0]]:
                return  # already in canonical form; rewriting would only churn bytes
            merged = merged_run_instruction([out[slot].gate for slot in slots], qubit)
            for slot in slots:
                out[slot] = None
            changed = True
            if merged is None:
                dropped += 1
                return
            out.append(merged)
            flags.append(True)

        for instruction, canonical in zip(dag.instructions, dag.canonical_1q):
            qubits = instruction.qubits
            if len(qubits) == 1 and instruction.gate.name not in NON_UNITARY_NAMES:
                slots = pending.get(qubits[0])
                if slots is None:
                    pending[qubits[0]] = [len(out)]
                else:
                    slots.append(len(out))
            elif pending:
                for qubit in qubits:
                    if qubit in pending:
                        flush(qubit, pending.pop(qubit))
            out.append(instruction)
            flags.append(canonical)
        for qubit in sorted(pending):
            flush(qubit, pending[qubit])
        self.identity_runs_dropped = dropped
        if not changed:
            return dag
        keep = [i for i, instruction in enumerate(out) if instruction is not None]
        return dag.derive([out[i] for i in keep], [flags[i] for i in keep])


class RemoveIdentitiesPass(TransformationPass):
    """Remove explicit identity gates and zero-angle rotations.

    After each run, :attr:`removed` counts the gates it dropped.
    """

    checks = ("gate_count_nonincreasing",)

    def __init__(self) -> None:
        self.removed = 0

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        dag, self.removed = _drop(dag, _is_not_identity)
        return dag


def _is_not_identity(instruction: Instruction) -> bool:
    gate = instruction.gate
    return not (gate.num_qubits == 1 and gate.is_unitary and gate.is_identity())


class CleanupLoop(FixedPoint):
    """The level 1-2 clean-up: cancel, consolidate, remove identities, to convergence.

    Converges in O(changes): another sweep runs only when the last one
    dropped an identity run in consolidation or removed a gate in
    :class:`RemoveIdentitiesPass`.  Those are the only rewrites that can make
    two gates wire-adjacent that were not before.  Every other rewrite of a
    sweep leaves nothing for the next one:

    * one cancellation sweep is its own fixed point (see
      :class:`CancelAdjacentInversesPass`);
    * consolidation puts one ``u3`` where a run was, between the same two
      neighbours on its wire, so it opens no new inverse pair; and the
      ``u3`` gates it emits are flagged canonical, so a second consolidation
      leaves them alone.
    """

    def __init__(self) -> None:
        self._consolidate = Consolidate1qRunsPass()
        self._identities = RemoveIdentitiesPass()
        super().__init__(
            [CancelAdjacentInversesPass(), self._consolidate, self._identities]
        )

    def converged(self, before: DagCircuit, after: DagCircuit) -> bool:
        return not (self._consolidate.identity_runs_dropped or self._identities.removed)
