"""Commutation-aware optimisation: analysis and cancellation through commuting gates.

The adjacent-inverse cleanup of :mod:`repro.passes.optimization` only cancels
gate pairs that touch on every shared wire.  Routed circuits, however, are full
of CNOT pairs separated by *commuting* gates — diagonals on the control wire,
X-rotations on the target wire — that the paper's late Toffoli decomposition
exposes (§5.2 follow-ons).  This module cancels through them:

* Commutation is read from :data:`_WIRE_AXES`, which lists for each wire of
  a gate the axes (``z``, ``x``, ``y``, ``h``) it is diagonal in there.  Two
  instructions commute when their wires are disjoint, when they are the same
  gate on the same qubits, or when their axes meet on every shared wire:
  both operators are then block-diagonal in that wire's basis.  No matrix is
  built and no tolerance applies, so a tiny rotation never passes for a
  commuting one; the only commutations the rule misses need the exchange
  symmetry of ``swap``/``cswap``.
* :class:`CommutationAnalysisPass` is an :class:`~repro.passes.base.AnalysisPass`
  that walks every wire of the table and groups consecutive instructions
  into maximal *commutation runs* — spans in which every pair of instructions
  commutes.  The runs are recorded in the property set.
* :class:`CommutativeCancellationPass` consumes those runs: any two gates in
  the same run on all their wires can be made adjacent by commuting one past
  the gates between them, so inverse pairs inside a run annihilate and
  same-axis rotations merge into a single rotation — even when separated by
  commuting gates.

Soundness rests on one argument, machine-checked by ``verify=True`` and by the
equivalence property tests: if ``a`` and ``b`` sit in the same commutation run
on every wire of ``a``, then ``a`` commutes with each instruction between them
on those wires (runs are *pairwise* commuting), and instructions on disjoint
wires commute trivially — so ``a`` can be displaced until it is adjacent to
``b`` without changing the circuit's unitary.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.dag import DagCircuit
from ..circuits.gate import Gate
from ..exceptions import TranspilerError
from .base import AnalysisPass, PropertySet, TransformationPass
from .optimization import is_inverse_pair

_TWO_PI = 2.0 * math.pi

#: Axis bits.  A wire's axes are a bit set; two gates commute on a shared
#: wire when their sets intersect.
_Z, _X, _Y, _H = 1, 2, 4, 8

#: The commutation table: a gate's axes on each of its wires, in qubit order.
#: ``0`` on a wire means no axis (the gate commutes there only with itself);
#: names not listed get ``0`` on every wire.  ``u2``/``u3`` are read from
#: their parameters (:func:`_u_axes`) and ``id`` acts on no wire.
_WIRE_AXES: Dict[str, Tuple[int, ...]] = {
    **dict.fromkeys(("z", "s", "sdg", "t", "tdg", "rz", "u1", "p"), (_Z,)),
    **dict.fromkeys(("x", "rx", "sx", "sxdg"), (_X,)),
    **dict.fromkeys(("y", "ry"), (_Y,)),
    "h": (_H,),
    **dict.fromkeys(("cz", "cp", "crz", "rzz"), (_Z, _Z)),
    "cx": (_Z, _X),
    "cy": (_Z, _Y),
    "ch": (_Z, _H),
    "swap": (0, 0),
    "ccx": (_Z, _Z, _X),
    "ccz": (_Z, _Z, _Z),
    "cswap": (_Z, 0, 0),
}

#: Rotations about their table axis whose angles add when merged (up to
#: global phase): the angle each contributes, ``None`` for its first
#: parameter.  One-qubit gates merge per axis, two-qubit ones per name.
_ROTATION_ANGLES: Dict[str, Optional[float]] = {
    **dict.fromkeys(("rz", "u1", "p", "rx", "ry", "cp", "rzz", "crz")),
    **dict.fromkeys(("z", "x", "y"), math.pi),
    **dict.fromkeys(("s", "sx"), math.pi / 2),
    **dict.fromkeys(("sdg", "sxdg"), -math.pi / 2),
    "t": math.pi / 4,
    "tdg": -math.pi / 4,
}

#: The gate emitted when a one-qubit family's angles are merged, per axis.
_ROTATION_SYNTH = {_Z: "u1", _X: "rx", _Y: "ry"}

#: A merged rotation within this angle of a full turn is dropped.
_FULL_TURN_ATOL = 1e-12


def _u_axes(gate: Gate) -> int:
    """Axes of ``u2``/``u3``, decided on the exact bits of the parameters.

    ``u3(θ, φ, λ)`` is diagonal when ``θ == 0``, and an X rotation when
    ``φ − λ ≡ π`` (mod 2π) and either ``θ == π`` or ``φ + λ ≡ 0``.
    ``u2(φ, λ)`` is ``u3(π/2, φ, λ)``.
    """
    if gate.name == "u2":
        theta, (phi, lam) = math.pi / 2, gate.params
    else:
        theta, phi, lam = gate.params
    axes = _Z if theta == 0.0 else 0
    if (phi - lam) % _TWO_PI == math.pi and (
        theta == math.pi or (phi + lam) % _TWO_PI == 0.0
    ):
        axes |= _X
    return axes


def _wire_axes(instruction: Instruction) -> Optional[Dict[int, int]]:
    """The instruction's axes keyed by wire; ``None`` if it commutes with nothing."""
    gate = instruction.gate
    if not gate.is_unitary or instruction.clbits:
        return None
    if gate.name == "id":
        return {}
    if gate.name in ("u2", "u3"):
        axes: Tuple[int, ...] = (_u_axes(gate),)
    else:
        axes = _WIRE_AXES.get(gate.name, (0,) * gate.num_qubits)
    return dict(zip(instruction.qubits, axes))


def _commute(
    first: Instruction,
    first_axes: Optional[Dict[int, int]],
    second: Instruction,
    second_axes: Optional[Dict[int, int]],
) -> bool:
    """The table rule, on two instructions and their :func:`_wire_axes`."""
    if first_axes is None or second_axes is None:
        return False
    if first.gate == second.gate and first.qubits == second.qubits:
        return True
    for wire, axes in first_axes.items():
        other = second_axes.get(wire)
        if other is not None and not axes & other:
            return False
    return True


def _is_full_turn(name: str, angle: float) -> bool:
    """Whether the merged ``name(angle)`` is the identity up to global phase."""
    # crz(2π) = diag(1, 1, −1, −1): its phase is conditional, so only 4π is.
    period = 2.0 * _TWO_PI if name == "crz" else _TWO_PI
    residue = angle % period
    return min(residue, period - residue) <= _FULL_TURN_ATOL


class CommutationSets:
    """Per-wire commutation runs computed by :class:`CommutationAnalysisPass`.

    For each qubit wire, ``runs(wire)`` is the wire's node chain split into
    maximal spans of pairwise-commuting instructions, in program order;
    ``run_index(node, wire)`` is the position of ``node``'s span on ``wire``.
    Nodes are indices into the analysed table, so the sets pickle as plain
    data.  Two instructions that share the same run index on *every* common
    wire can be made adjacent by commuting.
    """

    def __init__(self) -> None:
        self._runs_by_wire: Dict[int, List[List[int]]] = {}
        self._index: Dict[Tuple[int, int], int] = {}

    def _add_run(self, wire: int, run: List[int]) -> None:
        runs = self._runs_by_wire.setdefault(wire, [])
        for node in run:
            self._index[(node, wire)] = len(runs)
        runs.append(run)

    def wires(self) -> List[int]:
        return list(self._runs_by_wire)

    def runs(self, wire: int) -> List[List[int]]:
        return self._runs_by_wire.get(wire, [])

    def run_index(self, node: int, wire: int) -> int:
        try:
            return self._index[(node, wire)]
        except KeyError:
            raise TranspilerError(
                f"node {node} has no commutation run on wire {wire}"
            ) from None

    def signature(self, node: int, qubits: Sequence[int]) -> Tuple[int, ...]:
        """The node's run index on each of its ``qubits``, in qubit order."""
        return tuple(self.run_index(node, wire) for wire in qubits)

    def stats(self) -> Dict[str, float]:
        """Summary for telemetry: wires, runs, and run-length extremes."""
        run_lengths = [
            len(run) for runs in self._runs_by_wire.values() for run in runs
        ]
        return {
            "wires": len(self._runs_by_wire),
            "runs": len(run_lengths),
            "max_run": max(run_lengths, default=0),
            "mean_run": sum(run_lengths) / len(run_lengths) if run_lengths else 0.0,
        }


class CommutationAnalysisPass(AnalysisPass):
    """Compute per-wire commutation runs and record them in the property set.

    Writes two keys:

    * ``"commutation_sets"`` — the :class:`CommutationSets` instance, whose
      nodes index the analysed table (a rewrite produces a new table, so
      :class:`CommutativeCancellationPass` analyses its own input).
    * ``"commutation_stats"`` — a ``{wires, runs, max_run, mean_run}``
      summary that survives on the
      :class:`~repro.compiler.result.CompilationResult`.
    """

    def analyze(self, dag: DagCircuit, properties: PropertySet) -> None:
        sets = CommutationSets()
        instructions = dag.instructions
        axes = [_wire_axes(instruction) for instruction in instructions]
        for wire in range(dag.num_qubits):
            run: List[int] = []
            for node in dag.wire(wire):
                instruction = instructions[node]
                extends_run = bool(run) and all(
                    _commute(instructions[member], axes[member], instruction, axes[node])
                    for member in run
                )
                if extends_run:
                    run.append(node)
                else:
                    if run:
                        sets._add_run(wire, run)
                    run = [node]
            if run:
                sets._add_run(wire, run)
        properties["commutation_sets"] = sets
        properties["commutation_stats"] = sets.stats()


class CommutativeCancellationPass(TransformationPass):
    """Cancel inverse pairs and merge rotations *through* commuting gates.

    Within each commutation run (see :class:`CommutationAnalysisPass`), any
    two instructions on the same qubits with the same run signature can be
    made adjacent, so:

    1. **Inverse pairs annihilate** — ``cx … cx`` separated by diagonals on
       the control wire and X-rotations on the target wire, ``h … h`` through
       anything Hadamard-commuting, ``cp(θ) … cp(-θ)``, and so on.  Pairs are
       matched with a stack per (qubits, signature) group, so odd leftovers
       survive in place.
    2. **Same-axis rotations merge** — leftover single-qubit Z-family gates
       (``rz``/``u1``/``p``/``z``/``s``/``sdg``/``t``/``tdg``), X-family
       (``rx``/``x``/``sx``/``sxdg``) and Y-family (``ry``/``y``) gates in one
       run add their angles into a single ``u1``/``rx``/``ry`` (global phase
       aside), which is dropped entirely when the total is within 1e-12 of
       a multiple of 2π.
    3. **Two-qubit diagonal rotations merge** — surviving ``cp``/``rzz``/
       ``crz`` gates on the same qubit pair in the same run add their angles
       into one gate of the same kind, dropped when the merged gate is the
       identity (``cp`` at multiples of 2π; ``rzz`` at multiples of 2π up to
       global phase; a merged ``crz`` is only ever dropped at multiples of
       4π — ``crz(2π) = diag(1, 1, −1, −1)`` is *not* the identity).  Both
       merges decide "full turn" on the angle, not on a matrix.

    The pass analyses its own input on entry and works on node indices: a
    working copy of the entries, where a merge writes its replacement into
    the anchor's slot, and a dead mask, where a cancellation or a merge
    marks the entries it removes.  The ``"commutation_sets"`` entry is
    removed from the property set when done.  Gate count never increases
    and circuit depth never grows — the pass only removes entries or
    rewrites one in place — which is what lets the level-3 pipeline
    guarantee it never regresses the level-2 metrics.

    Args:
        verify: Debug mode — snapshot the circuit before rewriting and
            machine-check equivalence (via
            :func:`repro.sim.equivalence.circuits_equivalent`) after, raising
            :class:`~repro.exceptions.TranspilerError` on any mismatch.
            Quadratic-to-exponential in circuit size; meant for tests and
            debugging, not production compiles.
        verify_qubit_limit: Skip verification (rather than fail) for circuits
            wider than this when ``verify=True``.
    """

    checks = ("gate_count_nonincreasing", "unitary_equivalent")

    def __init__(self, verify: bool = False, verify_qubit_limit: int = 20) -> None:
        self.verify = verify
        self.verify_qubit_limit = int(verify_qubit_limit)

    # ------------------------------------------------------------------
    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        CommutationAnalysisPass().analyze(dag, properties)
        sets: CommutationSets = properties.pop("commutation_sets")
        work = list(dag.instructions)
        flags = list(dag.canonical_1q)
        dead = [False] * len(work)
        self._cancel_inverse_pairs(work, dead, sets)
        self._merge_rotations(work, flags, dead, sets)
        self._merge_diagonal_pairs(work, flags, dead, sets)
        if not any(dead):
            return dag  # every rewrite kills at least one entry
        keep = [node for node, is_dead in enumerate(dead) if not is_dead]
        out = dag.derive([work[node] for node in keep], [flags[node] for node in keep])
        if self.verify and dag.num_qubits <= self.verify_qubit_limit:
            self._verify(dag.to_circuit(), out.to_circuit())
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def _cancel_inverse_pairs(
        work: List[Instruction], dead: List[bool], sets: CommutationSets
    ) -> None:
        """Stack-match and kill inverse pairs inside each (qubits, signature) group."""
        groups: Dict[tuple, List[int]] = defaultdict(list)
        for node, instruction in enumerate(work):
            if not instruction.gate.is_unitary or instruction.clbits:
                continue
            if not instruction.qubits:
                continue
            qubits = instruction.qubits
            groups[(qubits, sets.signature(node, qubits))].append(node)
        for nodes in groups.values():
            if len(nodes) < 2:
                continue
            stack: List[int] = []
            for node in nodes:
                if stack and is_inverse_pair(work[stack[-1]], work[node]):
                    dead[stack.pop()] = True
                    dead[node] = True
                else:
                    stack.append(node)

    @staticmethod
    def _merge_into_anchor(
        work: List[Instruction],
        flags: List[bool],
        dead: List[bool],
        members: List[int],
        name: str,
        angle: float,
    ) -> None:
        """Kill ``members[1:]``; the anchor becomes ``name(angle)``, or dies on a full turn."""
        anchor = members[0]
        for node in members[1:]:
            dead[node] = True
        if _is_full_turn(name, angle):
            dead[anchor] = True
            return
        qubits = work[anchor].qubits
        work[anchor] = Instruction(Gate(name, len(qubits), (angle,)), qubits)
        flags[anchor] = False

    def _merge_rotations(
        self,
        work: List[Instruction],
        flags: List[bool],
        dead: List[bool],
        sets: CommutationSets,
    ) -> None:
        """Merge surviving same-axis 1q rotations within each commutation run."""
        for wire in sets.wires():
            for run in sets.runs(wire):
                families: Dict[int, List[int]] = defaultdict(list)
                for node in run:
                    if dead[node]:
                        continue
                    instruction = work[node]
                    if instruction.gate.num_qubits != 1 or instruction.clbits:
                        continue
                    if instruction.name in _ROTATION_ANGLES:
                        families[_WIRE_AXES[instruction.name][0]].append(node)
                for axis, members in families.items():
                    if len(members) < 2:
                        continue
                    total = 0.0
                    for node in members:
                        gate = work[node].gate
                        fixed = _ROTATION_ANGLES[gate.name]
                        total += gate.params[0] if fixed is None else fixed
                    self._merge_into_anchor(
                        work, flags, dead, members, _ROTATION_SYNTH[axis], total
                    )

    def _merge_diagonal_pairs(
        self,
        work: List[Instruction],
        flags: List[bool],
        dead: List[bool],
        sets: CommutationSets,
    ) -> None:
        """Merge surviving same-kind 2q diagonal rotations within each run.

        Same displacement argument as the 1q merges: nodes sharing (qubits,
        run signature) can be made adjacent, and ``cp``/``rzz``/``crz`` pairs
        on the same ordered qubit pair compose by angle addition.  Grouping by
        the exact qubit tuple keeps the direction-sensitive ``crz`` sound
        (``crz(a, b)`` never merges with ``crz(b, a)``); for the
        exchange-symmetric ``cp``/``rzz`` it merely misses reversed-order
        pairs, which is conservative.  The 1q merges only ever rewrite slots
        into one-qubit rotations, so every candidate here is an original
        entry and its signature is still valid.
        """
        groups: Dict[tuple, List[int]] = defaultdict(list)
        for node, instruction in enumerate(work):
            if dead[node] or instruction.gate.num_qubits != 2 or instruction.clbits:
                continue
            if instruction.name not in _ROTATION_ANGLES:
                continue
            qubits = instruction.qubits
            groups[(instruction.name, qubits, sets.signature(node, qubits))].append(node)
        for (name, _, _), members in groups.items():
            if len(members) < 2:
                continue
            total = 0.0
            for node in members:
                total += work[node].gate.params[0]
            self._merge_into_anchor(work, flags, dead, members, name, total)

    # ------------------------------------------------------------------
    def _verify(self, before: QuantumCircuit, after: QuantumCircuit) -> None:
        from ..sim.equivalence import circuits_equivalent

        if not circuits_equivalent(before, after):
            raise TranspilerError(
                f"{self.name} produced a non-equivalent circuit "
                f"(before: {before.count_ops()}, after: {after.count_ops()}); "
                "this is a bug in the commutation rules"
            )
