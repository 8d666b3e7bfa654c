"""Commutation-aware optimisation: analysis and cancellation through commuting gates.

The adjacent-inverse cleanup of :mod:`repro.passes.optimization` only cancels
gate pairs that touch on every shared wire.  Routed circuits, however, are full
of CNOT pairs separated by *commuting* gates — diagonals on the control wire,
X-rotations on the target wire — that the paper's late Toffoli decomposition
exposes (§5.2 follow-ons).  This module cancels through them:

* :func:`gates_commute` decides whether two gates commute by comparing the two
  products of their matrices on the union of their wires.  Results are
  memoized per (gate, gate, relative-placement) triple, so the matrix algebra
  runs once per distinct gate pair, not once per circuit site.
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

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.dag import DagCircuit
from ..circuits.gate import Gate
from ..exceptions import TranspilerError
from .base import AnalysisPass, PropertySet, TransformationPass
from .optimization import is_inverse_pair

#: Memoized commutation verdicts keyed by (gate_a, placement_a, gate_b,
#: placement_b) with placements expressed in canonical relative coordinates,
#: so e.g. ``cx(2,7)`` vs ``rz(2)`` and ``cx(0,4)`` vs ``rz(0)`` share one
#: entry.  Gates are frozen value objects, hence hashable.
_COMMUTATION_CACHE: Dict[tuple, bool] = {}

#: Cap on the memo above.  Parameterised gates (synthesised ``u3`` triples,
#: random-angle rotations) can make effectively unique keys, so a long-lived
#: process sweeping many circuits would otherwise grow the dict without
#: bound.  On overflow the whole cache is dropped — the hot parameter-free
#: entries rebuild in microseconds.
_COMMUTATION_CACHE_LIMIT = 50_000

#: Rotation families merged by :class:`CommutativeCancellationPass`: gates in
#: one family are (up to global phase) rotations about a shared axis, so their
#: angles add.  Maps gate name → (family axis, angle contribution builder).
_ROTATION_ANGLES: Dict[str, Tuple[str, float]] = {
    # Z axis: diagonal phases; u1(theta) carries the angle exactly.
    "rz": ("z", None),  # angle from params[0]
    "u1": ("z", None),
    "p": ("z", None),
    "z": ("z", np.pi),
    "s": ("z", np.pi / 2),
    "sdg": ("z", -np.pi / 2),
    "t": ("z", np.pi / 4),
    "tdg": ("z", -np.pi / 4),
    # X axis (up to global phase).
    "rx": ("x", None),
    "x": ("x", np.pi),
    "sx": ("x", np.pi / 2),
    "sxdg": ("x", -np.pi / 2),
    # Y axis (up to global phase).
    "ry": ("y", None),
    "y": ("y", np.pi),
}

#: The gate emitted when a family's angles are merged, per axis.
_ROTATION_SYNTH = {"z": "u1", "x": "rx", "y": "ry"}

_TWO_PI = 2.0 * np.pi


def clear_commutation_cache() -> None:
    """Drop all memoized commutation verdicts (mainly for tests)."""
    _COMMUTATION_CACHE.clear()


def commutation_cache_size() -> int:
    """Number of memoized (gate, gate, placement) verdicts."""
    return len(_COMMUTATION_CACHE)


def _relative_placement(
    qubits_a: Sequence[int], qubits_b: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """Canonical coordinates of two gates' qubits on the union of their wires."""
    union: List[int] = []
    for qubit in (*qubits_a, *qubits_b):
        if qubit not in union:
            union.append(qubit)
    position = {qubit: index for index, qubit in enumerate(union)}
    return (
        tuple(position[q] for q in qubits_a),
        tuple(position[q] for q in qubits_b),
        len(union),
    )


def _product_unitary(
    first: Gate,
    first_qubits: Sequence[int],
    second: Gate,
    second_qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    from ..sim.unitary import circuit_unitary

    circuit = QuantumCircuit(num_qubits)
    circuit.append(first, first_qubits)
    circuit.append(second, second_qubits)
    return circuit_unitary(circuit)


def gates_commute(
    gate_a: Gate,
    qubits_a: Sequence[int],
    gate_b: Gate,
    qubits_b: Sequence[int],
    atol: float = 1e-10,
) -> bool:
    """Whether ``gate_a`` on ``qubits_a`` commutes with ``gate_b`` on ``qubits_b``.

    Decided from the gate matrices — ``A·B`` and ``B·A`` are built on the
    union of the wires and compared — so the answer is exact for every gate in
    the library, including parameterised rotations, with no hand-maintained
    commutation table to fall out of date.  Non-unitary operations (measure,
    reset, barrier) commute with nothing.

    Results are memoized by (gate, gate, relative placement); the matrices for
    a pair seen before are never rebuilt.
    """
    if not gate_a.is_unitary or not gate_b.is_unitary:
        return False
    if not set(qubits_a) & set(qubits_b):
        return True  # disjoint supports always commute
    placement_a, placement_b, union_size = _relative_placement(qubits_a, qubits_b)
    key = (gate_a, placement_a, gate_b, placement_b)
    cached = _COMMUTATION_CACHE.get(key)
    if cached is not None:
        return cached
    forward = _product_unitary(gate_a, placement_a, gate_b, placement_b, union_size)
    backward = _product_unitary(gate_b, placement_b, gate_a, placement_a, union_size)
    verdict = bool(np.allclose(forward, backward, atol=atol))
    if len(_COMMUTATION_CACHE) >= _COMMUTATION_CACHE_LIMIT:
        _COMMUTATION_CACHE.clear()
    _COMMUTATION_CACHE[key] = verdict
    # Commutation is symmetric; prime the mirrored key too.
    _COMMUTATION_CACHE[(gate_b, placement_b, gate_a, placement_a)] = verdict
    return verdict


def instructions_commute(first: Instruction, second: Instruction) -> bool:
    """Instruction-level convenience wrapper over :func:`gates_commute`."""
    if first.clbits or second.clbits:
        return False
    return gates_commute(first.gate, first.qubits, second.gate, second.qubits)


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
            "mean_run": float(np.mean(run_lengths)) if run_lengths else 0.0,
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
        for wire in range(dag.num_qubits):
            run: List[int] = []
            for node in dag.wire(wire):
                instruction = instructions[node]
                extends_run = bool(run) and instruction.gate.is_unitary and all(
                    instructions_commute(instructions[member], instruction)
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
       aside), which is dropped entirely when the total is a multiple of 2π.
    3. **Two-qubit diagonal rotations merge** — surviving ``cp``/``rzz``/
       ``crz`` gates on the same qubit pair in the same run add their angles
       into one gate of the same kind, dropped when the merged gate is the
       identity (``cp`` at multiples of 2π; ``rzz`` at multiples of 2π up to
       global phase; a merged ``crz`` is only ever dropped at multiples of
       4π — ``crz(2π) = diag(1, 1, −1, −1)`` is *not* the identity).

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
        merged: Gate,
    ) -> None:
        """Kill ``members[1:]``; the anchor becomes ``merged``, or dies if it is the identity."""
        anchor = members[0]
        for node in members[1:]:
            dead[node] = True
        if merged.is_identity(tol=1e-12):
            dead[anchor] = True
            return
        work[anchor] = Instruction(merged, work[anchor].qubits)
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
                families: Dict[str, List[int]] = defaultdict(list)
                for node in run:
                    if dead[node]:
                        continue
                    instruction = work[node]
                    if instruction.gate.num_qubits != 1 or instruction.clbits:
                        continue
                    family = _ROTATION_ANGLES.get(instruction.name)
                    if family is not None:
                        families[family[0]].append(node)
                for axis, members in families.items():
                    if len(members) < 2:
                        continue
                    total = 0.0
                    for node in members:
                        gate = work[node].gate
                        _, fixed = _ROTATION_ANGLES[gate.name]
                        total += gate.params[0] if fixed is None else fixed
                    merged = Gate(_ROTATION_SYNTH[axis], 1, (total,))
                    self._merge_into_anchor(work, flags, dead, members, merged)

    #: Two-qubit diagonal rotations whose angles add under composition.
    _DIAGONAL_2Q = ("cp", "rzz", "crz")

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
            if dead[node] or instruction.name not in self._DIAGONAL_2Q:
                continue
            if instruction.clbits:
                continue
            qubits = instruction.qubits
            groups[(instruction.name, qubits, sets.signature(node, qubits))].append(node)
        for (name, _, _), members in groups.items():
            if len(members) < 2:
                continue
            total = 0.0
            for node in members:
                total += work[node].gate.params[0]
            self._merge_into_anchor(
                work, flags, dead, members, Gate(name, 2, (float(total),))
            )

    # ------------------------------------------------------------------
    def _verify(self, before: QuantumCircuit, after: QuantumCircuit) -> None:
        from ..sim.equivalence import circuits_equivalent

        if not circuits_equivalent(before, after):
            raise TranspilerError(
                f"{self.name} produced a non-equivalent circuit "
                f"(before: {before.count_ops()}, after: {after.count_ops()}); "
                "this is a bug in the commutation rules"
            )
