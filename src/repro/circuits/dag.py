"""The compiler IR: a flat, immutable instruction table with lazy wire links.

A :class:`DagCircuit` is the instruction list in a valid topological order
plus a parallel ``canonical_1q`` flag list.  A node is an ``int``: its
position in the table.  Passes never edit a table; a transformation builds
its output in one forward pass over its input and returns a new table, or
returns its input unchanged when it rewrote nothing.

The "happens before" relation induced by shared qubits (and shared
classical bits) is answered from per-node wire predecessor/successor index
arrays, built on the first dependency query (``successors``,
``predecessors``, ``front_layer``, ``wire``, ``wire_front``,
``wire_back``) and never by the rewriting passes, which track the wire
state they need themselves.  There are no object cycles, so a dropped table
is freed by reference counting alone.

``canonical_1q`` marks the ``u3`` entries that
:class:`~repro.passes.optimization.Consolidate1qRunsPass` synthesised.  A
flag lives as long as its entry: passes that carry an entry through carry
its flag, entries a pass emits new start unflagged, and converting a circuit
into a table (:meth:`DagCircuit.from_circuit`) starts every flag unset.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import CircuitError
from .circuit import Instruction, QuantumCircuit, interaction_graph


def weighted_depth(
    instructions: Iterable[Instruction], duration_of: Callable[[Instruction], float]
) -> float:
    """Length of the critical path where each instruction costs ``duration_of(instruction)``.

    One linear scan with per-wire ready times; no dependency graph is built,
    because any topological order (program order included) gives the same
    makespan.  Nothing in the package scores circuits with it: the success
    estimator computes Δ in its own scan
    (:func:`repro.sim.estimator.circuit_duration`), and this general form is
    kept as the reference the tests check that scan against.

    Args:
        instructions: The instructions in a valid topological order, e.g.
            ``circuit.instructions``.
        duration_of: Callable mapping an :class:`Instruction` to a float
            duration.  Barriers should be given zero duration.

    Returns:
        Total duration of the critical path (the schedule makespan under
        ASAP scheduling with unlimited parallelism).
    """
    makespan = 0.0
    ready_qubit: Dict[int, float] = {}
    ready_clbit: Dict[int, float] = {}
    for instruction in instructions:
        start = 0.0
        for qubit in instruction.qubits:
            start = max(start, ready_qubit.get(qubit, 0.0))
        for clbit in instruction.clbits:
            start = max(start, ready_clbit.get(clbit, 0.0))
        end = start + float(duration_of(instruction))
        for qubit in instruction.qubits:
            ready_qubit[qubit] = end
        for clbit in instruction.clbits:
            ready_clbit[clbit] = end
        makespan = max(makespan, end)
    return makespan


def _clbit_wire(clbit: int) -> int:
    """Wire key of a classical bit (negative, so it cannot clash with a qubit)."""
    return -(clbit + 1)


def wires_of(instruction: Instruction) -> Sequence[int]:
    """Wire keys an instruction touches: its qubits, then its encoded clbits."""
    if not instruction.clbits:
        return instruction.qubits
    return instruction.qubits + tuple(_clbit_wire(c) for c in instruction.clbits)


class _WireLinks:
    """Per-node wire predecessor/successor indices and per-wire chains."""

    __slots__ = ("prev", "next", "chains")

    def __init__(self, instructions: Sequence[Instruction]) -> None:
        #: ``prev[i][wire]`` / ``next[i][wire]``: the neighbour of node ``i``
        #: on ``wire``, or ``None`` at the wire's end.
        self.prev: List[Dict[int, Optional[int]]] = []
        self.next: List[Dict[int, Optional[int]]] = []
        #: Node indices on each wire, in order.
        self.chains: Dict[int, List[int]] = {}
        for index, instruction in enumerate(instructions):
            before: Dict[int, Optional[int]] = {}
            for wire in wires_of(instruction):
                if wire in before:
                    continue  # a repeated qubit (the linter reports it)
                chain = self.chains.setdefault(wire, [])
                if chain:
                    before[wire] = chain[-1]
                    self.next[chain[-1]][wire] = index
                else:
                    before[wire] = None
                chain.append(index)
            self.prev.append(before)
            self.next.append(dict.fromkeys(before))


class DagCircuit:
    """A flat, immutable dependency table over circuit instructions — the compiler IR."""

    __slots__ = ("num_qubits", "name", "instructions", "canonical_1q", "_links")

    def __init__(
        self,
        num_qubits: int,
        instructions: Sequence[Instruction] = (),
        *,
        name: Optional[str] = None,
        canonical_1q: Optional[Sequence[bool]] = None,
    ) -> None:
        num_qubits = int(num_qubits)
        if num_qubits < 1:
            raise CircuitError("a DAG needs at least one qubit")
        instructions = list(instructions)
        for instruction in instructions:
            for qubit in instruction.qubits:
                if not 0 <= qubit < num_qubits:
                    raise CircuitError(
                        f"qubit {qubit} out of range for a {num_qubits}-qubit DAG"
                    )
        flags = [False] * len(instructions) if canonical_1q is None else list(canonical_1q)
        if len(flags) != len(instructions):
            raise CircuitError("one canonical_1q flag per instruction is required")
        self._set(num_qubits, name or "circuit", instructions, flags)

    def _set(
        self, num_qubits: int, name: str, instructions: List[Instruction], flags: List[bool]
    ) -> None:
        self.num_qubits = num_qubits
        self.name = name
        #: The entries in linear (topological) order.  Never mutated.
        self.instructions = instructions
        #: Parallel per-entry flag: the entry is a ``u3`` synthesised by
        #: ``Consolidate1qRunsPass`` (see the module docstring).
        self.canonical_1q = flags
        self._links: Optional[_WireLinks] = None

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "DagCircuit":
        """The table of a circuit's instructions, every flag unset (O(n))."""
        dag = cls.__new__(cls)
        instructions = list(circuit.instructions)  # validated by the circuit
        dag._set(circuit.num_qubits, circuit.name, instructions, [False] * len(instructions))
        return dag

    def derive(
        self, instructions: List[Instruction], canonical_1q: List[bool]
    ) -> "DagCircuit":
        """A rewritten table on the same wires; takes ownership of both lists."""
        out = DagCircuit.__new__(DagCircuit)
        out._set(self.num_qubits, self.name, instructions, canonical_1q)
        return out

    def to_circuit(self, name: Optional[str] = None) -> QuantumCircuit:
        """Emit the circuit in the table's linear (topological) order (O(n))."""
        out = QuantumCircuit(self.num_qubits, name or self.name)
        out.instructions = list(self.instructions)
        return out

    # ------------------------------------------------------------------
    # Container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # ------------------------------------------------------------------
    # Dependency queries (lazily linked)
    # ------------------------------------------------------------------
    def _wire_links(self) -> _WireLinks:
        if self._links is None:
            self._links = _WireLinks(self.instructions)
        return self._links

    def _check_node(self, node: int) -> int:
        if not 0 <= node < len(self.instructions):
            raise CircuitError(f"no node {node} in this DAG")
        return node

    def wire(self, wire: int) -> List[int]:
        """Node indices on ``wire`` in order (``wire`` may be a clbit wire key)."""
        return list(self._wire_links().chains.get(wire, ()))

    def wire_front(self, wire: int) -> Optional[int]:
        """First node on a wire, or ``None`` when nothing touches it."""
        chain = self._wire_links().chains.get(wire)
        return chain[0] if chain else None

    def wire_back(self, wire: int) -> Optional[int]:
        """Last node on a wire, or ``None`` when nothing touches it."""
        chain = self._wire_links().chains.get(wire)
        return chain[-1] if chain else None

    def successors(self, node: int) -> List[int]:
        """Distinct nodes that directly depend on ``node`` (wire successors)."""
        following = self._wire_links().next[self._check_node(node)].values()
        return sorted({index for index in following if index is not None})

    def predecessors(self, node: int) -> List[int]:
        """Distinct nodes ``node`` directly depends on (wire predecessors)."""
        preceding = self._wire_links().prev[self._check_node(node)].values()
        return sorted({index for index in preceding if index is not None})

    def front_layer(self) -> List[int]:
        """Nodes with no predecessors (ready to execute first)."""
        return [
            index
            for index, before in enumerate(self._wire_links().prev)
            if all(pred is None for pred in before.values())
        ]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names."""
        counts: Dict[str, int] = {}
        for instruction in self.instructions:
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    def interactions(self, toffoli_weight: int = 1) -> Dict[Tuple[int, int], int]:
        """Weighted interaction graph over qubit pairs (see ``QuantumCircuit.interactions``)."""
        return interaction_graph(self.instructions, toffoli_weight)

    def layers(self, ignore: Tuple[str, ...] = ("barrier",)) -> List[List[int]]:
        """Greedy ASAP layering: each layer holds node indices that can run in parallel."""
        level_of_qubit: Dict[int, int] = {}
        level_of_clbit: Dict[int, int] = {}
        layered: Dict[int, List[int]] = defaultdict(list)
        for index, instruction in enumerate(self.instructions):
            if instruction.name in ignore:
                continue
            start = 0
            for qubit in instruction.qubits:
                start = max(start, level_of_qubit.get(qubit, 0))
            for clbit in instruction.clbits:
                start = max(start, level_of_clbit.get(clbit, 0))
            layered[start].append(index)
            for qubit in instruction.qubits:
                level_of_qubit[qubit] = start + 1
            for clbit in instruction.clbits:
                level_of_clbit[clbit] = start + 1
        return [layered[level] for level in sorted(layered)]

    def depth(self) -> int:
        """Number of layers (same as ``QuantumCircuit.depth``)."""
        return len(self.layers())

    def weighted_depth(self, duration_of: Callable[[Instruction], float]) -> float:
        """Critical-path length; see the module-level :func:`weighted_depth`."""
        return weighted_depth(self.instructions, duration_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DagCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"nodes={len(self.instructions)})"
        )


def circuit_layers(circuit: QuantumCircuit) -> List[List[Instruction]]:
    """Convenience wrapper returning layers of instructions for ``circuit``."""
    dag = circuit.dag()
    return [[dag.instructions[index] for index in layer] for layer in dag.layers()]
