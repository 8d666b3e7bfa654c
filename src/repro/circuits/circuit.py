"""The quantum circuit intermediate representation.

A :class:`QuantumCircuit` is an ordered list of :class:`Instruction` objects
(a gate bound to specific qubit indices).  This is the single IR shared by the
benchmark generators, every compiler pass and the simulators, mirroring the way
the paper's toolflow passes a circuit between its compilation stages
(Figure 2).

Qubits are plain integers ``0 .. num_qubits-1``.  Classical bits are also plain
integers and are only produced by ``measure`` instructions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import CircuitError
from . import library
from .gate import Gate, exact_bits


@dataclass(frozen=True)
class Instruction:
    """A gate applied to a concrete tuple of qubits (and optional clbits)."""

    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Construction is on every pass's hot path, so the coercions and
        # checks below are written for speed; each check is still made.
        qubits = tuple(map(int, self.qubits))
        object.__setattr__(self, "qubits", qubits)
        clbits = self.clbits
        if type(clbits) is not tuple or clbits:
            object.__setattr__(self, "clbits", tuple(map(int, clbits)))
        count = len(qubits)
        if count != self.gate.num_qubits:
            raise CircuitError(
                f"gate {self.gate.name!r} expects {self.gate.num_qubits} qubits, "
                f"got {count}"
            )
        if count == 2:
            duplicate = qubits[0] == qubits[1]
        else:
            duplicate = count > 2 and len(set(qubits)) != count
        if duplicate:
            raise CircuitError(f"duplicate qubits {qubits} for gate {self.gate.name!r}")

    @property
    def name(self) -> str:
        """The gate name, e.g. ``"cx"``."""
        return self.gate.name

    def remap(self, mapping: Dict[int, int]) -> "Instruction":
        """Return a copy with each qubit ``q`` replaced by ``mapping[q]``."""
        return Instruction(self.gate, tuple(mapping[q] for q in self.qubits), self.clbits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instruction({self.gate!r}, qubits={self.qubits})"


#: Entries in the table of placed instructions.  A Figure 9/10 level-1 sweep
#: asks for about 75,000 instructions but only 921 distinct ones; the table
#: lives for the whole process (a long-running server included), so it is
#: bounded, and emptied wholesale when full.
PLACED_TABLE_SIZE = 4096

_PLACED: Dict[tuple, Instruction] = {}
#: Serialises inserts, so threads compiling at once never overfill the table.
_PLACED_INSERT = threading.Lock()


def placed(gate: Gate, qubits: Tuple[int, ...], clbits: Tuple[int, ...] = ()) -> Instruction:
    """``Instruction(gate, qubits, clbits)``, built once and shared.

    Every compile pass takes the instructions it emits from this one
    process-wide table: instructions are immutable, so one object serves
    every circuit that places the same gate on the same wires.  A miss builds
    the entry through :class:`Instruction`, so every check runs; an error is
    raised on every call and never stored.

    The key is the gate's fields, not the :class:`Gate`, whose hash runs in
    Python.  Its parameters are keyed by value unless one equals zero: only
    ``-0.0`` and ``0.0`` compare equal with different bits, so those keys hold
    the exact bits instead.
    """
    params = gate.params
    key = (
        gate.name, gate.num_qubits, exact_bits(params) if 0.0 in params else params,
        qubits, clbits,
    )
    instruction = _PLACED.get(key)
    if instruction is None:
        instruction = Instruction(gate, qubits, clbits)
        with _PLACED_INSERT:
            if len(_PLACED) >= PLACED_TABLE_SIZE:
                _PLACED.clear()
            _PLACED[key] = instruction
    return instruction


def interaction_graph(
    instructions: Iterable[Instruction], toffoli_weight: int = 1
) -> Dict[Tuple[int, int], int]:
    """Weighted interaction graph over qubit pairs (shared by circuit and DAG).

    Multi-qubit unitaries contribute to every pair among their qubits; pairs of
    a three-or-more-qubit gate are weighted by ``toffoli_weight`` (the paper's
    mapper treats a Toffoli as 6 CNOTs, i.e. 2 per pair).
    """
    weights: Dict[Tuple[int, int], int] = {}
    for instruction in instructions:
        if not instruction.gate.is_unitary:
            continue
        qubits = instruction.qubits
        if len(qubits) < 2:
            continue
        weight = toffoli_weight if len(qubits) >= 3 else 1
        for i in range(len(qubits)):
            for j in range(i + 1, len(qubits)):
                key = (min(qubits[i], qubits[j]), max(qubits[i], qubits[j]))
                weights[key] = weights.get(key, 0) + weight
    return weights


class QuantumCircuit:
    """An ordered sequence of quantum instructions on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: Optional[str] = None) -> None:
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name or "circuit"
        self.instructions: List[Instruction] = []
        # Memoized metrics (depth, count_ops) and the shared dependency DAG,
        # invalidated whenever an instruction is appended.  All mutation goes
        # through :meth:`append`, so clearing there keeps the cache honest.
        self._cache: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.instructions == other.instructions
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"instructions={len(self.instructions)})"
        )

    # ------------------------------------------------------------------
    # Pickling / copying
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        # Every cache entry (metrics, the shared dependency table) is
        # recomputable, so pickles carry the instructions only.
        state = dict(self.__dict__)
        state["_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def append(
        self,
        gate: Gate,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
    ) -> "QuantumCircuit":
        """Append ``gate`` acting on ``qubits``; returns ``self`` for chaining."""
        return self.append_instruction(Instruction(gate, tuple(qubits), tuple(clbits)))

    def append_instruction(self, instruction: Instruction) -> "QuantumCircuit":
        """Append an already-built instruction (validated against circuit size).

        Instructions are immutable, so the object itself is stored rather
        than a copy: ``without``, ``extend`` and ``remap_qubits`` share them.
        """
        for qubit in instruction.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit {qubit} out of range for a {self.num_qubits}-qubit circuit"
                )
        self.instructions.append(instruction)
        if self._cache:
            self._cache.clear()
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        """Append every instruction from ``instructions``."""
        for instruction in instructions:
            self.append_instruction(instruction)
        return self

    # Convenience builders ------------------------------------------------
    def i(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.i_gate(), (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.x_gate(), (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.y_gate(), (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.z_gate(), (qubit,))

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.h_gate(), (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.s_gate(), (qubit,))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.sdg_gate(), (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.t_gate(), (qubit,))

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.tdg_gate(), (qubit,))

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(library.rx_gate(theta), (qubit,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(library.ry_gate(theta), (qubit,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(library.rz_gate(theta), (qubit,))

    def u1(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(library.u1_gate(lam), (qubit,))

    def u2(self, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(library.u2_gate(phi, lam), (qubit,))

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(library.u3_gate(theta, phi, lam), (qubit,))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(library.cx_gate(), (control, target))

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        return self.append(library.cz_gate(), (a, b))

    def cp(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(library.cp_gate(theta), (control, target))

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.append(library.rzz_gate(theta), (a, b))

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(library.crz_gate(theta), (control, target))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.append(library.swap_gate(), (a, b))

    def ccx(self, control1: int, control2: int, target: int) -> "QuantumCircuit":
        return self.append(library.ccx_gate(), (control1, control2, target))

    def ccz(self, a: int, b: int, c: int) -> "QuantumCircuit":
        return self.append(library.ccz_gate(), (a, b, c))

    def cswap(self, control: int, a: int, b: int) -> "QuantumCircuit":
        return self.append(library.cswap_gate(), (control, a, b))

    def measure(self, qubit: int, clbit: Optional[int] = None) -> "QuantumCircuit":
        clbit = qubit if clbit is None else clbit
        return self.append(library.measure_op(), (qubit,), (clbit,))

    def measure_all(self) -> "QuantumCircuit":
        for qubit in range(self.num_qubits):
            self.measure(qubit, qubit)
        return self

    def reset(self, qubit: int) -> "QuantumCircuit":
        return self.append(library.reset_op(), (qubit,))

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        targets = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        return self.append(library.barrier_op(len(targets)), targets)

    # ------------------------------------------------------------------
    # Queries and metrics
    # ------------------------------------------------------------------
    def dag(self) -> "DagCircuit":
        """The circuit's dependency table, built once and shared.

        The depth metric, the drawer and the scheduler consume this view
        instead of rebuilding a table per call.  Tables are immutable, so
        sharing is safe; appending to the circuit invalidates the cache.
        """
        cached = self._cache.get("dag")
        if cached is None:
            from .dag import DagCircuit

            cached = DagCircuit.from_circuit(self)
            self._cache["dag"] = cached
        return cached

    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names (memoized; invalidated on append)."""
        cached = self._cache.get("count_ops")
        if cached is None:
            cached = {}
            for instruction in self.instructions:
                cached[instruction.name] = cached.get(instruction.name, 0) + 1
            self._cache["count_ops"] = cached
        return dict(cached)

    def num_clbits(self) -> int:
        """Number of classical bits implied by the measure instructions."""
        clbits = [c for inst in self.instructions for c in inst.clbits]
        return max(clbits) + 1 if clbits else 0

    def two_qubit_gate_count(self, count_swap_as: int = 1) -> int:
        """Number of two-qubit gates; SWAPs count as ``count_swap_as`` gates.

        The paper reports "two-qubit gate count" after full decomposition to
        the hardware basis, where each SWAP has been expanded to 3 CNOTs; use
        ``count_swap_as=3`` when counting a circuit that still contains SWAPs.
        """
        total = 0
        for instruction in self.instructions:
            if not instruction.gate.is_unitary:
                continue
            if instruction.name == "swap":
                total += count_swap_as
            elif instruction.gate.num_qubits == 2:
                total += 1
        return total

    def gate_count(self, names: Optional[Iterable[str]] = None) -> int:
        """Number of instructions, optionally restricted to the given names."""
        if names is None:
            return len(self.instructions)
        wanted = set(names)
        return sum(1 for inst in self.instructions if inst.name in wanted)

    def active_qubits(self) -> Set[int]:
        """Qubits touched by at least one non-barrier instruction."""
        active: Set[int] = set()
        for instruction in self.instructions:
            if instruction.name == "barrier":
                continue
            active.update(instruction.qubits)
        return active

    def depth(self, ignore: Tuple[str, ...] = ("barrier",)) -> int:
        """Circuit depth: the longest chain of dependent instructions.

        Memoized per ``ignore`` tuple and invalidated when an instruction is
        appended, so hot metric loops stop re-deriving it.
        """
        key = ("depth", ignore)
        cached = self._cache.get(key)
        if cached is None:
            level: Dict[int, int] = {}
            cached = 0
            for instruction in self.instructions:
                if instruction.name in ignore:
                    continue
                start = max((level.get(q, 0) for q in instruction.qubits), default=0)
                end = start + 1
                for qubit in instruction.qubits:
                    level[qubit] = end
                cached = max(cached, end)
            self._cache[key] = cached
        return cached

    def interactions(self, toffoli_weight: int = 1) -> Dict[Tuple[int, int], int]:
        """Weighted interaction graph over qubit pairs.

        Multi-qubit gates contribute to every pair among their qubits.  When
        ``toffoli_weight`` is larger than 1, each pair of a three-qubit gate is
        weighted accordingly (the paper's mapper treats a Toffoli as 6 CNOTs,
        i.e. 2 per pair).
        """
        return interaction_graph(self.instructions, toffoli_weight)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """A shallow copy (instructions are immutable so sharing them is safe)."""
        new = QuantumCircuit(self.num_qubits, name or self.name)
        new.instructions = list(self.instructions)
        return new

    def copy_empty(self, name: Optional[str] = None) -> "QuantumCircuit":
        """A circuit with the same width but no instructions."""
        return QuantumCircuit(self.num_qubits, name or self.name)

    def compose(self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Append ``other`` onto this circuit (in place), mapping its qubits.

        Args:
            other: The circuit to append.
            qubits: Where ``other``'s qubit ``i`` lands in this circuit.  By
                default qubit ``i`` maps to qubit ``i``.

        Returns:
            ``self`` for chaining.
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if len(qubits) != other.num_qubits:
            raise CircuitError(
                f"compose needs {other.num_qubits} target qubits, got {len(qubits)}"
            )
        mapping = {i: int(q) for i, q in enumerate(qubits)}
        for instruction in other.instructions:
            self.append(
                instruction.gate,
                tuple(mapping[q] for q in instruction.qubits),
                instruction.clbits,
            )
        return self

    def remap_qubits(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Return a new circuit with qubit ``q`` renamed to ``mapping[q]``."""
        new_size = num_qubits if num_qubits is not None else self.num_qubits
        new = QuantumCircuit(new_size, self.name)
        for instruction in self.instructions:
            new.append_instruction(instruction.remap(mapping))
        return new

    def inverse(self) -> "QuantumCircuit":
        """Return the inverse circuit (gates reversed and individually inverted)."""
        new = QuantumCircuit(self.num_qubits, f"{self.name}_dg")
        for instruction in reversed(self.instructions):
            if not instruction.gate.is_unitary:
                raise CircuitError("cannot invert a circuit containing measurements")
            new.append(instruction.gate.inverse(), instruction.qubits)
        return new

    def without(self, names: Iterable[str]) -> "QuantumCircuit":
        """Return a copy with every instruction whose name is in ``names`` dropped."""
        skip = set(names)
        new = self.copy_empty()
        for instruction in self.instructions:
            if instruction.name not in skip:
                new.append_instruction(instruction)
        return new

    def unitary_instructions(self) -> List[Instruction]:
        """The unitary (gate) instructions, skipping measure/reset/barrier."""
        return [inst for inst in self.instructions if inst.gate.is_unitary]
