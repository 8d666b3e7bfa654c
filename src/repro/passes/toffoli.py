"""Toffoli (CCX/CCZ) decompositions and the mapping-aware second pass.

Two decompositions from the paper (Figures 3 and 4):

* :func:`toffoli_6cnot` — the textbook 6-CNOT decomposition; it needs CNOTs
  between *all three* qubit pairs, i.e. a triangle in the coupling graph.
* :func:`toffoli_8cnot_line` — an 8-CNOT decomposition whose CNOTs only touch
  two of the three pairs, so a linear (path) connectivity suffices.  Any of the
  three qubits can be the Toffoli target ("simply moving the two H gates to
  that qubit", §4) and any qubit can be the middle of the line.

:class:`MappingAwareToffoliDecomposePass` is the Trios second decomposition
pass (Figure 2b): it runs after routing, inspects the hardware connectivity of
each routed Toffoli and picks the 6-CNOT version when the three physical qubits
form a triangle and the 8-CNOT version (with the correct middle qubit)
otherwise.

Every decomposition takes its pieces from the process-wide table of placed
instructions (:func:`~repro.circuits.circuit.placed`): a Toffoli decomposed
twice on the same qubits yields the same instruction objects.
"""

from __future__ import annotations

from typing import List, Optional

from ..circuits.circuit import Instruction, placed
from ..circuits.dag import DagCircuit
from ..circuits import library
from ..exceptions import TranspilerError
from ..hardware.topology import CouplingMap
from .base import PropertySet, TransformationPass


def _substitute_sweep(dag: DagCircuit, decompose) -> DagCircuit:
    """Replace each CCX/CCZ by ``decompose(instruction)``, emitting the pieces in place.

    Replacements are not re-examined (the decompositions emit final gates).
    """
    out: List[Instruction] = []
    flags: List[bool] = []
    changed = False
    for instruction, canonical in zip(dag.instructions, dag.canonical_1q):
        if instruction.name not in ("ccx", "ccz"):
            out.append(instruction)
            flags.append(canonical)
            continue
        pieces = decompose(instruction)
        out.extend(pieces)
        flags.extend([False] * len(pieces))
        changed = True
    return dag.derive(out, flags) if changed else dag


# ----------------------------------------------------------------------
# 6-CNOT decomposition (Figure 3)
# ----------------------------------------------------------------------
def ccz_6cnot(a: int, b: int, c: int) -> List[Instruction]:
    """6-CNOT CCZ; requires CNOTs on all three pairs (a-c, b-c, a-b)."""
    return [
        placed(library.cx_gate(), (b, c)),
        placed(library.tdg_gate(), (c,)),
        placed(library.cx_gate(), (a, c)),
        placed(library.t_gate(), (c,)),
        placed(library.cx_gate(), (b, c)),
        placed(library.tdg_gate(), (c,)),
        placed(library.cx_gate(), (a, c)),
        placed(library.t_gate(), (b,)),
        placed(library.t_gate(), (c,)),
        placed(library.cx_gate(), (a, b)),
        placed(library.t_gate(), (a,)),
        placed(library.tdg_gate(), (b,)),
        placed(library.cx_gate(), (a, b)),
    ]


def toffoli_6cnot(control1: int, control2: int, target: int) -> List[Instruction]:
    """The textbook 6-CNOT Toffoli (Figure 3); needs a connectivity triangle."""
    return (
        [placed(library.h_gate(), (target,))]
        + ccz_6cnot(control1, control2, target)
        + [placed(library.h_gate(), (target,))]
    )


# ----------------------------------------------------------------------
# 8-CNOT linear-connectivity decomposition (Figure 4)
# ----------------------------------------------------------------------
def ccz_8cnot_line(left: int, middle: int, right: int) -> List[Instruction]:
    """8-CNOT CCZ using only the couplings (left, middle) and (middle, right).

    Derived from the CCZ phase polynomial: T on each input and on the parity
    ``left ⊕ middle ⊕ right``, T† on each pairwise parity.  The CNOT ladder
    below exposes exactly those parities on the ``middle`` and ``right`` wires
    while only ever coupling adjacent wires of the line, and restores the
    register at the end.  Verified against the exact CCZ unitary in the tests.
    """
    a, b, c = left, middle, right
    return [
        placed(library.t_gate(), (a,)),
        placed(library.t_gate(), (b,)),
        placed(library.t_gate(), (c,)),
        placed(library.cx_gate(), (b, c)),
        placed(library.tdg_gate(), (c,)),
        placed(library.cx_gate(), (a, b)),
        placed(library.tdg_gate(), (b,)),
        placed(library.cx_gate(), (b, c)),
        placed(library.tdg_gate(), (c,)),
        placed(library.cx_gate(), (a, b)),
        placed(library.cx_gate(), (b, c)),
        placed(library.t_gate(), (c,)),
        placed(library.cx_gate(), (a, b)),
        placed(library.cx_gate(), (b, c)),
        placed(library.cx_gate(), (a, b)),
    ]


def toffoli_8cnot_line(
    control1: int, control2: int, target: int, middle: Optional[int] = None
) -> List[Instruction]:
    """8-CNOT Toffoli for linearly connected qubits.

    Args:
        control1: First control qubit.
        control2: Second control qubit.
        target: Target qubit (receives the two H gates).
        middle: Which of the three qubits sits in the middle of the hardware
            line.  Defaults to ``control2``.  The CNOTs of the decomposition
            only act between the middle qubit and each of the two outer qubits.
    """
    qubits = (control1, control2, target)
    middle = control2 if middle is None else middle
    if middle not in qubits:
        raise TranspilerError(
            f"middle qubit {middle} is not one of the Toffoli qubits {qubits}"
        )
    outer = [q for q in qubits if q != middle]
    body = ccz_8cnot_line(outer[0], middle, outer[1])
    return (
        [placed(library.h_gate(), (target,))]
        + body
        + [placed(library.h_gate(), (target,))]
    )


# ----------------------------------------------------------------------
# Decomposition passes
# ----------------------------------------------------------------------
class ToffoliDecomposePass(TransformationPass):
    """Decompose every CCX/CCZ with a *fixed* decomposition, ignoring hardware.

    This models the conventional flow, where decomposition happens before the
    compiler knows where the qubits will live: ``mode="6cnot"`` is Qiskit's
    default, ``mode="8cnot"`` is the "Qiskit (8-CNOT Toffoli)" configuration of
    Figures 6 and 7.
    """

    # Hardware-ignorant by design: the emitted CNOTs may land on non-coupled
    # pairs, so a previously routed circuit needs re-legalization afterwards.
    establishes = ("decomposed",)
    invalidates = ("routed", "routed_toffoli", "scheduled")

    def __init__(self, mode: str = "6cnot") -> None:
        if mode not in ("6cnot", "8cnot"):
            raise TranspilerError(f"unknown Toffoli decomposition mode {mode!r}")
        self.mode = mode

    def _decompose(self, instruction: Instruction) -> List[Instruction]:
        qubits = instruction.qubits
        if instruction.name == "ccx":
            if self.mode == "6cnot":
                return toffoli_6cnot(*qubits)
            return toffoli_8cnot_line(*qubits)
        if self.mode == "6cnot":
            return ccz_6cnot(*qubits)
        return ccz_8cnot_line(qubits[0], qubits[1], qubits[2])

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        return _substitute_sweep(dag, self._decompose)


class MappingAwareToffoliDecomposePass(TransformationPass):
    """Trios' second decomposition pass (Figure 2b, "Mapping-Aware Decompose").

    Every remaining CCX/CCZ is assumed to already sit on physical qubits that
    the Trios router made mutually connected.  If the three qubits form a
    triangle in the coupling graph the 6-CNOT decomposition is used; otherwise
    the qubit adjacent to both others becomes the middle of the 8-CNOT linear
    decomposition.
    """

    requires = ("routed_toffoli",)
    establishes = ("routed", "decomposed")
    invalidates = ("routed_toffoli", "scheduled")

    def __init__(self, coupling_map: CouplingMap) -> None:
        self.coupling_map = coupling_map

    def _decompose(self, instruction: Instruction) -> List[Instruction]:
        a, b, c = instruction.qubits
        if self.coupling_map.has_triangle(a, b, c):
            if instruction.name == "ccx":
                return toffoli_6cnot(a, b, c)
            return ccz_6cnot(a, b, c)
        middle = self.coupling_map.linear_middle(a, b, c)
        if middle is None:
            raise TranspilerError(
                f"Toffoli on physical qubits {instruction.qubits} is not "
                "connected; the Trios routing pass must run first"
            )
        if instruction.name == "ccx":
            return toffoli_8cnot_line(a, b, c, middle=middle)
        outer = [q for q in (a, b, c) if q != middle]
        return ccz_8cnot_line(outer[0], middle, outer[1])

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        return _substitute_sweep(dag, self._decompose)
