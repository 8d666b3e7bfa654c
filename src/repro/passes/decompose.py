"""Unrolling / decomposition to the hardware gate set.

The target basis is IBM's ``{u1, u2, u3, cx}`` (§1).  The pass can be told to
*keep* selected multi-qubit gates — the Trios flow keeps ``ccx``/``ccz`` intact
through mapping and routing and only decomposes them afterwards
(:class:`~repro.passes.toffoli.MappingAwareToffoliDecomposePass`).

A gate's expansion is memoised once on qubits ``0..k-1`` (:func:`_expansion`)
and placed on the gate's wires piece by piece through the process-wide table
of placed instructions (:func:`~repro.circuits.circuit.placed`), which also
builds the template pieces.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..circuits.circuit import Instruction, placed
from ..circuits.dag import DagCircuit
from ..circuits.gate import Gate, exact_bits
from ..circuits import library
from ..exceptions import TranspilerError
from .base import PropertySet, TransformationPass
from .synthesis import u3_from_matrix
from .toffoli import toffoli_6cnot, toffoli_8cnot_line, ccz_6cnot, ccz_8cnot_line

#: Default hardware basis (plus SWAP, which routing inserts and a later pass expands).
DEFAULT_BASIS: Tuple[str, ...] = ("u1", "u2", "u3", "cx")

_PI = math.pi

# Direct translations of common one-qubit gates into u1/u2/u3 (avoids numerics).
_ONE_QUBIT_RULES: Dict[str, callable] = {
    "id": lambda params: [],
    "x": lambda params: [placed(library.u3_gate(_PI, 0.0, _PI), (0,))],
    "y": lambda params: [placed(library.u3_gate(_PI, _PI / 2, _PI / 2), (0,))],
    "z": lambda params: [placed(library.u1_gate(_PI), (0,))],
    "h": lambda params: [placed(library.u2_gate(0.0, _PI), (0,))],
    "s": lambda params: [placed(library.u1_gate(_PI / 2), (0,))],
    "sdg": lambda params: [placed(library.u1_gate(-_PI / 2), (0,))],
    "t": lambda params: [placed(library.u1_gate(_PI / 4), (0,))],
    "tdg": lambda params: [placed(library.u1_gate(-_PI / 4), (0,))],
    "sx": lambda params: [placed(library.u3_gate(_PI / 2, -_PI / 2, _PI / 2), (0,))],
    "sxdg": lambda params: [placed(library.u3_gate(-_PI / 2, -_PI / 2, _PI / 2), (0,))],
    "rx": lambda params: [placed(library.u3_gate(params[0], -_PI / 2, _PI / 2), (0,))],
    "ry": lambda params: [placed(library.u3_gate(params[0], 0.0, 0.0), (0,))],
    "rz": lambda params: [placed(library.u1_gate(params[0]), (0,))],
    "p": lambda params: [placed(library.u1_gate(params[0]), (0,))],
}


def _two_qubit_rule(gate: Gate) -> List[Instruction]:
    """Rewrite a non-basis two-qubit gate in terms of {1q gates, cx, swap}."""
    name = gate.name
    a, b = 0, 1
    params = gate.params
    if name == "cz":
        return [
            placed(library.h_gate(), (b,)),
            placed(library.cx_gate(), (a, b)),
            placed(library.h_gate(), (b,)),
        ]
    if name == "cy":
        return [
            placed(library.sdg_gate(), (b,)),
            placed(library.cx_gate(), (a, b)),
            placed(library.s_gate(), (b,)),
        ]
    if name == "ch":
        return [
            placed(library.s_gate(), (b,)),
            placed(library.h_gate(), (b,)),
            placed(library.t_gate(), (b,)),
            placed(library.cx_gate(), (a, b)),
            placed(library.tdg_gate(), (b,)),
            placed(library.h_gate(), (b,)),
            placed(library.sdg_gate(), (b,)),
        ]
    if name == "cp":
        theta = params[0]
        return [
            placed(library.u1_gate(theta / 2), (a,)),
            placed(library.cx_gate(), (a, b)),
            placed(library.u1_gate(-theta / 2), (b,)),
            placed(library.cx_gate(), (a, b)),
            placed(library.u1_gate(theta / 2), (b,)),
        ]
    if name == "crz":
        theta = params[0]
        return [
            placed(library.rz_gate(theta / 2), (b,)),
            placed(library.cx_gate(), (a, b)),
            placed(library.rz_gate(-theta / 2), (b,)),
            placed(library.cx_gate(), (a, b)),
        ]
    if name == "rzz":
        theta = params[0]
        return [
            placed(library.cx_gate(), (a, b)),
            placed(library.rz_gate(theta), (b,)),
            placed(library.cx_gate(), (a, b)),
        ]
    if name == "swap":
        return [
            placed(library.cx_gate(), (a, b)),
            placed(library.cx_gate(), (b, a)),
            placed(library.cx_gate(), (a, b)),
        ]
    raise TranspilerError(f"no decomposition rule for two-qubit gate {name!r}")


def _three_qubit_rule(gate: Gate, toffoli_mode: str) -> List[Instruction]:
    """Rewrite a three-qubit gate in terms of {1q, cx, ccx}-level pieces."""
    name = gate.name
    if name == "ccx":
        if toffoli_mode == "8cnot":
            return toffoli_8cnot_line(0, 1, 2)
        return toffoli_6cnot(0, 1, 2)
    if name == "ccz":
        if toffoli_mode == "8cnot":
            return ccz_8cnot_line(0, 1, 2)
        return ccz_6cnot(0, 1, 2)
    if name == "cswap":
        return [
            placed(library.cx_gate(), (2, 1)),
            placed(library.ccx_gate(), (0, 1, 2)),
            placed(library.cx_gate(), (2, 1)),
        ]
    raise TranspilerError(f"no decomposition rule for gate {name!r}")


class DecomposeToBasisPass(TransformationPass):
    """Unroll every gate into the target basis, optionally keeping some gates.

    Args:
        basis: Allowed gate names in the output (non-unitary operations and
            ``swap``/``barrier`` are always allowed; routing introduces SWAPs
            which a later pass expands).
        keep: Gate names to leave untouched, e.g. ``("ccx", "ccz")`` for the
            first Trios decomposition pass ("Unroll+Decompose to Toffoli").
        toffoli_mode: Which Toffoli decomposition to use when ``ccx``/``ccz``
            are *not* kept — ``"6cnot"`` (Qiskit default) or ``"8cnot"``.
    """

    _ALWAYS_ALLOWED = ("measure", "reset", "barrier", "swap")

    def __init__(
        self,
        basis: Sequence[str] = DEFAULT_BASIS,
        keep: Sequence[str] = (),
        toffoli_mode: str = "6cnot",
    ) -> None:
        if toffoli_mode not in ("6cnot", "8cnot"):
            raise TranspilerError(f"unknown toffoli_mode {toffoli_mode!r}")
        self.basis: Set[str] = set(basis) | set(self._ALWAYS_ALLOWED)
        self.keep: Set[str] = set(keep)
        self.toffoli_mode = toffoli_mode
        # Contract: only when no multi-qubit gate is deliberately kept does
        # the unroll guarantee a 1q/2q-only ("decomposed") circuit.
        if not self.keep & {"ccx", "ccz", "cswap"}:
            self.establishes = ("decomposed",)

    # ------------------------------------------------------------------
    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        # Record the basis for downstream consumers (the lint CLI checks
        # compiled output against it).
        properties.setdefault("basis_gates", tuple(sorted(self.basis)))
        keep = frozenset(self.keep)
        basis = frozenset(self.basis)
        out: List[Instruction] = []
        flags: List[bool] = []
        changed = False
        for instruction, canonical in zip(dag.instructions, dag.canonical_1q):
            gate = instruction.gate
            name = gate.name
            if name in keep or name in basis or not gate.is_unitary:
                out.append(instruction)
                flags.append(canonical)
                continue
            template = _expansion(
                name, gate.num_qubits, exact_bits(gate.params), keep, basis,
                self.toffoli_mode,
            )
            qubits = instruction.qubits
            for piece in template:
                out.append(placed(piece.gate, tuple(map(qubits.__getitem__, piece.qubits))))
            flags.extend([False] * len(template))
            changed = True
        return dag.derive(out, flags) if changed else dag


def _one_level(gate: Gate, toffoli_mode: str) -> List[Instruction]:
    """One level of expansion of an out-of-basis gate, on qubits ``0..k-1``."""
    name = gate.name
    if gate.num_qubits == 1:
        if name in _ONE_QUBIT_RULES:
            return _ONE_QUBIT_RULES[name](gate.params)
        return [placed(u3_from_matrix(gate.matrix()), (0,))]
    if gate.num_qubits == 2:
        return _two_qubit_rule(gate)
    if gate.num_qubits == 3:
        return _three_qubit_rule(gate, toffoli_mode)
    raise TranspilerError(f"cannot decompose {name!r} acting on {gate.num_qubits} qubits")


#: Entries in the memo of full gate expansions, bounded like the one-qubit
#: run memo (:data:`~repro.passes.synthesis.RUN_SYNTHESIS_MEMO_SIZE`): the
#: memo lives for the whole process, and parameterised gates can make
#: effectively unique keys.
EXPANSION_MEMO_SIZE = 4096

#: Nesting depth past which an expansion is taken to loop.
_MAX_EXPANSION_DEPTH = 32


@functools.lru_cache(maxsize=EXPANSION_MEMO_SIZE)
def _expansion(
    name: str,
    num_qubits: int,
    bits: bytes,
    keep: FrozenSet[str],
    basis: FrozenSet[str],
    toffoli_mode: str,
) -> Tuple[Instruction, ...]:
    """The full expansion of one gate into ``basis`` (keeping ``keep``), on qubits ``0..k-1``.

    Keyed on the gate's name and the exact IEEE-754 bits of its parameters,
    so ``-0.0`` and ``0.0`` never share an entry.  Each piece of a one-level
    expansion is expanded again, depth first and in order, until it is kept,
    in the basis or non-unitary.
    """
    params = struct.unpack(f"<{len(bits) // 8}d", bits)

    def expand(gate: Gate, qubits: Tuple[int, ...], depth: int, out: List[Instruction]):
        if depth > _MAX_EXPANSION_DEPTH:
            raise TranspilerError("decomposition did not converge")
        for piece in _one_level(gate, toffoli_mode):
            piece_qubits = tuple(qubits[q] for q in piece.qubits)
            piece_name = piece.gate.name
            if piece_name in keep or piece_name in basis or not piece.gate.is_unitary:
                out.append(placed(piece.gate, piece_qubits))
            else:
                expand(piece.gate, piece_qubits, depth + 1, out)

    expanded: List[Instruction] = []
    expand(Gate(name, num_qubits, params), tuple(range(num_qubits)), 0, expanded)
    return tuple(expanded)
