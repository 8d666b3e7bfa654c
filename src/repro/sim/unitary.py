"""Exact unitary construction for small circuits.

Used almost exclusively for verification: every Toffoli decomposition, routing
pass and optimisation pass in this library is checked against the original
circuit's unitary (up to global phase, and up to the qubit permutation that
routing introduces).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..exceptions import SimulationError


def circuit_unitary(circuit: QuantumCircuit, max_qubits: int = 12) -> np.ndarray:
    """The full ``2^n x 2^n`` unitary of a measurement-free circuit."""
    if circuit.num_qubits > max_qubits:
        raise SimulationError(
            f"building a unitary on {circuit.num_qubits} qubits is too large "
            f"(limit {max_qubits})"
        )
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    # Keep the accumulated unitary as a tensor with one axis per output qubit
    # plus a trailing "input column" axis, so each gate is a single tensordot.
    unitary = np.eye(dim, dtype=complex).reshape((2,) * num_qubits + (dim,))
    for instruction in circuit.instructions:
        if instruction.name == "barrier":
            continue
        if not instruction.gate.is_unitary:
            raise SimulationError(
                f"circuit contains non-unitary operation {instruction.name!r}"
            )
        qubits = list(instruction.qubits)
        k = len(qubits)
        gate_tensor = instruction.gate.matrix().reshape((2,) * (2 * k))
        unitary = np.tensordot(gate_tensor, unitary, axes=(list(range(k, 2 * k)), qubits))
        unitary = np.moveaxis(unitary, list(range(k)), qubits)
    return unitary.reshape(dim, dim)


def permutation_unitary(permutation: Dict[int, int], num_qubits: int) -> np.ndarray:
    """Unitary that relabels qubit ``q`` to ``permutation[q]``.

    After routing, the data that started on logical wire ``q`` may end on a
    different physical wire; composing with this permutation lets routed
    circuits be compared against the original unitary.
    """
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for index in range(dim):
        bits = [(index >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        new_bits = [0] * num_qubits
        for q in range(num_qubits):
            new_bits[permutation.get(q, q)] = bits[q]
        new_index = 0
        for bit in new_bits:
            new_index = (new_index << 1) | bit
        matrix[new_index, index] = 1.0
    return matrix


def equal_up_to_global_phase(
    matrix_a: np.ndarray, matrix_b: np.ndarray, atol: float = 1e-8
) -> bool:
    """Whether two unitaries are equal up to an overall complex phase."""
    if matrix_a.shape != matrix_b.shape:
        return False
    # Find the largest entry of matrix_b to fix the relative phase robustly.
    index = np.unravel_index(np.argmax(np.abs(matrix_b)), matrix_b.shape)
    if abs(matrix_b[index]) < atol:
        return bool(np.allclose(matrix_a, matrix_b, atol=atol))
    phase = matrix_a[index] / matrix_b[index]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(matrix_a, matrix_b * phase, atol=atol))


def phase_aligned_distance(matrix_a: np.ndarray, matrix_b: np.ndarray) -> float:
    """Max entry-wise deviation after aligning the global phase.

    The phase is fixed at ``matrix_b``'s largest-magnitude entry (the same
    anchor :func:`equal_up_to_global_phase` uses), so this is the deviation
    that check compared against its tolerance — the number to report when an
    equivalence assertion fails.
    """
    if matrix_a.shape != matrix_b.shape:
        raise SimulationError(
            f"cannot compare matrices of shapes {matrix_a.shape} and {matrix_b.shape}"
        )
    index = np.unravel_index(np.argmax(np.abs(matrix_b)), matrix_b.shape)
    anchor = matrix_b[index]
    if abs(anchor) == 0.0:
        return float(np.max(np.abs(matrix_a - matrix_b)))
    phase = matrix_a[index] / anchor
    if abs(phase) > 0:
        phase = phase / abs(phase)
    else:
        phase = 1.0
    return float(np.max(np.abs(matrix_a - matrix_b * phase)))

