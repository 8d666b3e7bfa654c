"""NISQ benchmark algorithms: Grover search, Bernstein–Vazirani, QAOA and the
borrowed-bit incrementer (Table 1).

Grover and the incrementer are Toffoli-heavy; Bernstein–Vazirani and QAOA
contain no Toffolis and serve as the paper's controls showing Trios introduces
no overhead on such programs.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..exceptions import BenchmarkError
from .cnx import apply_cnx_dirty, apply_cnx_logancilla


# ----------------------------------------------------------------------
# Grover's algorithm
# ----------------------------------------------------------------------
def grovers(
    num_data_qubits: int = 6,
    marked: Optional[str] = None,
    iterations: Optional[int] = None,
) -> QuantumCircuit:
    """Grover search over ``num_data_qubits`` qubits using the log-ancilla CnX.

    The oracle marks a single computational basis state (all-ones by default)
    with a phase flip; the diffusion operator is the standard inversion about
    the mean.  Both need a multi-controlled Z over the data register, built
    from the clean-ancilla CnX subroutine (the paper notes grovers-9 uses
    ``cnx_logancilla``).

    ``num_data_qubits=6`` gives a 9-qubit circuit (6 data + 3 ancilla) with 6
    Grover iterations and 84 Toffolis — the Table 1 instance ``grovers-9``.
    """
    if num_data_qubits < 3:
        raise BenchmarkError("grovers needs at least 3 data qubits")
    marked = marked or "1" * num_data_qubits
    if len(marked) != num_data_qubits or set(marked) - {"0", "1"}:
        raise BenchmarkError(f"marked state {marked!r} must be a {num_data_qubits}-bit string")
    if iterations is None:
        iterations = max(1, int(math.floor(math.pi / 4 * math.sqrt(2**num_data_qubits))))
    # The multi-controlled Z over the data register has num_data_qubits - 1
    # controls, so the tree construction needs num_data_qubits - 3 ancillas.
    num_ancillas = max(0, num_data_qubits - 3)
    num_qubits = num_data_qubits + num_ancillas
    circuit = QuantumCircuit(num_qubits, f"grovers-{num_qubits}")
    data = list(range(num_data_qubits))
    ancillas = list(range(num_data_qubits, num_qubits))

    def multi_controlled_z(qubits: List[int]) -> None:
        *controls, target = qubits
        circuit.h(target)
        apply_cnx_logancilla(circuit, controls, ancillas, target)
        circuit.h(target)

    def oracle() -> None:
        # Phase-flip the marked state: X-conjugate the zero bits, then MCZ.
        flips = [data[i] for i, bit in enumerate(marked) if bit == "0"]
        for qubit in flips:
            circuit.x(qubit)
        multi_controlled_z(data)
        for qubit in flips:
            circuit.x(qubit)

    def diffusion() -> None:
        for qubit in data:
            circuit.h(qubit)
            circuit.x(qubit)
        multi_controlled_z(data)
        for qubit in data:
            circuit.x(qubit)
            circuit.h(qubit)

    for qubit in data:
        circuit.h(qubit)
    for _ in range(iterations):
        oracle()
        diffusion()
    return circuit


# ----------------------------------------------------------------------
# Bernstein–Vazirani
# ----------------------------------------------------------------------
def bernstein_vazirani(num_qubits: int = 20, secret: Optional[str] = None) -> QuantumCircuit:
    """Bernstein–Vazirani with an ``num_qubits - 1``-bit secret string.

    The paper assumes the all-ones secret, giving 19 CNOTs on 20 qubits and,
    crucially, zero Toffolis.  The last qubit is the phase-kickback ancilla.
    """
    if num_qubits < 2:
        raise BenchmarkError("bernstein_vazirani needs at least 2 qubits")
    num_data = num_qubits - 1
    secret = secret or "1" * num_data
    if len(secret) != num_data or set(secret) - {"0", "1"}:
        raise BenchmarkError(f"secret {secret!r} must be a {num_data}-bit string")
    circuit = QuantumCircuit(num_qubits, f"bv-{num_qubits}")
    ancilla = num_qubits - 1
    circuit.x(ancilla)
    circuit.h(ancilla)
    for qubit in range(num_data):
        circuit.h(qubit)
    for qubit, bit in enumerate(secret):
        if bit == "1":
            circuit.cx(qubit, ancilla)
    for qubit in range(num_data):
        circuit.h(qubit)
    circuit.h(ancilla)
    return circuit


# ----------------------------------------------------------------------
# QAOA for Max-Cut on a complete graph
# ----------------------------------------------------------------------
def qaoa_complete(
    num_qubits: int = 10,
    rounds: int = 1,
    gamma: float = 0.7,
    beta: float = 0.3,
    seed: Optional[int] = None,
) -> QuantumCircuit:
    """QAOA Max-Cut ansatz on the complete graph K_n (zero Toffolis).

    Every edge contributes one ZZ interaction per round (two CNOTs after
    decomposition); ``num_qubits=10`` and one round give the 90-CNOT Table 1
    instance ``qaoa_complete-10``.  When ``seed`` is given the angles of each
    round are drawn randomly, mimicking a parameterised ansatz instance.
    """
    if num_qubits < 2:
        raise BenchmarkError("qaoa needs at least 2 qubits")
    if rounds < 1:
        raise BenchmarkError("qaoa needs at least one round")
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"qaoa_complete-{num_qubits}")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for _ in range(rounds):
        round_gamma = float(rng.uniform(0, math.pi)) if seed is not None else gamma
        round_beta = float(rng.uniform(0, math.pi)) if seed is not None else beta
        for a in range(num_qubits):
            for b in range(a + 1, num_qubits):
                circuit.rzz(2 * round_gamma, a, b)
        for qubit in range(num_qubits):
            circuit.rx(2 * round_beta, qubit)
    return circuit


# ----------------------------------------------------------------------
# Incrementer with one borrowed bit
# ----------------------------------------------------------------------
def incrementer_borrowedbit(num_bits: int = 4) -> QuantumCircuit:
    """Increment an ``num_bits`` register using one borrowed (dirty) qubit.

    The register occupies qubits ``0 .. num_bits-1`` (little endian) and the
    borrowed qubit is the last one; it may hold arbitrary data and is restored.
    The construction is the carry cascade — bit ``k`` flips when all lower bits
    are one — with each multi-controlled X realised through the dirty-ancilla
    V-chain borrowing the unused upper bits plus the borrowed qubit.

    ``num_bits=4`` gives the 5-qubit Table 1 instance
    ``incrementer_borrowedbit-5``.  (The paper's Gidney construction uses more
    Toffolis for the same function.)
    """
    if num_bits < 2:
        raise BenchmarkError("the incrementer needs at least 2 bits")
    num_qubits = num_bits + 1
    circuit = QuantumCircuit(num_qubits, f"incrementer_borrowedbit-{num_qubits}")
    borrowed = num_bits
    register = list(range(num_bits))
    # Highest bit first so lower bits still hold their pre-increment values.
    for target_bit in range(num_bits - 1, 0, -1):
        controls = register[:target_bit]
        # Dirty ancillas: the untouched higher bits plus the borrowed qubit.
        spare = register[target_bit + 1 :] + [borrowed]
        apply_cnx_dirty(circuit, controls, spare, register[target_bit])
    circuit.x(register[0])
    return circuit
