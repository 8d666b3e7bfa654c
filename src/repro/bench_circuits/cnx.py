"""Many-controlled-NOT (CnX) constructions used by the Table 1 benchmarks.

Four variants, following the references cited by the paper:

* :func:`cnx_dirty` — the Barenco/Baker V-chain using ``k-2`` *dirty* (borrowed)
  ancillas; ``4(k-2)`` Toffolis.
* :func:`cnx_halfborrowed` — Gidney's construction where roughly half of the
  register is borrowed; same V-chain core, exposed with the paper's naming and
  sizing (``k`` controls on ``2k-1`` qubits).
* :func:`cnx_logancilla` — the clean-ancilla tree construction (log depth),
  ``2k-3`` Toffolis on ``2k-1`` qubits.
* :func:`cnx_inplace` — a no-ancilla construction.  The paper uses Gidney's
  iterated construction (54 Toffolis for 3 controls); we substitute Barenco's
  Lemma 7.5 recursion with controlled roots of X, which is exact, uses zero
  ancillas and keeps the benchmark a Toffoli-containing 4-qubit circuit.

All builders return a fresh :class:`~repro.circuits.circuit.QuantumCircuit`
whose semantic is "flip the last qubit iff every control qubit is 1"; the
tests verify this truth table exhaustively for small sizes.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..circuits.circuit import QuantumCircuit
from ..exceptions import BenchmarkError


# ----------------------------------------------------------------------
# Dirty-ancilla V-chain
# ----------------------------------------------------------------------
def _vchain_sweep(
    circuit: QuantumCircuit, controls: Sequence[int], ancillas: Sequence[int], target: int
) -> None:
    """One sweep of the dirty-ancilla V-chain; applying it twice gives CnX."""
    k = len(controls)
    m = len(ancillas)
    circuit.ccx(controls[k - 1], ancillas[m - 1], target)
    for i in range(k - 2, 1, -1):
        circuit.ccx(controls[i], ancillas[i - 2], ancillas[i - 1])
    circuit.ccx(controls[0], controls[1], ancillas[0])
    for i in range(2, k - 1):
        circuit.ccx(controls[i], ancillas[i - 2], ancillas[i - 1])


def apply_cnx_dirty(
    circuit: QuantumCircuit,
    controls: Sequence[int],
    ancillas: Sequence[int],
    target: int,
) -> None:
    """Apply a CnX to an existing circuit using ``len(controls) - 2`` dirty ancillas."""
    controls = list(controls)
    ancillas = list(ancillas)
    k = len(controls)
    if k == 0:
        circuit.x(target)
        return
    if k == 1:
        circuit.cx(controls[0], target)
        return
    if k == 2:
        circuit.ccx(controls[0], controls[1], target)
        return
    if len(ancillas) < k - 2:
        raise BenchmarkError(
            f"CnX with {k} controls needs {k - 2} dirty ancillas, got {len(ancillas)}"
        )
    ancillas = ancillas[: k - 2]
    _vchain_sweep(circuit, controls, ancillas, target)
    _vchain_sweep(circuit, controls, ancillas, target)


def cnx_dirty(num_controls: int = 6) -> QuantumCircuit:
    """CnX with ``num_controls`` controls and ``num_controls - 2`` dirty ancillas.

    The Table 1 instance ``cnx_dirty-11`` is ``num_controls=6``: 6 controls,
    4 dirty ancillas and 1 target = 11 qubits, 16 Toffolis.
    """
    if num_controls < 3:
        raise BenchmarkError("cnx_dirty needs at least 3 controls")
    num_qubits = 2 * num_controls - 1
    circuit = QuantumCircuit(num_qubits, f"cnx_dirty-{num_qubits}")
    controls = list(range(num_controls))
    ancillas = list(range(num_controls, 2 * num_controls - 2))
    target = num_qubits - 1
    apply_cnx_dirty(circuit, controls, ancillas, target)
    return circuit


def cnx_halfborrowed(num_controls: int = 10) -> QuantumCircuit:
    """Gidney-style CnX where roughly half of the device register is borrowed.

    The Table 1 instance ``cnx_halfborrowed-19`` is ``num_controls=10``:
    10 controls, 8 borrowed ancillas, 1 target = 19 qubits, 32 Toffolis.  The
    borrowed qubits hold arbitrary data and are restored, which the tests check
    by initialising them to every basis value.
    """
    if num_controls < 3:
        raise BenchmarkError("cnx_halfborrowed needs at least 3 controls")
    num_qubits = 2 * num_controls - 1
    circuit = QuantumCircuit(num_qubits, f"cnx_halfborrowed-{num_qubits}")
    controls = list(range(num_controls))
    borrowed = list(range(num_controls, 2 * num_controls - 2))
    target = num_qubits - 1
    apply_cnx_dirty(circuit, controls, borrowed, target)
    return circuit


# ----------------------------------------------------------------------
# Clean-ancilla tree ("log ancilla" in the paper's naming)
# ----------------------------------------------------------------------
def apply_cnx_logancilla(
    circuit: QuantumCircuit,
    controls: Sequence[int],
    ancillas: Sequence[int],
    target: int,
) -> None:
    """Apply a CnX using ``len(controls) - 2`` *clean* ancillas (tree of ANDs)."""
    controls = list(controls)
    ancillas = list(ancillas)
    k = len(controls)
    if k <= 2:
        apply_cnx_dirty(circuit, controls, [], target)
        return
    if len(ancillas) < k - 2:
        raise BenchmarkError(
            f"CnX with {k} controls needs {k - 2} clean ancillas, got {len(ancillas)}"
        )
    ancillas = ancillas[: k - 2]
    # Compute: repeatedly AND the first two live wires into a fresh ancilla.
    live: List[int] = list(controls)
    compute: List[tuple] = []
    for ancilla in ancillas:
        a, b = live.pop(0), live.pop(0)
        circuit.ccx(a, b, ancilla)
        compute.append((a, b, ancilla))
        live.append(ancilla)
    # Final AND of the last two live wires goes straight onto the target.
    circuit.ccx(live[0], live[1], target)
    # Uncompute the ancillas in reverse order.
    for a, b, ancilla in reversed(compute):
        circuit.ccx(a, b, ancilla)


def cnx_logancilla(num_controls: int = 10) -> QuantumCircuit:
    """CnX via a tree of Toffolis over clean ancillas (Barenco et al.).

    The Table 1 instance ``cnx_logancilla-19`` is ``num_controls=10``:
    10 controls, 8 clean ancillas, 1 target = 19 qubits, 17 Toffolis.
    """
    if num_controls < 3:
        raise BenchmarkError("cnx_logancilla needs at least 3 controls")
    num_qubits = 2 * num_controls - 1
    circuit = QuantumCircuit(num_qubits, f"cnx_logancilla-{num_qubits}")
    controls = list(range(num_controls))
    ancillas = list(range(num_controls, 2 * num_controls - 2))
    target = num_qubits - 1
    apply_cnx_logancilla(circuit, controls, ancillas, target)
    return circuit


# ----------------------------------------------------------------------
# No-ancilla ("in place") construction
# ----------------------------------------------------------------------
def _apply_controlled_root_x(
    circuit: QuantumCircuit, control: int, target: int, power_of_two: int, inverse: bool = False
) -> None:
    """Apply controlled-X^(1/2^power_of_two) as H · CP(±pi/2^power_of_two) · H."""
    angle = math.pi / (2**power_of_two)
    if inverse:
        angle = -angle
    circuit.h(target)
    circuit.cp(angle, control, target)
    circuit.h(target)


def _apply_mc_root_x(
    circuit: QuantumCircuit,
    controls: Sequence[int],
    target: int,
    power_of_two: int,
) -> None:
    """Apply a multi-controlled X^(1/2^power_of_two) with no ancilla (recursive)."""
    controls = list(controls)
    if not controls:
        if power_of_two == 0:
            circuit.x(target)
        else:
            circuit.h(target)
            circuit.u1(math.pi / (2**power_of_two), target)
            circuit.h(target)
        return
    if len(controls) == 1:
        if power_of_two == 0:
            circuit.cx(controls[0], target)
        else:
            _apply_controlled_root_x(circuit, controls[0], target, power_of_two)
        return
    if len(controls) == 2 and power_of_two == 0:
        circuit.ccx(controls[0], controls[1], target)
        return
    # Barenco Lemma 7.5 recursion:
    #   Λ_k(U) = Λ_1(V)(c_k, t) · Λ_{k-1}(X)(c_1..c_{k-1} -> c_k) · Λ_1(V†)(c_k, t)
    #            · Λ_{k-1}(X)(c_1..c_{k-1} -> c_k) · Λ_{k-1}(V)(c_1..c_{k-1} -> t)
    # with V² = U, i.e. V = X^(1/2^(power_of_two+1)).
    *rest, last = controls
    _apply_controlled_root_x(circuit, last, target, power_of_two + 1)
    _apply_mc_root_x(circuit, rest, last, 0)
    _apply_controlled_root_x(circuit, last, target, power_of_two + 1, inverse=True)
    _apply_mc_root_x(circuit, rest, last, 0)
    _apply_mc_root_x(circuit, rest, target, power_of_two + 1)


def apply_cnx_inplace(
    circuit: QuantumCircuit, controls: Sequence[int], target: int
) -> None:
    """Apply a CnX using no ancilla qubits at all."""
    _apply_mc_root_x(circuit, list(controls), target, 0)


def cnx_inplace(num_controls: int = 3) -> QuantumCircuit:
    """CnX on exactly ``num_controls + 1`` qubits with no ancillas.

    The Table 1 instance ``cnx_inplace-4`` is ``num_controls=3``.  The paper
    uses Gidney's iterated construction (54 Toffolis); we substitute the
    Barenco no-ancilla recursion, which is exact but smaller (2 Toffolis plus
    controlled phase rotations for 3 controls).
    """
    if num_controls < 2:
        raise BenchmarkError("cnx_inplace needs at least 2 controls")
    num_qubits = num_controls + 1
    circuit = QuantumCircuit(num_qubits, f"cnx_inplace-{num_qubits}")
    apply_cnx_inplace(circuit, list(range(num_controls)), num_qubits - 1)
    return circuit
