"""Constructors for the standard gate library.

These small factory functions are the preferred way to build :class:`Gate`
objects; they fix the arity for each named gate so callers cannot accidentally
create, say, a three-qubit ``cx``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .gate import Gate

#: Interned parameter-free gates, keyed by (name, arity).  Gates are frozen
#: value objects, so the factories below can hand out one shared instance —
#: which also makes their (interned, read-only) matrices shared.
_GATE_CACHE: Dict[Tuple[str, int], Gate] = {}


def _interned(name: str, num_qubits: int) -> Gate:
    key = (name, num_qubits)
    gate = _GATE_CACHE.get(key)
    if gate is None:
        gate = Gate(name, num_qubits)
        _GATE_CACHE[key] = gate
    return gate

# ----------------------------------------------------------------------
# One-qubit gates
# ----------------------------------------------------------------------


def i_gate() -> Gate:
    """Identity gate."""
    return _interned("id", 1)


def x_gate() -> Gate:
    """Pauli-X (NOT) gate."""
    return _interned("x", 1)


def y_gate() -> Gate:
    """Pauli-Y gate."""
    return _interned("y", 1)


def z_gate() -> Gate:
    """Pauli-Z gate."""
    return _interned("z", 1)


def h_gate() -> Gate:
    """Hadamard gate."""
    return _interned("h", 1)


def s_gate() -> Gate:
    """Phase gate S = sqrt(Z)."""
    return _interned("s", 1)


def sdg_gate() -> Gate:
    """Inverse phase gate S†."""
    return _interned("sdg", 1)


def t_gate() -> Gate:
    """T gate = fourth root of Z."""
    return _interned("t", 1)


def tdg_gate() -> Gate:
    """Inverse T gate T†."""
    return _interned("tdg", 1)


def sx_gate() -> Gate:
    """Square root of X."""
    return _interned("sx", 1)


def sxdg_gate() -> Gate:
    """Inverse square root of X."""
    return _interned("sxdg", 1)


def rx_gate(theta: float) -> Gate:
    """Rotation about the X axis by ``theta`` radians."""
    return Gate("rx", 1, (theta,))


def ry_gate(theta: float) -> Gate:
    """Rotation about the Y axis by ``theta`` radians."""
    return Gate("ry", 1, (theta,))


def rz_gate(theta: float) -> Gate:
    """Rotation about the Z axis by ``theta`` radians."""
    return Gate("rz", 1, (theta,))


def u1_gate(lam: float) -> Gate:
    """IBM u1 gate: a diagonal phase of ``lam`` on |1⟩."""
    return Gate("u1", 1, (lam,))


def p_gate(lam: float) -> Gate:
    """Phase gate, an alias of u1."""
    return Gate("p", 1, (lam,))


def u2_gate(phi: float, lam: float) -> Gate:
    """IBM u2 gate: a pi/2 X-rotation sandwiched by Z-rotations."""
    return Gate("u2", 1, (phi, lam))


def u3_gate(theta: float, phi: float, lam: float) -> Gate:
    """IBM u3 gate: the generic single-qubit unitary up to global phase."""
    return Gate("u3", 1, (theta, phi, lam))


# ----------------------------------------------------------------------
# Two-qubit gates
# ----------------------------------------------------------------------


def cx_gate() -> Gate:
    """Controlled-NOT (control, target)."""
    return _interned("cx", 2)


def cz_gate() -> Gate:
    """Controlled-Z."""
    return _interned("cz", 2)


def cy_gate() -> Gate:
    """Controlled-Y."""
    return _interned("cy", 2)


def ch_gate() -> Gate:
    """Controlled-Hadamard."""
    return _interned("ch", 2)


def cp_gate(theta: float) -> Gate:
    """Controlled phase gate."""
    return Gate("cp", 2, (theta,))


def crz_gate(theta: float) -> Gate:
    """Controlled Z-rotation."""
    return Gate("crz", 2, (theta,))


def rzz_gate(theta: float) -> Gate:
    """Two-qubit ZZ interaction exp(-i theta/2 Z⊗Z)."""
    return Gate("rzz", 2, (theta,))


def swap_gate() -> Gate:
    """SWAP gate (decomposes to 3 CNOTs on hardware)."""
    return _interned("swap", 2)


# ----------------------------------------------------------------------
# Three-qubit gates
# ----------------------------------------------------------------------


def ccx_gate() -> Gate:
    """Toffoli gate (control, control, target) — the gate Trios routes as a unit."""
    return _interned("ccx", 3)


def ccz_gate() -> Gate:
    """Doubly-controlled Z (symmetric in its three qubits)."""
    return _interned("ccz", 3)


def cswap_gate() -> Gate:
    """Fredkin gate (control, target, target)."""
    return _interned("cswap", 3)


# ----------------------------------------------------------------------
# Non-unitary operations
# ----------------------------------------------------------------------


def measure_op() -> Gate:
    """Computational-basis measurement of one qubit."""
    return _interned("measure", 1)


def reset_op() -> Gate:
    """Reset a qubit to |0⟩."""
    return _interned("reset", 1)


def barrier_op(num_qubits: int) -> Gate:
    """A scheduling barrier across ``num_qubits`` qubits."""
    return _interned("barrier", num_qubits)


#: The hardware-supported basis used throughout the paper (IBM devices).
IBM_BASIS = ("u1", "u2", "u3", "cx")

#: Gate arities for the full library, useful for parsers and validators.
GATE_ARITY: Dict[str, int] = {
    "id": 1, "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "sx": 1, "sxdg": 1, "rx": 1, "ry": 1, "rz": 1, "u1": 1, "p": 1, "u2": 1,
    "u3": 1, "measure": 1, "reset": 1,
    "cx": 2, "cz": 2, "cy": 2, "ch": 2, "cp": 2, "crz": 2, "rzz": 2, "swap": 2,
    "ccx": 3, "ccz": 3, "cswap": 3,
}

#: Parameter counts for the same names (every name in :data:`GATE_ARITY`).
GATE_NUM_PARAMS: Dict[str, int] = {
    **{name: 0 for name in GATE_ARITY},
    "rx": 1, "ry": 1, "rz": 1, "u1": 1, "p": 1, "u2": 2, "u3": 3,
    "cp": 1, "crz": 1, "rzz": 1,
}
