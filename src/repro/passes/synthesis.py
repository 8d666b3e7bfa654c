"""Single-qubit unitary synthesis (ZYZ / u3 decomposition).

Used by the one-qubit consolidation pass and by the basis decomposition pass to
rewrite arbitrary single-qubit gates as the hardware's ``u3`` gate.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.gate import Gate, unitary_2x2_is_identity
from ..exceptions import TranspilerError


def zyz_angles(matrix: np.ndarray, atol: float = 1e-12) -> Tuple[float, float, float, float]:
    """Decompose a 2x2 unitary as ``e^{i phase} Rz(phi) Ry(theta) Rz(lam)``.

    Returns ``(theta, phi, lam, phase)`` such that the IBM ``u3(theta, phi,
    lam)`` gate equals the input up to the returned global phase.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise TranspilerError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    det = np.linalg.det(matrix)
    if abs(abs(det) - 1.0) > 1e-6:
        raise TranspilerError("matrix is not unitary (|det| != 1)")
    # Remove the global phase so the matrix is special unitary.
    phase = cmath.phase(det) / 2.0
    su2 = matrix * cmath.exp(-1j * phase)
    # su2 = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [sin(t/2) e^{ i(phi-lam)/2},  cos(t/2) e^{ i(phi+lam)/2}]]
    cos_half = abs(su2[0, 0])
    sin_half = abs(su2[1, 0])
    # atan2 is well conditioned at both theta ~ 0 and theta ~ pi, unlike acos.
    theta = 2.0 * math.atan2(sin_half, cos_half)
    if sin_half > atol and cos_half > atol:
        phi_plus_lam = 2.0 * cmath.phase(su2[1, 1])
        phi_minus_lam = 2.0 * cmath.phase(su2[1, 0])
        phi = (phi_plus_lam + phi_minus_lam) / 2.0
        lam = (phi_plus_lam - phi_minus_lam) / 2.0
    elif sin_half <= atol:
        # Diagonal matrix: only phi + lam is determined.
        theta = 0.0
        phi = 2.0 * cmath.phase(su2[1, 1])
        lam = 0.0
    else:
        # Anti-diagonal matrix: only phi - lam is determined.
        theta = math.pi
        phi = 2.0 * cmath.phase(su2[1, 0])
        lam = 0.0
    # The u3 matrix convention carries an extra phase of (phi + lam)/2 relative
    # to the Rz Ry Rz product; fold it into the reported global phase.
    global_phase = phase - (phi + lam) / 2.0
    return theta, phi, lam, global_phase


def u3_from_matrix(matrix: np.ndarray) -> Gate:
    """Return the ``u3`` gate implementing ``matrix`` up to global phase."""
    theta, phi, lam, _ = zyz_angles(matrix)
    return Gate("u3", 1, (theta, phi, lam))


def matrix_is_identity(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Whether a 2x2 unitary is the identity up to global phase.

    With ``m₀₀`` the top-left entry: ``|m₀₀| ≥ atol`` and ``|m/m₀₀ − I| ≤
    atol`` entrywise, plus ``1e-5`` on the diagonal (see
    :func:`~repro.circuits.gate.unitary_2x2_is_identity`).
    """
    (m00, m01), (m10, m11) = np.asarray(matrix, dtype=complex).tolist()
    return unitary_2x2_is_identity(m00, m01, m10, m11, atol)


#: Entries in the memo of synthesised one-qubit runs.  A compile sweep meets
#: the same few dozen runs thousands of times; the memo lives for the whole
#: process (a long-running server included), so it is bounded.
RUN_SYNTHESIS_MEMO_SIZE = 4096

# The product a run starts from.  ``@`` always returns a fresh array, so one
# shared read-only identity serves every run.
_IDENTITY_2X2 = np.eye(2, dtype=complex)
_IDENTITY_2X2.setflags(write=False)

# Little-endian IEEE-754 doubles, one layout per parameter count.
_PARAM_LAYOUTS = tuple(struct.Struct(f"<{count}d") for count in range(4))


def _exact_bits(params: Tuple[float, ...]) -> bytes:
    """The parameters' IEEE-754 bits: unlike ``==``, tells ``-0.0`` from ``0.0``."""
    count = len(params)
    layout = _PARAM_LAYOUTS[count] if count < 4 else struct.Struct(f"<{count}d")
    return layout.pack(*params)


def synthesise_run(gates: Sequence[Gate]) -> Optional[Gate]:
    """The ``u3`` implementing a run of one-qubit gates, or ``None`` if it is the identity.

    ``gates`` are in program order.  The answer is exactly that of composing
    the run with numpy ``@`` (``m₁ @ I``, then ``mₖ @ …``), testing the
    product with :func:`matrix_is_identity` and synthesising it with
    :func:`u3_from_matrix`, served from a bounded memo.  The memo is keyed on
    each gate's name and the exact bits of its parameters, not on
    :class:`Gate` values: ``Gate`` equality treats ``-0.0`` and ``0.0`` as
    equal although their matrices can differ in the sign of zero entries.
    With exact keys a hit is the answer for its own input, with no need to
    prove that such signs never reach the synthesised angles.
    """
    # One key item per gate: the bare name of a parameter-free gate, else
    # ``(name, bits)``.  A plain loop builds it faster than a generator.
    key = []
    for gate in gates:
        params = gate.params
        key.append((gate.name, _exact_bits(params)) if params else gate.name)
    return _synthesise_exact(tuple(key))


@functools.lru_cache(maxsize=RUN_SYNTHESIS_MEMO_SIZE)
def _synthesise_exact(key: Tuple[Union[str, Tuple[str, bytes]], ...]) -> Optional[Gate]:
    matrix = _IDENTITY_2X2
    for item in key:
        if isinstance(item, str):
            gate = Gate(item, 1)
        else:
            name, bits = item
            gate = Gate(name, 1, struct.unpack(f"<{len(bits) // 8}d", bits))
        matrix = gate.matrix() @ matrix
    if matrix_is_identity(matrix):
        return None
    return u3_from_matrix(matrix)
