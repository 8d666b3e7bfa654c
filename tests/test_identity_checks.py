"""The scalar identity-up-to-phase test and the memo behind ``Gate.is_identity``.

``unitary_2x2_is_identity`` replaced ``np.allclose(m / m[0, 0], np.eye(2),
atol=atol)`` on the clean-up passes' hot path.  Its contract is that no
verdict changes, numpy's default ``rtol`` on the diagonal included, so every
property here compares it against that numpy expression.
"""

from __future__ import annotations

import cmath
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gate import (
    IDENTITY_DIAGONAL_RTOL,
    IDENTITY_MEMO_SIZE,
    ONE_QUBIT_GATE_NAMES,
    Gate,
    _MATRIX_BUILDERS,
    _one_qubit_is_identity,
    unitary_2x2_is_identity,
)
from repro.passes.synthesis import matrix_is_identity


def numpy_verdict(matrix: np.ndarray, atol: float) -> bool:
    """The expression the scalar helper replaced, verbatim."""
    phase = matrix[0, 0]
    if abs(phase) < atol:
        return False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return bool(np.allclose(matrix / phase, np.eye(2), atol=atol))


def scalar_verdict(matrix: np.ndarray, atol: float) -> bool:
    (m00, m01), (m10, m11) = matrix.tolist()
    return unitary_2x2_is_identity(m00, m01, m10, m11, atol)


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    return Gate("u3", 1, (theta, phi, lam)).matrix()


TOLERANCES = st.sampled_from([1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
ANGLES = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)
PHASES = st.floats(-math.pi, math.pi, allow_nan=False)

# Angles near the periods where a rotation is (almost) the identity: a
# multiple of 2π plus a signed offset anywhere from 1e-12 to 1e-4, or exactly
# on the multiple.
_OFFSETS = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -4.0)).map(
        lambda pair: pair[0] * 10.0 ** pair[1]
    ),
)
NEAR_PERIOD_ANGLES = st.builds(
    lambda turns, offset: 2 * math.pi * turns + offset,
    st.sampled_from([-2, -1, 0, 1, 2]),
    _OFFSETS,
)


def arity(name: str) -> int:
    return len(inspect.signature(_MATRIX_BUILDERS[name]).parameters)


class TestScalarMatchesNumpy:
    @settings(max_examples=300)
    @given(ANGLES, ANGLES, ANGLES, PHASES, TOLERANCES)
    def test_random_unitaries_times_a_global_phase(self, theta, phi, lam, alpha, atol):
        matrix = cmath.exp(1j * alpha) * u3(theta, phi, lam)
        assert scalar_verdict(matrix, atol) == numpy_verdict(matrix, atol)

    @settings(max_examples=300)
    @given(
        st.sampled_from(["rz", "u1", "u3"]),
        NEAR_PERIOD_ANGLES,
        NEAR_PERIOD_ANGLES,
        NEAR_PERIOD_ANGLES,
        PHASES,
        TOLERANCES,
    )
    def test_rotations_near_a_period(self, name, a, b, c, alpha, atol):
        params = (a, b, c)[: arity(name)]
        matrix = cmath.exp(1j * alpha) * Gate(name, 1, params).matrix()
        assert scalar_verdict(matrix, atol) == numpy_verdict(matrix, atol)

    @settings(max_examples=500)
    @given(
        TOLERANCES,
        st.floats(-1e-6, 1e-6),
        st.floats(-1e-6, 1e-6),
        st.booleans(),
        PHASES,
        PHASES,
        PHASES,
    )
    def test_entries_on_both_sides_of_the_bounds(
        self, atol, diagonal_slack, offdiagonal_slack, exact, beta, gamma, alpha
    ):
        """Place m11/m00 - 1 near atol + 1e-5 and m01/m00 near atol."""
        if exact:
            diagonal_slack = offdiagonal_slack = 0.0
        diagonal = (atol + IDENTITY_DIAGONAL_RTOL) * (1.0 + diagonal_slack)
        offdiagonal = atol * (1.0 + offdiagonal_slack)
        q = np.array(
            [
                [1.0, offdiagonal * cmath.exp(1j * gamma)],
                [0.0, 1.0 + diagonal * cmath.exp(1j * beta)],
            ],
            dtype=complex,
        )
        for matrix in (q, q.T, cmath.exp(1j * alpha) * q):
            assert scalar_verdict(matrix, atol) == numpy_verdict(matrix, atol)

    @pytest.mark.parametrize("atol", [2.0**-30, 2.0**-20])
    def test_exactly_on_the_off_diagonal_bound(self, atol):
        matrix = np.array([[1.0, atol], [-atol, 1.0]], dtype=complex)
        assert scalar_verdict(matrix, atol) is numpy_verdict(matrix, atol) is True
        matrix[0, 1] = np.nextafter(atol, 1.0)
        assert scalar_verdict(matrix, atol) is numpy_verdict(matrix, atol) is False

    @pytest.mark.parametrize(
        "m00",
        [0.0, 1e-13, 1e-12, 1e-12 * (1 + 1e-15), 1e-11 * 1j, float("nan"), float("inf")],
    )
    @pytest.mark.parametrize("atol", [-1.0, 0.0, 1e-12])
    def test_degenerate_phase_entries_and_tolerances(self, m00, atol):
        for m11 in (m00, 1.0, float("nan"), 1e300 * (1 + 1j)):
            matrix = np.array([[m00, 0.0], [0.0, m11]], dtype=complex)
            assert scalar_verdict(matrix, atol) == numpy_verdict(matrix, atol)

    @pytest.mark.parametrize(
        "matrix,atol",
        [
            # abs() of the entry raises OverflowError in Python, is inf in numpy.
            ([[1.5e308 * (1 + 1j), 0.0], [0.0, 1.5e308 * (1 + 1j)]], 1e-12),
            ([[1e-200, 1e300], [0.0, 1e-200]], 1e-300),
            ([[1e-200, 0.0], [0.0, 1e-200]], 1e-300),
            # Phases whose reciprocal is subnormal, tiny or huge.
            ([[1e-310, 0.0], [0.0, 1e-310]], 1e-320),
            ([[1e-160, 1e-170], [0.0, 1e-160]], 1e-12),
            ([[1e160, 1e150], [0.0, 1e160]], 1e-12),
        ],
    )
    def test_entries_at_the_ends_of_the_float_range(self, matrix, atol):
        matrix = np.array(matrix, dtype=complex)
        assert scalar_verdict(matrix, atol) == numpy_verdict(matrix, atol)

    @settings(max_examples=100)
    @given(ANGLES, ANGLES, ANGLES, PHASES)
    def test_matrix_is_identity_delegates_to_the_helper(self, theta, phi, lam, alpha):
        matrix = cmath.exp(1j * alpha) * u3(theta, phi, lam)
        assert matrix_is_identity(matrix) == numpy_verdict(matrix, 1e-10)


class TestGateIsIdentityUnchanged:
    def test_one_qubit_names_are_the_two_by_two_builders(self):
        two_by_two = {
            name
            for name, builder in _MATRIX_BUILDERS.items()
            if builder(*[0.0] * arity(name)).shape == (2, 2)
        }
        assert ONE_QUBIT_GATE_NAMES == two_by_two

    @settings(max_examples=400)
    @given(
        st.sampled_from(sorted(ONE_QUBIT_GATE_NAMES)),
        st.lists(st.one_of(NEAR_PERIOD_ANGLES, ANGLES), min_size=3, max_size=3),
        st.sampled_from([1e-12, 1e-10, 1e-6]),
    )
    def test_every_one_qubit_gate(self, name, angles, tol):
        gate = Gate(name, 1, tuple(angles[: arity(name)]))
        expected = numpy_verdict(gate.matrix(), tol)
        assert gate.is_identity(tol) == expected
        assert gate.is_identity(tol) == expected  # the memoised answer

    @pytest.mark.parametrize("name", sorted(ONE_QUBIT_GATE_NAMES))
    def test_every_one_qubit_gate_at_zero_angles(self, name):
        gate = Gate(name, 1, (0.0,) * arity(name))
        assert gate.is_identity() == numpy_verdict(gate.matrix(), 1e-12)

    def test_non_unitary_and_multi_qubit_gates(self):
        assert not Gate("measure", 1).is_identity()
        assert not Gate("cx", 2).is_identity()
        assert Gate("cp", 2, (0.0,)).is_identity()
        assert Gate("rzz", 2, (4 * math.pi,)).is_identity()


class TestIdentityMemo:
    def test_memo_stays_within_its_bound(self):
        _one_qubit_is_identity.cache_clear()
        for k in range(20_000):
            Gate("rz", 1, (k * 1e-3,)).is_identity()
        info = _one_qubit_is_identity.cache_info()
        assert info.maxsize == IDENTITY_MEMO_SIZE
        assert info.currsize <= IDENTITY_MEMO_SIZE

    def test_verdict_is_keyed_by_tolerance(self):
        _one_qubit_is_identity.cache_clear()
        # rx(1e-11) has off-diagonal entries of 5e-12: tolerance decides.
        rx = Gate("rx", 1, (1e-11,))
        assert not rx.is_identity()
        assert rx.is_identity(tol=1e-10)
        assert not rx.is_identity(tol=1e-12)
        # rz(1e-11) differs from I only on the diagonal, inside the pinned
        # 1e-5 there, so both tolerances accept it; rz(2e-5) does not fit.
        rz = Gate("rz", 1, (1e-11,))
        assert rz.is_identity(tol=1e-12) and rz.is_identity(tol=1e-10)
        wider = Gate("rz", 1, (2e-5,))
        assert not wider.is_identity(tol=1e-12)
        assert wider.is_identity(tol=1e-4)
        assert _one_qubit_is_identity.cache_info().currsize == 6

    def test_unknown_gate_errors_are_not_cached(self):
        with pytest.raises(TypeError):
            Gate("rz", 1).is_identity()
        with pytest.raises(TypeError):
            Gate("rz", 1).is_identity()
