"""The memo behind one-qubit run synthesis.

``Consolidate1qRunsPass`` asks :func:`synthesise_run` what each run of
one-qubit gates becomes.  The answer must be bit for bit the historical
expression: compose with numpy ``@`` starting from the identity, test the
product with ``matrix_is_identity``, synthesise it with ``u3_from_matrix``.
These tests compare the memo, cold and warm, against that expression written
out here, and check that the memo is keyed on exact parameter bits and stays
within its bound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_circuits.suite import get_benchmark
from repro.circuits.gate import Gate
from repro.compiler.pipeline import transpile
from repro.hardware.library import PAPER_TOPOLOGIES
from repro.passes.synthesis import (
    RUN_SYNTHESIS_MEMO_SIZE,
    _synthesise_exact,
    matrix_is_identity,
    synthesise_run,
    u3_from_matrix,
)


def historical(gates):
    """The uncached expression the memo stands in front of, verbatim."""
    matrix = None
    for gate in gates:
        if matrix is None:
            matrix = gate.matrix() @ np.eye(2, dtype=complex)
        else:
            matrix = gate.matrix() @ matrix
    if matrix_is_identity(matrix):
        return None
    return u3_from_matrix(matrix)


def exact(gate):
    """A synthesised gate as comparable bits (``None`` stays ``None``)."""
    if gate is None:
        return None
    return gate.name, gate.num_qubits, tuple(float(p).hex() for p in gate.params)


# Angles biased to where synthesis is delicate: signed zeros, ±π, and 2π
# plus or minus an offset from 1e-9 to 1e-4 (or exactly 2π).
_OFFSETS = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-9.0, -4.0)).map(
    lambda pair: pair[0] * 10.0 ** pair[1]
)
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi]),
    st.tuples(st.sampled_from([-2.0, 2.0]), _OFFSETS).map(
        lambda pair: pair[0] * math.pi + pair[1]
    ),
    st.tuples(st.sampled_from([0.0, math.pi]), _OFFSETS).map(sum),
    st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False),
)

_PARAMETER_COUNTS = {"u1": 1, "u2": 2, "u3": 3, "rz": 1, "h": 0, "t": 0, "tdg": 0, "x": 0}


@st.composite
def gates(draw):
    name = draw(st.sampled_from(sorted(_PARAMETER_COUNTS)))
    params = tuple(draw(ANGLES) for _ in range(_PARAMETER_COUNTS[name]))
    return Gate(name, 1, params)


RUNS = st.lists(gates(), min_size=1, max_size=6)


class TestExactness:
    @given(run=RUNS)
    @settings(max_examples=400, deadline=None)
    def test_cold_and_warm_answers_match_the_uncached_expression(self, run):
        expected = exact(historical(run))
        _synthesise_exact.cache_clear()
        assert exact(synthesise_run(run)) == expected
        assert exact(synthesise_run(run)) == expected
        assert _synthesise_exact.cache_info().hits == 1

    @given(run=RUNS, other=RUNS)
    @settings(max_examples=200, deadline=None)
    def test_answers_do_not_depend_on_what_the_memo_already_holds(self, run, other):
        synthesise_run(other)
        assert exact(synthesise_run(run)) == exact(historical(run))

    def test_identity_products_are_none(self):
        assert synthesise_run([Gate("h", 1), Gate("h", 1)]) is None
        assert synthesise_run([Gate("t", 1), Gate("tdg", 1)]) is None
        assert synthesise_run([Gate("rz", 1, (2 * math.pi,))]) is None

    def test_signed_zero_is_a_distinct_key(self):
        # ``Gate`` equality (and hashing) cannot tell -0.0 from 0.0, so a
        # memo keyed on gate values would answer one run with the other's
        # result.  The exact-bits key gives each its own entry.
        positive = [Gate("u3", 1, (0.0, 0.5, 0.25)), Gate("h", 1)]
        negative = [Gate("u3", 1, (-0.0, 0.5, 0.25)), Gate("h", 1)]
        assert positive == negative
        _synthesise_exact.cache_clear()
        synthesise_run(positive)
        synthesise_run(negative)
        info = _synthesise_exact.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        assert exact(synthesise_run(negative)) == exact(historical(negative))


class TestBound:
    def test_memo_never_exceeds_its_bound(self):
        _synthesise_exact.cache_clear()
        assert _synthesise_exact.cache_info().maxsize == RUN_SYNTHESIS_MEMO_SIZE
        for step in range(RUN_SYNTHESIS_MEMO_SIZE + 200):
            synthesise_run([Gate("rz", 1, (1e-3 * (step + 1),)), Gate("h", 1)])
            if step % 512 == 0:
                assert _synthesise_exact.cache_info().currsize <= RUN_SYNTHESIS_MEMO_SIZE
        assert _synthesise_exact.cache_info().currsize == RUN_SYNTHESIS_MEMO_SIZE


@pytest.mark.parametrize("method", ["baseline", "trios"])
def test_fig9_10_cell_compiles_the_same_cold_and_warm(method):
    coupling_map = PAPER_TOPOLOGIES["ibmq-johannesburg"]()
    circuit = get_benchmark("grovers-9")
    _synthesise_exact.cache_clear()
    cold = transpile(circuit, coupling_map, method=method, seed=11).circuit
    assert _synthesise_exact.cache_info().misses > 0
    warm = transpile(circuit, coupling_map, method=method, seed=11).circuit
    assert _synthesise_exact.cache_info().hits > 0
    assert [exact_instruction(i) for i in cold.instructions] == [
        exact_instruction(i) for i in warm.instructions
    ]


def exact_instruction(instruction):
    return exact(instruction.gate), instruction.qubits, instruction.clbits
