"""OpenQASM 2.0 export/import: exact round-trip property tests.

``circuits/qasm.py`` previously rendered non-pi-fraction angles with 12
significant digits, so ``parse(dump(c))`` silently perturbed the last float
bits.  The exporter now emits ``repr`` (shortest round-trip) for arbitrary
angles and exact symbolic fractions for angles that are pi fractions to the
last bit; these tests pin the resulting gate-for-gate identity on randomized
library circuits.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, from_qasm, to_qasm
from repro.circuits.library import GATE_ARITY, p_gate, rx_gate, ry_gate, rz_gate, u1_gate
from repro.exceptions import CircuitError

# Parameter-free library gates by arity (excluding non-unitary ops and the
# gates needing explicit definitions, which get their own cases below).
_PLAIN_1Q = ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg")
_PLAIN_2Q = ("cx", "cz", "cy", "ch", "swap")
_PLAIN_3Q = ("ccx", "cswap")
_PARAM_1Q = ("rx", "ry", "rz", "u1", "p")
_PARAM_1Q_BUILDERS = {"rx": rx_gate, "ry": ry_gate, "rz": rz_gate,
                      "u1": u1_gate, "p": p_gate}

_PI_FRACTIONS = tuple(
    num * math.pi / denom
    for denom in (1, 2, 3, 4, 6, 8, 16)
    for num in (-16, -5, -1, 1, 2, 3, 7, 16)
)

_angles = st.one_of(
    st.sampled_from(_PI_FRACTIONS),
    st.floats(
        min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
    ),
    # Tiny magnitudes force the exporter's scientific notation path.
    st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False),
)


@st.composite
def qasm_circuits(draw, max_qubits: int = 5, max_gates: int = 25):
    """Random circuits over the full serialisable library gate set."""
    num_qubits = draw(st.integers(min_value=3, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, "qasm-random")
    num_gates = draw(st.integers(min_value=0, max_value=max_gates))
    for _ in range(num_gates):
        kind = draw(
            st.sampled_from(
                ["1q", "p1q", "u2", "u3", "2q", "p2q", "3q", "ccz", "rzz",
                 "barrier", "reset"]
            )
        )
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_qubits - 1),
                min_size=3, max_size=3, unique=True,
            )
        )
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(("h", "x", "z", "s", "t"))))(qubits[0])
        elif kind == "p1q":
            name = draw(st.sampled_from(_PARAM_1Q))
            circuit.append(_PARAM_1Q_BUILDERS[name](draw(_angles)), (qubits[0],))
        elif kind == "u2":
            circuit.u2(draw(_angles), draw(_angles), qubits[0])
        elif kind == "u3":
            circuit.u3(draw(_angles), draw(_angles), draw(_angles), qubits[0])
        elif kind == "2q":
            name = draw(st.sampled_from(("cx", "cz", "swap")))
            getattr(circuit, name)(qubits[0], qubits[1])
        elif kind == "p2q":
            circuit.cp(draw(_angles), qubits[0], qubits[1])
        elif kind == "3q":
            circuit.ccx(qubits[0], qubits[1], qubits[2])
        elif kind == "ccz":
            circuit.ccz(qubits[0], qubits[1], qubits[2])
        elif kind == "rzz":
            circuit.rzz(draw(_angles), qubits[0], qubits[1])
        elif kind == "barrier":
            circuit.barrier(*sorted(qubits[:2]))
        else:
            circuit.reset(qubits[0])
    if draw(st.booleans()):
        for index, qubit in enumerate(sorted(circuit.active_qubits())):
            circuit.measure(qubit, index)
    return circuit


def assert_gate_for_gate_identical(original: QuantumCircuit, parsed: QuantumCircuit):
    assert parsed.num_qubits == original.num_qubits
    assert len(parsed.instructions) == len(original.instructions)
    for index, (ours, theirs) in enumerate(
        zip(original.instructions, parsed.instructions)
    ):
        assert theirs.name == ours.name, f"instruction {index} name drifted"
        assert theirs.qubits == ours.qubits, f"instruction {index} qubits drifted"
        assert theirs.clbits == ours.clbits, f"instruction {index} clbits drifted"
        assert theirs.gate.params == ours.gate.params, (
            f"instruction {index} ({ours.name}) params drifted: "
            f"{ours.gate.params} -> {theirs.gate.params}"
        )


class TestRoundTripProperties:
    @given(circuit=qasm_circuits())
    @settings(max_examples=60, deadline=None)
    def test_parse_dump_is_gate_for_gate_identical(self, circuit):
        assert_gate_for_gate_identical(circuit, from_qasm(to_qasm(circuit)))

    @given(angle=_angles)
    @settings(max_examples=120, deadline=None)
    def test_every_angle_round_trips_bit_for_bit(self, angle):
        circuit = QuantumCircuit(1)
        circuit.rz(angle, 0)
        parsed = from_qasm(to_qasm(circuit))
        assert parsed.instructions[0].gate.params == (angle,)

    @given(circuit=qasm_circuits())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_is_idempotent(self, circuit):
        once = to_qasm(circuit)
        assert to_qasm(from_qasm(once)) == once


class TestRenderingDetails:
    def test_exact_pi_fractions_render_symbolically(self):
        circuit = QuantumCircuit(1)
        circuit.rz(3 * math.pi / 4, 0).rx(-math.pi / 2, 0).u1(2 * math.pi, 0)
        text = to_qasm(circuit)
        assert "3*pi/4" in text
        assert "-pi/2" in text
        assert "2*pi" in text

    def test_near_but_not_exact_pi_fraction_keeps_full_precision(self):
        angle = math.pi / 2 + 1e-13  # closer than the old 1e-12 tolerance
        circuit = QuantumCircuit(1)
        circuit.rz(angle, 0)
        parsed = from_qasm(to_qasm(circuit))
        assert parsed.instructions[0].gate.params == (angle,)

    def test_scientific_notation_parses(self):
        circuit = QuantumCircuit(1)
        circuit.rz(2.5e-09, 0)
        text = to_qasm(circuit)
        assert "e-09" in text
        assert from_qasm(text).instructions[0].gate.params == (2.5e-09,)

    def test_defined_gates_round_trip(self):
        circuit = QuantumCircuit(3)
        circuit.ccz(0, 1, 2).rzz(0.25, 0, 1)
        text = to_qasm(circuit)
        assert "gate ccz" in text and "gate rzz" in text
        assert_gate_for_gate_identical(circuit, from_qasm(text))

    def test_malformed_angle_expression_rejected(self):
        bad = 'OPENQASM 2.0;\nqreg q[1];\nrz(1**) q[0];\n'
        with pytest.raises(CircuitError):
            from_qasm(bad)

    def test_power_operator_rejected_before_evaluation(self):
        # Even a cheap power is refused: the evaluator never sees ``**``.
        with pytest.raises(CircuitError, match="unsupported angle"):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\nrz(2**3) q[0];\n')

    def test_overlong_angle_rejected(self):
        angle = "+".join(["1"] * 65)  # 129 characters
        with pytest.raises(CircuitError, match="longer than 128"):
            from_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n")
        longest = "1+" * 63 + "10"  # 128 characters is still accepted
        parsed = from_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({longest}) q[0];\n")
        assert parsed.instructions[0].gate.params == (73.0,)

    def test_hostile_power_tower_fails_fast(self):
        # ``9**9**8`` has ~41 million digits; evaluating it froze the parser
        # (and so ``repro serve``'s event loop) for well over 10 s.  Parse it
        # in a child process, so a regression is killed rather than hanging
        # the suite, and require the rejection itself to take under 1 s.
        probe = (
            "import time\n"
            "from repro.circuits import from_qasm\n"
            "from repro.exceptions import CircuitError\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    from_qasm('OPENQASM 2.0;\\nqreg q[1];\\nrz(9**9**8) q[0];\\n')\n"
            "except CircuitError:\n"
            "    print(time.perf_counter() - start)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip(), "the hostile angle was accepted"
        assert float(done.stdout) < 1.0

    def test_unknown_name_in_angle_rejected(self):
        bad = 'OPENQASM 2.0;\nqreg q[1];\nrz(e) q[0];\n'
        with pytest.raises(CircuitError):
            from_qasm(bad)

    def test_gate_arity_table_covers_serialised_names(self):
        # Every gate the exporter can emit must be parseable again.
        for name in (*_PLAIN_1Q, *_PLAIN_2Q, *_PLAIN_3Q, *_PARAM_1Q,
                     "u2", "u3", "cp", "crz", "rzz", "ccz"):
            assert name in GATE_ARITY, name
