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
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_circuits.suite import PAPER_BENCHMARKS, get_benchmark
from repro.circuits import QuantumCircuit, from_qasm, to_qasm
from repro.circuits.gate import Gate
from repro.circuits.library import (
    GATE_ARITY,
    GATE_NUM_PARAMS,
    p_gate,
    rx_gate,
    ry_gate,
    rz_gate,
    u1_gate,
)
from repro.exceptions import CircuitError, ServiceRequestError
from repro.hardware import line as line_device
from repro.service.jobs import CompileJob

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


# ----------------------------------------------------------------------
# Parameter counts and non-finite angles
# ----------------------------------------------------------------------
_MALFORMED_GATES = {
    "too few parameters": "u3(0,0) q[0];",
    "empty parameter list": "rz() q[0];",
    "too many parameters": "rz(1,2) q[0];",
    "non-finite angle": "rz(1e999) q[0];",
}


def _one_qubit_program(line: str) -> str:
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n{line}\n'


class TestMalformedGates:
    @pytest.mark.parametrize("line", _MALFORMED_GATES.values(), ids=_MALFORMED_GATES)
    def test_rejected_as_circuit_error(self, line):
        with pytest.raises(CircuitError):
            from_qasm(_one_qubit_program(line))

    @pytest.mark.parametrize("line", _MALFORMED_GATES.values(), ids=_MALFORMED_GATES)
    def test_service_treats_it_as_a_bad_request(self, line):
        # The HTTP layer answers ServiceRequestError with 400; anything that
        # is not a ReproError would be a 500.
        with pytest.raises(ServiceRequestError):
            CompileJob.from_qasm(_one_qubit_program(line), line_device(20), "baseline")

    @pytest.mark.parametrize("text", ["-1e999", "1e308*10", "0*1e999", "pi*1e308*1e308"])
    def test_every_non_finite_value_rejected(self, text):
        with pytest.raises(CircuitError, match="not finite"):
            from_qasm(_one_qubit_program(f"rz({text}) q[0];"))

    def test_parameter_table_covers_every_gate(self):
        assert set(GATE_NUM_PARAMS) == set(GATE_ARITY)
        for name, count in GATE_NUM_PARAMS.items():
            if name in ("measure", "reset"):
                continue
            params = tuple(0.25 * (i + 1) for i in range(count))
            assert Gate(name, GATE_ARITY[name], params).matrix().shape[0] == 2 ** GATE_ARITY[name]

    def test_parameters_on_barrier_and_reset_rejected(self):
        for line in ("barrier(1) q[0];", "reset(0.5) q[0];"):
            with pytest.raises(CircuitError, match="parameter"):
                from_qasm(_one_qubit_program(line))

    def test_reset_without_a_qubit_is_a_circuit_error(self):
        with pytest.raises(CircuitError):
            from_qasm(_one_qubit_program("reset q;"))

    def test_overlong_index_is_a_circuit_error(self):
        with pytest.raises(CircuitError, match="unusable integer"):
            from_qasm(_one_qubit_program(f"h q[{'9' * 5000}];"))


# ----------------------------------------------------------------------
# Fuzzing: only CircuitError, and only gates with finite matrices
# ----------------------------------------------------------------------
_SUITE_PROGRAMS = tuple(to_qasm(get_benchmark(name)) for name in PAPER_BENCHMARKS)

# Fragments a mutation splices in: QASM punctuation, angle syntax, gate names.
_FRAGMENTS = st.one_of(
    st.sampled_from(
        ["(", ")", ",", ";", "[", "]", "q", "c", " ", "\n", "pi", "e", "E", "-",
         "*", "/", ".", "->", "//", "1e999", "0", "9", "()", "(1,2)", "q[0]",
         "u3", "u2", "rz", "cx", "ccx", "barrier", "reset", "measure", "qreg",
         "creg", "gate "]
    ),
    st.text(max_size=4),
)


# Parameter lists a mutation puts on a gate line, right and wrong.
_PARAMETER_LISTS = st.sampled_from(
    ["", "()", "(0)", "(0,0)", "(1,2,3)", "(pi/2,0,pi)", "(1e999)", "(-1e999,0,0)",
     "(0*1e999)", "(1,)", "(-0.0)", "(1e308*10,1,1)"]
)
_GATE_LINE = re.compile(r"^(\w+)(\([^)]*\))?(\s)", re.MULTILINE)


@st.composite
def mutated_programs(draw):
    """A suite benchmark's ``to_qasm`` text with a few random edits.

    An edit either splices a fragment over a few random characters or swaps
    one gate line's parameter list for another (possibly wrong) one.
    """
    text = draw(st.sampled_from(_SUITE_PROGRAMS))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        gate_lines = list(_GATE_LINE.finditer(text))
        if gate_lines and draw(st.booleans()):
            line = draw(st.sampled_from(gate_lines))
            text = (
                text[: line.start()] + line.group(1) + draw(_PARAMETER_LISTS)
                + text[line.end(3) - 1:]
            )
            continue
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = min(len(text), start + draw(st.integers(min_value=0, max_value=8)))
        text = text[:start] + draw(_FRAGMENTS) + text[end:]
    return text


def _assert_only_circuit_errors(text: str) -> None:
    try:
        circuit = from_qasm(text)
    except CircuitError:
        return
    for instruction in circuit.instructions:
        if instruction.gate.is_unitary:
            assert np.isfinite(instruction.gate.matrix()).all(), instruction


class TestFuzz:
    @given(data=st.binary(max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes(self, data):
        _assert_only_circuit_errors(data.decode("latin-1"))

    @given(fragments=st.lists(_FRAGMENTS, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_random_fragments_after_a_valid_header(self, fragments):
        _assert_only_circuit_errors(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n' + "".join(fragments)
        )

    @given(text=mutated_programs())
    @settings(max_examples=200, deadline=None)
    def test_mutated_suite_programs(self, text):
        _assert_only_circuit_errors(text)
