"""One-pass scoring: ``circuit_duration`` scans instructions without a DAG.

The makespan Δ in the success model (§2.6) used to come from the circuit's
frozen dependency DAG.  It is now one linear scan of ``circuit.instructions``
with per-wire ready times.  These tests pin that the scan is exactly (``==``,
no tolerance) the old DAG walk and the ASAP scheduler's makespan on random
hardware-basis circuits, and that scoring a compiled circuit caches no DAG.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QuantumCircuit, Target, transpile
from repro.circuits import library
from repro.circuits.dag import DagCircuit
from repro.hardware import johannesburg, johannesburg_aug19_2020, near_term_calibration
from repro.passes.scheduling import asap_schedule
from repro.sim.estimator import circuit_duration

_CALIBRATIONS = (johannesburg_aug19_2020(), near_term_calibration(), near_term_calibration(7.3))
_FIXED_1Q = (library.x_gate, library.h_gate, library.sx_gate)
_TWO_QUBIT = (library.cx_gate, library.cz_gate, library.swap_gate)
_NUM_CLBITS = 3


@st.composite
def hardware_circuits(draw):
    """Hardware-basis circuits: 1q/2q gates, swaps, measures, resets, barriers."""
    num_qubits = draw(st.integers(min_value=2, max_value=6))
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(st.sampled_from(("1q", "2q", "measure", "reset", "barrier")))
        if kind == "1q":
            angle = draw(st.floats(min_value=-4.0, max_value=4.0))
            gate = draw(
                st.sampled_from(
                    _FIXED_1Q
                    + (
                        lambda: library.rz_gate(angle),
                        lambda: library.u3_gate(angle, -angle, 0.5 * angle),
                    )
                )
            )()
            circuit.append(gate, (draw(qubit),))
        elif kind == "2q":
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            circuit.append(draw(st.sampled_from(_TWO_QUBIT))(), (a, b))
        elif kind == "measure":
            # Few clbits, so measures on different qubits chain through them.
            clbit = draw(st.integers(min_value=0, max_value=_NUM_CLBITS - 1))
            circuit.measure(draw(qubit), clbit)
        elif kind == "reset":
            circuit.reset(draw(qubit))
        else:
            # Wider barriers are rejected as non-native by circuit_duration
            # (scored circuits are barrier-free); narrow ones still sync wires.
            circuit.barrier(*draw(st.lists(qubit, min_size=1, max_size=2, unique=True)))
    return circuit


def _dag_reference(circuit: QuantumCircuit, calibration) -> float:
    """The pre-scan Δ: a weighted walk over the circuit's frozen DAG."""
    dag = DagCircuit.from_circuit(circuit).freeze()
    return dag.weighted_depth(
        lambda inst: calibration.gate_duration(inst.name, inst.qubits)
    )


class TestOnePassScoring:
    @settings(max_examples=150)
    @given(hardware_circuits(), st.sampled_from(_CALIBRATIONS))
    def test_scan_equals_dag_walk(self, circuit, calibration):
        assert circuit_duration(circuit, calibration) == _dag_reference(
            circuit, calibration
        )

    @settings(max_examples=150)
    @given(hardware_circuits(), st.sampled_from(_CALIBRATIONS))
    def test_scan_equals_asap_makespan(self, circuit, calibration):
        bare = circuit.without(["barrier"])
        assert asap_schedule(bare, calibration).duration == circuit_duration(
            bare, calibration
        )

    def test_scoring_caches_no_dag(self):
        program = QuantumCircuit(4)
        program.h(0).ccx(0, 1, 2).cx(2, 3).ccx(1, 2, 3).barrier().measure_all()
        target = Target(johannesburg(), johannesburg_aug19_2020())
        result = transpile(program, target, method="trios", seed=3)
        assert 0.0 < result.success_probability() < 1.0
        scored = result._bare_circuit()
        assert "dag" not in scored._cache
        assert result.duration() == circuit_duration(scored, target.calibration)
        assert "dag" not in scored._cache
