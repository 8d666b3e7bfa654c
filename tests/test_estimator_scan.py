"""One-scan scoring: the estimator reads a circuit once, with no copy.

The §2.6 estimate needs three things from a compiled circuit: the product of
its gate errors, its gate counts and the ASAP makespan Δ.  They used to come
from two scans (an error loop, then a DAG walk for Δ) over a barrier-free
copy of the circuit.  They now come from one scan that skips barriers where
they stand.  These tests pin that the scan is exactly (``==``, no tolerance)
the old two-scan answer on the barrier-free circuit, and the ASAP
scheduler's makespan, on random hardware-basis circuits, with and without
per-coupler errors, and on the 88 Figure 9/10 compiles; and that scoring a
compiled circuit builds no DAG.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QuantumCircuit, Target, transpile
from repro.bench_circuits.suite import PAPER_BENCHMARKS, get_benchmark
from repro.circuits import library
from repro.circuits.dag import DagCircuit
from repro.hardware import johannesburg, johannesburg_aug19_2020, near_term_calibration
from repro.hardware.library import PAPER_TOPOLOGIES
from repro.passes.scheduling import asap_schedule
from repro.sim.estimator import SuccessEstimate, circuit_duration, estimate_success

_CALIBRATIONS = (johannesburg_aug19_2020(), near_term_calibration(), near_term_calibration(7.3))
_FIXED_1Q = (library.x_gate, library.h_gate, library.sx_gate)
_TWO_QUBIT = (library.cx_gate, library.cz_gate, library.swap_gate)
_NUM_CLBITS = 3
_FIG9_SEED = 11  # the seed of the frozen Figure 9/10 sweep


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
            # Any width: the scan skips barriers, so none is non-native.
            circuit.barrier(*draw(st.lists(qubit, min_size=1, max_size=num_qubits, unique=True)))
    return circuit


@st.composite
def edge_error_calibrations(draw):
    """``near_term_calibration()`` with per-coupler CNOT errors on random pairs."""
    pair = st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2, unique=True)
    edges = draw(
        st.dictionaries(
            pair.map(tuple), st.floats(min_value=0.0, max_value=0.05), min_size=1, max_size=8
        )
    )
    return near_term_calibration().with_edge_errors(edges)


def _dag_reference(circuit: QuantumCircuit, calibration) -> float:
    """The pre-scan Δ: a weighted walk over the circuit's table."""
    dag = DagCircuit.from_circuit(circuit)
    return dag.weighted_depth(
        lambda inst: calibration.gate_duration(inst.name, inst.qubits)
    )


def _two_scan_reference(circuit, calibration, include_readout=True) -> SuccessEstimate:
    """The pre-scan estimator: the error loop, then the DAG walk, barrier-free."""
    bare = circuit.without(["barrier"])
    gate_success = 1.0
    readout_success = 1.0
    num_two_qubit = 0
    num_one_qubit = 0
    num_measure = 0
    for instruction in bare.instructions:
        name = instruction.name
        if name == "measure":
            num_measure += 1
            if include_readout:
                readout_success *= 1.0 - calibration.readout_error
            continue
        if name == "reset":
            continue
        if name == "swap":
            error = calibration.gate_error("cx", instruction.qubits)
            gate_success *= (1.0 - error) ** 3
            num_two_qubit += 3
        elif instruction.gate.num_qubits == 2:
            gate_success *= 1.0 - calibration.gate_error(name, instruction.qubits)
            num_two_qubit += 1
        else:
            gate_success *= 1.0 - calibration.gate_error(name, instruction.qubits)
            num_one_qubit += 1
    duration = _dag_reference(bare, calibration)
    return SuccessEstimate(
        gate_success=gate_success,
        coherence_success=math.exp(-(duration / calibration.t1 + duration / calibration.t2)),
        readout_success=readout_success,
        duration=duration,
        num_two_qubit_gates=num_two_qubit,
        num_one_qubit_gates=num_one_qubit,
        num_measurements=num_measure,
    )


class TestOnePassScoring:
    @settings(max_examples=150)
    @given(hardware_circuits(), st.sampled_from(_CALIBRATIONS))
    def test_scan_equals_dag_walk(self, circuit, calibration):
        assert circuit_duration(circuit, calibration) == _dag_reference(
            circuit.without(["barrier"]), calibration
        )

    @settings(max_examples=150)
    @given(hardware_circuits(), st.sampled_from(_CALIBRATIONS))
    def test_scan_equals_asap_makespan(self, circuit, calibration):
        bare = circuit.without(["barrier"])
        assert asap_schedule(bare, calibration).duration == circuit_duration(
            circuit, calibration
        )

    @settings(max_examples=150)
    @given(hardware_circuits(), st.booleans())
    def test_estimate_equals_two_scan_reference(self, circuit, include_readout):
        calibration = near_term_calibration()
        assert estimate_success(
            circuit, calibration, include_readout
        ) == _two_scan_reference(circuit, calibration, include_readout)

    @settings(max_examples=150)
    @given(hardware_circuits(), edge_error_calibrations(), st.booleans())
    def test_estimate_with_edge_errors_equals_two_scan_reference(
        self, circuit, calibration, include_readout
    ):
        assert estimate_success(
            circuit, calibration, include_readout
        ) == _two_scan_reference(circuit, calibration, include_readout)

    def test_scoring_caches_no_dag(self):
        program = QuantumCircuit(4)
        program.h(0).ccx(0, 1, 2).cx(2, 3).ccx(1, 2, 3).barrier().measure_all()
        target = Target(johannesburg(), johannesburg_aug19_2020())
        result = transpile(program, target, method="trios", seed=3)
        scored = result.circuit
        assert 0.0 < result.success_probability() < 1.0
        assert "dag" not in scored._cache
        assert result.duration() == circuit_duration(scored, target.calibration)
        assert "dag" not in scored._cache


def test_fig9_10_estimates_equal_two_scan_reference():
    calibration = near_term_calibration()
    compiles = 0
    for builder in PAPER_TOPOLOGIES.values():
        coupling_map = builder()
        for name in PAPER_BENCHMARKS:
            circuit = get_benchmark(name)
            if circuit.num_qubits > coupling_map.num_qubits:
                continue
            for method in ("baseline", "trios"):
                compiled = transpile(circuit, coupling_map, method=method, seed=_FIG9_SEED)
                assert estimate_success(compiled.circuit, calibration) == _two_scan_reference(
                    compiled.circuit, calibration
                )
                compiles += 1
    assert compiles == 88
