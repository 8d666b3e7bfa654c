"""Unit tests for the QuantumCircuit IR, the DAG and OpenQASM I/O."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from repro.circuits import DagCircuit, QuantumCircuit, circuit_layers, from_qasm, to_qasm
from repro.bench_circuits.suite import PAPER_BENCHMARKS, get_benchmark
from repro.circuits import circuit as circuit_module
from repro.circuits.circuit import PLACED_TABLE_SIZE, Instruction, placed
from repro.circuits.library import (
    barrier_op, ccx_gate, cx_gate, h_gate, measure_op, rz_gate, u1_gate, u3_gate,
)
from repro.compiler import transpile
from repro.exceptions import CircuitError
from repro.hardware.library import PAPER_TOPOLOGIES


class TestCircuitConstruction:
    def test_builder_methods_append_instructions(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).ccx(0, 1, 2).t(2).measure(2, 0)
        assert len(circuit) == 5
        assert circuit.count_ops() == {"h": 1, "cx": 1, "ccx": 1, "t": 1, "measure": 1}

    def test_out_of_range_qubit_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.h(2)

    def test_duplicate_qubits_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.cx(1, 1)

    def test_zero_qubit_circuit_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        clone = circuit.copy()
        clone.x(1)
        assert len(circuit) == 1
        assert len(clone) == 2

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(4)
        outer.compose(inner, qubits=[3, 1])
        assert outer.instructions[0].qubits == (3, 1)

    def test_compose_size_mismatch(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(3).compose(QuantumCircuit(2), qubits=[0])


class TestInstruction:
    def test_numpy_and_list_indices_normalised_to_int_tuples(self):
        inst = Instruction(cx_gate(), [np.int64(2), np.int32(0)])
        assert inst.qubits == (2, 0) and inst.clbits == ()
        assert all(type(q) is int for q in inst.qubits)
        measured = Instruction(measure_op(), np.array([1]), [np.int64(3)])
        assert measured.qubits == (1,) and measured.clbits == (3,)
        assert type(measured.qubits) is tuple and type(measured.clbits) is tuple
        assert all(type(c) is int for c in measured.clbits)

    @pytest.mark.parametrize(
        "gate, qubits",
        [(cx_gate(), (1, 1)), (ccx_gate(), (0, 2, 0)), (ccx_gate(), (2, 2, 2))],
    )
    def test_duplicate_qubits_message(self, gate, qubits):
        expected = f"duplicate qubits {qubits} for gate {gate.name!r}"
        with pytest.raises(CircuitError, match=re.escape(expected)):
            Instruction(gate, qubits)

    def test_distinct_qubits_accepted(self):
        assert Instruction(cx_gate(), (0, 1)).qubits == (0, 1)
        assert Instruction(ccx_gate(), (2, 0, 1)).qubits == (2, 0, 1)
        assert Instruction(barrier_op(4), (3, 1, 0, 2)).qubits == (3, 1, 0, 2)

    def test_arity_mismatch_message(self):
        with pytest.raises(CircuitError, match=re.escape("gate 'cx' expects 2 qubits, got 3")):
            Instruction(cx_gate(), (0, 1, 2))
        with pytest.raises(CircuitError, match=re.escape("gate 'h' expects 1 qubits, got 2")):
            QuantumCircuit(2).append(h_gate(), (0, 1))

    def test_append_instruction_range_checks_and_clears_cache(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert circuit.depth() == 1 and circuit._cache
        with pytest.raises(CircuitError, match="qubit 2 out of range"):
            circuit.append_instruction(Instruction(cx_gate(), (0, 2)))
        assert len(circuit) == 1
        inst = Instruction(cx_gate(), (0, 1))
        circuit.append_instruction(inst)
        assert not circuit._cache
        assert circuit.instructions[-1] is inst
        assert circuit.depth() == 2

    def test_without_shares_instruction_objects(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).barrier().measure(2, 0)
        bare = circuit.without(["barrier"])
        kept = [inst for inst in circuit.instructions if inst.name != "barrier"]
        assert len(bare.instructions) == len(kept)
        assert all(new is old for new, old in zip(bare.instructions, kept))


class TestPlacedTable:
    def test_equal_inputs_return_the_same_object(self):
        first = placed(u1_gate(0.25), (3,))
        assert placed(u1_gate(0.25), (3,)) is first  # an equal, distinct gate object
        assert first == Instruction(u1_gate(0.25), (3,))
        assert placed(cx_gate(), (0, 1)) is placed(cx_gate(), (0, 1))
        assert placed(cx_gate(), (1, 0)) is not placed(cx_gate(), (0, 1))
        measured = placed(measure_op(), (2,), (5,))
        assert measured.clbits == (5,) and placed(measure_op(), (2,), (5,)) is measured

    def test_signed_zero_parameters_stay_apart(self):
        # ``Gate`` equality calls rz(0.0) and rz(-0.0) equal; the table must
        # not hand one back for the other.
        positive = placed(rz_gate(0.0), (0,))
        negative = placed(rz_gate(-0.0), (0,))
        assert math.copysign(1.0, positive.gate.params[0]) == 1.0
        assert math.copysign(1.0, negative.gate.params[0]) == -1.0
        mixed = placed(u3_gate(0.5, -0.0, 0.0), (0,))
        assert [math.copysign(1.0, p) for p in mixed.gate.params[1:]] == [-1.0, 1.0]

    @pytest.mark.parametrize(
        "gate, qubits, message",
        [
            (cx_gate(), (0, 1, 2), "gate 'cx' expects 2 qubits, got 3"),
            (barrier_op(3), (0, 1), "gate 'barrier' expects 3 qubits, got 2"),
            (cx_gate(), (4, 4), "duplicate qubits (4, 4)"),
            (ccx_gate(), (0, 2, 0), "duplicate qubits (0, 2, 0)"),
        ],
    )
    def test_bad_inputs_raise_on_every_call(self, gate, qubits, message):
        placed(barrier_op(2), (0, 1))  # a valid entry the bad barrier must not match
        for _ in range(3):
            with pytest.raises(CircuitError, match=re.escape(message)):
                placed(gate, qubits)

    def test_numpy_qubits_come_back_as_plain_ints(self):
        inst = placed(ccx_gate(), (np.int64(7), np.int32(2), np.int64(9)), (np.int64(1),))
        assert inst.qubits == (7, 2, 9) and inst.clbits == (1,)
        assert all(type(q) is int for q in inst.qubits + inst.clbits)
        assert placed(ccx_gate(), (7, 2, 9), (1,)) is inst

    def test_bound_is_the_named_constant(self, monkeypatch):
        table = {}
        monkeypatch.setattr(circuit_module, "_PLACED", table)
        for angle in range(PLACED_TABLE_SIZE + 10):
            placed(u1_gate(float(angle)), (0,))
            assert len(table) <= PLACED_TABLE_SIZE
        assert len(table) == 10  # emptied once, at the bound

    def test_threads_never_overfill_the_table(self, monkeypatch):
        table = {}
        monkeypatch.setattr(circuit_module, "_PLACED", table)
        monkeypatch.setattr(circuit_module, "PLACED_TABLE_SIZE", 64)
        errors = []

        def worker(offset):
            for step in range(2000):
                gate, qubits = u1_gate(float(offset + step % 97)), (step % 5,)
                if placed(gate, qubits) != Instruction(gate, qubits) or len(table) > 64:
                    errors.append((offset, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k * 1000,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(table) <= 64

    def test_second_fig9_10_sweep_adds_no_misses(self, monkeypatch):
        table = {}
        monkeypatch.setattr(circuit_module, "_PLACED", table)
        cells = [
            (get_benchmark(name), builder(), method)
            for builder in PAPER_TOPOLOGIES.values()
            for name in PAPER_BENCHMARKS
            for method in ("baseline", "trios")
        ]
        assert len(cells) == 88

        def sweep():
            for circuit, coupling_map, method in cells:
                transpile(circuit, coupling_map, method=method, seed=11)

        sweep()
        first = dict(table)
        # 921 distinct instructions at the time of writing: far inside the
        # bound, so a sweep never empties the table.
        assert 0 < len(first) < PLACED_TABLE_SIZE // 2
        sweep()
        # A miss would have stored a new object under its key.
        assert table.keys() == first.keys()
        assert all(table[key] is entry for key, entry in first.items())


class TestCircuitMetrics:
    def test_two_qubit_gate_count_counts_swaps_as_three(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).swap(1, 2).ccx(0, 1, 2)
        assert circuit.two_qubit_gate_count(count_swap_as=3) == 4
        assert circuit.two_qubit_gate_count(count_swap_as=1) == 2

    def test_depth_of_parallel_gates(self):
        circuit = QuantumCircuit(4)
        circuit.h(0).h(1).h(2).h(3)
        assert circuit.depth() == 1
        circuit.cx(0, 1).cx(2, 3)
        assert circuit.depth() == 2
        circuit.cx(1, 2)
        assert circuit.depth() == 3

    def test_depth_ignores_barriers(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().h(1)
        assert circuit.depth() == 1

    def test_active_qubits(self):
        circuit = QuantumCircuit(5)
        circuit.cx(1, 3)
        circuit.barrier()
        assert circuit.active_qubits() == {1, 3}

    def test_interactions_weight_toffoli_pairs(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        circuit.cx(0, 1)
        weights = circuit.interactions(toffoli_weight=2)
        assert weights[(0, 1)] == 3
        assert weights[(0, 2)] == 2
        assert weights[(1, 2)] == 2

    def test_num_clbits(self):
        circuit = QuantumCircuit(3)
        assert circuit.num_clbits() == 0
        circuit.measure(1, 2)
        assert circuit.num_clbits() == 3


class TestCircuitTransforms:
    def test_remap_qubits(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        remapped = circuit.remap_qubits({0: 4, 1: 2}, num_qubits=5)
        assert remapped.instructions[0].qubits == (4, 2)
        assert remapped.num_qubits == 5

    def test_inverse_reverses_and_inverts(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).t(0).cx(0, 1)
        inverse = circuit.inverse()
        names = [inst.name for inst in inverse.instructions]
        assert names == ["cx", "tdg", "h"]

    def test_inverse_rejects_measurement(self):
        circuit = QuantumCircuit(1)
        circuit.measure(0)
        with pytest.raises(CircuitError):
            circuit.inverse()

    def test_without_drops_named_ops(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().measure(0)
        cleaned = circuit.without(["barrier", "measure"])
        assert [inst.name for inst in cleaned.instructions] == ["h"]


class TestDagQueries:
    def test_layers_group_parallel_gates(self):
        circuit = QuantumCircuit(4)
        circuit.h(0).h(1).cx(0, 1).cx(2, 3)
        layers = circuit_layers(circuit)
        assert [sorted(inst.name for inst in layer) for layer in layers] == [
            ["cx", "h", "h"],
            ["cx"],
        ]

    def test_front_layer_and_successors(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).x(1)
        dag = DagCircuit.from_circuit(circuit)
        front = dag.front_layer()
        assert [dag.instructions[node].name for node in front] == ["h"]
        successors = dag.successors(front[0])
        assert [dag.instructions[node].name for node in successors] == ["cx"]
        assert [dag.instructions[node].name for node in dag.predecessors(2)] == ["cx"]

    def test_weighted_depth_uses_durations(self, hardware_calibration):
        circuit = QuantumCircuit(2)
        circuit.u3(0.1, 0.2, 0.3, 0).cx(0, 1).u3(0.1, 0.2, 0.3, 1)
        duration = DagCircuit.from_circuit(circuit).weighted_depth(
            lambda inst: hardware_calibration.gate_duration(inst.name, inst.qubits)
        )
        expected = 0.07 + 0.559 + 0.07
        assert duration == pytest.approx(expected)


class TestOpenQasm:
    def test_roundtrip_preserves_circuit(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).t(1).cx(0, 1).ccx(0, 1, 2).rz(0.25, 2).swap(1, 2)
        circuit.measure(2, 0)
        text = to_qasm(circuit)
        parsed = from_qasm(text)
        assert parsed.count_ops() == circuit.count_ops()
        assert [inst.qubits for inst in parsed.instructions] == [
            inst.qubits for inst in circuit.instructions
        ]

    def test_qasm_contains_headers_and_registers(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).measure_all()
        text = to_qasm(circuit)
        assert "OPENQASM 2.0;" in text
        assert "qreg q[2];" in text
        assert "creg c[2];" in text
        assert "measure q[0] -> c[0];" in text

    def test_pi_fractions_are_rendered_exactly(self):
        circuit = QuantumCircuit(1)
        circuit.rz(math.pi / 2, 0)
        assert "pi/2" in to_qasm(circuit)

    def test_parse_rejects_unknown_gate(self):
        bad = 'OPENQASM 2.0;\nqreg q[1];\nfancy q[0];\n'
        with pytest.raises(CircuitError):
            from_qasm(bad)
