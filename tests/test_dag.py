"""Unit and property tests for the flat DagCircuit table IR."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import DagCircuit, Instruction, QuantumCircuit, library
from repro.circuits.dag import wires_of
from repro.exceptions import CircuitError
from repro.passes import CancelAdjacentInversesPass, DecomposeToBasisPass, PropertySet

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_ONE_QUBIT = ("h", "x", "t", "tdg", "s", "z")


@st.composite
def circuits_with_everything(draw, max_qubits: int = 5, max_gates: int = 16):
    """Random circuits over 1q/2q/3q gates plus measure and barrier."""
    num_qubits = draw(st.integers(min_value=3, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, "random")
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(["1q", "2q", "3q", "measure", "barrier"]))
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_qubits - 1),
                min_size=3, max_size=3, unique=True,
            )
        )
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(_ONE_QUBIT)))(qubits[0])
        elif kind == "2q":
            circuit.cx(qubits[0], qubits[1])
        elif kind == "3q":
            circuit.ccx(qubits[0], qubits[1], qubits[2])
        elif kind == "measure":
            circuit.measure(qubits[0], draw(st.integers(min_value=0, max_value=3)))
        else:
            circuit.barrier()
    return circuit


def wire_orders(circuit: QuantumCircuit):
    """Per-wire instruction sequences (qubit wires and clbit wires)."""
    orders = {}
    for instruction in circuit.instructions:
        for qubit in instruction.qubits:
            orders.setdefault(("q", qubit), []).append(instruction)
        for clbit in instruction.clbits:
            orders.setdefault(("c", clbit), []).append(instruction)
    return orders


class TestRoundTrip:
    @given(circuit=circuits_with_everything())
    @settings(**_SETTINGS)
    def test_to_circuit_of_from_circuit_is_identity(self, circuit):
        dag = DagCircuit.from_circuit(circuit)
        back = dag.to_circuit()
        assert back.num_qubits == circuit.num_qubits
        assert back.instructions == circuit.instructions

    @given(circuit=circuits_with_everything())
    @settings(**_SETTINGS)
    def test_from_circuit_of_to_circuit_preserves_wire_order(self, circuit):
        dag = DagCircuit.from_circuit(circuit)
        rebuilt = DagCircuit.from_circuit(dag.to_circuit())
        assert wire_orders(rebuilt.to_circuit()) == wire_orders(circuit)

    @given(circuit=circuits_with_everything())
    @settings(**_SETTINGS)
    def test_wire_chain_matches_instruction_order(self, circuit):
        dag = DagCircuit.from_circuit(circuit)
        for qubit in range(circuit.num_qubits):
            chain = [dag.instructions[node] for node in dag.wire(qubit)]
            expected = [
                inst for inst in circuit.instructions if qubit in inst.qubits
            ]
            assert chain == expected


class TestImmutability:
    def _hcx(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).t(1).cx(1, 2)
        return DagCircuit.from_circuit(circuit)

    def test_table_copies_the_source_list(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        dag = DagCircuit.from_circuit(circuit)
        circuit.x(1)
        assert len(dag) == 1
        out = dag.to_circuit()
        out.x(0)
        assert len(dag) == 1

    def test_rewrite_leaves_its_input_untouched(self):
        dag = self._hcx()
        before = list(dag.instructions)
        out = DecomposeToBasisPass().run(dag, PropertySet())
        assert out is not dag
        assert dag.instructions == before
        assert [i.name for i in out] == ["u2", "cx", "u1", "cx"]

    def test_unchanged_rewrite_returns_its_input(self):
        dag = self._hcx()
        assert CancelAdjacentInversesPass().run(dag, PropertySet()) is dag

    def test_flags_parallel_the_instructions(self):
        dag = self._hcx()
        assert dag.canonical_1q == [False] * 4
        with pytest.raises(CircuitError):
            DagCircuit(3, dag.instructions, canonical_1q=[False])

    def test_constructor_rejects_qubits_outside_the_register(self):
        with pytest.raises(CircuitError):
            DagCircuit(2, [Instruction(library.x_gate(), (2,))])


class TestQueries:
    def test_front_layer_and_per_wire_queries(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(2).cx(0, 1).cx(1, 2)
        dag = DagCircuit.from_circuit(circuit)
        names = [inst.name for inst in dag]
        assert sorted(names[n] for n in dag.front_layer()) == ["h", "h"]
        first_cx = names.index("cx")
        assert [names[n] for n in dag.predecessors(first_cx)] == ["h"]
        assert [names[n] for n in dag.successors(first_cx)] == ["cx"]
        assert dag.wire_front(1) == first_cx
        assert dag.wire_back(0) == first_cx
        assert dag.wire_front(5) is None
        with pytest.raises(CircuitError):
            dag.successors(len(dag))

    def test_interactions_match_circuit(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2).cx(0, 1)
        dag = DagCircuit.from_circuit(circuit)
        assert dag.interactions(toffoli_weight=2) == circuit.interactions(
            toffoli_weight=2
        )

    def test_count_ops_and_len(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).measure(0)
        dag = DagCircuit.from_circuit(circuit)
        assert len(dag) == 3
        assert dag.count_ops() == {"h": 1, "cx": 1, "measure": 1}

    def test_wires_of_shares_qubits_and_encodes_clbits(self):
        gate = Instruction(library.cx_gate(), (2, 0))
        assert wires_of(gate) is gate.qubits
        measure = Instruction(library.measure_op(), (1,), (0,))
        assert tuple(wires_of(measure)) == (1, -1)
        circuit = QuantumCircuit(2)
        circuit.measure(1, 0).h(1)
        dag = DagCircuit.from_circuit(circuit)
        assert dag.wire(-1) == [0]
        assert dag.wire(1) == [0, 1]


class TestCircuitMemoization:
    def test_depth_invalidated_by_append_after_query(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert circuit.depth() == 1
        circuit.cx(0, 1)  # append *after* a depth() call must invalidate
        assert circuit.depth() == 2
        circuit.x(1)
        assert circuit.depth() == 3

    def test_count_ops_invalidated_by_append(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert circuit.count_ops() == {"h": 1}
        circuit.h(0)
        assert circuit.count_ops() == {"h": 2}

    def test_count_ops_result_is_not_aliased(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        counts = circuit.count_ops()
        counts["h"] = 99
        assert circuit.count_ops() == {"h": 1}

    def test_shared_dag_is_memoized_and_invalidated(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        first = circuit.dag()
        assert circuit.dag() is first  # shared, not rebuilt per call
        assert first.depth() == 2
        circuit.x(1)
        second = circuit.dag()
        assert second is not first
        assert second.depth() == 3

    def test_copy_does_not_share_cache(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert circuit.depth() == 1
        clone = circuit.copy()
        clone.h(0)
        assert clone.depth() == 2
        assert circuit.depth() == 1


class TestPickling:
    """Circuits and DAGs must survive pickling (the --jobs pool boundary)."""

    def _deep_circuit(self, depth: int = 6000) -> QuantumCircuit:
        circuit = QuantumCircuit(2)
        for _ in range(depth // 2):
            circuit.h(0).cx(0, 1)
        return circuit

    def test_circuit_with_cached_dag_pickles(self):
        import pickle

        circuit = self._deep_circuit()
        circuit.depth()
        circuit.dag()  # populates the cache with the linked-node DAG
        restored = pickle.loads(pickle.dumps(circuit))
        assert [str(i) for i in restored.instructions] == [
            str(i) for i in circuit.instructions
        ]
        assert restored.depth() == circuit.depth()

    def test_dag_pickle_round_trip(self):
        import pickle

        dag = DagCircuit.from_circuit(self._deep_circuit())
        dag.successors(0)  # builds the lazy link arrays
        restored = pickle.loads(pickle.dumps(dag))
        assert [str(i) for i in restored.instructions] == [
            str(i) for i in dag.instructions
        ]

    def test_deepcopy_with_cached_dag(self):
        import copy

        circuit = self._deep_circuit()
        circuit.dag()
        clone = copy.deepcopy(circuit)
        clone.h(0)
        assert clone.depth() == circuit.depth() + 1
