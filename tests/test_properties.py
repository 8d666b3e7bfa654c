"""Property-based tests (hypothesis) on the core data structures and passes.

Invariants checked on randomly generated circuits and placements:

* decomposition to the hardware basis never changes the circuit's unitary;
* optimisation passes never change the unitary and never add two-qubit gates;
* both compilation pipelines always emit circuits that respect the coupling
  map and preserve the program semantics (up to the routing permutation);
* the Trios router always delivers each Toffoli onto a connected trio;
* the layout passes always produce a valid bijection.
"""

from __future__ import annotations


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import assert_compilation_equivalent

from repro import QuantumCircuit, transpile
from repro.compiler import check_connectivity
from repro.hardware import grid, johannesburg, line
from repro.passes import (
    CancelAdjacentInversesPass,
    Consolidate1qRunsPass,
    DecomposeToBasisPass,
    GreedyInteractionLayoutPass,
    PropertySet,
)
from repro.sim import circuits_equivalent

DEVICES = {"johannesburg": johannesburg(), "grid": grid(), "line": line()}

_ONE_QUBIT_GATES = ("h", "x", "t", "tdg", "s", "z")
_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_circuits(draw, max_qubits: int = 4, max_gates: int = 10):
    """Random circuits over {1q Cliffords+T, CX, CCX} on up to ``max_qubits`` qubits."""
    num_qubits = draw(st.integers(min_value=3, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, "random")
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(["1q", "2q", "3q"]))
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_qubits - 1),
                min_size=3, max_size=3, unique=True,
            )
        )
        if kind == "1q":
            name = draw(st.sampled_from(_ONE_QUBIT_GATES))
            getattr(circuit, name)(qubits[0])
        elif kind == "2q":
            circuit.cx(qubits[0], qubits[1])
        else:
            circuit.ccx(qubits[0], qubits[1], qubits[2])
    return circuit


class TestDecompositionProperties:
    @given(circuit=small_circuits())
    @settings(**_SETTINGS)
    def test_basis_decomposition_preserves_unitary(self, circuit):
        decomposed = DecomposeToBasisPass().run(circuit, PropertySet())
        assert {inst.name for inst in decomposed.instructions} <= {"u1", "u2", "u3", "cx"}
        assert circuits_equivalent(circuit, decomposed)

    @given(circuit=small_circuits())
    @settings(**_SETTINGS)
    def test_keeping_toffolis_preserves_unitary(self, circuit):
        kept = DecomposeToBasisPass(keep=("ccx", "ccz")).run(circuit, PropertySet())
        assert circuits_equivalent(circuit, kept)


class TestOptimizationProperties:
    @given(circuit=small_circuits(max_gates=14))
    @settings(**_SETTINGS)
    def test_cancellation_preserves_unitary_and_never_grows(self, circuit):
        optimized = CancelAdjacentInversesPass().run(circuit, PropertySet())
        assert len(optimized) <= len(circuit)
        assert circuits_equivalent(circuit, optimized)

    @given(circuit=small_circuits(max_gates=14))
    @settings(**_SETTINGS)
    def test_consolidation_preserves_unitary_and_2q_count(self, circuit):
        optimized = Consolidate1qRunsPass().run(circuit, PropertySet())
        assert optimized.two_qubit_gate_count() == circuit.two_qubit_gate_count()
        assert circuits_equivalent(circuit, optimized)


class TestLayoutProperties:
    @given(circuit=small_circuits(), device=st.sampled_from(sorted(DEVICES)))
    @settings(**_SETTINGS)
    def test_greedy_layout_is_a_bijection_onto_the_device(self, circuit, device):
        coupling_map = DEVICES[device]
        properties = PropertySet()
        GreedyInteractionLayoutPass(coupling_map).run(circuit, properties)
        layout = properties["layout"]
        placements = [layout.physical(q) for q in range(circuit.num_qubits)]
        assert len(set(placements)) == circuit.num_qubits
        assert all(0 <= p < coupling_map.num_qubits for p in placements)


class TestPipelineProperties:
    @given(
        circuit=small_circuits(max_gates=8),
        device=st.sampled_from(sorted(DEVICES)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(**_SETTINGS)
    def test_baseline_pipeline_is_sound(self, circuit, device, seed):
        coupling_map = DEVICES[device]
        result = transpile(circuit, coupling_map, method="baseline", seed=seed)
        assert check_connectivity(result.circuit, coupling_map) == []
        assert_compilation_equivalent(circuit, result, trials=1)

    @given(
        circuit=small_circuits(max_gates=8),
        device=st.sampled_from(sorted(DEVICES)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(**_SETTINGS)
    def test_trios_pipeline_is_sound(self, circuit, device, seed):
        coupling_map = DEVICES[device]
        result = transpile(circuit, coupling_map, method="trios", seed=seed)
        assert check_connectivity(result.circuit, coupling_map) == []
        assert_compilation_equivalent(circuit, result, trials=1)

    @given(
        placement=st.lists(st.integers(min_value=0, max_value=19),
                           min_size=3, max_size=3, unique=True),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(**_SETTINGS)
    def test_trios_never_uses_more_cnots_for_a_single_toffoli(self, placement, seed):
        coupling_map = DEVICES["johannesburg"]
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        layout = {i: placement[i] for i in range(3)}
        # Under deterministic routing the paper's claim holds exactly.
        baseline = transpile(
            circuit, coupling_map, method="baseline", layout=layout, routing="greedy", seed=seed
        )
        trios = transpile(
            circuit, coupling_map, method="trios", layout=layout, routing="greedy", seed=seed
        )
        assert trios.two_qubit_gate_count <= baseline.two_qubit_gate_count
        # Stochastic routing draws each pipeline's tied shortest paths
        # independently, so an unlucky trios draw can trail a lucky baseline
        # draw by up to one SWAP on adversarial placements (e.g. placement
        # [12, 0, 16] with seed 1 gives 26 vs 24, identically on the
        # pre-DAG-IR pipelines).
        baseline = transpile(circuit, coupling_map, method="baseline", layout=layout, seed=seed)
        trios = transpile(circuit, coupling_map, method="trios", layout=layout, seed=seed)
        assert trios.two_qubit_gate_count <= baseline.two_qubit_gate_count + 3
