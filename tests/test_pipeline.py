"""End-to-end tests for the baseline and Trios compilation pipelines."""

import pytest

from tests.conftest import assert_compilation_equivalent

from repro import QuantumCircuit, transpile
from repro.compiler import check_connectivity, gate_reduction
from repro.exceptions import TranspilerError
from repro.hardware import clusters, grid, johannesburg, line


def single_toffoli(name="toffoli"):
    circuit = QuantumCircuit(3, name)
    circuit.ccx(0, 1, 2)
    return circuit


def small_program():
    circuit = QuantumCircuit(4, "small_program")
    circuit.h(0).cx(0, 1).ccx(0, 1, 2).t(2).cx(2, 3).ccx(1, 2, 3)
    return circuit


class TestBaselinePipeline:
    def test_output_respects_coupling_map(self, johannesburg_map):
        result = transpile(small_program(), johannesburg_map, method="baseline", seed=1)
        assert check_connectivity(result.circuit, johannesburg_map) == []
        assert result.circuit.count_ops().get("ccx", 0) == 0
        assert result.circuit.count_ops().get("swap", 0) == 0

    def test_basis_is_hardware_native(self, johannesburg_map):
        result = transpile(small_program(), johannesburg_map, method="baseline", seed=1)
        names = set(result.circuit.count_ops())
        assert names <= {"u1", "u2", "u3", "cx", "measure", "barrier"}

    def test_semantics_preserved(self, johannesburg_map):
        logical = small_program()
        result = transpile(logical, johannesburg_map, method="baseline", seed=1)
        assert_compilation_equivalent(logical, result)

    @pytest.mark.parametrize("toffoli_mode", ["6cnot", "8cnot"])
    def test_toffoli_modes(self, johannesburg_map, toffoli_mode):
        result = transpile(
            single_toffoli(), johannesburg_map, method="baseline", toffoli_mode=toffoli_mode,
            layout={0: 5, 1: 6, 2: 7}, seed=1,
        )
        assert result.method == f"baseline-{toffoli_mode}"
        assert check_connectivity(result.circuit, johannesburg_map) == []

    def test_unknown_routing_policy_rejected(self, johannesburg_map):
        with pytest.raises(TranspilerError):
            transpile(single_toffoli(), johannesburg_map, method="baseline", routing="quantum")

    def test_stochastic_routing_reproducible(self, johannesburg_map):
        a = transpile(small_program(), johannesburg_map, method="baseline", seed=5)
        b = transpile(small_program(), johannesburg_map, method="baseline", seed=5)
        assert a.circuit == b.circuit


class TestTriosPipeline:
    def test_output_respects_coupling_map(self, johannesburg_map):
        result = transpile(small_program(), johannesburg_map, method="trios")
        assert check_connectivity(result.circuit, johannesburg_map) == []
        assert result.circuit.count_ops().get("ccx", 0) == 0

    def test_semantics_preserved(self, johannesburg_map):
        logical = small_program()
        result = transpile(logical, johannesburg_map, method="trios")
        assert_compilation_equivalent(logical, result)

    def test_semantics_preserved_on_line(self, line_map):
        logical = small_program()
        result = transpile(logical, line_map, method="trios")
        assert_compilation_equivalent(logical, result)

    def test_mapping_aware_legalization_adds_no_swaps(self, johannesburg_map):
        # With the mapping-aware second decomposition every emitted CNOT is
        # already legal, so the legalisation router must be a no-op.
        circuit = single_toffoli()
        trios = transpile(circuit, johannesburg_map, method="trios", layout={0: 0, 1: 4, 2: 15})
        trios_no_legalization_needed = transpile(
            circuit, johannesburg_map, method="trios", layout={0: 0, 1: 4, 2: 15},
            second_decomposition="mapping_aware",
        )
        assert trios.two_qubit_gate_count == trios_no_legalization_needed.two_qubit_gate_count

    @pytest.mark.parametrize("second", ["mapping_aware", "6cnot", "8cnot"])
    def test_second_decomposition_variants_are_correct(self, johannesburg_map, second):
        logical = single_toffoli()
        result = transpile(
            logical, johannesburg_map, method="trios", second_decomposition=second,
            layout={0: 6, 1: 17, 2: 3},
        )
        assert check_connectivity(result.circuit, johannesburg_map) == []
        assert_compilation_equivalent(logical, result)

    def test_mapping_aware_beats_forced_6cnot_off_triangle(self, johannesburg_map):
        placement = {0: 6, 1: 17, 2: 3}
        aware = transpile(single_toffoli(), johannesburg_map, method="trios",
                              second_decomposition="mapping_aware", layout=placement)
        forced = transpile(single_toffoli(), johannesburg_map, method="trios",
                               second_decomposition="6cnot", layout=placement)
        assert aware.two_qubit_gate_count <= forced.two_qubit_gate_count

    def test_unknown_second_decomposition_rejected(self, johannesburg_map):
        with pytest.raises(TranspilerError):
            transpile(
                single_toffoli(), johannesburg_map, method="trios",
                second_decomposition="9cnot",
            )


class TestPipelineComparison:
    def test_trios_reduces_cnots_for_distant_toffoli(self, johannesburg_map):
        placement = {0: 0, 1: 4, 2: 15}
        baseline = transpile(single_toffoli(), johannesburg_map, method="baseline",
                                    layout=placement, seed=2)
        trios = transpile(single_toffoli(), johannesburg_map, method="trios", layout=placement)
        assert trios.two_qubit_gate_count < baseline.two_qubit_gate_count
        assert gate_reduction(baseline, trios) > 0.2

    def test_trios_improves_estimated_success(self, johannesburg_map, hardware_calibration):
        placement = {0: 0, 1: 4, 2: 15}
        baseline = transpile(single_toffoli(), johannesburg_map, method="baseline",
                                    layout=placement, seed=2)
        trios = transpile(single_toffoli(), johannesburg_map, method="trios", layout=placement)
        assert trios.success_probability(hardware_calibration) > baseline.success_probability(
            hardware_calibration
        )

    def test_toffoli_free_circuit_compiles_identically(self, johannesburg_map):
        circuit = QuantumCircuit(5, "no_toffoli")
        circuit.h(0)
        for qubit in range(4):
            circuit.cx(qubit, qubit + 1)
        baseline = transpile(circuit, johannesburg_map, method="baseline", seed=9)
        trios = transpile(circuit, johannesburg_map, method="trios", seed=9)
        assert baseline.circuit == trios.circuit
        assert baseline.two_qubit_gate_count == trios.two_qubit_gate_count

    @pytest.mark.parametrize("builder", [johannesburg, grid, line, clusters])
    def test_both_pipelines_work_on_all_topologies(self, builder):
        device = builder()
        logical = small_program()
        for result in (
            transpile(logical, device, method="baseline", seed=3),
            transpile(logical, device, method="trios", seed=3),
        ):
            assert check_connectivity(result.circuit, device) == []
            assert_compilation_equivalent(logical, result)

    def test_transpile_dispatch(self, johannesburg_map):
        circuit = single_toffoli()
        assert transpile(circuit, johannesburg_map, method="trios").method.startswith("trios")
        assert transpile(circuit, johannesburg_map, method="baseline", seed=1).method.startswith(
            "baseline"
        )
        with pytest.raises(TranspilerError):
            transpile(circuit, johannesburg_map, method="magic")


class TestCompilationResult:
    def test_summary_and_metrics(self, johannesburg_map, hardware_calibration):
        result = transpile(small_program(), johannesburg_map, method="trios")
        summary = result.summary()
        assert summary["device"] == "ibmq-johannesburg"
        assert summary["two_qubit_gates"] == result.two_qubit_gate_count
        assert result.depth > 0
        assert result.duration(hardware_calibration) > 0
        estimate = result.success_estimate(hardware_calibration)
        assert 0 < estimate.probability < 1

    def test_noise_aware_options(self, johannesburg_map, hardware_calibration):
        noisy_calibration = hardware_calibration.with_edge_errors({(5, 6): 0.2})
        result = transpile(
            small_program(), johannesburg_map, method="trios", calibration=noisy_calibration,
            noise_aware=True, layout="noise",
        )
        assert check_connectivity(result.circuit, johannesburg_map) == []

    def test_noise_aware_requires_calibration(self, johannesburg_map):
        with pytest.raises(TranspilerError):
            transpile(small_program(), johannesburg_map, method="trios", noise_aware=True)
        with pytest.raises(TranspilerError):
            transpile(small_program(), johannesburg_map, method="baseline", layout="noise")
