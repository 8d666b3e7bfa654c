"""Integration tests: the full benchmark suite through both compilers.

These exercise the complete stack — benchmark generators, both pipelines, the
connectivity checker and the noisy samplers — on the actual Table 1 workloads,
and verify end-to-end program semantics (Grover still finds its marked item,
Bernstein–Vazirani still recovers its secret) after compilation.
"""

import pytest

from repro.bench_circuits import (
    PAPER_BENCHMARKS,
    TOFFOLI_FREE_BENCHMARKS,
    bernstein_vazirani,
    get_benchmark,
    grovers,
)
from repro.compiler import check_connectivity, transpile
from repro.hardware import grid, johannesburg, near_term_calibration
from repro.sim import GateFailureSampler

DEVICE = johannesburg()
CALIBRATION = near_term_calibration()
#: A noiseless device model, for checking semantics of compiled circuits.
PERFECT = near_term_calibration().improved(1e12)


class TestFullSuiteCompiles:
    @pytest.mark.parametrize("name", sorted(PAPER_BENCHMARKS))
    def test_trios_compiles_every_benchmark(self, name):
        circuit = get_benchmark(name)
        result = transpile(circuit, DEVICE, method="trios", seed=1)
        assert check_connectivity(result.circuit, DEVICE) == []
        counts = result.circuit.count_ops()
        assert counts.get("ccx", 0) == 0 and counts.get("ccz", 0) == 0
        assert counts.get("swap", 0) == 0
        assert 0.0 < result.success_probability(CALIBRATION) <= 1.0

    @pytest.mark.parametrize("name", sorted(PAPER_BENCHMARKS))
    def test_baseline_compiles_every_benchmark(self, name):
        circuit = get_benchmark(name)
        result = transpile(circuit, DEVICE, method="baseline", seed=1)
        assert check_connectivity(result.circuit, DEVICE) == []
        assert result.circuit.count_ops().get("ccx", 0) == 0

    @pytest.mark.parametrize(
        "name", ["cnx_dirty-11", "cnx_halfborrowed-19", "cnx_logancilla-19", "grovers-9"]
    )
    def test_trios_reduces_cnots_on_cnx_style_benchmarks(self, name):
        circuit = get_benchmark(name)
        baseline = transpile(circuit, DEVICE, method="baseline", seed=1)
        trios = transpile(circuit, DEVICE, method="trios", seed=1)
        assert trios.two_qubit_gate_count < baseline.two_qubit_gate_count

    @pytest.mark.parametrize("name", TOFFOLI_FREE_BENCHMARKS)
    def test_toffoli_free_benchmarks_identical_under_both_pipelines(self, name):
        circuit = get_benchmark(name)
        baseline = transpile(circuit, DEVICE, method="baseline", seed=4)
        trios = transpile(circuit, DEVICE, method="trios", seed=4)
        assert baseline.circuit == trios.circuit


class TestCompiledSemantics:
    def test_compiled_grover_still_finds_marked_item(self):
        program = grovers(4)
        result = transpile(program, grid(), method="trios", seed=2)
        sampler = GateFailureSampler(PERFECT, seed=0, include_readout_error=False)
        measured = result.physical_qubits_of(list(range(4)))
        counts = sampler.run(result.circuit, shots=300, measured_qubits=measured)
        assert counts.success_rate("1111") > 0.9

    def test_compiled_bv_recovers_secret(self):
        secret = "110101"
        program = bernstein_vazirani(7, secret=secret)
        result = transpile(program, DEVICE, method="trios", seed=2)
        sampler = GateFailureSampler(PERFECT, seed=0, include_readout_error=False)
        measured = result.physical_qubits_of(list(range(6)))
        counts = sampler.run(result.circuit, shots=100, measured_qubits=measured)
        assert counts.success_rate(secret) > 0.99

    def test_compiled_toffoli_truth_table_on_hardware_wires(self):
        from repro.circuits import QuantumCircuit

        program = QuantumCircuit(3, "and_gate")
        program.x(0)
        program.x(1)
        program.ccx(0, 1, 2)
        result = transpile(program, DEVICE, method="trios", layout={0: 0, 1: 4, 2: 15})
        sampler = GateFailureSampler(PERFECT, seed=0, include_readout_error=False)
        measured = result.physical_qubits_of([0, 1, 2])
        counts = sampler.run(result.circuit, shots=100, measured_qubits=measured)
        assert counts.success_rate("111") > 0.99
