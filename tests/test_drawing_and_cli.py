"""Tests for the text circuit drawer and the command-line interface."""

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.drawing import draw
from repro.experiments.cli import main


class TestDrawing:
    def test_every_qubit_gets_a_line(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).ccx(0, 1, 2)
        text = draw(circuit)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("q0")
        assert lines[2].startswith("q2")

    def test_gate_symbols_appear(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).ccx(0, 1, 2).measure(2, 0)
        text = draw(circuit)
        assert "h" in text
        assert "o" in text  # control dots
        assert "X" in text  # CNOT / Toffoli target
        assert "M" in text  # measurement

    def test_two_qubit_span_is_marked_on_intermediate_wires(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        text = draw(circuit)
        middle_line = text.splitlines()[1]
        assert "|" in middle_line

    def test_swap_symbols(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        text = draw(circuit)
        assert text.count("x") >= 2

    def test_long_circuit_is_truncated(self):
        circuit = QuantumCircuit(1)
        for _ in range(50):
            circuit.x(0)
        text = draw(circuit, max_columns=10)
        assert text.endswith("...")

    def test_parametric_gate_label(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.25, 0)
        assert "rz(0.25)" in draw(circuit)


class TestCli:
    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "cnx_dirty-11" in output
        assert "grovers-9" in output

    def test_toffoli_command_small(self, capsys):
        assert main(["toffoli", "--triplets", "3", "--shots", "64", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "[Figure 7]" in output
        assert "[Figure 6]" in output
        assert "[Figure 8]" in output
        assert "Geomean gate reduction" in output

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "--factors", "1", "20"]) == 0
        output = capsys.readouterr().out
        assert "[Figure 12]" in output
        assert "cnx_dirty-11" in output

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["figure42"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_list_backends(self, capsys):
        assert main(["--list-backends"]) == 0
        output = capsys.readouterr().out
        for name in ("failure", "trajectory", "density", "ideal"):
            assert name in output

    def test_compile_command_with_pipeline(self, capsys):
        assert main(["compile", "cnx_inplace-4", "--pipeline", "baseline",
                     "--topology", "line-20", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "'baseline' pipeline" in output
        assert "CNOTs" in output
        assert "analytic success" in output

    def test_compile_command_rejects_unknown_pipeline(self):
        with pytest.raises(SystemExit):
            main(["compile", "cnx_inplace-4", "--pipeline", "nonesuch"])

    def test_compile_command_has_no_jobs_option(self):
        # The level-3 search is one in-process loop; there is no worker count.
        with pytest.raises(SystemExit):
            main(["compile", "cnx_inplace-4", "--topology", "line-20",
                  "--optimization-level", "3", "--jobs", "2"])

    def test_toffoli_exact_density(self, capsys):
        assert main(["toffoli", "--triplets", "2", "--seed", "2", "--exact"]) == 0
        output = capsys.readouterr().out
        assert "exact probabilities, zero shot variance" in output
        assert "[Figure 6]" in output
        # The default 'failure' sampler cannot serve --exact; the CLI must
        # say so rather than silently switching engines.
        assert "using the 'density' backend" in output

    def test_density_backend_rejected_nowhere(self):
        # "density" must be a valid choice for every experiment subcommand.
        with pytest.raises(SystemExit):
            main(["toffoli", "--sampler", "nonesuch"])
        with pytest.raises(SystemExit):
            main(["benchmarks", "--backend", "nonesuch"])
