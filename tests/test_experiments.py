"""Tests for the experiment harnesses (Figures 6-12, Table 1)."""

import math

import pytest

from repro.bench_circuits import all_benchmark_statistics
from repro.experiments import (
    CONFIGURATIONS,
    compile_configuration,
    default_factors,
    geometric_mean,
    percent_change,
    percent_reduction,
    random_triplets,
    run_benchmark_experiment,
    run_sensitivity_experiment,
    run_toffoli_experiment,
    single_case,
    toffoli_test_circuit,
)
from repro.experiments.benchmarks import BenchmarkComparison, BenchmarkExperimentResult
from repro.experiments.report import (
    format_benchmark_normalized,
    format_benchmark_reduction,
    format_benchmark_success,
    format_sensitivity,
    format_table1,
    format_toffoli_gate_counts,
    format_toffoli_normalized,
    format_toffoli_success,
)
from repro.hardware import johannesburg


class TestStatsHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([5]) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_clamps_zero(self):
        assert geometric_mean([0.0, 1.0]) > 0.0

    def test_percent_helpers(self):
        assert percent_change(2.0, 3.0) == pytest.approx(0.5)
        assert percent_reduction(10, 6) == pytest.approx(0.4)
        assert percent_change(0.0, 1.0) == math.inf


class TestToffoliExperiment:
    def test_test_circuit_prepares_110(self):
        circuit = toffoli_test_circuit()
        names = [inst.name for inst in circuit.instructions]
        assert names.count("x") == 2
        assert names.count("ccx") == 1
        assert names.count("measure") == 3

    def test_random_triplets_are_distinct_qubits(self):
        for triplet in random_triplets(johannesburg(), 10, seed=1):
            assert len(set(triplet)) == 3

    def test_all_configurations_compile(self, johannesburg_map):
        placement = {0: 0, 1: 9, 2: 16}
        for configuration in CONFIGURATIONS:
            result = compile_configuration(configuration, johannesburg_map, placement, seed=0)
            assert result.two_qubit_gate_count > 0

    def test_small_run_reproduces_headline_shape(self):
        result = run_toffoli_experiment(num_triplets=6, shots=256, seed=4)
        assert len(result.rows) == 6
        # Trios (8-CNOT) uses fewer CNOTs than the Qiskit baseline on average.
        assert result.geomean_cnots("Trios (8-CNOT Toffoli)") < result.geomean_cnots(
            "Qiskit (baseline)"
        )
        assert result.gate_reduction() > 0.1
        # And its measured success rate is at least as good.
        assert result.geomean_improvement() > 1.0
        for row in result.rows:
            for configuration in CONFIGURATIONS:
                assert 0.0 <= row.success_rates[configuration] <= 1.0

    def test_single_case_walkthrough(self):
        summary = single_case()
        assert summary["Trios (8-CNOT Toffoli)"]["swaps"] < summary["Qiskit (baseline)"]["swaps"]

    def test_reports_render(self):
        result = run_toffoli_experiment(num_triplets=3, shots=64, seed=2)
        for formatter in (format_toffoli_gate_counts, format_toffoli_success,
                          format_toffoli_normalized):
            text = formatter(result)
            assert "geo-mean" in text


class TestBenchmarkExperiment:
    @pytest.fixture(scope="class")
    def small_result(self):
        return run_benchmark_experiment(
            benchmarks=["cnx_dirty-11", "cuccaro_adder-20", "bv-20"]
        )

    def test_covers_all_four_topologies(self, small_result):
        assert sorted(small_result.topologies()) == sorted(
            ["ibmq-johannesburg", "full-grid-5x4", "line-20", "clusters-5x4"]
        )

    def test_toffoli_benchmarks_improve(self, small_result):
        for topology in small_result.topologies():
            row = small_result.row(topology, "cnx_dirty-11")
            assert row.cnot_reduction > 0.0
            assert row.success_ratio >= 1.0

    def test_toffoli_free_benchmarks_are_unchanged(self, small_result):
        for topology in small_result.topologies():
            row = small_result.row(topology, "bv-20")
            assert row.cnot_reduction == pytest.approx(0.0)
            assert row.success_ratio == pytest.approx(1.0)

    def test_geomeans_positive(self, small_result):
        for topology in small_result.topologies():
            assert small_result.geomean_cnot_reduction(topology) > 0.0
            assert small_result.geomean_success_ratio(topology) >= 1.0
            assert 0 < small_result.geomean_success(topology, "trios") <= 1.0

    def test_reports_render(self, small_result):
        for formatter in (format_benchmark_success, format_benchmark_reduction,
                          format_benchmark_normalized):
            assert "cnx_dirty-11" in formatter(small_result)


def test_reports_render_a_topology_with_no_simulated_rows():
    # An exact backend that cannot reach any cell of one topology leaves its
    # column empty (``repro benchmarks --benchmarks grovers-9 cnx_dirty-11
    # --exact --backend ptm`` on ibmq-johannesburg); the geo-mean over it is
    # undefined, so it reads "—" with its row count instead of raising.
    def row(topology, benchmark):
        return BenchmarkComparison(
            benchmark=benchmark, topology=topology, baseline_cnots=100, trios_cnots=60,
            baseline_success=0.2, trios_success=0.4, baseline_depth=50, trios_depth=40,
        )

    result = BenchmarkExperimentResult(
        calibration_name="test",
        comparisons={
            "ibmq-johannesburg": {},
            "line-20": {name: row("line-20", name) for name in ("grovers-9", "cnx_dirty-11")},
        },
    )
    success = format_benchmark_success(result)
    assert success.count("— (0 rows)") == 2
    assert "0.2000" in success and "0.4000" in success
    for formatter, value in ((format_benchmark_reduction, "40.0%"),
                             (format_benchmark_normalized, "2.00x")):
        text = formatter(result)
        geomean = [line for line in text.splitlines() if line.startswith("geo-mean")]
        assert len(geomean) == 1 and "— (0 rows)" in geomean[0] and value in geomean[0]
        # The empty first column does not hide the other column's rows.
        assert "grovers-9" in text and "cnx_dirty-11" in text


class TestSensitivityExperiment:
    def test_ratio_decreases_as_errors_improve(self):
        result = run_sensitivity_experiment(
            benchmarks=["cnx_dirty-11"], factors=[1.0, 20.0, 100.0]
        )
        curve = result.curves["cnx_dirty-11"]
        assert curve.ratios[0] >= curve.ratios[-1]
        assert curve.ratios[-1] >= 1.0
        assert curve.ratio_at(20.0) == curve.ratios[1]

    def test_default_factors_are_log_spaced(self):
        factors = default_factors(5, maximum=100.0)
        assert factors[0] == pytest.approx(1.0)
        assert factors[-1] == pytest.approx(100.0)
        assert len(factors) == 5

    def test_report_renders(self):
        result = run_sensitivity_experiment(
            benchmarks=["cnx_dirty-11"], factors=[1.0, 10.0]
        )
        assert "cnx_dirty-11" in format_sensitivity(result)


class TestTable1Report:
    def test_table1_lists_all_benchmarks(self):
        text = format_table1(all_benchmark_statistics())
        for name in ("cnx_dirty-11", "grovers-9", "bv-20"):
            assert name in text
