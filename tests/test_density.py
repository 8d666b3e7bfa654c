"""Tests for the exact density-matrix backend (``repro.sim.density``).

Three pillars:

1. **Noiseless exactness** — with no calibration the density evolution must
   reproduce the statevector distribution bit for bit (hypothesis over random
   circuits).
2. **Noise semantics** — closed-form single-gate/readout/decoherence cases,
   and the headline acceptance check: on the Figure 6-8 Toffoli workloads the
   trajectory sampler's empirical distribution must agree with the exact one
   within 3σ of its own shot noise (they model identical physics).
3. **Backend plumbing** — registry, exact experiment modes, multiprocess
   pickling, and deterministic (variance-free) exact sweeps.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.exceptions import ReproError, SimulationError
from repro.experiments.benchmarks import (
    compile_benchmark_cached,
    run_benchmark_experiment,
)
from repro.experiments.toffoli import (
    CONFIGURATIONS,
    compile_configuration,
    run_toffoli_experiment,
)
from repro.hardware import johannesburg
from repro.sim import (
    BACKEND_NAMES,
    DensityMatrixSimulator,
    PauliTrajectorySampler,
    StatevectorSimulator,
    get_backend,
    supports_exact_probabilities,
)
from repro.sim.estimator import circuit_duration

#: Small Figure 6-8 triplets whose four compiled configurations stay within
#: the dense density-matrix limit (verified sizes 3-6 active qubits).
SMALL_TRIPLETS = [(0, 1, 2), (0, 5, 6), (2, 6, 10)]


def toffoli_workload() -> QuantumCircuit:
    """A decomposed |110⟩-input Toffoli plus a spectator CNOT (4 qubits)."""
    circuit = QuantumCircuit(4)
    circuit.x(0).x(1)
    circuit.h(2).cx(1, 2).tdg(2).cx(0, 2).t(2).cx(1, 2).tdg(2).cx(0, 2)
    circuit.t(1).t(2).h(2).cx(0, 1).t(0).tdg(1).cx(0, 1)
    circuit.cx(2, 3)
    return circuit


# ----------------------------------------------------------------------
# 1. Noiseless exactness
# ----------------------------------------------------------------------
class TestNoiselessEquality:
    def test_matches_statevector_on_fixed_circuits(self):
        for build in (toffoli_workload, self._ghz, self._parametric):
            circuit = build()
            expected = StatevectorSimulator().run_probabilities(circuit)
            actual = DensityMatrixSimulator().run_probabilities(circuit)
            assert set(actual) == set(expected)
            for key, probability in expected.items():
                assert actual[key] == pytest.approx(probability, abs=1e-12)

    @staticmethod
    def _ghz() -> QuantumCircuit:
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 1).cx(1, 2).cx(2, 3)
        return circuit

    @staticmethod
    def _parametric() -> QuantumCircuit:
        circuit = QuantumCircuit(2)
        circuit.rx(0.7, 0).rz(1.1, 1).cx(0, 1).u3(0.3, 0.9, 1.7, 0)
        return circuit

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_statevector_on_random_circuits(self, data):
        gates_1q = ["h", "x", "t", "s", "sdg"]
        num_qubits = data.draw(st.integers(2, 4))
        circuit = QuantumCircuit(num_qubits)
        for _ in range(data.draw(st.integers(1, 12))):
            if data.draw(st.booleans()):
                gate = data.draw(st.sampled_from(gates_1q))
                getattr(circuit, gate)(data.draw(st.integers(0, num_qubits - 1)))
            else:
                control = data.draw(st.integers(0, num_qubits - 1))
                target = data.draw(
                    st.integers(0, num_qubits - 1).filter(lambda q: q != control)
                )
                circuit.cx(control, target)
        expected = StatevectorSimulator().run_probabilities(circuit)
        actual = DensityMatrixSimulator().run_probabilities(circuit)
        for key in set(expected) | set(actual):
            assert actual.get(key, 0.0) == pytest.approx(
                expected.get(key, 0.0), abs=1e-9
            )

    def test_evolve_returns_the_pure_density_matrix(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        rho = DensityMatrixSimulator().evolve(circuit)
        state = StatevectorSimulator().run(circuit)
        assert np.allclose(rho, np.outer(state, state.conj()))
        assert np.trace(rho).real == pytest.approx(1.0)


# ----------------------------------------------------------------------
# 2. Noise semantics
# ----------------------------------------------------------------------
class TestNoiseSemantics:
    def test_single_gate_depolarizing_closed_form(self, hardware_calibration):
        """After X with error p, P(0) = 2p/3 (X/Y flip back, Z does not)."""
        circuit = QuantumCircuit(1)
        circuit.x(0)
        backend = DensityMatrixSimulator(
            hardware_calibration,
            include_decoherence=False,
            include_readout_error=False,
        )
        p = hardware_calibration.one_qubit_gate_error
        probs = backend.run_probabilities(circuit)
        assert probs["0"] == pytest.approx(2 * p / 3)
        assert probs["1"] == pytest.approx(1 - 2 * p / 3)

    def test_readout_only_closed_form(self, hardware_calibration):
        quiet = replace(
            hardware_calibration,
            t1=1e9, t2=1e9,
            one_qubit_gate_error=0.0, two_qubit_gate_error=0.0,
            readout_error=0.08,
        )
        circuit = QuantumCircuit(2)
        circuit.x(0).x(1)
        probs = DensityMatrixSimulator(quiet).run_probabilities(circuit)
        r = 0.08
        assert probs["11"] == pytest.approx((1 - r) ** 2)
        assert probs["00"] == pytest.approx(r**2)
        assert probs["01"] == pytest.approx(r * (1 - r))

    def test_global_decoherence_mixes_with_uniform(self, hardware_calibration):
        quiet = replace(
            hardware_calibration,
            one_qubit_gate_error=0.0, two_qubit_gate_error=0.0, readout_error=0.0,
        )
        circuit = QuantumCircuit(2)
        circuit.x(0).x(1)
        duration = circuit_duration(circuit, quiet)
        failure = quiet.decoherence_failure_probability(duration)
        probs = DensityMatrixSimulator(quiet).run_probabilities(circuit)
        assert probs["11"] == pytest.approx((1 - failure) + failure / 4)
        assert probs["00"] == pytest.approx(failure / 4)

    def test_damping_mode_is_a_distribution_and_decays(self, hardware_calibration):
        circuit = toffoli_workload()
        backend = DensityMatrixSimulator(hardware_calibration, decoherence="damping")
        probs = backend.run_probabilities(circuit)
        assert sum(probs.values()) == pytest.approx(1.0)
        noiseless = DensityMatrixSimulator().run_probabilities(circuit)
        best = max(noiseless, key=noiseless.get)
        assert probs[best] < noiseless[best]

    def test_unknown_decoherence_mode_rejected(self, hardware_calibration):
        with pytest.raises(SimulationError):
            DensityMatrixSimulator(hardware_calibration, decoherence="bogus")

    def test_exact_distribution_agrees_with_trajectory_on_fig6_workloads(
        self, hardware_calibration
    ):
        """3σ TVD agreement on the compiled Figure 6-8 Toffoli workloads.

        The trajectory sampler draws from exactly the distribution the density
        backend computes, so the empirical TVD must stay within 3x its own
        expected shot-noise scale, and the success probability within 3σ of
        a Bernoulli estimate.  Besides the compiled Toffoli configurations,
        the raw 4-qubit Toffoli and the compiled ``cnx_inplace-4`` sweep cell
        (success = its most likely outcome) are checked the same way.
        """
        coupling_map = johannesburg()
        shots = 4096
        cases = [("toffoli-4q", toffoli_workload(), [0, 1, 2], "110")]
        for triplet in SMALL_TRIPLETS:
            placement = {0: triplet[0], 1: triplet[1], 2: triplet[2]}
            for configuration in CONFIGURATIONS:
                compiled = compile_configuration(
                    configuration, coupling_map, placement, seed=7
                )
                cases.append((
                    (triplet, configuration),
                    compiled.circuit.without(["measure"]),
                    compiled.physical_qubits_of([0, 1, 2]),
                    "111",
                ))
        compiled = compile_benchmark_cached("cnx_inplace-4", coupling_map, "trios", 11)
        cases.append((
            "cnx_inplace-4",
            compiled.circuit.without(["measure"]),
            compiled.physical_qubits_of([0, 1, 2, 3]),
            None,
        ))
        for label, circuit, measured, success in cases:
            exact = DensityMatrixSimulator(hardware_calibration).run_probabilities(
                circuit, measured_qubits=measured
            )
            sampled = PauliTrajectorySampler(
                hardware_calibration, seed=13
            ).run_counts(circuit, shots=shots, measured_qubits=measured)
            success = success or max(exact, key=exact.get)
            # Success probability: 3σ Bernoulli band.
            p = exact.get(success, 0.0)
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(sampled.success_rate(success) - p) <= 3 * sigma + 1e-12, label
            # Whole distribution: 3x the expected multinomial TVD scale.
            keys = set(exact) | set(sampled.counts)
            tvd = 0.5 * sum(
                abs(exact.get(k, 0.0) - sampled.counts.get(k, 0) / shots)
                for k in keys
            )
            tvd_scale = 0.5 * sum(
                math.sqrt(exact.get(k, 0.0) * (1 - exact.get(k, 0.0)) / shots)
                for k in keys
            )
            assert tvd <= 3 * tvd_scale, (label, tvd, tvd_scale)
        assert len(cases) == len(SMALL_TRIPLETS) * len(CONFIGURATIONS) + 2


# ----------------------------------------------------------------------
# 3. Backend plumbing
# ----------------------------------------------------------------------
class TestBackendPlumbing:
    def test_registry_and_capabilities(self, hardware_calibration):
        assert "density" in BACKEND_NAMES
        backend = get_backend("density", hardware_calibration, seed=3)
        assert isinstance(backend, DensityMatrixSimulator)
        assert supports_exact_probabilities(backend)
        assert supports_exact_probabilities(get_backend("ideal"))
        assert not supports_exact_probabilities(
            get_backend("trajectory", hardware_calibration)
        )

    def test_density_requires_calibration(self):
        with pytest.raises(SimulationError, match="requires a device calibration"):
            get_backend("density")

    def test_unknown_backend_lists_the_registry(self):
        with pytest.raises(SimulationError) as excinfo:
            get_backend("nonesuch")
        message = str(excinfo.value)
        for name in BACKEND_NAMES:
            assert name in message

    def test_run_counts_multinomial(self, hardware_calibration):
        backend = get_backend("density", hardware_calibration)
        circuit = toffoli_workload()
        result = backend.run_counts(circuit, shots=512, seed=21)
        assert sum(result.counts.values()) == 512
        assert result.measured_qubits == (0, 1, 2, 3)
        again = backend.run_counts(circuit, shots=512, seed=21)
        assert again.counts == result.counts
        with pytest.raises(SimulationError):
            backend.run_counts(circuit, shots=0)

    def test_counts_converge_to_exact_distribution(self, hardware_calibration):
        backend = get_backend("density", hardware_calibration, seed=5)
        circuit = toffoli_workload()
        exact = backend.run_probabilities(circuit)
        shots = 8192
        counts = backend.run_counts(circuit, shots=shots, seed=5).counts
        for key, probability in exact.items():
            sigma = math.sqrt(probability * (1 - probability) / shots)
            assert abs(counts.get(key, 0) / shots - probability) <= 4 * sigma + 1e-9

    def test_max_active_qubits_enforced(self, hardware_calibration):
        backend = DensityMatrixSimulator(hardware_calibration, max_active_qubits=3)
        with pytest.raises(SimulationError, match="active qubits exceeds"):
            backend.run_probabilities(toffoli_workload())

    def test_success_probability_shortcut(self, hardware_calibration):
        backend = DensityMatrixSimulator(hardware_calibration)
        circuit = toffoli_workload()
        probs = backend.run_probabilities(circuit)
        best = max(probs, key=probs.get)
        assert backend.success_probability(circuit, best) == pytest.approx(probs[best])
        assert backend.success_probability(circuit, "0" * 4) == probs.get("0000", 0.0)

    def test_backend_pickles_for_the_jobs_pool(self, hardware_calibration):
        backend = get_backend("density", hardware_calibration, seed=9)
        circuit = toffoli_workload()
        warm = backend.run_probabilities(circuit)  # warm every channel cache
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.run_probabilities(circuit) == warm

    def test_statevector_run_probabilities_reduces_like_run_counts(self):
        wide = QuantumCircuit(10)
        wide.x(7).h(2).cx(2, 5)
        probs = StatevectorSimulator().run_probabilities(wide, measured_qubits=[7, 2, 5])
        assert probs["100"] == pytest.approx(0.5)
        assert probs["111"] == pytest.approx(0.5)


class TestExactExperimentModes:
    def test_exact_toffoli_experiment_has_zero_variance(self, hardware_calibration):
        runs = [
            run_toffoli_experiment(
                calibration=hardware_calibration,
                triplets=SMALL_TRIPLETS[:2],
                shots=8,
                seed=4,
                sampler="density",
                exact=True,
            )
            for _ in range(2)
        ]
        assert runs[0].exact and runs[1].exact
        assert len(runs[0].rows) == 2
        for row_a, row_b in zip(runs[0].rows, runs[1].rows):
            assert row_a.success_rates == row_b.success_rates
            assert all(0.0 <= p <= 1.0 for p in row_a.success_rates.values())

    def test_exact_requires_probability_backend(self, hardware_calibration):
        with pytest.raises(ReproError, match="analytic run_probabilities"):
            run_toffoli_experiment(
                calibration=hardware_calibration,
                triplets=SMALL_TRIPLETS[:1],
                sampler="failure",
                exact=True,
            )

    def test_oversized_triplets_are_skipped_with_a_warning(self, hardware_calibration):
        with pytest.warns(RuntimeWarning, match="skipping triplet"):
            result = run_toffoli_experiment(
                calibration=hardware_calibration,
                triplets=[(0, 4, 15), SMALL_TRIPLETS[0]],
                seed=7,
                sampler="density",
                exact=True,
            )
        assert [row.triplet for row in result.rows] == [SMALL_TRIPLETS[0]]

    def test_exact_with_sampler_backend_fails_before_compiling(self):
        # The guard must fire up front (by name), not per cell in the pool.
        with pytest.raises(ReproError, match="analytic run_probabilities"):
            run_benchmark_experiment(
                topologies={"ibmq-johannesburg": johannesburg},
                benchmarks=["cnx_inplace-4"],
                backend="failure",
                exact=True,
                jobs=2,
            )

    def test_exact_benchmark_sweep_parallel_equals_serial(self):
        kwargs = dict(
            topologies={"ibmq-johannesburg": johannesburg},
            benchmarks=["cnx_inplace-4"],
            seed=11,
            backend="density",
            exact=True,
        )
        serial = run_benchmark_experiment(jobs=1, **kwargs)
        parallel = run_benchmark_experiment(jobs=2, **kwargs)
        row_s = serial.row("ibmq-johannesburg", "cnx_inplace-4")
        row_p = parallel.row("ibmq-johannesburg", "cnx_inplace-4")
        assert row_s.baseline_success == row_p.baseline_success
        assert row_s.trios_success == row_p.trios_success
        assert 0.0 < row_s.baseline_success <= 1.0

    def test_all_triplets_skipped_raises_instead_of_empty_aggregates(
        self, hardware_calibration
    ):
        with pytest.warns(RuntimeWarning, match="skipping triplet"):
            with pytest.raises(ReproError, match="could not simulate any"):
                run_toffoli_experiment(
                    calibration=hardware_calibration,
                    triplets=[(0, 4, 15)],  # activates 8-14 qubits when routed
                    seed=7,
                    sampler="density",
                    exact=True,
                )

    def test_exact_with_analytic_backend_is_rejected(self):
        with pytest.raises(ReproError, match="analytic"):
            run_benchmark_experiment(
                topologies={"ibmq-johannesburg": johannesburg},
                benchmarks=["cnx_inplace-4"],
                backend="analytic",
                exact=True,
            )
