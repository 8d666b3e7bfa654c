"""Tests for the Pauli-transfer-matrix backend (``repro.sim.ptm``).

Three layers of evidence that ``"ptm"`` is an exact drop-in for
``"density"``:

1. the basis change itself — PTM ↔ superoperator round-trips for every
   channel constructor (hypothesis, full parameter ranges) and closed-form
   PTMs for the channels with textbook forms;
2. the engine — noiseless agreement with the statevector and ``1e-9``
   agreement with the density backend on the compiled Figure 6-8 cells,
   with fusion on or off;
3. the plumbing — registry construction, capability classification, the
   fusion knob and the error paths.

The live-set engine (``repro.sim.ptm.evolve_live``) is checked against a
full-width Pauli-vector reference kept in this file, which carries every
qubit for the whole circuit, to ``1e-12``, and against the density backend
to ``1e-9``.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits import QuantumCircuit
from repro.exceptions import SimulationError
from repro.experiments.benchmarks import compile_benchmark_cached
from repro.experiments.toffoli import CONFIGURATIONS, compile_configuration
from repro.hardware import johannesburg, johannesburg_aug19_2020
from repro.sim import (
    DensityMatrixSimulator,
    PauliTransferMatrixSimulator,
    StatevectorSimulator,
    get_backend,
    supports_exact_probabilities,
)
from repro.sim.channels import (
    amplitude_damping_channel,
    amplitude_phase_damping_channel,
    depolarizing_channel,
    idle_channel,
    pauli_basis_matrix,
    pauli_channel,
    pauli_matrix,
    phase_damping_channel,
    ptm_from_superoperator,
    unitary_channel,
    unitary_ptm,
)
from repro.sim.density import finish_exact_distribution
from repro.sim.ptm import evolve_live, fuse_ptm_ops, pauli_probabilities
from repro.sim.statevector import (
    apply_matrix,
    marginal_distribution,
    reduce_for_measurement,
    reduce_to_active_qubits,
)
from tests.test_density import SMALL_TRIPLETS, toffoli_workload

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


# ----------------------------------------------------------------------
# Full-width reference: the whole 4^n Pauli vector for the whole circuit
# ----------------------------------------------------------------------
def zero_pauli_state(num_qubits: int) -> np.ndarray:
    """``|0...0><0...0|`` as a flat real Pauli vector of length ``4**num_qubits``."""
    if num_qubits < 1:
        raise SimulationError("need at least one qubit")
    single = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    state = single
    for _ in range(num_qubits - 1):
        state = np.kron(state, single)
    return state


def ptm_wires(qubits):
    """Digit ``q`` of the ``(4,)*n`` tensor is bits ``2q`` and ``2q+1`` of ``(2,)*2n``."""
    return tuple(bit for q in qubits for bit in (2 * q, 2 * q + 1))


def apply_ptm(state, ptm, qubits, num_qubits):
    """Apply a ``4^k x 4^k`` PTM to ``qubits`` of a full-width Pauli vector."""
    k = len(qubits)
    if ptm.shape != (4**k, 4**k):
        raise SimulationError(f"PTM of shape {ptm.shape} does not act on {k} qubits")
    return apply_matrix(state, ptm, ptm_wires(qubits), 2 * num_qubits)


def full_width_evolve(simulator, circuit) -> np.ndarray:
    """Every qubit, every op, start to end: the reference Pauli vector."""
    ops = simulator.circuit_ops(circuit)
    if simulator.fuse:
        ops = fuse_ptm_ops(ops)
    state = zero_pauli_state(circuit.num_qubits)
    for qubits, ptm in ops:
        state = apply_ptm(state, ptm, qubits, circuit.num_qubits)
    return state


def full_width_probabilities(simulator, circuit, measured_qubits=None):
    """``run_probabilities`` by marginalising the full-width vector."""
    reduced, measured_qubits, compact = reduce_for_measurement(circuit, measured_qubits)
    state = full_width_evolve(simulator, reduced)
    distribution = marginal_distribution(
        pauli_probabilities(state, reduced.num_qubits), reduced.num_qubits, compact
    )
    distribution = finish_exact_distribution(
        distribution, circuit, simulator, len(measured_qubits)
    )
    if not measured_qubits:
        return {"": 1.0}
    width = len(measured_qubits)
    return {
        format(index, f"0{width}b"): float(probability)
        for index, probability in enumerate(distribution)
        if probability > 1e-15
    }


def worst_gap(a, b) -> float:
    keys = set(a) | set(b)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def assert_round_trips(channel) -> None:
    """PTM = A S A† must be real and invert back to the superoperator."""
    superoperator = channel.superoperator()
    ptm = channel.ptm()
    num_qubits = channel.num_qubits
    assert ptm.shape == (4**num_qubits, 4**num_qubits)
    assert ptm.dtype == np.float64
    basis = pauli_basis_matrix(num_qubits)
    recovered = basis.conj().T @ ptm @ basis
    assert np.abs(recovered - superoperator).max() < 1e-9, channel
    # Trace preservation reads as a [1, 0, ..., 0] top row in the Pauli basis.
    top = np.zeros(4**num_qubits)
    top[0] = 1.0
    assert np.abs(ptm[0] - top).max() < 1e-9, channel


class TestBasisChangeRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(p=probabilities, num_qubits=st.integers(1, 2))
    def test_depolarizing(self, p, num_qubits):
        assert_round_trips(depolarizing_channel(p, num_qubits))

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(probabilities, min_size=3, max_size=3))
    def test_pauli(self, weights):
        total = sum(weights) or 1.0
        scaled = [w / total * 0.9 for w in weights]
        channel = pauli_channel(
            {"X": scaled[0], "Y": scaled[1], "Z": scaled[2]}, num_qubits=1
        )
        assert_round_trips(channel)

    @settings(max_examples=60, deadline=None)
    @given(gamma=probabilities, lam=probabilities)
    def test_amplitude_phase_damping(self, gamma, lam):
        if gamma + lam > 1.0:
            gamma, lam = gamma / 2, lam / 2
        assert_round_trips(amplitude_phase_damping_channel(gamma, lam))

    @settings(max_examples=40, deadline=None)
    @given(gamma=probabilities)
    def test_amplitude_damping(self, gamma):
        assert_round_trips(amplitude_damping_channel(gamma))

    @settings(max_examples=40, deadline=None)
    @given(lam=probabilities)
    def test_phase_damping(self, lam):
        assert_round_trips(phase_damping_channel(lam))

    @settings(max_examples=40, deadline=None)
    @given(
        duration=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        t1=st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
        t2=st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
    )
    def test_idle(self, duration, t1, t2):
        assert_round_trips(idle_channel(duration, t1, min(t2, 2 * t1)))

    @settings(max_examples=40, deadline=None)
    @given(theta=angles, phi=angles, lam=angles)
    def test_unitary(self, theta, phi, lam):
        from repro.circuits.library import u3_gate

        assert_round_trips(unitary_channel(u3_gate(theta, phi, lam).matrix()))

    def test_every_calibrated_gate_channel(self):
        from repro.circuits.library import cx_gate, h_gate
        from repro.circuits.circuit import Instruction
        from repro.sim.channels import NoiseModel

        model = NoiseModel(johannesburg_aug19_2020())
        for gate, qubits in ((h_gate(), (0,)), (cx_gate(), (0, 1))):
            channel = model.gate_channel(Instruction(gate, qubits))
            if channel is not None:
                assert_round_trips(channel)

    def test_rejects_non_square_superoperator(self):
        with pytest.raises(SimulationError, match="4\\^k"):
            ptm_from_superoperator(np.eye(3))

    def test_rejects_non_hermiticity_preserving_map(self):
        # A superoperator with a complex PTM residue: vec-basis matrix units
        # are not Hermiticity-preserving.
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 0] = 1.0
        bad[1, 2] = 1.0j
        bad[2, 1] = 1.0j
        bad[3, 3] = 1.0
        with pytest.raises(SimulationError, match="Hermiticity"):
            ptm_from_superoperator(bad)


class TestClosedForms:
    def test_depolarizing_contracts_xyz_components(self):
        # This repo's depolarizing_channel(p) applies a uniformly random
        # *non-identity* Pauli with probability p, so each of X, Y, Z fires
        # with p/3 and the Bloch contraction is 1 - 4p/3 (the standard
        # "1 - p" form corresponds to the p' = 4p/3 parameterization).
        for p in (0.0, 0.1, 0.3, 0.75):
            contraction = 1.0 - 4.0 * p / 3.0
            expected = np.diag([1.0, contraction, contraction, contraction])
            assert np.abs(depolarizing_channel(p).ptm() - expected).max() < 1e-12

    def test_amplitude_damping_known_form(self):
        for gamma in (0.0, 0.2, 0.7, 1.0):
            s = math.sqrt(1.0 - gamma)
            expected = np.array(
                [
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, s, 0.0, 0.0],
                    [0.0, 0.0, s, 0.0],
                    [gamma, 0.0, 0.0, 1.0 - gamma],
                ]
            )
            actual = amplitude_damping_channel(gamma).ptm()
            assert np.abs(actual - expected).max() < 1e-12

    def test_phase_damping_known_form(self):
        for lam in (0.0, 0.4, 1.0):
            s = math.sqrt(1.0 - lam)
            expected = np.diag([1.0, s, s, 1.0])
            assert np.abs(phase_damping_channel(lam).ptm() - expected).max() < 1e-12

    def test_unitary_ptm_of_paulis_is_signature_diagonal(self):
        # Conjugation by X preserves I and X, flips Y and Z; etc.
        for label, signs in (
            ("X", [1, 1, -1, -1]),
            ("Y", [1, -1, 1, -1]),
            ("Z", [1, -1, -1, 1]),
            ("I", [1, 1, 1, 1]),
        ):
            actual = unitary_ptm(pauli_matrix(label))
            assert np.abs(actual - np.diag(signs)).max() < 1e-12

    def test_ptm_is_cached_on_the_channel(self):
        channel = depolarizing_channel(0.1)
        assert channel.ptm() is channel.ptm()

    def test_unitary_ptm_is_memoized(self):
        matrix = pauli_matrix("X")
        assert unitary_ptm(matrix) is unitary_ptm(matrix)


class TestPauliVectorPrimitives:
    def test_zero_state_reads_all_zeros(self):
        for n in (1, 2, 3):
            probabilities_ = pauli_probabilities(zero_pauli_state(n), n)
            expected = np.zeros(2**n)
            expected[0] = 1.0
            assert np.abs(probabilities_ - expected).max() < 1e-12

    def test_zero_state_normalization(self):
        # Tr(rho^2) = sum of squared Pauli coefficients = 1 for a pure state.
        for n in (1, 2, 4):
            assert abs(np.dot(zero_pauli_state(n), zero_pauli_state(n)) - 1.0) < 1e-12

    def test_ptm_wires_mapping(self):
        assert ptm_wires((0,)) == (0, 1)
        assert ptm_wires((2, 0)) == (4, 5, 0, 1)

    def test_apply_x_ptm_flips_outcome(self):
        state = zero_pauli_state(2)
        state = apply_ptm(state, unitary_ptm(pauli_matrix("X")), (1,), 2)
        probabilities_ = pauli_probabilities(state, 2)
        assert abs(probabilities_[0b01] - 1.0) < 1e-12

    def test_apply_ptm_rejects_wrong_shape(self):
        with pytest.raises(SimulationError, match="does not act on"):
            apply_ptm(zero_pauli_state(2), np.eye(4), (0, 1), 2)

    def test_zero_state_requires_a_qubit(self):
        with pytest.raises(SimulationError, match="at least one"):
            zero_pauli_state(0)


class TestFusion:
    def test_consecutive_1q_ops_fuse_to_one(self):
        a = unitary_ptm(pauli_matrix("X"))
        b = unitary_ptm(pauli_matrix("Z"))
        fused = fuse_ptm_ops([((0,), a), ((0,), b)])
        assert len(fused) == 1
        assert fused[0][0] == (0,)
        assert np.allclose(fused[0][1], b @ a)  # later op composes on the left

    def test_pending_1q_absorbed_into_2q_op(self):
        x = unitary_ptm(pauli_matrix("X"))
        cx = unitary_ptm(np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        ))
        fused = fuse_ptm_ops([((0,), x), ((0, 1), cx)])
        assert len(fused) == 1
        assert fused[0][0] == (0, 1)
        # First qubit is the most significant kron factor.
        assert np.allclose(fused[0][1], cx @ np.kron(x, np.eye(4)))

    def test_same_tuple_multi_qubit_ops_fuse(self):
        cx = unitary_ptm(np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        ))
        fused = fuse_ptm_ops([((0, 1), cx), ((0, 1), cx)])
        assert len(fused) == 1
        assert np.allclose(fused[0][1], cx @ cx)

    def test_trailing_1q_ops_flush(self):
        x = unitary_ptm(pauli_matrix("X"))
        fused = fuse_ptm_ops([((3,), x)])
        assert fused == [((3,), x)] or (
            fused[0][0] == (3,) and np.allclose(fused[0][1], x)
        )

    def test_fusion_never_changes_results(self):
        calibration = johannesburg_aug19_2020()
        circuit = toffoli_workload()
        with_fusion = PauliTransferMatrixSimulator(
            calibration, fuse=True
        ).run_probabilities(circuit)
        without = PauliTransferMatrixSimulator(
            calibration, fuse=False
        ).run_probabilities(circuit)
        assert set(with_fusion) == set(without)
        for key in without:
            assert abs(with_fusion[key] - without[key]) < 1e-12

    def test_reversed_pair_merges_into_its_predecessor(self):
        # cx(1, 0) written on the (0, 1) axes is the CNOT controlled by the
        # second qubit; the merged op must equal that product.
        cx = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        reversed_cx = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        z = unitary_ptm(pauli_matrix("Z"))
        fused = fuse_ptm_ops(
            [((1, 0), unitary_ptm(cx)), ((0, 1), unitary_ptm(cx)), ((0,), z)]
        )
        assert [qubits for qubits, _ in fused] == [(0, 1), (0,)]
        expected = unitary_ptm(cx) @ unitary_ptm(reversed_cx)
        assert np.abs(fused[0][1] - expected).max() < 1e-15

    @pytest.mark.parametrize("decoherence", ["global", "damping"])
    def test_noisy_swap_triple_fuses_to_one_op(self, decoherence):
        circuit = QuantumCircuit(8)
        circuit.x(6).cx(6, 7).cx(7, 6).cx(6, 7)
        calibration = johannesburg_aug19_2020().with_edge_errors({(6, 7): 0.03})
        fused_sim = PauliTransferMatrixSimulator(calibration, decoherence=decoherence)
        ops = fused_sim.circuit_ops(circuit)
        assert len(ops) >= 8  # four gates, each followed by its noise channel
        # One contraction for the whole SWAP; "damping" leaves each wire's
        # trailing idle channel as a 1q op.
        fused_ops = fuse_ptm_ops(ops)
        assert [qubits for qubits, _ in fused_ops if len(qubits) > 1] == [(6, 7)]
        assert len(fused_ops) == (1 if decoherence == "global" else 3)
        unfused = PauliTransferMatrixSimulator(
            calibration, decoherence=decoherence, fuse=False
        ).run_probabilities(circuit, measured_qubits=[6, 7])
        fused = fused_sim.run_probabilities(circuit, measured_qubits=[6, 7])
        assert worst_gap(fused, unfused) < 1e-12
        assert fused["01"] > 0.8  # the SWAP moved the excitation from 6 to 7

    def test_fusion_reduces_contraction_count(self):
        simulator = PauliTransferMatrixSimulator(johannesburg_aug19_2020())
        ops = simulator.circuit_ops(toffoli_workload())
        assert len(fuse_ptm_ops(ops)) < len(ops) / 2


class TestEngineExactness:
    def test_noiseless_matches_statevector(self):
        for build in (toffoli_workload, self._ghz):
            circuit = build()
            expected = StatevectorSimulator().run_probabilities(circuit)
            actual = PauliTransferMatrixSimulator().run_probabilities(circuit)
            assert set(actual) == set(expected)
            for key, probability in expected.items():
                assert abs(actual[key] - probability) < 1e-9

    @staticmethod
    def _ghz():
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2)
        return circuit

    @pytest.mark.parametrize("decoherence", ["global", "damping"])
    def test_matches_density_backend(self, decoherence):
        calibration = johannesburg_aug19_2020()
        circuit = toffoli_workload()
        density = DensityMatrixSimulator(
            calibration, decoherence=decoherence
        ).run_probabilities(circuit)
        ptm = PauliTransferMatrixSimulator(
            calibration, decoherence=decoherence
        ).run_probabilities(circuit)
        keys = set(density) | set(ptm)
        assert max(abs(density.get(k, 0.0) - ptm.get(k, 0.0)) for k in keys) < 1e-9

    def test_matches_density_on_compiled_fig6_cells(self):
        # The acceptance bar: 1e-9 agreement (and hence ~0 TVD) with the
        # density backend on every compiled Figure 6-8 configuration of the
        # small triplets.
        calibration = johannesburg_aug19_2020()
        coupling_map = johannesburg()
        density_sim = DensityMatrixSimulator(calibration)
        ptm_sim = PauliTransferMatrixSimulator(calibration)
        checked = 0
        for triplet in SMALL_TRIPLETS:
            placement = {0: triplet[0], 1: triplet[1], 2: triplet[2]}
            for configuration in CONFIGURATIONS:
                compiled = compile_configuration(
                    configuration, coupling_map, placement, seed=7
                )
                circuit = compiled.circuit.without(["measure"])
                measured = compiled.physical_qubits_of([0, 1, 2])
                density = density_sim.run_probabilities(
                    circuit, measured_qubits=measured
                )
                ptm = ptm_sim.run_probabilities(circuit, measured_qubits=measured)
                keys = set(density) | set(ptm)
                worst = max(
                    abs(density.get(k, 0.0) - ptm.get(k, 0.0)) for k in keys
                )
                assert worst < 1e-9, (triplet, configuration.label, worst)
                tvd = 0.5 * sum(
                    abs(density.get(k, 0.0) - ptm.get(k, 0.0)) for k in keys
                )
                assert tvd < 1e-9
                checked += 1
        assert checked == len(SMALL_TRIPLETS) * len(CONFIGURATIONS)

    @pytest.mark.parametrize("decoherence", ["global", "damping"])
    @pytest.mark.parametrize("fuse", [True, False])
    def test_matches_density_under_per_edge_calibration(self, fuse, decoherence):
        # Every Johannesburg coupler gets its own seeded CNOT error.  The
        # oracle relabels the *calibration* onto the compact indices of the
        # reduced circuit, so an engine that looked errors up on renamed
        # qubits instead of physical ones would disagree with it.
        coupling_map = johannesburg()
        rng = np.random.default_rng(20210419)
        uniform = johannesburg_aug19_2020()
        edge_errors = {
            edge: float(rng.uniform(0.002, 0.08)) for edge in coupling_map.edges
        }
        calibration = uniform.with_edge_errors(edge_errors)
        density_sim = DensityMatrixSimulator(calibration, decoherence=decoherence)
        ptm_sim = PauliTransferMatrixSimulator(
            calibration, decoherence=decoherence, fuse=fuse
        )
        uniform_sim = PauliTransferMatrixSimulator(uniform, decoherence=decoherence)
        for triplet in SMALL_TRIPLETS:
            placement = dict(enumerate(triplet))
            for configuration in CONFIGURATIONS:
                compiled = compile_configuration(
                    configuration, coupling_map, placement, seed=7
                )
                circuit = compiled.circuit.without(["measure"])
                measured = compiled.physical_qubits_of([0, 1, 2])
                ptm = ptm_sim.run_probabilities(circuit, measured_qubits=measured)
                density = density_sim.run_probabilities(
                    circuit, measured_qubits=measured
                )
                assert worst_gap(density, ptm) < 1e-9, (triplet, configuration)
                reduced, mapping = reduce_to_active_qubits(circuit, measured)
                relabelled = uniform.with_edge_errors({
                    (mapping[a], mapping[b]): error
                    for (a, b), error in edge_errors.items()
                    if a in mapping and b in mapping
                })
                oracle = DensityMatrixSimulator(
                    relabelled, decoherence=decoherence
                ).run_probabilities(
                    reduced, measured_qubits=[mapping[q] for q in measured]
                )
                assert worst_gap(oracle, ptm) < 1e-9, (triplet, configuration)
                baseline = uniform_sim.run_probabilities(
                    circuit, measured_qubits=measured
                )
                assert abs(ptm["111"] - baseline["111"]) > 1e-4

    def test_success_probability_and_counts(self):
        calibration = johannesburg_aug19_2020()
        circuit = toffoli_workload()
        simulator = PauliTransferMatrixSimulator(calibration, seed=11)
        p = simulator.success_probability(circuit, "1111")
        assert 0.0 < p < 1.0
        result = simulator.run_counts(circuit, shots=4096, seed=11)
        assert sum(result.counts.values()) == 4096
        sigma = math.sqrt(p * (1 - p) / 4096)
        assert abs(result.success_rate("1111") - p) <= 5 * sigma

    def test_run_counts_reproducible_with_seed(self):
        calibration = johannesburg_aug19_2020()
        circuit = toffoli_workload()
        simulator = PauliTransferMatrixSimulator(calibration)
        first = simulator.run_counts(circuit, shots=512, seed=23)
        second = simulator.run_counts(circuit, shots=512, seed=23)
        assert first.counts == second.counts

    def test_noise_toggles_match_density(self):
        calibration = johannesburg_aug19_2020()
        circuit = toffoli_workload()
        for toggles in (
            dict(include_gate_errors=False),
            dict(include_decoherence=False),
            dict(include_readout_error=False),
        ):
            density = DensityMatrixSimulator(
                calibration, **toggles
            ).run_probabilities(circuit)
            ptm = PauliTransferMatrixSimulator(
                calibration, **toggles
            ).run_probabilities(circuit)
            keys = set(density) | set(ptm)
            assert max(
                abs(density.get(k, 0.0) - ptm.get(k, 0.0)) for k in keys
            ) < 1e-9


def routed_toffoli(configuration, triplet, seed=7):
    """A compiled Figure 6-8 cell on Johannesburg: (circuit, measured qubits)."""
    compiled = compile_configuration(
        configuration, johannesburg(), dict(enumerate(triplet)), seed=seed
    )
    return compiled.circuit.without(["measure"]), compiled.physical_qubits_of([0, 1, 2])


#: Near, medium and far triplets: routing distance sets the compiled length,
#: i.e. how much fusion and the live set have to chew through.
BENCHMARK_TRIPLETS = {"fig6-near": (0, 1, 2), "fig6-medium": (0, 5, 6), "fig6-far": (2, 6, 10)}


def ptm_benchmark_case(label):
    """The raw Toffoli, a compiled Trios cell or a compiled Table 1 benchmark."""
    if label == "toffoli-4q":
        return toffoli_workload(), [0, 1, 2]
    if label in BENCHMARK_TRIPLETS:
        return routed_toffoli("Trios (8-CNOT Toffoli)", BENCHMARK_TRIPLETS[label])
    compiled = compile_benchmark_cached(label, johannesburg(), "trios", 11)
    return compiled.circuit.without(["measure"]), compiled.physical_qubits_of([0, 1, 2, 3])


class TestLiveSetExactness:
    """The live-set engine against the full-width reference and density."""

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("decoherence", ["global", "damping"])
    def test_evolve_matches_full_width_vector(self, decoherence, fuse):
        calibration = johannesburg_aug19_2020()
        simulator = PauliTransferMatrixSimulator(
            calibration, decoherence=decoherence, fuse=fuse
        )
        routed, _ = routed_toffoli("Qiskit (baseline)", (0, 5, 6))
        reduced, _, _ = reduce_for_measurement(routed)
        for circuit in (toffoli_workload(), reduced, QuantumCircuit(3).h(1)):
            actual = simulator.evolve(circuit)
            expected = full_width_evolve(simulator, circuit)
            assert actual.shape == (4**circuit.num_qubits,)
            assert np.abs(actual - expected).max() < 1e-12

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("decoherence", ["global", "damping"])
    @pytest.mark.parametrize(
        "measured",
        [
            pytest.param(lambda m: m[::-1], id="reversed"),
            pytest.param(lambda m: m[1:], id="partial"),
            pytest.param(lambda m: [], id="empty"),
            # Qubit 19 is idle in this cell: it is |0> and no gate touches it.
            pytest.param(lambda m: [m[2], 19, m[0]], id="untouched"),
        ],
    )
    def test_measured_subsets(self, measured, decoherence, fuse):
        calibration = johannesburg_aug19_2020()
        circuit, default = routed_toffoli("Trios (8-CNOT Toffoli)", (2, 6, 10))
        assert 19 not in circuit.active_qubits()
        qubits = measured(default)
        ptm = PauliTransferMatrixSimulator(
            calibration, decoherence=decoherence, fuse=fuse
        )
        actual = ptm.run_probabilities(circuit, measured_qubits=qubits)
        if not qubits:
            assert actual == {"": 1.0}
        reference = full_width_probabilities(ptm, circuit, qubits)
        assert worst_gap(actual, reference) < 1e-12
        density = DensityMatrixSimulator(
            calibration, decoherence=decoherence
        ).run_probabilities(circuit, measured_qubits=qubits)
        assert worst_gap(actual, density) < 1e-9

    @pytest.mark.parametrize("decoherence", ["global", "damping"])
    def test_swapped_away_qubits_leave_early(self, decoherence):
        # (19, 0, 14) routes through eight qubits, but the SWAP chains leave
        # at most three live at once: the peak tensor is 4^3 values, not 4^8.
        calibration = johannesburg_aug19_2020()
        circuit, measured = routed_toffoli("Trios (8-CNOT Toffoli)", (19, 0, 14))
        assert len(circuit.active_qubits() | set(measured)) == 8
        simulator = PauliTransferMatrixSimulator(calibration, decoherence=decoherence)
        obs.enable()
        try:
            obs.clear()
            actual = simulator.run_probabilities(circuit, measured_qubits=measured)
            peak = obs.metrics_summary()["sim.ptm.peak_bytes"]["max"]
        finally:
            obs.disable()
        assert peak <= 8 * 4**3 < 8 * 4**8
        assert worst_gap(actual, full_width_probabilities(simulator, circuit, measured)) < 1e-12
        density = DensityMatrixSimulator(
            calibration, decoherence=decoherence
        ).run_probabilities(circuit, measured_qubits=measured)
        assert worst_gap(actual, density) < 1e-9

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize(
        "label", ["toffoli-4q", *BENCHMARK_TRIPLETS, "cnx_inplace-4"]
    )
    def test_matches_density_on_benchmark_cases(self, label, fuse):
        calibration = johannesburg_aug19_2020()
        circuit, measured = ptm_benchmark_case(label)
        density = DensityMatrixSimulator(calibration).run_probabilities(
            circuit, measured_qubits=measured
        )
        ptm = PauliTransferMatrixSimulator(calibration, fuse=fuse).run_probabilities(
            circuit, measured_qubits=measured
        )
        assert worst_gap(density, ptm) < 1e-9, label

    def test_traced_out_state_keeps_unit_trace(self):
        # Tracing a qubit out keeps its I component times sqrt(2), so the
        # live tensor stays a normalized Pauli vector: r[I...I] = 2^(-m/2).
        simulator = PauliTransferMatrixSimulator(johannesburg_aug19_2020())
        circuit, measured = routed_toffoli("Trios (8-CNOT Toffoli)", (19, 0, 14))
        reduced, _, compact = reduce_for_measurement(circuit, measured)
        ops = fuse_ptm_ops(simulator.circuit_ops(reduced))
        for kept in (compact, compact[:1], []):
            state, axes, _ = evolve_live(ops, kept)
            assert sorted(axes) == sorted(kept)
            assert abs(state[(0,) * len(axes)] - 2.0 ** (-len(axes) / 2)) < 1e-12

    def test_duplicate_measured_qubits_are_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            PauliTransferMatrixSimulator().run_probabilities(
                toffoli_workload(), measured_qubits=[0, 0]
            )


class TestKnobsAndPlumbing:
    def test_registered_in_registry(self):
        calibration = johannesburg_aug19_2020()
        backend = get_backend("ptm", calibration, seed=5)
        assert isinstance(backend, PauliTransferMatrixSimulator)
        assert supports_exact_probabilities(backend)

    def test_requires_calibration(self):
        with pytest.raises(SimulationError, match="calibration"):
            get_backend("ptm")

    def test_rejects_unknown_decoherence_mode(self):
        with pytest.raises(SimulationError, match="decoherence"):
            PauliTransferMatrixSimulator(decoherence="per-gate")

    def test_rejects_oversized_circuits(self):
        simulator = PauliTransferMatrixSimulator(max_active_qubits=3)
        with pytest.raises(SimulationError, match="exceeds"):
            simulator.run_probabilities(toffoli_workload())

    def test_simulator_pickles(self):
        simulator = PauliTransferMatrixSimulator(
            johannesburg_aug19_2020(), seed=3
        )
        clone = pickle.loads(pickle.dumps(simulator))
        circuit = toffoli_workload()
        original = simulator.run_probabilities(circuit)
        restored = clone.run_probabilities(circuit)
        assert set(original) == set(restored)
        for key in original:
            assert abs(original[key] - restored[key]) < 1e-12

    def test_empty_measurement_set(self):
        simulator = PauliTransferMatrixSimulator(johannesburg_aug19_2020())
        assert simulator.run_probabilities(toffoli_workload(), measured_qubits=[]) == {
            "": 1.0
        }
