"""Tests for the noise-channel layer (``repro.sim.channels``).

Every channel the layer can generate must be CPTP — Kraus completeness
(trace preservation), Choi hermiticity and Choi positivity — which the
hypothesis tests check across the constructors' full parameter ranges.  The
calibration→channel compilation is additionally pinned against the exact
numbers the trajectory sampler historically used, since both engines now
read from this one place.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import cx_gate, h_gate, swap_gate, x_gate
from repro.exceptions import SimulationError
from repro.hardware import johannesburg_aug19_2020
from repro.sim.channels import (
    NoiseModel,
    PAULI_LABELS,
    QuantumChannel,
    amplitude_damping_channel,
    amplitude_phase_damping_channel,
    depolarizing_channel,
    gate_error_probability,
    idle_channel,
    pauli_channel,
    pauli_matrix,
    phase_damping_channel,
    readout_confusion,
    unitary_channel,
)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def assert_cptp(channel: QuantumChannel) -> None:
    """The full CPTP battery, with explicit sub-checks for clear failures."""
    assert channel.kraus_completeness_defect() < 1e-9, channel
    choi = channel.choi()
    assert np.abs(choi - choi.conj().T).max() < 1e-9, channel
    assert float(np.linalg.eigvalsh(choi).min()) >= -1e-9, channel
    assert channel.is_cptp()


class TestChannelCPTP:
    @settings(max_examples=60, deadline=None)
    @given(p=probabilities, num_qubits=st.integers(1, 2))
    def test_depolarizing_is_cptp(self, p, num_qubits):
        assert_cptp(depolarizing_channel(p, num_qubits))

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(probabilities, min_size=3, max_size=3))
    def test_single_qubit_pauli_channel_is_cptp(self, weights):
        total = sum(weights)
        if total > 1.0:
            weights = [w / total for w in weights]
        channel = pauli_channel(dict(zip("XYZ", weights)))
        assert_cptp(channel)

    @settings(max_examples=60, deadline=None)
    @given(gamma=probabilities, split=probabilities)
    def test_amplitude_phase_damping_is_cptp(self, gamma, split):
        lam = (1.0 - gamma) * split
        assert_cptp(amplitude_phase_damping_channel(gamma, lam))

    @settings(max_examples=60, deadline=None)
    @given(
        duration=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        t1=st.floats(min_value=0.5, max_value=300.0, allow_nan=False),
        t2=st.floats(min_value=0.5, max_value=300.0, allow_nan=False),
    )
    def test_idle_channel_is_cptp_for_any_t1_t2(self, duration, t1, t2):
        # Including T2 > 2*T1, where the pure-dephasing share clamps at zero.
        assert_cptp(idle_channel(duration, t1, t2))

    @pytest.mark.parametrize("gate", [x_gate(), h_gate(), cx_gate(), swap_gate()])
    def test_unitary_channels_are_cptp(self, gate):
        assert_cptp(unitary_channel(gate.matrix(), name=gate.name))

    def test_amplitude_and_phase_damping_shorthands(self):
        assert_cptp(amplitude_damping_channel(0.3))
        assert_cptp(phase_damping_channel(0.4))


class TestChannelRepresentations:
    @settings(max_examples=30, deadline=None)
    @given(p=probabilities, seed=st.integers(0, 2**32 - 1))
    def test_superoperator_matches_kraus_action(self, p, seed):
        """vec(E(rho)) via the cached superoperator == sum_K K rho K†."""
        channel = depolarizing_channel(p, 1)
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        by_kraus = sum(K @ rho @ K.conj().T for K in channel.kraus)
        by_super = (channel.superoperator() @ rho.reshape(-1)).reshape(2, 2)
        assert np.allclose(by_kraus, by_super, atol=1e-12)

    def test_superoperator_is_cached_and_read_only(self):
        channel = depolarizing_channel(0.1, 1)
        first = channel.superoperator()
        assert channel.superoperator() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 2.0

    def test_idle_channel_decay_rates(self):
        """Populations relax by exp(-t/T1), coherences by exp(-t/T2)."""
        t, t1, t2 = 3.0, 70.87, 72.72
        channel = idle_channel(t, t1, t2)
        one = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        relaxed = sum(K @ one @ K.conj().T for K in channel.kraus)
        dephased = sum(K @ plus @ K.conj().T for K in channel.kraus)
        assert relaxed[1, 1].real == pytest.approx(math.exp(-t / t1))
        assert dephased[0, 1].real == pytest.approx(0.5 * math.exp(-t / t2))

    def test_pauli_matrix_tensor_order(self):
        xz = pauli_matrix("XZ")
        assert np.allclose(xz, np.kron(pauli_matrix("X"), pauli_matrix("Z")))
        assert set(PAULI_LABELS) == {"I", "X", "Y", "Z"}

    def test_invalid_channels_are_rejected(self):
        with pytest.raises(SimulationError):
            QuantumChannel(())
        with pytest.raises(SimulationError):
            QuantumChannel((np.zeros((3, 3)),))
        with pytest.raises(SimulationError):
            pauli_channel({"II": 0.1})  # explicit identity is ambiguous
        with pytest.raises(SimulationError):
            pauli_channel({"X": -0.1})
        with pytest.raises(SimulationError):
            pauli_channel({"X": 0.7, "Y": 0.7})
        with pytest.raises(SimulationError):
            depolarizing_channel(1.5)
        with pytest.raises(SimulationError):
            amplitude_phase_damping_channel(0.8, 0.5)
        with pytest.raises(SimulationError):
            readout_confusion(1.0)


class TestCalibrationToChannels:
    def test_gate_error_probability_matches_calibration(self, hardware_calibration):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).swap(1, 2)
        one_q, two_q, swap_inst = circuit.instructions
        cal = hardware_calibration
        assert gate_error_probability(cal, one_q) == cal.one_qubit_gate_error
        assert gate_error_probability(cal, two_q) == cal.two_qubit_gate_error
        expected_swap = 1.0 - (1.0 - cal.two_qubit_gate_error) ** 3
        assert gate_error_probability(cal, swap_inst) == pytest.approx(expected_swap)

    def test_gate_error_probability_uses_edge_errors(self, hardware_calibration):
        cal = hardware_calibration.with_edge_errors({(0, 1): 0.05})
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2)
        on_edge, off_edge = circuit.instructions
        assert gate_error_probability(cal, on_edge) == 0.05
        assert gate_error_probability(cal, off_edge) == cal.two_qubit_gate_error

    def test_three_qubit_gates_are_rejected(self, hardware_calibration):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(SimulationError):
            gate_error_probability(hardware_calibration, circuit.instructions[0])

    def test_noise_model_caches_channels(self, hardware_calibration):
        model = NoiseModel(hardware_calibration)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2).h(0)
        first_cx, second_cx, h_inst = circuit.instructions
        assert model.gate_channel(first_cx) is model.gate_channel(second_cx)
        assert model.gate_channel(h_inst) is not model.gate_channel(first_cx)
        assert model.idle_channel(1.5) is model.idle_channel(1.5)
        assert model.idle_channel(0.0) is None

    def test_noise_model_channels_are_cptp(self, hardware_calibration):
        model = NoiseModel(hardware_calibration)
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).swap(1, 2)
        for instruction in circuit.instructions:
            assert_cptp(model.gate_channel(instruction))
        assert_cptp(model.idle_channel(2.5))

    def test_zero_error_gives_no_channel(self, hardware_calibration):
        from dataclasses import replace

        cal = replace(
            hardware_calibration, one_qubit_gate_error=0.0, two_qubit_gate_error=0.0
        )
        model = NoiseModel(cal)
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        assert all(model.gate_channel(i) is None for i in circuit.instructions)

    def test_readout_confusion_is_column_stochastic(self, hardware_calibration):
        model = NoiseModel(hardware_calibration)
        confusion = model.readout_confusion()
        assert np.allclose(confusion.sum(axis=0), 1.0)
        assert (confusion >= 0).all()
        r = hardware_calibration.readout_error
        assert confusion[1, 0] == pytest.approx(r)
        assert confusion[0, 1] == pytest.approx(r)

    def test_decoherence_failure_probability(self, hardware_calibration):
        cal = hardware_calibration
        duration = 12.5
        expected = 1.0 - math.exp(-(duration / cal.t1 + duration / cal.t2))
        assert cal.decoherence_failure_probability(duration) == pytest.approx(expected)
        model = NoiseModel(cal)
        assert model.decoherence_failure_probability(duration) == pytest.approx(expected)

    def test_damping_parameters_clamp(self):
        from dataclasses import replace

        cal = johannesburg_aug19_2020()
        gamma, lam = cal.damping_parameters(2.0)
        assert 0 <= gamma <= 1 and 0 <= lam <= 1
        # T2 far above 2*T1 would demand negative pure dephasing; it clamps.
        weird = replace(cal, t2=cal.t1 * 10)
        _, lam_clamped = weird.damping_parameters(2.0)
        assert lam_clamped == 0.0

    def test_noise_model_pickles_with_caches(self, hardware_calibration):
        model = NoiseModel(hardware_calibration)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        original = model.gate_channel(circuit.instructions[0])
        original.superoperator()  # warm the cache
        clone = pickle.loads(pickle.dumps(model))
        cloned = clone.gate_channel(circuit.instructions[0])
        assert np.allclose(cloned.superoperator(), original.superoperator())
        assert_cptp(cloned)


def test_sampler_error_weights_come_from_the_channel_layer(hardware_calibration):
    """The trajectory sampler delegates to channels.gate_error_probability."""
    from repro.sim import PauliTrajectorySampler

    sampler = PauliTrajectorySampler(hardware_calibration)
    circuit = QuantumCircuit(3)
    circuit.h(0).cx(0, 1).swap(1, 2)
    for instruction in circuit.instructions:
        assert sampler._error_probability(instruction) == gate_error_probability(
            hardware_calibration, instruction
        )


# ----------------------------------------------------------------------
# Noise addressed by physical qubit, from one process-wide channel table
# ----------------------------------------------------------------------
def excite_and_entangle() -> QuantumCircuit:
    """``x(5); cx(5, 6)`` on a 20-qubit register: p(11) is the CNOT's success."""
    circuit = QuantumCircuit(20)
    circuit.x(5).cx(5, 6)
    return circuit


def p11(backend_name: str, calibration) -> float:
    from repro.sim import get_backend

    backend = get_backend(backend_name, calibration, seed=5)
    if backend_name == "trajectory":
        counts = backend.run_counts(excite_and_entangle(), 4000, measured_qubits=[5, 6])
        return counts.success_rate("11")
    probabilities = backend.run_probabilities(excite_and_entangle(), measured_qubits=[5, 6])
    return probabilities["11"]


@pytest.mark.parametrize("backend_name", ["density", "ptm", "trajectory"])
def test_edge_errors_follow_the_physical_coupler(backend_name):
    # The circuit uses coupler (5, 6).  Once reduced to its two active
    # qubits those are compact indices (0, 1): an engine that looked the
    # error up after renaming would charge (0, 1)'s rate instead.
    base = johannesburg_aug19_2020()
    plain = p11(backend_name, base)
    on_coupler = p11(backend_name, base.with_edge_errors({(5, 6): 0.5}))
    elsewhere = p11(backend_name, base.with_edge_errors({(0, 1): 0.5}))
    assert plain - on_coupler > 0.25
    if backend_name == "trajectory":
        assert elsewhere == plain  # same rates, same seed: the same draws
    else:
        assert abs(elsewhere - plain) < 1e-12


class TestChannelTable:
    def test_fresh_backends_share_one_ptm(self, hardware_calibration):
        from repro.sim import get_backend

        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).h(2)
        first = get_backend("ptm", hardware_calibration).circuit_ops(circuit)
        second = get_backend("ptm", hardware_calibration).circuit_ops(circuit)
        assert len(first) == len(second) == 4
        for (_, a), (_, b) in zip(first, second):
            assert a is b

    def test_equal_rates_share_a_channel_across_calibrations(self, hardware_calibration):
        from dataclasses import replace

        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        renamed = replace(hardware_calibration, name="same-rates")
        assert NoiseModel(hardware_calibration).gate_channel(
            circuit.instructions[0]
        ) is NoiseModel(renamed).gate_channel(circuit.instructions[0])

    def test_idle_channels_key_on_damping_not_duration(self, hardware_calibration):
        from dataclasses import replace

        from repro.sim import get_backend

        shorter_t1 = replace(hardware_calibration, t1=hardware_calibration.t1 / 2)
        first = NoiseModel(hardware_calibration).idle_channel(0.559)
        second = NoiseModel(shorter_t1).idle_channel(0.559)
        assert first is not second
        assert np.abs(first.ptm() - second.ptm()).max() > 1e-4
        # And the engines see the difference: T1 decay lowers p(1).
        circuit = QuantumCircuit(2)
        circuit.x(0).cx(0, 1)
        p = [
            get_backend("ptm", cal, decoherence="damping").run_probabilities(
                circuit, measured_qubits=[0]
            )["1"]
            for cal in (hardware_calibration, shorter_t1)
        ]
        assert p[1] < p[0]

    def test_table_stays_bounded(self, hardware_calibration, monkeypatch):
        from repro.sim import channels

        monkeypatch.setattr(channels, "_CHANNEL_TABLE", {})
        monkeypatch.setattr(channels, "_CHANNEL_TABLE_LIMIT", 3)
        model = NoiseModel(hardware_calibration)
        sizes = []
        for step in range(1, 11):
            assert_cptp(model.idle_channel(0.1 * step))
            sizes.append(len(channels._CHANNEL_TABLE))
        assert max(sizes) <= 3
        assert model.idle_channel(1.0) is model.idle_channel(1.0)
