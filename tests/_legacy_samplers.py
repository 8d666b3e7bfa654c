"""Frozen per-shot noisy samplers from the seed repository.

These are faithful ports of the original ``PauliTrajectorySampler`` and
``GateFailureSampler`` implementations, which evolved one statevector per shot
in a Python loop.  They are kept verbatim so that ``tests/test_sim_batched.py``
can assert that the batched engine samples the same distributions (within a
total-variation-distance tolerance).

Do not "optimize" this module — it is the reference the fast path is checked
against.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.sim import NoisyResult, StatevectorSimulator, estimate_success
from repro.sim.estimator import circuit_duration
from repro.sim.channels import PAULI_LABELS, PAULI_MATRICES
from repro.sim.statevector import (
    apply_matrix,
    measured_qubits_of,
    reduce_to_active_qubits,
    zero_state,
)


class LegacyTrajectorySampler:
    """The seed repository's per-shot stochastic-Pauli sampler."""

    def __init__(self, calibration, seed=None, include_decoherence=True,
                 include_readout_error=True):
        self.calibration = calibration
        self.rng = np.random.default_rng(seed)
        self.include_decoherence = include_decoherence
        self.include_readout_error = include_readout_error

    def run(self, circuit, shots=1024, measured_qubits=None):
        if measured_qubits is None:
            measured_qubits = measured_qubits_of(circuit) or sorted(circuit.active_qubits())
        measured_qubits = list(measured_qubits)
        reduced, mapping = reduce_to_active_qubits(circuit, measured_qubits)
        compact_measured = [mapping[q] for q in measured_qubits]
        gates = [inst for inst in reduced.instructions if inst.gate.is_unitary]
        duration = circuit_duration(circuit.without(["barrier"]), self.calibration)
        decoherence_failure = 0.0
        if self.include_decoherence:
            decoherence_failure = 1.0 - math.exp(
                -(duration / self.calibration.t1 + duration / self.calibration.t2)
            )
        counts: Dict[str, int] = {}
        for _ in range(shots):
            outcome = self._one_trajectory(
                gates, reduced.num_qubits, compact_measured, decoherence_failure
            )
            counts[outcome] = counts.get(outcome, 0) + 1
        return NoisyResult(counts=counts, shots=shots,
                           measured_qubits=tuple(measured_qubits))

    def _one_trajectory(self, gates, num_qubits, measured, decoherence_failure):
        state = zero_state(num_qubits)
        for instruction in gates:
            state = apply_matrix(
                state, instruction.gate.matrix(), instruction.qubits, num_qubits
            )
            error = self._error_probability(instruction)
            if error > 0 and self.rng.random() < error:
                state = self._apply_random_pauli(state, instruction.qubits, num_qubits)
        if decoherence_failure > 0 and self.rng.random() < decoherence_failure:
            bits = self.rng.integers(0, 2, size=len(measured))
            return "".join(str(int(b)) for b in bits)
        probabilities = np.abs(state) ** 2
        probabilities = probabilities / probabilities.sum()
        index = int(self.rng.choice(len(probabilities), p=probabilities))
        bits = [(index >> (num_qubits - 1 - q)) & 1 for q in measured]
        if self.include_readout_error:
            bits = [
                bit ^ 1 if self.rng.random() < self.calibration.readout_error else bit
                for bit in bits
            ]
        return "".join(str(b) for b in bits)

    def _error_probability(self, instruction):
        if len(instruction.qubits) == 1:
            return self.calibration.one_qubit_gate_error
        error = self.calibration.gate_error("cx", instruction.qubits)
        if instruction.name == "swap":
            return 1.0 - (1.0 - error) ** 3
        return error

    def _apply_random_pauli(self, state, qubits, num_qubits):
        labels = ["I"] * len(qubits)
        while all(label == "I" for label in labels):
            labels = [PAULI_LABELS[int(self.rng.integers(0, 4))] for _ in qubits]
        for qubit, label in zip(qubits, labels):
            if label != "I":
                state = apply_matrix(state, PAULI_MATRICES[label], (qubit,), num_qubits)
        return state


class LegacyGateFailureSampler:
    """The seed repository's per-shot gate-failure sampler."""

    def __init__(self, calibration, seed=None, include_readout_error=True):
        self.calibration = calibration
        self.rng = np.random.default_rng(seed)
        self.include_readout_error = include_readout_error

    def run(self, circuit, shots=1024, measured_qubits=None):
        if measured_qubits is None:
            measured_qubits = measured_qubits_of(circuit) or sorted(circuit.active_qubits())
        measured_qubits = list(measured_qubits)
        reduced, mapping = reduce_to_active_qubits(circuit, measured_qubits)
        compact_measured = [mapping[q] for q in measured_qubits]
        estimate = estimate_success(
            circuit.without(["measure", "barrier"]), self.calibration,
            include_readout=False,
        )
        trouble_free = estimate.gate_success * estimate.coherence_success
        ideal = StatevectorSimulator(num_qubits_limit=22).probabilities(
            reduced.without(["measure"]), compact_measured
        )
        outcomes = list(ideal)
        weights = np.array([ideal[o] for o in outcomes])
        weights = weights / weights.sum()
        width = len(measured_qubits)
        counts: Dict[str, int] = {}
        for _ in range(shots):
            if self.rng.random() < trouble_free:
                outcome = outcomes[int(self.rng.choice(len(outcomes), p=weights))]
            else:
                outcome = format(int(self.rng.integers(0, 2 ** width)), f"0{width}b")
            if self.include_readout_error:
                bits = [
                    bit if self.rng.random() >= self.calibration.readout_error else 1 - bit
                    for bit in (int(ch) for ch in outcome)
                ]
                outcome = "".join(str(b) for b in bits)
            counts[outcome] = counts.get(outcome, 0) + 1
        return NoisyResult(counts=counts, shots=shots,
                           measured_qubits=tuple(measured_qubits))
