"""Noisy execution models.

The paper's Figures 6 and 8 come from runs on the physical IBM Johannesburg
machine, which we cannot access.  As the documented substitution we provide two
shot-level samplers driven by a :class:`~repro.hardware.calibration.DeviceCalibration`:

* :class:`PauliTrajectorySampler` — a stochastic Pauli-error ("quantum
  trajectory") Monte Carlo on a statevector restricted to the circuit's active
  qubits.  Each gate is followed, with its calibrated error probability, by a
  uniformly random non-identity Pauli on the gate's qubits; readout bits flip
  with the readout error; decoherence is applied as a per-shot failure with
  probability ``1 - exp(-(Δ/T1 + Δ/T2))``.
* :class:`GateFailureSampler` — the paper's simplified model with sampling:
  a shot is "trouble free" with probability ``prod(1 - e_i) * exp(-(Δ/T1+Δ/T2))``
  and then yields an ideal-distribution outcome; otherwise the outcome is
  uniformly random.  This is fast enough for large sweeps.

Both produce ``counts`` dictionaries like real hardware would.

The shot dimension is batched: instead of evolving one statevector per shot,
:class:`PauliTrajectorySampler` pre-samples every shot's Pauli-error pattern up
front, groups the shots that share an identical pattern (at realistic error
rates the overwhelming majority are error-free) and runs **one** statevector
evolution per *unique* pattern.  Measurement sampling, readout flips and
decoherence failures are drawn with single vectorized RNG calls across all
shots.  The sampled distributions are identical to the per-shot formulation;
only the order in which random numbers are consumed differs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Instruction, QuantumCircuit
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration
from .channels import PAULI_LABELS, PAULI_MATRICES, gate_error_probability
from .estimator import circuit_duration, estimate_success
from .result import NoisyResult, counts_from_bit_array
from .statevector import (
    StatevectorSimulator,
    apply_matrix,
    measurement_axes,
    reduce_for_measurement,
    zero_state,
)

#: A shot's error pattern: ``(gate_index, pauli_code)`` pairs, where the code
#: encodes one base-4 Pauli digit (0=I, 1=X, 2=Y, 3=Z) per gate qubit with the
#: gate's first qubit in the most significant position.  Codes are never zero
#: (an all-identity "error" is resampled away by construction).
ErrorPattern = Tuple[Tuple[int, int], ...]


def _bits_from_indices(
    indices: np.ndarray, num_qubits: int, measured: Sequence[int]
) -> np.ndarray:
    """Extract the measured qubits' bits from basis-state indices, vectorized.

    Returns a ``(len(indices), len(measured))`` int8 array; qubit 0 is the most
    significant bit of the basis index (the module-wide convention).
    """
    shifts = np.array([num_qubits - 1 - q for q in measured], dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.int8)


class PauliTrajectorySampler:
    """Monte-Carlo stochastic-Pauli noise simulation (hardware substitute).

    Shots are batched: the per-gate Pauli-error pattern of every shot is drawn
    up front with vectorized RNG calls, shots are grouped by identical pattern,
    and a single statevector evolution serves every shot in a group.
    """

    def __init__(
        self,
        calibration: DeviceCalibration,
        seed: Optional[int] = None,
        include_decoherence: bool = True,
        include_readout_error: bool = True,
        max_active_qubits: int = 18,
    ) -> None:
        self.calibration = calibration
        self.rng = np.random.default_rng(seed)
        self.include_decoherence = include_decoherence
        self.include_readout_error = include_readout_error
        self.max_active_qubits = max_active_qubits

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        measured_qubits: Optional[Sequence[int]] = None,
    ) -> NoisyResult:
        """Execute ``circuit`` for ``shots`` noisy trajectories.

        Args:
            circuit: Compiled circuit (one- and two-qubit gates; SWAPs allowed
                and treated as noisy three-CNOT sequences).
            shots: Number of trajectories.
            measured_qubits: Which original qubit indices to report, in order.
                Defaults to the circuit's ``measure`` instructions, or all
                active qubits if there are none.
        """
        if shots < 1:
            raise SimulationError("shots must be positive")
        measured_qubits, axes = measurement_axes(circuit, measured_qubits)
        if len(axes) > self.max_active_qubits:
            raise SimulationError(
                f"{len(axes)} active qubits exceeds the trajectory "
                f"sampler limit ({self.max_active_qubits})"
            )
        # Error weights are drawn on the physical qubits; the statevector
        # runs on the compact axes.
        gates = [inst for inst in circuit.instructions if inst.gate.is_unitary]
        placed = [
            (inst.gate.matrix(), tuple(axes[q] for q in inst.qubits)) for inst in gates
        ]
        compact_measured = [axes[q] for q in measured_qubits]
        duration = circuit_duration(circuit, self.calibration)
        decoherence_failure = 0.0
        if self.include_decoherence:
            decoherence_failure = self.calibration.decoherence_failure_probability(
                duration
            )

        num_qubits = len(axes)
        width = len(compact_measured)
        bits = np.zeros((shots, width), dtype=np.int8)

        # Decoherence failures scramble the register; those shots report a
        # uniformly random outcome and never touch a statevector.
        decohered = np.zeros(shots, dtype=bool)
        if decoherence_failure > 0:
            decohered = self.rng.random(shots) < decoherence_failure
            num_decohered = int(decohered.sum())
            if num_decohered:
                bits[decohered] = self.rng.integers(
                    0, 2, size=(num_decohered, width), dtype=np.int8
                )

        coherent = np.flatnonzero(~decohered)
        if coherent.size:
            patterns = self._sample_error_patterns(gates, coherent.size)
            groups: Dict[ErrorPattern, List[int]] = {}
            for shot, pattern in zip(coherent, patterns):
                groups.setdefault(pattern, []).append(int(shot))
            for pattern, members in groups.items():
                probabilities = self._pattern_probabilities(placed, num_qubits, pattern)
                indices = self.rng.choice(
                    probabilities.size, size=len(members), p=probabilities
                )
                bits[members] = _bits_from_indices(indices, num_qubits, compact_measured)

        if self.include_readout_error and self.calibration.readout_error > 0 and width:
            flips = self.rng.random((shots, width)) < self.calibration.readout_error
            bits ^= flips.astype(np.int8)

        return NoisyResult(
            counts=counts_from_bit_array(bits),
            shots=shots,
            measured_qubits=tuple(measured_qubits),
        )

    def run_counts(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        measured_qubits: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> NoisyResult:
        """:class:`~repro.sim.SimulationBackend` entry point.

        A non-``None`` ``seed`` reseeds the sampler's generator so repeated
        calls are reproducible independent of earlier draws.
        """
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        return self.run(circuit, shots=shots, measured_qubits=measured_qubits)

    # ------------------------------------------------------------------
    def _sample_error_patterns(
        self, gates: Sequence[Instruction], shots: int
    ) -> List[ErrorPattern]:
        """Draw every shot's Pauli-error pattern with vectorized RNG calls."""
        num_gates = len(gates)
        if num_gates == 0:
            return [()] * shots
        error_rates = np.array(
            [self._error_probability(inst) for inst in gates], dtype=float
        )
        errored = self.rng.random((shots, num_gates)) < error_rates[None, :]
        # One uniformly random non-identity Pauli combination per errored slot:
        # codes run over 1 .. 4^k - 1 where k is the gate's qubit count.
        code_limits = np.array([4 ** len(inst.qubits) for inst in gates], dtype=np.int64)
        codes = self.rng.integers(1, code_limits[None, :], size=(shots, num_gates))
        patterns: List[ErrorPattern] = []
        empty: ErrorPattern = ()
        for shot in range(shots):
            row = errored[shot]
            if not row.any():
                patterns.append(empty)
                continue
            patterns.append(
                tuple(
                    (int(g), int(codes[shot, g])) for g in np.flatnonzero(row)
                )
            )
        return patterns

    def _pattern_probabilities(
        self,
        placed: Sequence[Tuple[np.ndarray, Tuple[int, ...]]],
        num_qubits: int,
        pattern: ErrorPattern,
    ) -> np.ndarray:
        """Outcome distribution of one trajectory with the given error pattern.

        ``placed`` holds each gate's matrix and its compact statevector axes.
        """
        inserted = dict(pattern)
        state = zero_state(num_qubits)
        for gate_index, (matrix, wires) in enumerate(placed):
            state = apply_matrix(state, matrix, wires, num_qubits)
            code = inserted.get(gate_index)
            if code:
                state = self._apply_pauli_code(state, code, wires, num_qubits)
        probabilities = np.abs(state) ** 2
        return probabilities / probabilities.sum()

    def _apply_pauli_code(
        self, state: np.ndarray, code: int, qubits: Tuple[int, ...], num_qubits: int
    ) -> np.ndarray:
        """Apply the Pauli encoded by ``code`` (base-4 digits, qubits[0] first)."""
        k = len(qubits)
        for position, qubit in enumerate(qubits):
            digit = (code >> (2 * (k - 1 - position))) & 3
            if digit:
                label = PAULI_LABELS[digit]
                state = apply_matrix(state, PAULI_MATRICES[label], (qubit,), num_qubits)
        return state

    def _error_probability(self, instruction: Instruction) -> float:
        """Per-gate error weight, delegated to the shared channel layer.

        :func:`repro.sim.channels.gate_error_probability` is the single home
        of calibration→noise logic, so the trajectory sampler and the exact
        density backend are guaranteed to weight every gate identically.
        """
        return gate_error_probability(self.calibration, instruction)


class GateFailureSampler:
    """The paper's simplified error model, sampled over a batched shot axis.

    A shot is trouble free with probability
    ``prod_i (1 - e_i) * exp(-(Δ/T1 + Δ/T2))``; trouble-free shots sample the
    ideal output distribution, all other shots return a uniformly random
    bitstring over the measured qubits.  Readout flips are applied on top.
    All per-shot decisions are drawn with single vectorized RNG calls.
    """

    def __init__(
        self,
        calibration: DeviceCalibration,
        seed: Optional[int] = None,
        include_readout_error: bool = True,
        max_active_qubits: int = 22,
    ) -> None:
        self.calibration = calibration
        self.rng = np.random.default_rng(seed)
        self.include_readout_error = include_readout_error
        self.max_active_qubits = max_active_qubits

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        measured_qubits: Optional[Sequence[int]] = None,
    ) -> NoisyResult:
        """Sample ``shots`` outcomes under the simplified failure model."""
        if shots < 1:
            raise SimulationError("shots must be positive")
        reduced, measured_qubits, compact_measured = reduce_for_measurement(
            circuit, measured_qubits
        )
        if reduced.num_qubits > self.max_active_qubits:
            raise SimulationError(
                f"{reduced.num_qubits} active qubits exceeds the gate-failure "
                f"sampler limit ({self.max_active_qubits})"
            )
        estimate = estimate_success(
            circuit.without(["measure"]), self.calibration, include_readout=False
        )
        trouble_free = estimate.gate_success * estimate.coherence_success
        ideal = StatevectorSimulator(num_qubits_limit=self.max_active_qubits).probabilities(
            reduced.without(["measure"]), compact_measured
        )
        outcomes = list(ideal)
        weights = np.array([ideal[o] for o in outcomes])
        weights = weights / weights.sum()
        width = len(measured_qubits)
        outcome_bits = np.array(
            [[int(ch) for ch in outcome] for outcome in outcomes], dtype=np.int8
        ).reshape(len(outcomes), width)

        clean = self.rng.random(shots) < trouble_free
        num_clean = int(clean.sum())
        bits = np.zeros((shots, width), dtype=np.int8)
        if num_clean:
            draws = self.rng.choice(len(outcomes), size=num_clean, p=weights)
            bits[clean] = outcome_bits[draws]
        if shots - num_clean:
            bits[~clean] = self.rng.integers(
                0, 2, size=(shots - num_clean, width), dtype=np.int8
            )
        if self.include_readout_error and self.calibration.readout_error > 0 and width:
            flips = self.rng.random((shots, width)) < self.calibration.readout_error
            bits ^= flips.astype(np.int8)
        return NoisyResult(
            counts=counts_from_bit_array(bits),
            shots=shots,
            measured_qubits=tuple(measured_qubits),
        )

    def run_counts(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        measured_qubits: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> NoisyResult:
        """:class:`~repro.sim.SimulationBackend` entry point.

        A non-``None`` ``seed`` reseeds the sampler's generator so repeated
        calls are reproducible independent of earlier draws.
        """
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        return self.run(circuit, shots=shots, measured_qubits=measured_qubits)
