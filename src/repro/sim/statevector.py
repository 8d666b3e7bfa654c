"""Dense statevector simulation.

Convention: qubit 0 is the most significant bit of the computational basis
index, so the basis state ``|q0 q1 ... q_{n-1}⟩`` has index
``q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}``.  Bitstrings returned by the
samplers are written in that same order (leftmost character = qubit 0).

The simulator is intended for verification (decomposition equivalence) and for
the noisy Monte-Carlo sampler; it is exact and dense, so it is practical up to
roughly 20 qubits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..circuits.circuit import Instruction, QuantumCircuit
from ..exceptions import SimulationError
from .result import NoisyResult


def zero_state(num_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state on ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise SimulationError("need at least one qubit")
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def basis_state(bits: Sequence[int], num_qubits: Optional[int] = None) -> np.ndarray:
    """The basis state ``|bits⟩`` where ``bits[0]`` is qubit 0's value."""
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise SimulationError(f"bits must be 0/1, got {bits}")
    n = num_qubits if num_qubits is not None else len(bits)
    if len(bits) != n:
        raise SimulationError("bit string length must equal the number of qubits")
    index = 0
    for bit in bits:
        index = (index << 1) | bit
    state = np.zeros(2**n, dtype=complex)
    state[index] = 1.0
    return state


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` unitary to the given qubits of a statevector.

    The first qubit in ``qubits`` corresponds to the most significant bit of
    the matrix's index, matching :meth:`repro.circuits.gate.Gate.matrix`.
    """
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix of shape {matrix.shape} does not act on {k} qubits"
        )
    tensor = state.reshape((2,) * num_qubits)
    gate_tensor = matrix.reshape((2,) * (2 * k))
    # Contract the gate's input axes (the last k axes) with the target qubits.
    moved = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    # tensordot puts the gate's output axes first; move them back into place.
    moved = np.moveaxis(moved, list(range(k)), list(qubits))
    return moved.reshape(-1)


def _sample_from_probs(
    probs: Dict[str, float], shots: int, rng: np.random.Generator
) -> Dict[str, int]:
    """Draw ``shots`` outcomes from a bitstring distribution, vectorized."""
    outcomes = list(probs.keys())
    weights = np.array([probs[o] for o in outcomes])
    weights = weights / weights.sum()
    draws = rng.choice(len(outcomes), size=shots, p=weights)
    values, tallies = np.unique(draws, return_counts=True)
    return {outcomes[int(v)]: int(t) for v, t in zip(values, tallies)}


def reduce_to_active_qubits(
    circuit: QuantumCircuit, extra_qubits: Sequence[int] = ()
) -> Tuple[QuantumCircuit, Dict[int, int]]:
    """Restrict a wide circuit to its active qubits (plus ``extra_qubits``).

    Returns the reduced circuit and the map from original qubit index to the
    compact index used inside the reduced circuit.
    """
    _, mapping = measurement_axes(circuit, extra_qubits)
    reduced = QuantumCircuit(len(mapping), circuit.name)
    for instruction in circuit.instructions:
        if instruction.name == "barrier":
            continue
        reduced.append(
            instruction.gate,
            tuple(mapping[q] for q in instruction.qubits),
            instruction.clbits,
        )
    return reduced, mapping


def measured_qubits_of(circuit: QuantumCircuit) -> List[int]:
    """Qubits measured by the circuit, in program order (deduplicated)."""
    seen: List[int] = []
    for instruction in circuit.instructions:
        if instruction.name == "measure" and instruction.qubits[0] not in seen:
            seen.append(instruction.qubits[0])
    return seen


def measurement_axes(
    circuit: QuantumCircuit, measured_qubits: Optional[Sequence[int]] = None
) -> Tuple[List[int], Dict[int, int]]:
    """The execution prologue every backend shares, without a rebuild.

    Defaults ``measured_qubits`` (the circuit's ``measure`` instructions, or
    all active qubits) and maps every active or measured qubit to a compact
    axis, in qubit order.  Backends that resolve noise per instruction use
    this directly: they look up each error on the physical qubits and only
    then map them to axes.

    Returns ``(measured_qubits, axes)``.
    """
    if measured_qubits is None:
        measured_qubits = measured_qubits_of(circuit) or sorted(circuit.active_qubits())
    measured_qubits = list(measured_qubits)
    active = sorted(circuit.active_qubits() | set(measured_qubits)) or [0]
    return measured_qubits, {original: axis for axis, original in enumerate(active)}


def reduce_for_measurement(
    circuit: QuantumCircuit, measured_qubits: Optional[Sequence[int]] = None
) -> Tuple[QuantumCircuit, List[int], List[int]]:
    """:func:`measurement_axes` plus the circuit rebuilt on the compact axes.

    Returns ``(reduced, measured_qubits, compact_measured)``.
    """
    measured_qubits, _ = measurement_axes(circuit, measured_qubits)
    reduced, mapping = reduce_to_active_qubits(circuit, measured_qubits)
    return reduced, measured_qubits, [mapping[q] for q in measured_qubits]


def apply_instruction(state: np.ndarray, instruction: Instruction, num_qubits: int) -> np.ndarray:
    """Apply a unitary instruction to a statevector (measure/barrier are skipped)."""
    if not instruction.gate.is_unitary:
        return state
    return apply_matrix(state, instruction.gate.matrix(), instruction.qubits, num_qubits)


class StatevectorSimulator:
    """Ideal (noiseless) statevector simulator."""

    def __init__(self, num_qubits_limit: int = 24, seed: Optional[int] = None) -> None:
        self.num_qubits_limit = num_qubits_limit
        #: Generator used by :meth:`run_counts`; advances across calls so that
        #: repeated runs draw independent samples, like the noisy samplers.
        self.rng = np.random.default_rng(seed)

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return the final statevector after applying every unitary gate."""
        if circuit.num_qubits > self.num_qubits_limit:
            raise SimulationError(
                f"{circuit.num_qubits} qubits exceeds the simulator limit "
                f"({self.num_qubits_limit}); restrict to active qubits first"
            )
        if initial_state is None:
            state = zero_state(circuit.num_qubits)
        else:
            state = np.asarray(initial_state, dtype=complex)
            if state.shape != (2**circuit.num_qubits,):
                raise SimulationError("initial state has the wrong dimension")
            state = state.copy()
        num_qubits = circuit.num_qubits
        applied = 0
        for instruction in circuit.instructions:
            gate = instruction.gate
            if not gate.is_unitary:
                continue
            # ``gate.matrix()`` returns an interned read-only array for
            # parameter-free gates, so this loop no longer rebuilds the same
            # CNOT/Toffoli matrices once per instruction.
            state = apply_matrix(state, gate.matrix(), instruction.qubits, num_qubits)
            applied += 1
        if obs.is_enabled():
            obs.counter("sim.statevector.gate_applications").inc(applied)
            obs.histogram("sim.statevector.peak_bytes").observe(float(state.nbytes))
            obs.add_attrs(gate_applications=applied, peak_bytes=state.nbytes)
        return state

    def probabilities(
        self,
        circuit: QuantumCircuit,
        qubits: Optional[Sequence[int]] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """Outcome probabilities over ``qubits`` (all qubits by default)."""
        state = self.run(circuit, initial_state)
        return marginal_probabilities(state, circuit.num_qubits, qubits)

    def sample_counts(
        self,
        circuit: QuantumCircuit,
        shots: int,
        qubits: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> Dict[str, int]:
        """Sample measurement outcomes (noiseless) over the given qubits."""
        if shots < 1:
            raise SimulationError("shots must be positive")
        probs = self.probabilities(circuit, qubits, initial_state)
        return _sample_from_probs(probs, shots, np.random.default_rng(seed))

    def run_probabilities(
        self,
        circuit: QuantumCircuit,
        measured_qubits: Optional[Sequence[int]] = None,
    ) -> Dict[str, float]:
        """Exact (noiseless) outcome distribution over the measured qubits.

        The probability-backend counterpart of :meth:`run_counts`: the same
        active-qubit reduction and measured-qubit defaulting, but returning
        the analytic distribution instead of sampled counts, so experiment
        drivers in ``exact`` mode record zero-shot-variance numbers.
        """
        reduced, _, compact_measured = reduce_for_measurement(circuit, measured_qubits)
        # run() skips non-unitary instructions, so no measure-stripping copy.
        with obs.span(
            "statevector.run",
            category="sim",
            source=circuit.name,
            qubits=reduced.num_qubits,
        ):
            return self.probabilities(reduced, compact_measured)

    def run_counts(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        measured_qubits: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> NoisyResult:
        """Noiseless :class:`~repro.sim.SimulationBackend` entry point.

        Measures the given qubits (the circuit's ``measure`` instructions, or
        all active qubits, when omitted) and returns hardware-style counts.
        Like the noisy samplers, the circuit is first restricted to its active
        qubits, so wide device circuits with few active wires are cheap; a
        non-``None`` ``seed`` reseeds the generator for that call.
        """
        if shots < 1:
            raise SimulationError("shots must be positive")
        reduced, measured_qubits, compact_measured = reduce_for_measurement(
            circuit, measured_qubits
        )
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        with obs.span(
            "statevector.run",
            category="sim",
            source=circuit.name,
            qubits=reduced.num_qubits,
            shots=shots,
        ):
            probs = self.probabilities(reduced, compact_measured)
            counts = _sample_from_probs(probs, shots, self.rng)
        return NoisyResult(
            counts=counts, shots=shots, measured_qubits=tuple(measured_qubits)
        )


def marginal_distribution(
    probabilities: np.ndarray, num_qubits: int, qubits: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Marginalize a length-``2**num_qubits`` probability vector onto ``qubits``.

    Returns a dense ``2**len(qubits)`` vector whose index orders the requested
    qubits with ``qubits[0]`` as the most significant bit.  Shared by the
    statevector marginals and the density backend's exact distributions.
    """
    if qubits is None:
        qubits = list(range(num_qubits))
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise SimulationError(f"duplicate qubits in marginal request: {qubits}")
    out_of_range = [q for q in qubits if not 0 <= q < num_qubits]
    if out_of_range:
        raise SimulationError(
            f"qubits {out_of_range} are out of range for a {num_qubits}-qubit state"
        )
    tensor = np.asarray(probabilities).reshape((2,) * num_qubits)
    other_axes = tuple(q for q in range(num_qubits) if q not in qubits)
    marginal = tensor.sum(axis=other_axes) if other_axes else tensor
    # ``marginal`` axes are the kept qubits in increasing qubit order; reorder
    # them to match the caller's requested order.
    kept_sorted = sorted(qubits)
    order = [kept_sorted.index(q) for q in qubits]
    return np.transpose(marginal, order).reshape(-1)


def marginal_probabilities(
    state: np.ndarray, num_qubits: int, qubits: Optional[Sequence[int]] = None
) -> Dict[str, float]:
    """Probability of each bitstring over ``qubits`` (in the given order)."""
    if qubits is None:
        qubits = list(range(num_qubits))
    qubits = list(qubits)
    flat = marginal_distribution(np.abs(state) ** 2, num_qubits, qubits)
    width = len(qubits)
    result: Dict[str, float] = {}
    for index, probability in enumerate(flat):
        if probability > 1e-15:
            result[format(index, f"0{width}b")] = float(probability)
    return result


def statevector_fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """|⟨a|b⟩|² between two statevectors."""
    if state_a.shape != state_b.shape:
        raise SimulationError("states have different dimensions")
    return float(abs(np.vdot(state_a, state_b)) ** 2)
