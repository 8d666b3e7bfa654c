"""Quantum noise channels compiled from device calibration data.

This module is the single home of "calibration → noise" logic.  It turns a
:class:`~repro.hardware.calibration.DeviceCalibration` into concrete quantum
channels, and every execution engine consumes the same objects:

* the exact density-matrix backend (:mod:`repro.sim.density`) applies the
  channels' cached superoperators to a density matrix;
* the stochastic-Pauli sampler (:mod:`repro.sim.noise`) draws its per-gate
  error probabilities from :func:`gate_error_probability`, so the sampled and
  the exact engines are guaranteed to model the *same* noise.

A :class:`QuantumChannel` stores its Kraus operators and lazily caches the
superoperator, PTM and Choi representations; :meth:`QuantumChannel.is_cptp`
validates complete positivity (Choi positivity) and trace preservation
(Kraus completeness).  :class:`NoiseModel` resolves an instruction's noise on
its *physical* qubits — a depolarizing channel at the (possibly per-edge)
calibrated rate, amplitude+phase damping for its duration, and a stochastic
confusion matrix for readout — and :func:`resolve_noise` walks a circuit
through it for the exact backends.  The channels live in one bounded,
process-wide table keyed on the exact bits of their parameters, so each is
built (Kraus operators, superoperator, PTM) once per process, however many
backends and calibrations ask for it.

Conventions: ``vec`` is row-major (``vec(rho)[i*d + j] = rho[i, j]``), so the
superoperator of Kraus set ``{K}`` is ``S = sum_K kron(K, K.conj())`` and
``vec(K rho K†) = S @ vec(rho)``.  Multi-qubit Pauli labels put the channel's
first qubit leftmost, matching :meth:`repro.circuits.gate.Gate.matrix`.
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from ..circuits.circuit import Instruction, QuantumCircuit
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration, damping_parameters

#: Single-qubit Pauli matrices, keyed by label.  (The trajectory sampler's
#: historical aliases in :mod:`repro.sim.noise` point at these.)
PAULI_MATRICES: Dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_LABELS: Tuple[str, ...] = ("I", "X", "Y", "Z")
for _matrix in PAULI_MATRICES.values():
    _matrix.setflags(write=False)


def pauli_matrix(label: str) -> np.ndarray:
    """The tensor product of single-qubit Paulis named by ``label`` (e.g. ``"XZ"``)."""
    if not label or any(ch not in PAULI_MATRICES for ch in label):
        raise SimulationError(f"invalid Pauli label {label!r}")
    matrix = PAULI_MATRICES[label[0]]
    for ch in label[1:]:
        matrix = np.kron(matrix, PAULI_MATRICES[ch])
    return matrix


# ----------------------------------------------------------------------
# Pauli transfer matrices (the basis the PTM backend evolves in)
# ----------------------------------------------------------------------
#: Basis-change matrices ``A_k`` from row-major ``vec`` to the normalized
#: Pauli basis, keyed by qubit count.  ``A_k`` is unitary (the normalized
#: Paulis are orthonormal under the Hilbert-Schmidt inner product), so the
#: PTM of a channel with superoperator ``S`` is ``A S A†`` — real for any
#: Hermiticity-preserving map.
_PAULI_BASIS_CACHE: Dict[int, np.ndarray] = {}


def pauli_basis_matrix(num_qubits: int) -> np.ndarray:
    """The unitary ``4^k x 4^k`` change of basis from ``vec`` to Pauli.

    Row ``alpha`` is ``conj(vec(P_alpha)) / sqrt(2^k)`` with the Pauli strings
    enumerated in base-4 digit order (I, X, Y, Z per qubit, first qubit most
    significant — the same ordering as :func:`pauli_matrix` labels), so
    ``pauli_basis_matrix(k) @ vec(rho)`` is the vector of normalized Pauli
    coefficients ``Tr(P_alpha rho) / sqrt(2^k)``.
    """
    if num_qubits < 1:
        raise SimulationError("need at least one qubit")
    cached = _PAULI_BASIS_CACHE.get(num_qubits)
    if cached is None:
        scale = 1.0 / math.sqrt(2**num_qubits)
        rows = [
            scale * pauli_matrix("".join(label)).reshape(-1).conj()
            for label in itertools.product(PAULI_LABELS, repeat=num_qubits)
        ]
        cached = np.ascontiguousarray(np.array(rows))
        cached.setflags(write=False)
        _PAULI_BASIS_CACHE[num_qubits] = cached
    return cached


def ptm_from_superoperator(superoperator: np.ndarray) -> np.ndarray:
    """Conjugate a row-major superoperator into the normalized Pauli basis.

    The result of a CPTP (or any Hermiticity-preserving) map is real; the
    imaginary part left by floating-point round-off is validated tiny and
    dropped, so the PTM backend evolves in pure float64 arithmetic.
    """
    dim = superoperator.shape[0]
    num_qubits = (int(dim).bit_length() - 1) // 2
    if dim != 4**num_qubits or superoperator.shape != (dim, dim):
        raise SimulationError(
            f"superoperator of shape {superoperator.shape} is not 4^k x 4^k"
        )
    basis = pauli_basis_matrix(num_qubits)
    ptm = basis @ superoperator @ basis.conj().T
    residue = float(np.abs(ptm.imag).max())
    if residue > 1e-9:
        raise SimulationError(
            f"superoperator is not Hermiticity-preserving: PTM has imaginary "
            f"residue {residue:g}"
        )
    real = np.ascontiguousarray(ptm.real)
    real.setflags(write=False)
    return real


#: Memoized PTMs of *unitary* gates, keyed by the matrix bytes.  Gate
#: matrices are interned read-only singletons for parameter-free gates, so
#: the common case is one entry per distinct gate; parameterized gates
#: (``u3`` after consolidation) hash by content.  Bounded like the
#: commutation memo: cleared wholesale on overflow rather than growing
#: without limit under adversarial parameter streams.
_UNITARY_PTM_CACHE: Dict[Tuple[int, bytes], np.ndarray] = {}
_UNITARY_PTM_CACHE_LIMIT = 50_000


def unitary_ptm(matrix: np.ndarray) -> np.ndarray:
    """The real ``4^k x 4^k`` Pauli transfer matrix of a unitary ``U``.

    ``R = A (U ⊗ U*) A†`` with ``A`` the normalized Pauli basis change —
    the same math as :meth:`QuantumChannel.ptm` without building a channel
    object per gate instruction.
    """
    matrix = np.asarray(matrix, dtype=complex)
    key = (matrix.shape[0], matrix.tobytes())
    cached = _UNITARY_PTM_CACHE.get(key)
    if cached is None:
        if len(_UNITARY_PTM_CACHE) >= _UNITARY_PTM_CACHE_LIMIT:
            _UNITARY_PTM_CACHE.clear()
        cached = ptm_from_superoperator(np.kron(matrix, matrix.conj()))
        _UNITARY_PTM_CACHE[key] = cached
    return cached


class QuantumChannel:
    """A completely-positive trace-preserving map on ``k`` qubits.

    Stored as a tuple of read-only Kraus operators; the superoperator and
    Choi representations are computed once on first use and cached.  Channels
    are immutable value objects and pickle cleanly (caches included), which
    the parallel experiment sweeps rely on.
    """

    def __init__(self, kraus, name: str = "channel") -> None:
        operators = tuple(
            np.ascontiguousarray(np.asarray(op, dtype=complex)) for op in kraus
        )
        if not operators:
            raise SimulationError("a channel needs at least one Kraus operator")
        dim = operators[0].shape[0] if operators[0].ndim == 2 else 0
        num_qubits = int(dim).bit_length() - 1 if dim > 0 else 0
        if dim <= 0 or 2**num_qubits != dim:
            raise SimulationError(
                f"Kraus operators must be square with power-of-two dimension, "
                f"got shape {operators[0].shape}"
            )
        for op in operators:
            if op.shape != (dim, dim):
                raise SimulationError(
                    f"all Kraus operators must share shape ({dim}, {dim}), "
                    f"got {op.shape}"
                )
            op.setflags(write=False)
        self.name = name
        self.kraus = operators
        self._superoperator: Optional[np.ndarray] = None
        self._choi: Optional[np.ndarray] = None
        self._ptm: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return self.kraus[0].shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def superoperator(self) -> np.ndarray:
        """The ``d² x d²`` matrix acting on row-major vectorized densities.

        ``vec(E(rho)) = superoperator() @ vec(rho)`` with ``vec`` row-major.
        Built once and cached read-only; the density backend applies this with
        one tensor contraction per channel instead of one per Kraus operator.
        """
        if self._superoperator is None:
            total = sum(np.kron(op, op.conj()) for op in self.kraus)
            total = np.ascontiguousarray(total)
            total.setflags(write=False)
            self._superoperator = total
        return self._superoperator

    def ptm(self) -> np.ndarray:
        """The real ``4^k x 4^k`` Pauli transfer matrix of this channel.

        ``R[alpha, beta] = Tr(P_alpha E(P_beta)) / 2^k`` in the normalized
        Pauli basis — derived from the cached superoperator by the Pauli
        basis change (:func:`ptm_from_superoperator`), computed once and
        cached read-only.  The process-wide channel table hands every
        instruction with the same error rate the same channel, so they all
        share one PTM (and one superoperator).  The PTM backend
        (:mod:`repro.sim.ptm`) applies this with a single real contraction
        per channel.
        """
        if self._ptm is None:
            self._ptm = ptm_from_superoperator(self.superoperator())
        return self._ptm

    def choi(self) -> np.ndarray:
        """The Choi matrix ``sum_K vec(K) vec(K)†`` (row-major ``vec``)."""
        if self._choi is None:
            vecs = [op.reshape(-1) for op in self.kraus]
            total = sum(np.outer(v, v.conj()) for v in vecs)
            total = np.ascontiguousarray(total)
            total.setflags(write=False)
            self._choi = total
        return self._choi

    def kraus_completeness_defect(self) -> float:
        """``max |sum_K K†K - I|`` — zero for a trace-preserving channel."""
        total = sum(op.conj().T @ op for op in self.kraus)
        return float(np.abs(total - np.eye(self.dim)).max())

    def is_cptp(self, atol: float = 1e-9) -> bool:
        """Validate complete positivity and trace preservation.

        Checks Kraus completeness (``sum K†K = I``), Choi hermiticity and Choi
        positivity (eigenvalues ≥ -atol).
        """
        if self.kraus_completeness_defect() > atol:
            return False
        choi = self.choi()
        if np.abs(choi - choi.conj().T).max() > atol:
            return False
        return float(np.linalg.eigvalsh(choi).min()) >= -atol

    def __repr__(self) -> str:
        return (
            f"QuantumChannel({self.name!r}, qubits={self.num_qubits}, "
            f"kraus={len(self.kraus)})"
        )


# ----------------------------------------------------------------------
# Channel constructors
# ----------------------------------------------------------------------
def unitary_channel(matrix: np.ndarray, name: str = "unitary") -> QuantumChannel:
    """The noiseless channel ``rho -> U rho U†``."""
    return QuantumChannel((matrix,), name=name)


def pauli_channel(
    probabilities: Mapping[str, float], num_qubits: Optional[int] = None
) -> QuantumChannel:
    """A Pauli mixture: each label in ``probabilities`` fires with its weight.

    The identity keeps the remaining probability mass (an explicit identity
    entry is rejected to avoid ambiguity), so the weights must sum to at most
    one.  Labels are ``num_qubits``-character Pauli strings with the channel's
    first qubit leftmost.
    """
    if not probabilities and num_qubits is None:
        raise SimulationError("an empty Pauli channel needs an explicit num_qubits")
    width = num_qubits if num_qubits is not None else len(next(iter(probabilities)))
    identity = "I" * width
    total = 0.0
    for label, probability in probabilities.items():
        if len(label) != width:
            raise SimulationError(
                f"Pauli label {label!r} does not act on {width} qubits"
            )
        if label == identity:
            raise SimulationError(
                "do not pass the identity explicitly; it keeps the remaining mass"
            )
        if probability < 0:
            raise SimulationError(f"negative probability for {label!r}")
        total += probability
    if total > 1.0 + 1e-12:
        raise SimulationError(f"Pauli probabilities sum to {total} > 1")
    remainder = max(0.0, 1.0 - total)
    kraus = [math.sqrt(remainder) * pauli_matrix(identity)]
    kraus.extend(
        math.sqrt(probability) * pauli_matrix(label)
        for label, probability in probabilities.items()
        if probability > 0
    )
    return QuantumChannel(kraus, name=f"pauli({width}q)")


def depolarizing_channel(error_probability: float, num_qubits: int = 1) -> QuantumChannel:
    """With probability ``p``, apply a uniformly random *non-identity* Pauli.

    This is exactly the per-gate error event of the stochastic-Pauli
    trajectory sampler, so evolving with these channels reproduces the
    sampler's outcome distribution in expectation.
    """
    if not 0.0 <= error_probability <= 1.0:
        raise SimulationError(
            f"error probability must be in [0, 1], got {error_probability}"
        )
    share = error_probability / (4**num_qubits - 1)
    probabilities = {
        "".join(label): share
        for label in itertools.product(PAULI_LABELS, repeat=num_qubits)
        if set(label) != {"I"}
    }
    channel = pauli_channel(probabilities, num_qubits=num_qubits)
    channel.name = f"depolarizing(p={error_probability:g}, {num_qubits}q)"
    return channel


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    """Energy relaxation (T1 decay) with excited-state decay probability ``gamma``."""
    return amplitude_phase_damping_channel(gamma, 0.0)


def phase_damping_channel(lam: float) -> QuantumChannel:
    """Pure dephasing (T2 decay) with phase-scattering probability ``lam``."""
    return amplitude_phase_damping_channel(0.0, lam)


def amplitude_phase_damping_channel(gamma: float, lam: float) -> QuantumChannel:
    """Combined amplitude and phase damping on one qubit.

    Kraus operators (``gamma + lam <= 1``)::

        K0 = [[1, 0], [0, sqrt(1-gamma-lam)]]   # nothing happened
        K1 = [[0, sqrt(gamma)], [0, 0]]         # relaxation |1> -> |0>
        K2 = [[0, 0], [0, sqrt(lam)]]           # phase scattering

    Populations decay by ``1 - gamma``; coherences by ``sqrt(1-gamma-lam)``.
    """
    for label, value in (("gamma", gamma), ("lam", lam)):
        if not 0.0 <= value <= 1.0:
            raise SimulationError(f"{label} must be in [0, 1], got {value}")
    if gamma + lam > 1.0 + 1e-12:
        raise SimulationError(f"gamma + lam = {gamma + lam} exceeds 1")
    keep = math.sqrt(max(0.0, 1.0 - gamma - lam))
    kraus = [np.array([[1.0, 0.0], [0.0, keep]], dtype=complex)]
    if gamma > 0:
        kraus.append(np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex))
    if lam > 0:
        kraus.append(np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex))
    return QuantumChannel(kraus, name=f"damping(gamma={gamma:g}, lam={lam:g})")


def idle_channel(duration: float, t1: float, t2: float) -> QuantumChannel:
    """Amplitude+phase damping for idling ``duration`` µs at the given T1/T2.

    The (gamma, lam) math lives in
    :func:`repro.hardware.calibration.damping_parameters` (shared with
    :class:`~repro.hardware.calibration.DeviceCalibration`).
    """
    gamma, lam = damping_parameters(duration, t1, t2)
    channel = amplitude_phase_damping_channel(gamma, lam)
    channel.name = f"idle(t={duration:g}us)"
    return channel


def readout_confusion(error: float) -> np.ndarray:
    """The symmetric readout confusion matrix ``M[read, true]``.

    Column-stochastic: ``M = [[1-r, r], [r, 1-r]]`` flips each measured bit
    independently with probability ``r``, exactly like the shot samplers'
    vectorized readout flips.
    """
    if not 0.0 <= error < 1.0:
        raise SimulationError(f"readout error must be in [0, 1), got {error}")
    matrix = np.array([[1.0 - error, error], [error, 1.0 - error]])
    matrix.setflags(write=False)
    return matrix


# ----------------------------------------------------------------------
# Calibration → channels
# ----------------------------------------------------------------------
def gate_error_probability(
    calibration: DeviceCalibration, instruction: Instruction
) -> float:
    """Error probability of one compiled-circuit instruction.

    This is the per-gate weight both the trajectory sampler and the density
    backend use: the calibrated one-qubit rate for 1q gates, the (possibly
    per-edge) CNOT rate for 2q gates, and the three-CNOT compound
    ``1 - (1-e)³`` for a SWAP left in the circuit.
    """
    name = instruction.name
    qubits = instruction.qubits
    if len(qubits) == 1:
        return calibration.one_qubit_gate_error
    if len(qubits) == 2:
        error = calibration.gate_error("cx", qubits)
        if name == "swap":
            return 1.0 - (1.0 - error) ** 3
        return error
    raise SimulationError(
        f"gate {name!r} on {len(qubits)} qubits must be decomposed before "
        "noisy simulation"
    )


#: The process-wide channel table: every noise channel a calibration compiles
#: to, keyed on the exact bits of its defining parameters — ``("depolarizing",
#: arity, p)`` for gate errors, ``("damping", gamma, lam)`` for idle windows
#: (never on a duration alone, which means different damping at another
#: T1/T2).  Each entry is one :class:`QuantumChannel`, so its superoperator
#: and PTM are built once per process and shared by every backend, every
#: :class:`NoiseModel` and every calibration with the same rates.  Bounded
#: like :data:`_UNITARY_PTM_CACHE`: cleared wholesale on overflow.  Two
#: threads missing on one key at once each build an equal channel; either
#: entry is correct, so the table needs no lock.
_CHANNEL_TABLE: Dict[Tuple[object, ...], QuantumChannel] = {}
_CHANNEL_TABLE_LIMIT = 4096


def _tabled(key: Tuple[object, ...], build: Callable[[], QuantumChannel]) -> QuantumChannel:
    channel = _CHANNEL_TABLE.get(key)
    if channel is None:
        if len(_CHANNEL_TABLE) >= _CHANNEL_TABLE_LIMIT:
            _CHANNEL_TABLE.clear()
        channel = build()
        _CHANNEL_TABLE[key] = channel
    return channel


class NoiseModel:
    """Resolves each instruction's noise, on its physical qubits, to channels.

    The model holds only its calibration: the channels themselves come from
    the process-wide channel table, so a fresh model (one per
    :func:`~repro.sim.get_backend` call) reuses every channel, superoperator
    and PTM an earlier one built.  Picklable; a pool worker fills its own
    table on first use.
    """

    def __init__(self, calibration: DeviceCalibration) -> None:
        self.calibration = calibration
        self._confusion: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def gate_channel(self, instruction: Instruction) -> Optional[QuantumChannel]:
        """The noise channel following ``instruction``, or ``None`` if noiseless.

        A uniform non-identity Pauli channel with the error probability of
        the instruction's physical qubits — the exact channel the trajectory
        sampler samples.
        """
        probability = gate_error_probability(self.calibration, instruction)
        if probability <= 0.0:
            return None
        arity = len(instruction.qubits)
        return _tabled(
            ("depolarizing", arity, struct.pack("<d", probability)),
            lambda: depolarizing_channel(probability, arity),
        )

    def idle_channel(self, duration: float) -> Optional[QuantumChannel]:
        """Amplitude+phase damping for an idle window of ``duration`` µs."""
        if duration <= 0.0:
            return None
        gamma, lam = self.calibration.damping_parameters(duration)
        return _tabled(
            ("damping", struct.pack("<dd", gamma, lam)),
            lambda: amplitude_phase_damping_channel(gamma, lam),
        )

    def decoherence_failure_probability(self, duration: float) -> float:
        """The paper's whole-register scramble probability for ``duration`` µs."""
        return self.calibration.decoherence_failure_probability(duration)

    def readout_confusion(self) -> np.ndarray:
        """The 2x2 stochastic confusion matrix for one measured bit."""
        if self._confusion is None:
            self._confusion = readout_confusion(self.calibration.readout_error)
        return self._confusion

    def __repr__(self) -> str:
        return f"NoiseModel({self.calibration.name!r})"


def resolve_noise(
    circuit: QuantumCircuit,
    model: Optional[NoiseModel],
    gate_errors: bool = True,
    damping: bool = False,
) -> Iterator[Tuple[Instruction, Optional[QuantumChannel], Optional[QuantumChannel]]]:
    """Each unitary instruction of ``circuit`` with its gate and idle channel.

    The single calibration → noise step of the exact backends.  Errors are
    looked up on the instruction's *physical* qubits (per-edge CNOT rates
    included); only then may a backend map those qubits to its own axes.
    The idle channel (``damping`` mode: damping for the gate's duration) acts
    on each of the qubits; either is ``None`` when off, zero, or noiseless.
    """
    for instruction in circuit.instructions:
        if not instruction.gate.is_unitary:
            continue
        if model is None:
            yield instruction, None, None
            continue
        gate = model.gate_channel(instruction) if gate_errors else None
        idle = None
        if damping:
            idle = model.idle_channel(
                model.calibration.gate_duration(instruction.name, instruction.qubits)
            )
        yield instruction, gate, idle
