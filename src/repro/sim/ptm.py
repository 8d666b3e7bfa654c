"""Exact open-system simulation in the Pauli transfer matrix picture.

Where the density backend (:mod:`repro.sim.density`) evolves the full complex
``2^n x 2^n`` density matrix, :class:`PauliTransferMatrixSimulator` stores the
*same* state as its real-valued coefficient vector in the normalized Pauli
basis: ``r[alpha] = Tr(P_alpha rho) / sqrt(2^n)`` over the ``4^n`` Pauli
strings ``alpha`` (quantumsim-style).  Hermiticity of ``rho`` makes every
coefficient real, so every operation is one real matrix contraction:

* a unitary ``U`` on ``k`` qubits is its real ``4^k x 4^k`` PTM
  (:func:`~repro.sim.channels.unitary_ptm`), one contraction instead of the
  density backend's two complex applies;
* a noise channel is its cached PTM
  (:meth:`~repro.sim.channels.QuantumChannel.ptm`), derived once per
  process from the cached superoperator by the Pauli basis change (the
  channels live in the process-wide table of :mod:`repro.sim.channels`);
* composition is matrix product, so the **fusion layer**
  (:func:`fuse_ptm_ops`) collapses runs of same-wire one-qubit
  gates/channels into one 4x4 PTM, absorbs pending 1q PTMs plus each
  gate's own noise channel into a single ``4^k x 4^k`` contraction, and
  merges consecutive ops on one qubit pair in either order.

The live set
------------
A routed Toffoli activates up to eight qubits, but far fewer of them are
between their first and last operation at any moment (three or four on the
eight-qubit Trios cells of Figures 6-8).  :func:`evolve_live` therefore
carries the Pauli tensor over the **live set** only:

* a qubit *joins* — as ``|0><0| = (I + Z)/2``, i.e. ``(1, 0, 0, 1)/sqrt(2)``
  on (I, X, Y, Z) — at its first operation;
* a qubit that is not kept (not measured) *leaves* right after its last
  multi-qubit operation: it is traced out by keeping its I component times
  ``sqrt(2)`` (the ``sqrt(2^n)`` normalization shrinks by one qubit).  Its
  later one-qubit operations are skipped, as are all operations of a
  qubit that never meets another.  Both are exact for any CPTP op stream,
  ``"damping"`` mode included: the partial trace over a qubit commutes with
  everything acting elsewhere, and a trace-preserving map on the traced
  qubit leaves the rest unchanged.

The tensor's axes are kept in whatever order the last contraction left them
(tracked as a list of qubits), so each operation is one transpose-reshape and
one matrix product, with no copy back into qubit order.  The largest live
tensor is what ``sim.ptm.peak_bytes`` reports.

Outcome probabilities live entirely in the I/Z subspace: a projector
``|b><b|`` is a tensor product of ``(I ± Z)/2``, so ``p(b)`` over the ``m``
measured qubits is a per-qubit Hadamard transform of the ``2^m``
coefficients whose digits are all I or Z (:func:`pauli_probabilities`), read
straight off the live tensor in the requested order.  :meth:`evolve` keeps
every qubit and returns the full ``4^n`` vector in qubit order (qubit 0 the
most significant base-4 digit; I=0, X=1, Y=2, Z=3).

The engine runs on the circuit as given: qubits keep their physical labels
(the live set tracks any labels), so there is no rebuild onto compact
indices, and each instruction's noise is resolved on the couplers it really
uses.  Noise semantics are identical to the density backend — the same
per-gate channels from :func:`~repro.sim.channels.resolve_noise`, the same
``"global"``/``"damping"`` decoherence modes, and the very same classical
tail (:func:`repro.sim.density.finish_exact_distribution`) — so ``"ptm"``
and ``"density"`` agree to floating-point accuracy and the experiment
drivers treat them interchangeably.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..circuits.circuit import QuantumCircuit
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration
from .channels import resolve_noise, unitary_ptm
from .density import ExactSimulator, finish_exact_distribution
from .statevector import apply_matrix, measurement_axes

#: Identity PTM on one qubit — the fusion accumulator's seed.
_IDENTITY_PTM = np.eye(4)
_IDENTITY_PTM.setflags(write=False)

_SQRT2 = math.sqrt(2.0)

#: ``|0><0| = (I + Z)/2`` on one qubit in the normalized Pauli basis.
_ZERO_PAULI = np.array([1.0, 0.0, 0.0, 1.0]) / _SQRT2
_ZERO_PAULI.setflags(write=False)

#: One-qubit Hadamard-transform factor taking (c_I, c_Z) to (p_0, p_1).
_IZ_TO_PROB = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_IZ_TO_PROB.setflags(write=False)

#: A fused operation: target qubits plus the real PTM acting on them.
PtmOp = Tuple[Tuple[int, ...], np.ndarray]


def _fast_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` for small 2-D arrays without its shape-juggling overhead.

    The fusion layer krons 4x4 blocks on every multi-qubit absorption, where
    ``np.kron``'s generality costs more than the product itself.
    """
    rows_a, cols_a = a.shape
    rows_b, cols_b = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        rows_a * rows_b, cols_a * cols_b
    )


#: Kron-powers of the one-qubit I/Z→probability transform, cached per qubit
#: count.  At most ``2^10 x 2^10`` (8 MB); larger registers fall back to the
#: per-qubit sweep.
_IZ_TRANSFORM_CACHE: Dict[int, np.ndarray] = {}
_IZ_TRANSFORM_MAX_QUBITS = 10


def _iz_transform(num_qubits: int) -> np.ndarray:
    cached = _IZ_TRANSFORM_CACHE.get(num_qubits)
    if cached is None:
        cached = np.ones((1, 1))
        for _ in range(num_qubits):
            cached = _fast_kron(cached, _IZ_TO_PROB)
        cached = np.ascontiguousarray(cached)
        cached.setflags(write=False)
        _IZ_TRANSFORM_CACHE[num_qubits] = cached
    return cached


def pauli_probabilities(state: np.ndarray, num_qubits: int) -> np.ndarray:
    """The outcome distribution read off the I/Z-subspace components.

    ``state`` is a Pauli vector (flat, or as a ``(4,) * num_qubits`` tensor
    whose axes are the outcome bits, most significant first).
    ``|b><b|`` is a tensor product of ``(I + (-1)^{b_q} Z)/2``, so the
    probability vector is a per-qubit Hadamard transform of the ``2^n``
    coefficients whose base-4 digits are all I (0) or Z (3).  Clipped and
    renormalized exactly like the density backend's diagonal.
    """
    tensor = state.reshape((4,) * num_qubits)
    for axis in range(num_qubits):
        tensor = np.take(tensor, (0, 3), axis=axis)
    flat = tensor.reshape(-1)
    if num_qubits <= _IZ_TRANSFORM_MAX_QUBITS:
        flat = _iz_transform(num_qubits) @ flat
    else:
        for qubit in range(num_qubits):
            flat = apply_matrix(flat, _IZ_TO_PROB, (qubit,), num_qubits)
    probabilities = np.clip(flat.real if np.iscomplexobj(flat) else flat, 0.0, None)
    total = probabilities.sum()
    if total <= 0:
        raise SimulationError("Pauli vector has no probability mass")
    return probabilities / total


def fuse_ptm_ops(ops: Sequence[PtmOp]) -> List[PtmOp]:
    """Collapse a PTM op stream into fewer, larger contractions.

    Three fusions, all exact (PTM composition is matrix product):

    * consecutive one-qubit ops on the same wire accumulate into one 4x4
      PTM (a gate's unitary PTM and its noise PTM always fuse, as do whole
      1q runs such as the Toffoli decompositions' ``t``/``h`` chains);
    * a pending 1q PTM on a wire entering a multi-qubit op is absorbed into
      that op's PTM (one kron, zero extra state sweeps);
    * consecutive multi-qubit ops on the *same* qubit tuple — a CNOT and
      its depolarizing channel, back-to-back CNOT pairs — multiply into one
      ``4^k x 4^k`` PTM; so do consecutive two-qubit ops on the same pair
      in either order (the predecessor's 16x16 PTM is permuted onto the
      later op's qubit order first), which turns a SWAP's
      ``cx(a, b) cx(b, a) cx(a, b)`` into one contraction.

    Returns the fused op list in application order.
    """
    fused: List[PtmOp] = []
    pending: Dict[int, np.ndarray] = {}
    for qubits, ptm in ops:
        if len(qubits) == 1:
            qubit = qubits[0]
            held = pending.get(qubit)
            pending[qubit] = ptm if held is None else ptm @ held
            continue
        if any(q in pending for q in qubits):
            absorbed = pending.pop(qubits[0], _IDENTITY_PTM)
            for qubit in qubits[1:]:
                absorbed = _fast_kron(absorbed, pending.pop(qubit, _IDENTITY_PTM))
            ptm = ptm @ absorbed
        if fused and fused[-1][0] == qubits:
            fused[-1] = (qubits, ptm @ fused[-1][1])
        elif fused and len(qubits) == 2 and fused[-1][0] == qubits[::-1]:
            # The same pair in the other order: relabel the predecessor's
            # axes (a', b', a, b) -> (b', a', b, a) onto this op's order.
            swapped = fused[-1][1].reshape(4, 4, 4, 4).transpose(1, 0, 3, 2)
            fused[-1] = (qubits, ptm @ swapped.reshape(16, 16))
        else:
            fused.append((qubits, ptm))
    fused.extend(((qubit,), ptm) for qubit, ptm in pending.items())
    return fused


def evolve_live(
    ops: Sequence[PtmOp], kept: Sequence[int]
) -> Tuple[np.ndarray, List[int], int]:
    """Evolve ``|0...0>`` through ``ops`` over the live set only.

    Qubits join at their first applied op and every qubit not in ``kept``
    leaves (is traced out) right after its last multi-qubit op; its later
    one-qubit ops, and every op of a qubit that no multi-qubit op touches,
    are skipped.  Exact for trace-preserving ops (see the module notes).

    Returns ``(tensor, axes, peak_bytes)``: a ``(4,) * len(axes)`` tensor
    whose axis ``i`` is qubit ``axes[i]`` (every touched kept qubit, in no
    particular order), and the size of the largest tensor held on the way.
    """
    keep = set(kept)
    # For a qubit that is not kept, the index of its last multi-qubit op:
    # nothing after it can change the rest of the state.
    leaves_after: Dict[int, int] = {}
    for index, (qubits, _) in enumerate(ops):
        if len(qubits) > 1:
            for qubit in qubits:
                if qubit not in keep:
                    leaves_after[qubit] = index
    state = np.ones(())
    axes: List[int] = []
    peak = 0
    for index, (qubits, ptm) in enumerate(ops):
        if any(q not in keep and leaves_after.get(q, -1) < index for q in qubits):
            # A one-qubit op on a qubit that is not kept, after its last
            # multi-qubit op (or on a qubit that has none): it cannot act on
            # the kept qubits.
            continue
        for qubit in qubits:
            if qubit not in axes:
                state = np.multiply.outer(state, _ZERO_PAULI)
                axes.append(qubit)
        k = len(qubits)
        targets = [axes.index(q) for q in qubits]
        rest = [axis for axis in range(len(axes)) if axis not in targets]
        moved = state.transpose(targets + rest).reshape(4**k, -1)
        state = (ptm @ moved).reshape((4,) * len(axes))
        axes = list(qubits) + [axes[axis] for axis in rest]
        peak = max(peak, state.nbytes)
        leaving = [leaves_after.get(q) == index for q in qubits]
        if any(leaving):
            # The op's qubits are the leading axes; keep I (index 0) on
            # each leaving one, times sqrt(2) per traced qubit.
            state = state[tuple(0 if gone else slice(None) for gone in leaving)]
            state = state * _SQRT2 ** sum(leaving)
            axes = [q for q, gone in zip(qubits, leaving) if not gone] + axes[k:]
    return state, axes, peak


def _ordered(state: np.ndarray, axes: List[int], qubits: Sequence[int]) -> np.ndarray:
    """The live tensor over exactly ``qubits``, axes in that order.

    Kept qubits that no op touched are still ``|0><0|`` and join here.
    """
    axes = list(axes)
    for qubit in qubits:
        if qubit not in axes:
            state = np.multiply.outer(state, _ZERO_PAULI)
            axes.append(qubit)
    return state.transpose([axes.index(q) for q in qubits])


class PauliTransferMatrixSimulator(ExactSimulator):
    """Exact open-system simulator evolving a real Pauli vector.

    A drop-in peer of :class:`~repro.sim.density.DensityMatrixSimulator`
    (registered as backend ``"ptm"``): the same noise model, the same
    ``run_probabilities``/``run_counts`` surface, the same decoherence
    modes — but a real state over the live qubits only (:func:`evolve_live`)
    and one real contraction per (fused) operation instead of multiple
    complex ones, which is what makes it the fast exact path on the Fig 6-8
    noisy workloads.

    Args:
        calibration / seed / include_gate_errors / include_decoherence /
        include_readout_error / decoherence: As for
            :class:`~repro.sim.density.DensityMatrixSimulator`, with
            identical semantics.
        max_active_qubits: Limit on the active-plus-measured qubit count.
            The live tensor is never wider, and at ``4**n`` *real* values the
            default 12 costs at most the memory the density backend's default
            11 does.
        fuse: Run the channel-fusion layer (:func:`fuse_ptm_ops`) before
            contracting (default on; exact either way).
    """

    def __init__(
        self,
        calibration: Optional[DeviceCalibration] = None,
        seed: Optional[int] = None,
        include_gate_errors: bool = True,
        include_decoherence: bool = True,
        include_readout_error: bool = True,
        decoherence: str = "global",
        max_active_qubits: int = 12,
        fuse: bool = True,
    ) -> None:
        super().__init__(
            calibration, seed, include_gate_errors, include_decoherence,
            include_readout_error, decoherence, max_active_qubits,
        )
        self.fuse = fuse

    # ------------------------------------------------------------------
    def circuit_ops(self, circuit: QuantumCircuit) -> List[PtmOp]:
        """The raw PTM op stream of ``circuit``: gates plus noise channels.

        One op per unitary instruction (its cached
        :func:`~repro.sim.channels.unitary_ptm`), followed by its calibrated
        gate-error channel's PTM and, in ``"damping"`` mode, per-qubit idle
        damping PTMs — the exact operation sequence the density backend
        applies, expressed as real matrices.
        """
        ops: List[PtmOp] = []
        damping = self.include_decoherence and self.decoherence == "damping"
        for instruction, channel, idle in resolve_noise(
            circuit, self.noise_model, self.include_gate_errors, damping
        ):
            qubits = instruction.qubits
            ops.append((qubits, unitary_ptm(instruction.gate.matrix())))
            if channel is not None:
                ops.append((qubits, channel.ptm()))
            if idle is not None:
                idle_ptm = idle.ptm()
                ops.extend(((qubit,), idle_ptm) for qubit in qubits)
        return ops

    def _evolve(
        self, circuit: QuantumCircuit, kept: Sequence[int]
    ) -> Tuple[np.ndarray, List[int]]:
        """:func:`evolve_live` over ``circuit``'s (fused) op stream, observed."""
        ops = self.circuit_ops(circuit)
        raw_ops = len(ops)
        if self.fuse:
            ops = fuse_ptm_ops(ops)
        state, axes, peak_bytes = evolve_live(ops, kept)
        if obs.is_enabled():
            obs.counter("sim.ptm.op_applications").inc(len(ops))
            obs.counter("sim.ptm.fused_ops_saved").inc(raw_ops - len(ops))
            obs.histogram("sim.ptm.peak_bytes").observe(float(peak_bytes))
            obs.add_attrs(
                op_applications=len(ops),
                raw_ops=raw_ops,
                fused_ops_saved=raw_ops - len(ops),
                peak_bytes=peak_bytes,
            )
        return state, axes

    def evolve(self, circuit: QuantumCircuit) -> np.ndarray:
        """The final real ``4^n`` Pauli vector of ``circuit``, in qubit order.

        Every qubit is kept, so nothing is traced out.  Global decoherence
        and readout are classical post-processing on the outcome
        distribution (shared with the density backend) and are *not* part
        of this vector.
        """
        if circuit.num_qubits > self.max_active_qubits:
            raise SimulationError(
                f"{circuit.num_qubits} qubits exceeds the PTM simulator "
                f"limit ({self.max_active_qubits}); restrict to active "
                "qubits first"
            )
        qubits = range(circuit.num_qubits)
        state, axes = self._evolve(circuit, qubits)
        return np.ascontiguousarray(_ordered(state, axes, qubits)).reshape(-1)

    def _exact_distribution(
        self,
        circuit: QuantumCircuit,
        measured_qubits: Optional[Sequence[int]],
    ) -> Tuple[np.ndarray, List[int]]:
        """The exact outcome distribution over the measured qubits, in order."""
        # The live set tracks any qubit labels, so the circuit is evolved as
        # given, its noise resolved on the physical couplers.
        measured_qubits, axes = measurement_axes(circuit, measured_qubits)
        if len(axes) > self.max_active_qubits:
            raise SimulationError(
                f"{len(axes)} active qubits exceeds the PTM "
                f"simulator limit ({self.max_active_qubits})"
            )
        if len(set(measured_qubits)) != len(measured_qubits):
            raise SimulationError(
                f"duplicate qubits in marginal request: {measured_qubits}"
            )
        with obs.span(
            "ptm.run", category="sim", source=circuit.name,
            qubits=len(axes), fuse=self.fuse,
        ):
            state, live = self._evolve(circuit, measured_qubits)
            distribution = pauli_probabilities(
                _ordered(state, live, measured_qubits), len(measured_qubits)
            )
            distribution = finish_exact_distribution(
                distribution, circuit, self, len(measured_qubits)
            )
        return distribution, measured_qubits
