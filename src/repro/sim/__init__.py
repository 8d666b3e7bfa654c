"""Simulators: ideal statevector/unitary, noisy samplers, exact density matrix.

Module map
----------
* :mod:`~repro.sim.statevector` — dense noiseless statevector evolution, the
  ``apply_matrix`` tensor-contraction kernel and marginal distributions.
* :mod:`~repro.sim.unitary` — whole-circuit unitaries and phase-aligned
  matrix comparisons.
* :mod:`~repro.sim.equivalence` — the formal equivalence-checking harness:
  exact unitary and randomized statevector circuit comparison
  (:func:`circuits_equivalent`, :func:`assert_unitary_equivalent`) plus
  layout-aware compiled-vs-logical checks (:func:`routed_circuits_equivalent`),
  shared by the optimisation passes' debug mode, the test suite and the
  benchmark harnesses.
* :mod:`~repro.sim.channels` — the noise-channel layer: Kraus/superoperator
  :class:`~repro.sim.channels.QuantumChannel` objects resolved on physical
  qubits from a :class:`~repro.hardware.calibration.DeviceCalibration` and
  built once per process, with CPTP validation.  Every noisy engine reads
  its error model from here.
* :mod:`~repro.sim.noise` — shot-sampling noisy engines: the stochastic-Pauli
  trajectory Monte Carlo and the paper's gate-failure model, batched over the
  shot dimension.
* :mod:`~repro.sim.density` — the exact open-system engine: density-matrix
  evolution under the same channels, analytic outcome distributions
  (``run_probabilities``) and multinomial shot sampling (``run_counts``).
* :mod:`~repro.sim.ptm` — the fast exact open-system engine: the same noise
  model evolved as a real Pauli-transfer-matrix vector over the live qubits
  (quantumsim style), one real contraction per fused operation.
* :mod:`~repro.sim.estimator` — the paper's closed-form success model (§2.6).
* :mod:`~repro.sim.result` — the :class:`NoisyResult` counts container.

Every shot-producing engine implements the :class:`SimulationBackend`
protocol — ``run_counts(circuit, shots, measured_qubits, seed) ->
NoisyResult`` — so experiment code can select an execution model by name via
:func:`get_backend` instead of hard-wiring sampler classes.  Backends that can
also produce *exact* outcome distributions additionally expose
``run_probabilities(circuit, measured_qubits) -> {bitstring: probability}``
(``"density"``, ``"ptm"`` and ``"ideal"`` today);
:func:`supports_exact_probabilities` tests for that capability, and
``BACKEND_CAPABILITIES`` records the exact/sampled classification per name.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..circuits.circuit import QuantumCircuit
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration
from .result import NoisyResult, counts_from_bit_array
from .statevector import (
    StatevectorSimulator,
    zero_state,
    basis_state,
    apply_matrix,
    marginal_distribution,
    marginal_probabilities,
    statevector_fidelity,
)
from .unitary import (
    circuit_unitary,
    permutation_unitary,
    equal_up_to_global_phase,
    phase_aligned_distance,
)
from .equivalence import (
    assert_routed_equivalent,
    assert_unitary_equivalent,
    circuits_equivalent,
    routed_circuits_equivalent,
    unpermute_statevector,
)
from .estimator import (
    SuccessEstimate,
    estimate_success,
    success_probability,
    success_ratio,
    circuit_duration,
)
from .channels import (
    NoiseModel,
    QuantumChannel,
    amplitude_damping_channel,
    amplitude_phase_damping_channel,
    depolarizing_channel,
    gate_error_probability,
    idle_channel,
    pauli_channel,
    phase_damping_channel,
    readout_confusion,
    unitary_channel,
)
from .density import DensityMatrixSimulator
from .ptm import PauliTransferMatrixSimulator
from .noise import PauliTrajectorySampler, GateFailureSampler


@runtime_checkable
class SimulationBackend(Protocol):
    """Anything that can turn a circuit into hardware-style shot counts."""

    def run_counts(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        measured_qubits: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> NoisyResult:
        """Execute ``circuit`` for ``shots`` shots and return counts."""
        ...


#: One-line description per registered backend, in documentation order.
BACKEND_DESCRIPTIONS: Dict[str, str] = {
    "failure": "the paper's gate-failure model, vectorized over shots",
    "trajectory": "stochastic-Pauli Monte Carlo, one evolution per unique error pattern",
    "density": "exact density-matrix evolution; analytic probabilities, multinomial counts",
    "ptm": "exact Pauli-transfer-matrix evolution with channel fusion; fast exact path",
    "ideal": "noiseless statevector sampling",
}

#: Registered backend names, in documentation order.
BACKEND_NAMES: Tuple[str, ...] = tuple(BACKEND_DESCRIPTIONS)

#: Capability classification per registered backend: ``"exact"`` engines
#: expose analytic ``run_probabilities``; ``"sampled"`` engines only produce
#: shot counts.  Every ``BACKEND_NAMES`` entry must appear here (enforced by
#: ``tests/test_backend_registry.py``).
BACKEND_CAPABILITIES: Dict[str, str] = {
    "failure": "sampled",
    "trajectory": "sampled",
    "density": "exact",
    "ptm": "exact",
    "ideal": "exact",
}

#: Names (and aliases) whose :func:`get_backend` result exposes
#: ``run_probabilities`` — the ``"exact"`` entries of ``BACKEND_CAPABILITIES``
#: plus the ``"statevector"`` alias; the CLI's ``--exact`` mode substitutes
#: ``"density"`` for anything not listed here.
EXACT_PROBABILITY_BACKENDS: Tuple[str, ...] = tuple(
    name for name, kind in BACKEND_CAPABILITIES.items() if kind == "exact"
) + ("statevector",)


def supports_exact_probabilities(backend: object) -> bool:
    """Whether ``backend`` can return analytic outcome distributions.

    True for engines exposing ``run_probabilities`` (the ``"density"``,
    ``"ptm"`` and ``"ideal"`` backends); the experiment drivers'
    ``exact=True`` mode requires this capability.
    """
    return callable(getattr(backend, "run_probabilities", None))


def get_backend(
    name: str,
    calibration: Optional[DeviceCalibration] = None,
    seed: Optional[int] = None,
    **kwargs,
) -> SimulationBackend:
    """Construct a :class:`SimulationBackend` by name.

    Args:
        name: ``"failure"`` for the fast gate-failure model, ``"trajectory"``
            for the stochastic-Pauli Monte Carlo, ``"density"`` for exact
            density-matrix evolution (multinomial shot sampling, plus
            ``run_probabilities``), ``"ptm"`` for the fused
            Pauli-transfer-matrix engine (same exact semantics as
            ``"density"``, typically several times faster), ``"ideal"``
            (alias ``"statevector"``) for noiseless sampling.
        calibration: Device error model; required by the noisy backends and
            ignored by the ideal one.
        seed: Seed for the backend's random generator (``run_counts`` may
            override it per call).
        **kwargs: Extra constructor arguments, e.g. ``max_active_qubits`` for
            the noisy backends or ``num_qubits_limit`` for the ideal one.

    Raises:
        SimulationError: For an unknown name (the message lists every
            registered backend) or a missing required calibration.
    """
    key = name.lower()
    if key in ("ideal", "statevector"):
        return StatevectorSimulator(seed=seed, **kwargs)
    if key in ("failure", "trajectory", "density", "ptm") and calibration is None:
        raise SimulationError(f"backend {name!r} requires a device calibration")
    if key == "failure":
        return GateFailureSampler(calibration, seed=seed, **kwargs)
    if key == "trajectory":
        return PauliTrajectorySampler(calibration, seed=seed, **kwargs)
    if key == "density":
        return DensityMatrixSimulator(calibration, seed=seed, **kwargs)
    if key == "ptm":
        return PauliTransferMatrixSimulator(calibration, seed=seed, **kwargs)
    raise SimulationError(
        f"unknown simulation backend {name!r}; available: {', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "SimulationBackend",
    "BACKEND_NAMES",
    "BACKEND_DESCRIPTIONS",
    "BACKEND_CAPABILITIES",
    "EXACT_PROBABILITY_BACKENDS",
    "get_backend",
    "supports_exact_probabilities",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "PauliTransferMatrixSimulator",
    "zero_state",
    "basis_state",
    "apply_matrix",
    "marginal_distribution",
    "marginal_probabilities",
    "statevector_fidelity",
    "counts_from_bit_array",
    "circuit_unitary",
    "permutation_unitary",
    "equal_up_to_global_phase",
    "phase_aligned_distance",
    "circuits_equivalent",
    "assert_unitary_equivalent",
    "assert_routed_equivalent",
    "routed_circuits_equivalent",
    "unpermute_statevector",
    "SuccessEstimate",
    "estimate_success",
    "success_probability",
    "success_ratio",
    "circuit_duration",
    "QuantumChannel",
    "NoiseModel",
    "unitary_channel",
    "pauli_channel",
    "depolarizing_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "amplitude_phase_damping_channel",
    "idle_channel",
    "readout_confusion",
    "gate_error_probability",
    "PauliTrajectorySampler",
    "GateFailureSampler",
    "NoisyResult",
]
