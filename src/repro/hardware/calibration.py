"""Device calibration data: gate errors, durations and coherence times.

The numbers in :func:`johannesburg_aug19_2020` are the ones quoted in §5.2 of
the paper (obtained from IBM's randomised benchmarking on 2020-08-19):
average T1 = 70.87 µs, T2 = 72.72 µs, two-qubit gate time 0.559 µs with error
0.0147, one-qubit gate time 0.07 µs with error 0.0004.

The paper does not quote readout error or duration explicitly, only that
measurement error is "on the same order of magnitude as CNOT gates"; we use
0.02 error and 3.5 µs duration, typical of the 2020 IBM fleet.

All times are in microseconds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, NamedTuple, Tuple

from ..exceptions import HardwareError
from .topology import CouplingMap

Edge = Tuple[int, int]


def damping_parameters(duration: float, t1: float, t2: float) -> Tuple[float, float]:
    """Amplitude/phase-damping strengths for idling ``duration`` µs at T1/T2.

    Returns ``(gamma, lam)`` for the combined amplitude+phase damping
    channel: ``gamma = 1 - exp(-t/T1)`` relaxes populations and ``lam`` is
    chosen so the off-diagonal coherences decay by ``exp(-t/T2)``.  ``lam``
    clamps at zero when ``T2 > 2*T1`` would demand negative pure dephasing
    (the channel stays CPTP; coherences then decay at the T1-limited rate).
    This is the single home of the T1/T2 → damping math, shared by
    :meth:`DeviceCalibration.damping_parameters` and
    :func:`repro.sim.channels.idle_channel`.
    """
    if duration < 0:
        raise HardwareError(f"duration must be non-negative, got {duration}")
    if t1 <= 0 or t2 <= 0:
        raise HardwareError("T1 and T2 must be positive")
    gamma = 1.0 - math.exp(-duration / t1)
    lam = max(0.0, math.exp(-duration / t1) - math.exp(-2.0 * duration / t2))
    return gamma, lam


class GateCosts(NamedTuple):
    """A calibration's per-gate cost model as plain floats.

    The one home of what a native gate costs: :meth:`DeviceCalibration.gate_error`
    and :meth:`~DeviceCalibration.gate_duration` answer from it, and the
    success estimator reads it once per circuit instead of asking per gate.
    """

    one_qubit_error: float
    two_qubit_error: float
    #: Per-coupler CNOT errors, keyed ``(min, max)``; often empty.
    edge_errors: Mapping[Edge, float]
    readout_error: float
    one_qubit_time: float
    two_qubit_time: float
    #: A SWAP left in the circuit is three back-to-back CNOTs.
    swap_time: float
    #: The duration of a measurement, and of a reset.
    readout_time: float

    def two_qubit_error_on(self, a: int, b: int) -> float:
        """The CNOT error on the coupler ``(a, b)``, in either orientation."""
        if self.edge_errors:
            return self.edge_errors.get((a, b) if a < b else (b, a), self.two_qubit_error)
        return self.two_qubit_error


@dataclass(frozen=True)
class DeviceCalibration:
    """Average error rates and timing for a device.

    Attributes:
        name: Human-readable label.
        t1: Relaxation time in microseconds.
        t2: Dephasing time in microseconds.
        one_qubit_gate_time: Duration of a single-qubit gate (µs).
        two_qubit_gate_time: Duration of a CNOT (µs).
        one_qubit_gate_error: Error probability per single-qubit gate.
        two_qubit_gate_error: Error probability per CNOT.
        readout_error: Error probability per measurement.
        readout_time: Duration of a measurement (µs).
        edge_errors: Optional per-coupler CNOT error rates, used by the
            noise-aware routing variant; falls back to the average when absent.
    """

    name: str
    t1: float
    t2: float
    one_qubit_gate_time: float
    two_qubit_gate_time: float
    one_qubit_gate_error: float
    two_qubit_gate_error: float
    readout_error: float
    readout_time: float
    edge_errors: Mapping[Edge, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, value in (
            ("t1", self.t1),
            ("t2", self.t2),
            ("one_qubit_gate_time", self.one_qubit_gate_time),
            ("two_qubit_gate_time", self.two_qubit_gate_time),
        ):
            if value <= 0:
                raise HardwareError(f"{label} must be positive, got {value}")
        for label, value in (
            ("one_qubit_gate_error", self.one_qubit_gate_error),
            ("two_qubit_gate_error", self.two_qubit_gate_error),
            ("readout_error", self.readout_error),
        ):
            if not 0 <= value < 1:
                raise HardwareError(f"{label} must be in [0, 1), got {value}")

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @functools.cached_property
    def gate_costs(self) -> GateCosts:
        """The per-gate cost model, computed once per calibration."""
        return GateCosts(
            one_qubit_error=float(self.one_qubit_gate_error),
            two_qubit_error=float(self.two_qubit_gate_error),
            edge_errors={edge: float(error) for edge, error in self.edge_errors.items()},
            readout_error=float(self.readout_error),
            one_qubit_time=float(self.one_qubit_gate_time),
            two_qubit_time=float(self.two_qubit_gate_time),
            swap_time=float(self.two_qubit_gate_time * 3),
            readout_time=float(self.readout_time),
        )

    def gate_error(self, name: str, qubits: Tuple[int, ...]) -> float:
        """Error probability for a gate with the given name acting on ``qubits``."""
        costs = self.gate_costs
        if name == "barrier":
            return 0.0
        if name == "measure":
            return costs.readout_error
        if len(qubits) == 1:
            return costs.one_qubit_error
        if len(qubits) == 2:
            return costs.two_qubit_error_on(*qubits)
        raise HardwareError(
            f"gate {name!r} on {len(qubits)} qubits is not hardware-native; "
            "decompose before estimating errors"
        )

    def gate_duration(self, name: str, qubits: Tuple[int, ...]) -> float:
        """Duration (µs) for a hardware-native gate."""
        costs = self.gate_costs
        if name == "barrier":
            return 0.0
        if name == "measure" or name == "reset":
            return costs.readout_time
        if len(qubits) == 1:
            return costs.one_qubit_time
        if len(qubits) == 2:
            return costs.swap_time if name == "swap" else costs.two_qubit_time
        raise HardwareError(
            f"gate {name!r} on {len(qubits)} qubits has no native duration"
        )

    def cnot_error(self, a: int, b: int) -> float:
        """CNOT error rate on the coupler (a, b)."""
        return self.gate_error("cx", (a, b))

    def edge_weight_neg_log_success(self, coupling: CouplingMap) -> Dict[Edge, float]:
        """Per-edge weights ``-log(1 - error)`` for noise-aware shortest paths (§4)."""
        weights: Dict[Edge, float] = {}
        for a, b in coupling.edges:
            success = 1.0 - self.cnot_error(a, b)
            weights[(a, b)] = -math.log(max(success, 1e-12))
        return weights

    def damping_parameters(self, duration: float) -> Tuple[float, float]:
        """Amplitude/phase-damping strengths for idling ``duration`` µs.

        Delegates to the module-level :func:`damping_parameters` with this
        calibration's T1/T2 — see there for the clamping convention.
        """
        return damping_parameters(duration, self.t1, self.t2)

    def decoherence_failure_probability(self, duration: float) -> float:
        """The paper's whole-register decoherence failure, ``1 - e^{-(Δ/T1+Δ/T2)}``.

        This is the per-shot scramble probability used by both shot samplers
        and by the density backend's default (sampler-consistent) mode.
        """
        if duration < 0:
            raise HardwareError(f"duration must be non-negative, got {duration}")
        return 1.0 - math.exp(-(duration / self.t1 + duration / self.t2))

    # ------------------------------------------------------------------
    # Derived calibrations
    # ------------------------------------------------------------------
    def improved(self, factor: float) -> "DeviceCalibration":
        """A calibration with gate/readout errors divided by ``factor`` and
        coherence times multiplied by ``factor``.

        This is the paper's "20x improved over current IBM Johannesburg error
        rates" device model (§2.6/§5.2) and the x axis of Figure 12.
        """
        if factor <= 0:
            raise HardwareError("improvement factor must be positive")
        scaled_edges = {
            edge: error / factor for edge, error in self.edge_errors.items()
        }
        return replace(
            self,
            name=f"{self.name}-improved-{factor:g}x",
            t1=self.t1 * factor,
            t2=self.t2 * factor,
            one_qubit_gate_error=self.one_qubit_gate_error / factor,
            two_qubit_gate_error=self.two_qubit_gate_error / factor,
            readout_error=self.readout_error / factor,
            edge_errors=scaled_edges,
        )

    def with_edge_errors(self, edge_errors: Mapping[Edge, float]) -> "DeviceCalibration":
        """A copy with explicit per-coupler CNOT error rates."""
        normalised = {(min(a, b), max(a, b)): float(e) for (a, b), e in edge_errors.items()}
        return replace(self, edge_errors=normalised)


def johannesburg_aug19_2020() -> DeviceCalibration:
    """The calibration snapshot quoted in §5.2 of the paper."""
    return DeviceCalibration(
        name="ibmq-johannesburg-2020-08-19",
        t1=70.87,
        t2=72.72,
        one_qubit_gate_time=0.07,
        two_qubit_gate_time=0.559,
        one_qubit_gate_error=0.0004,
        two_qubit_gate_error=0.0147,
        readout_error=0.02,
        readout_time=3.5,
    )


def near_term_calibration(improvement: float = 20.0) -> DeviceCalibration:
    """The forward-looking device model used for the paper's simulations.

    The paper simulates its NISQ benchmarks with error rates 20x better than
    the 2020-08-19 Johannesburg snapshot (§5.2); this helper builds exactly
    that calibration.
    """
    return johannesburg_aug19_2020().improved(improvement)
