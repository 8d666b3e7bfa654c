"""Analytic success-probability estimation (the paper's model, §2.6).

The paper estimates the probability that a compiled program succeeds as

    P_success = P(no gate error) * P(no coherence error)
              = prod_i (1 - e_i)  *  exp(-(Δ/T1 + Δ/T2))

where ``e_i`` is the error rate of gate ``i`` and ``Δ`` is the total scheduled
program duration.  This module computes both factors from a compiled circuit
and a :class:`~repro.hardware.calibration.DeviceCalibration`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .. import obs
from ..circuits.circuit import QuantumCircuit
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration


@dataclass(frozen=True)
class SuccessEstimate:
    """Breakdown of the analytic success-probability estimate."""

    gate_success: float
    coherence_success: float
    readout_success: float
    duration: float
    num_two_qubit_gates: int
    num_one_qubit_gates: int
    num_measurements: int

    @property
    def probability(self) -> float:
        """The combined success probability (upper bound, per the paper)."""
        return self.gate_success * self.coherence_success * self.readout_success


def circuit_duration(circuit: QuantumCircuit, calibration: DeviceCalibration) -> float:
    """Scheduled duration (µs) of a hardware-basis circuit under ASAP scheduling.

    One scan of ``circuit.instructions`` with per-wire ready times: program
    order is a topological order, so no DAG is built (or cached on the
    circuit) to score it.  Barriers are skipped where they stand: they are
    dropped, not synchronising, so the makespan is that of
    ``circuit.without(["barrier"])`` without building that copy.
    """
    return _scan(circuit, calibration, False)[-1]


def estimate_success(
    circuit: QuantumCircuit,
    calibration: DeviceCalibration,
    include_readout: bool = True,
) -> SuccessEstimate:
    """Estimate the success probability of a compiled (hardware-basis) circuit.

    Args:
        circuit: Circuit containing only one- and two-qubit gates (SWAPs are
            treated as three CNOTs), plus optional measurements, resets and
            barriers.  Barriers are dropped, not synchronising: they neither
            cost an error nor delay any wire, exactly as if the circuit had
            been stripped of them first.
        calibration: Device error rates and timings.
        include_readout: Whether measurement errors contribute; the paper's
            simulation model folds readout into the gate-error product, so this
            defaults to True but is exposed for sensitivity studies.

    Returns:
        A :class:`SuccessEstimate` whose ``probability`` is the product of the
        gate, coherence and readout success factors.
    """
    with obs.span(
        "estimate_success",
        category="sim",
        source=circuit.name,
        include_readout=include_readout,
    ):
        return _estimate_success(circuit, calibration, include_readout)


def _estimate_success(
    circuit: QuantumCircuit,
    calibration: DeviceCalibration,
    include_readout: bool,
) -> SuccessEstimate:
    (
        gate_success,
        readout_success,
        num_two_qubit,
        num_one_qubit,
        num_measure,
        duration,
    ) = _scan(circuit, calibration, include_readout)
    coherence_success = math.exp(-(duration / calibration.t1 + duration / calibration.t2))
    if obs.is_enabled():
        obs.counter("sim.estimator.calls").inc()
        obs.add_attrs(two_qubit_gates=num_two_qubit, duration_us=duration)
    return SuccessEstimate(
        gate_success=gate_success,
        coherence_success=coherence_success,
        readout_success=readout_success,
        duration=duration,
        num_two_qubit_gates=num_two_qubit,
        num_one_qubit_gates=num_one_qubit,
        num_measurements=num_measure,
    )


def _scan(
    circuit: QuantumCircuit, calibration: DeviceCalibration, include_readout: bool
) -> Tuple[float, float, int, int, int, float]:
    """One pass over ``circuit``: the error products, the gate counts and Δ.

    Returns ``(gate_success, readout_success, two_qubit_gates,
    one_qubit_gates, measurements, duration)``.  Costs come from the
    calibration's :attr:`~DeviceCalibration.gate_costs`, read once, and each
    factor is multiplied in program order, so every float is bit-identical to
    asking :meth:`~DeviceCalibration.gate_error` and
    :meth:`~DeviceCalibration.gate_duration` per instruction.  Δ is the ASAP
    makespan with per-wire ready times (program order is a topological
    order).  Barriers are skipped.
    """
    costs = calibration.gate_costs
    one_qubit_success = 1.0 - costs.one_qubit_error
    measure_success = 1.0 - costs.readout_error
    two_qubit_error_on = costs.two_qubit_error_on
    one_qubit_time = costs.one_qubit_time
    two_qubit_time = costs.two_qubit_time
    swap_time = costs.swap_time
    readout_time = costs.readout_time

    gate_success = 1.0
    readout_success = 1.0
    num_two_qubit = 0
    num_one_qubit = 0
    num_measure = 0
    ready = [0.0] * circuit.num_qubits
    ready_clbit: Dict[int, float] = {}
    makespan = 0.0
    for instruction in circuit.instructions:
        name = instruction.gate.name
        if name == "barrier":
            continue
        qubits = instruction.qubits
        count = len(qubits)
        if count == 1:
            if name == "measure":
                num_measure += 1
                if include_readout:
                    readout_success *= measure_success
                duration = readout_time
            elif name == "reset":
                duration = readout_time
            else:
                gate_success *= one_qubit_success
                num_one_qubit += 1
                duration = one_qubit_time
            start = ready[qubits[0]]
        elif count == 2:
            a, b = qubits
            error = two_qubit_error_on(a, b)
            if name == "swap":
                # A SWAP still present in the circuit costs three CNOTs.
                gate_success *= (1.0 - error) ** 3
                num_two_qubit += 3
                duration = swap_time
            else:
                gate_success *= 1.0 - error
                num_two_qubit += 1
                duration = two_qubit_time
            start = ready[a]
            if ready[b] > start:
                start = ready[b]
        else:
            raise SimulationError(
                f"gate {name!r} on {count} qubits is not hardware-native; "
                "decompose the circuit before estimating success or duration"
            )
        clbits = instruction.clbits
        for clbit in clbits:
            start = max(start, ready_clbit.get(clbit, 0.0))
        end = start + duration
        for qubit in qubits:
            ready[qubit] = end
        for clbit in clbits:
            ready_clbit[clbit] = end
        if end > makespan:
            makespan = end
    return (
        gate_success,
        readout_success,
        num_two_qubit,
        num_one_qubit,
        num_measure,
        makespan,
    )


def success_probability(
    circuit: QuantumCircuit,
    calibration: DeviceCalibration,
    include_readout: bool = True,
) -> float:
    """Shorthand for ``estimate_success(...).probability``."""
    return estimate_success(circuit, calibration, include_readout).probability


def success_ratio(
    trios_circuit: QuantumCircuit,
    baseline_circuit: QuantumCircuit,
    calibration: DeviceCalibration,
) -> float:
    """``p_trios / p_baseline`` — the normalised metric of Figures 8, 11 and 12."""
    baseline = success_probability(baseline_circuit, calibration)
    trios = success_probability(trios_circuit, calibration)
    if baseline <= 0.0:
        return math.inf if trios > 0 else 1.0
    return trios / baseline
