"""ASAP scheduling of hardware-basis circuits.

Scheduling assigns each instruction a start time assuming every qubit can act
in parallel and each gate occupies its qubits for its calibrated duration.  The
resulting makespan ``Δ`` feeds the coherence-error term ``exp(-(Δ/T1 + Δ/T2))``
of the paper's success model (§2.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..circuits.circuit import Instruction
from ..circuits.dag import DagCircuit
from ..exceptions import ScheduleError
from ..hardware.calibration import DeviceCalibration
from .base import AnalysisPass, PropertySet


@dataclass(frozen=True)
class ScheduledInstruction:
    """An instruction with its assigned start time and duration (µs)."""

    start: float
    duration: float
    instruction: Instruction

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Schedule:
    """A full ASAP schedule for a circuit."""

    entries: List[ScheduledInstruction] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total makespan in microseconds."""
        return max((entry.end for entry in self.entries), default=0.0)

    def qubit_busy_time(self, qubit: int) -> float:
        """Total time ``qubit`` spends executing gates."""
        return sum(
            entry.duration
            for entry in self.entries
            if qubit in entry.instruction.qubits
        )

    def parallelism(self) -> float:
        """Average number of simultaneously busy qubits (a crude utilisation metric)."""
        if not self.entries or self.duration == 0:
            return 0.0
        busy = sum(entry.duration * len(entry.instruction.qubits) for entry in self.entries)
        return busy / self.duration


def asap_schedule(circuit, calibration: DeviceCalibration) -> Schedule:
    """Compute an ASAP schedule for a hardware-basis circuit (or its DAG)."""
    instructions = circuit.instructions
    ready: Dict[int, float] = {}
    ready_clbit: Dict[int, float] = {}
    entries: List[ScheduledInstruction] = []
    for instruction in instructions:
        if instruction.name == "barrier":
            # A barrier synchronises its qubits without taking time.
            start = max((ready.get(q, 0.0) for q in instruction.qubits), default=0.0)
            for qubit in instruction.qubits:
                ready[qubit] = start
            continue
        if instruction.gate.num_qubits >= 3:
            raise ScheduleError(
                f"cannot schedule non-native gate {instruction.name!r}; decompose first"
            )
        duration = calibration.gate_duration(instruction.name, instruction.qubits)
        start = max((ready.get(q, 0.0) for q in instruction.qubits), default=0.0)
        for clbit in instruction.clbits:
            start = max(start, ready_clbit.get(clbit, 0.0))
        entry = ScheduledInstruction(start=start, duration=duration, instruction=instruction)
        entries.append(entry)
        for qubit in instruction.qubits:
            ready[qubit] = entry.end
        for clbit in instruction.clbits:
            ready_clbit[clbit] = entry.end
    return Schedule(entries=entries)


class ASAPSchedulePass(AnalysisPass):
    """Analysis pass that stores the schedule and its duration in the properties."""

    establishes = ("scheduled",)

    def __init__(self, calibration: DeviceCalibration) -> None:
        self.calibration = calibration

    def analyze(self, dag: DagCircuit, properties: PropertySet) -> None:
        schedule = asap_schedule(dag, self.calibration)
        properties["schedule"] = schedule
        properties["duration"] = schedule.duration
