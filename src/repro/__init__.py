"""repro: a reproduction of "Orchestrated Trios" (ASPLOS 2021).

The package implements, from scratch, the full toolchain the paper needs:

* a quantum-circuit IR and standard gate library (:mod:`repro.circuits`),
* statevector/unitary simulation, noisy samplers and the paper's analytic
  success-probability model (:mod:`repro.sim`),
* the four 20-qubit device topologies and the Johannesburg calibration
  (:mod:`repro.hardware`),
* the compiler passes — decomposition, layout, baseline routing, Trios
  three-qubit routing, mapping-aware Toffoli decomposition, optimisation and
  scheduling (:mod:`repro.passes`),
* the two end-to-end pipelines compared in the paper (:mod:`repro.compiler`),
* every benchmark circuit of Table 1 (:mod:`repro.bench_circuits`),
* harnesses that regenerate each figure and table (:mod:`repro.experiments`),
  and
* the fault-tolerant execution runtime behind every parallel fan-out —
  per-cell timeouts, seeded-backoff retries, crash recovery and a
  deterministic fault-injection harness (:mod:`repro.runtime`), and
* the unified observability layer — hierarchical spans over every compiler
  pass, runtime cell attempt and simulator call, a metrics registry, and
  Chrome trace-event export; a zero-overhead no-op until enabled
  (:mod:`repro.obs`).

Quickstart::

    from repro.bench_circuits import cuccaro_adder
    from repro.compiler import transpile
    from repro.hardware import johannesburg, near_term_calibration

    device = johannesburg()
    circuit = cuccaro_adder(num_bits=9)
    base = transpile(circuit, device, method="baseline")
    trios = transpile(circuit, device, method="trios")
    print(base.two_qubit_gate_count, "->", trios.two_qubit_gate_count)
    cal = near_term_calibration()
    print(base.success_probability(cal), "->", trios.success_probability(cal))
"""

from .circuits import QuantumCircuit, Gate, Instruction
from .compiler import transpile, CompilationResult, Target
from .hardware import (
    CouplingMap,
    johannesburg,
    grid,
    line,
    clusters,
    johannesburg_aug19_2020,
    near_term_calibration,
    DeviceCalibration,
)

__version__ = "1.0.0"

__all__ = [
    "QuantumCircuit",
    "Gate",
    "Instruction",
    "transpile",
    "CompilationResult",
    "Target",
    "CouplingMap",
    "johannesburg",
    "grid",
    "line",
    "clusters",
    "johannesburg_aug19_2020",
    "near_term_calibration",
    "DeviceCalibration",
    "__version__",
]
