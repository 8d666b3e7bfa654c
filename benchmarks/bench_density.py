"""Wall-clock of the exact density backend vs trajectory-at-equal-precision.

The density backend computes success probabilities *exactly*; the trajectory
sampler estimates them with standard error ``sqrt(p(1-p)/shots)``.  To match a
target precision of ``EPSILON`` it therefore needs ``p(1-p)/EPSILON²`` shots,
and the fair comparison is one exact density evolution against that many
trajectory shots.  The workloads are ≤10-qubit circuits: the raw 4-qubit
Toffoli workload and compiled Figure 6 / Table 1 cases on Johannesburg.

Each run cross-checks that the sampled success probability lands within 4σ of
the exact one (the two engines share their noise channels, so disagreement is
a bug, not noise) and emits ``build/bench/BENCH_density.json`` with the timing trajectory
for CI to archive.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_density.py -q -s

or standalone (prints the table, writes build/bench/BENCH_density.json)::

    PYTHONPATH=src python benchmarks/bench_density.py
"""

import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import BENCH_DIR, emit_bench_json

from repro.circuits import QuantumCircuit
from repro.experiments.benchmarks import compile_benchmark_cached
from repro.experiments.toffoli import compile_configuration
from repro.hardware import johannesburg, johannesburg_aug19_2020
from repro.sim import DensityMatrixSimulator, PauliTrajectorySampler

#: Target standard error on the success probability (0.25 percentage points).
EPSILON = 0.0025
#: Shots for the timed trajectory pilot run (throughput is extrapolated).
PILOT_SHOTS = 2048
CALIBRATION = johannesburg_aug19_2020()
OUTPUT = BENCH_DIR / "BENCH_density.json"


def toffoli_workload() -> QuantumCircuit:
    """Decomposed |110⟩-input Toffoli plus a spectator CNOT (4 qubits)."""
    circuit = QuantumCircuit(4)
    circuit.x(0).x(1)
    circuit.h(2).cx(1, 2).tdg(2).cx(0, 2).t(2).cx(1, 2).tdg(2).cx(0, 2)
    circuit.t(1).t(2).h(2).cx(0, 1).t(0).tdg(1).cx(0, 1)
    circuit.cx(2, 3)
    return circuit


def workloads():
    """(label, circuit, measured_qubits, expected) cases, all ≤10 qubits."""
    cases = [("toffoli-4q", toffoli_workload(), [0, 1, 2], "110")]
    device = johannesburg()
    for triplet in ((0, 1, 2), (2, 6, 10)):
        placement = {0: triplet[0], 1: triplet[1], 2: triplet[2]}
        compiled = compile_configuration(
            "Trios (8-CNOT Toffoli)", device, placement, seed=7
        )
        label = "fig6-({}-{}-{})".format(*triplet)
        cases.append((
            label,
            compiled.circuit.without(["measure"]),
            compiled.physical_qubits_of([0, 1, 2]),
            "111",
        ))
    compiled = compile_benchmark_cached("cnx_inplace-4", device, "trios", 11)
    cases.append((
        "cnx_inplace-4",
        compiled.circuit.without(["measure"]),
        compiled.physical_qubits_of([0, 1, 2, 3]),
        None,  # most-likely outcome, filled in from the exact distribution
    ))
    return cases


def best_of(repeats, fn):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def measure_case(label, circuit, measured, expected):
    density = DensityMatrixSimulator(CALIBRATION)
    exact_seconds, exact_probs = best_of(
        3, lambda: density.run_probabilities(circuit, measured_qubits=measured)
    )
    if expected is None:
        expected = max(exact_probs, key=exact_probs.get)
    p_exact = exact_probs.get(expected, 0.0)

    sampler = PauliTrajectorySampler(CALIBRATION, seed=0)
    pilot_seconds, pilot = best_of(
        3,
        lambda: sampler.run_counts(
            circuit, shots=PILOT_SHOTS, measured_qubits=measured, seed=0
        ),
    )
    p_sampled = pilot.success_rate(expected)
    sigma = math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / PILOT_SHOTS)
    assert abs(p_sampled - p_exact) <= 4 * sigma + 1e-9, (
        f"{label}: sampled {p_sampled:.4f} vs exact {p_exact:.4f} "
        f"outside 4σ ({sigma:.4f}) — the engines disagree"
    )

    shots_needed = p_exact * (1 - p_exact) / EPSILON**2
    throughput = PILOT_SHOTS / pilot_seconds
    trajectory_equal_seconds = shots_needed / throughput
    active = len(circuit.active_qubits())
    return {
        "workload": label,
        "active_qubits": active,
        "success_probability": p_exact,
        "density_seconds": exact_seconds,
        "trajectory_pilot_shots": PILOT_SHOTS,
        "trajectory_pilot_seconds": pilot_seconds,
        "shots_for_equal_precision": int(round(shots_needed)),
        "trajectory_equal_precision_seconds": trajectory_equal_seconds,
        "speedup_at_equal_precision": trajectory_equal_seconds / exact_seconds,
    }


def run_benchmark():
    rows = [measure_case(*case) for case in workloads()]
    ratios = [row["speedup_at_equal_precision"] for row in rows]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    payload = {
        "epsilon": EPSILON,
        "calibration": CALIBRATION.name,
        "rows": rows,
        "geomean_speedup_at_equal_precision": geomean,
    }
    emit_bench_json(OUTPUT, "density", payload)
    return payload


def report(payload) -> str:
    lines = [
        f"exact density vs trajectory at ±{payload['epsilon']:.2%} precision "
        f"({payload['calibration']})",
        f"  {'workload':18s} {'qubits':>6s} {'density':>10s} "
        f"{'traj@eps':>10s} {'shots':>8s} {'ratio':>8s}",
    ]
    for row in payload["rows"]:
        lines.append(
            f"  {row['workload']:18s} {row['active_qubits']:>6d} "
            f"{row['density_seconds'] * 1e3:>8.1f}ms "
            f"{row['trajectory_equal_precision_seconds'] * 1e3:>8.1f}ms "
            f"{row['shots_for_equal_precision']:>8d} "
            f"{row['speedup_at_equal_precision']:>7.1f}x"
        )
    lines.append(
        f"  geomean trajectory/density time ratio: "
        f"{payload['geomean_speedup_at_equal_precision']:.1f}x"
    )
    return "\n".join(lines)


def test_density_benchmark_emits_trajectory_file():
    payload = run_benchmark()
    print("\n" + report(payload))
    assert OUTPUT.exists()
    written = json.loads(OUTPUT.read_text())
    assert written["rows"] and all(
        row["density_seconds"] > 0 for row in written["rows"]
    )
    # Every workload fits the dense density representation (≤10 qubits).
    assert all(row["active_qubits"] <= 10 for row in written["rows"])


if __name__ == "__main__":
    test_density_benchmark_emits_trajectory_file()
    print("ok")
