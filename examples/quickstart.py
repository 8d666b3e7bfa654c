"""Quickstart: compile one program with the baseline and with Orchestrated Trios.

Builds the 20-qubit Cuccaro ripple-carry adder (18 Toffolis), compiles it onto
IBM Johannesburg with both pipelines, and prints the metrics the paper reports:
two-qubit gate count, depth, scheduled duration and estimated success
probability under the near-term (20x improved) error model.

Run with:  python examples/quickstart.py
"""

from repro.bench_circuits import cuccaro_adder
from repro.compiler import transpile
from repro.hardware import johannesburg, near_term_calibration


def main() -> None:
    device = johannesburg()
    calibration = near_term_calibration()
    program = cuccaro_adder(num_bits=9)
    print(f"Program: {program.name} — {program.num_qubits} qubits, "
          f"{program.count_ops().get('ccx', 0)} Toffolis")
    print(f"Device:  {device.name} — {device.num_qubits} qubits, {len(device.edges)} couplers\n")

    baseline = transpile(program, device, method="baseline", seed=11)
    trios = transpile(program, device, method="trios", seed=11)

    header = f"{'':28s}{'baseline':>12s}{'trios':>12s}"
    print(header)
    print("-" * len(header))
    rows = [
        ("two-qubit (CNOT) gates", baseline.two_qubit_gate_count, trios.two_qubit_gate_count),
        ("SWAPs inserted", baseline.swaps_inserted, trios.swaps_inserted),
        ("depth", baseline.depth, trios.depth),
        ("duration (us)", f"{baseline.duration(calibration):.1f}",
         f"{trios.duration(calibration):.1f}"),
        ("estimated success", f"{baseline.success_probability(calibration):.4f}",
         f"{trios.success_probability(calibration):.4f}"),
    ]
    for label, base_value, trios_value in rows:
        print(f"{label:28s}{base_value!s:>12s}{trios_value!s:>12s}")

    reduction = 1 - trios.two_qubit_gate_count / baseline.two_qubit_gate_count
    ratio = trios.success_probability(calibration) / baseline.success_probability(calibration)
    print(f"\nTrios removes {reduction * 100:.1f}% of the two-qubit gates and "
          f"improves the estimated success probability by {ratio:.2f}x.")


if __name__ == "__main__":
    main()
