"""Noise-aware Trios: route around unreliable couplers (§4's extension).

Builds a Johannesburg calibration where a few couplers are an order of
magnitude noisier than the rest, then compiles a Toffoli-heavy circuit with and
without the noise-aware layout/routing weights (``-log`` CNOT success) and
compares the estimated success probabilities with the exact ones from the
``ptm`` backend, which charges every CNOT the error of the coupler it runs on.

Run with:  python examples/noise_aware_compilation.py
"""

from repro.bench_circuits import cnx_dirty
from repro.compiler import transpile
from repro.experiments.benchmarks import ideal_expected_outcome, sampled_success
from repro.hardware import johannesburg, johannesburg_aug19_2020


def main() -> None:
    device = johannesburg()
    # A handful of couplers in the middle of the device are 10x noisier.
    bad_edges = {(5, 6): 0.15, (6, 7): 0.15, (7, 12): 0.15, (11, 12): 0.15}
    calibration = johannesburg_aug19_2020().with_edge_errors(bad_edges)
    program = cnx_dirty(6)
    print(f"Program: {program.name} ({program.count_ops().get('ccx', 0)} Toffolis)")
    print(f"Noisy couplers: {sorted(bad_edges)} at 15% CNOT error "
          f"(others {calibration.two_qubit_gate_error:.3%})\n")

    expected = ideal_expected_outcome(program)
    unaware = transpile(program, device, method="trios", seed=3)
    aware = transpile(program, device, method="trios", seed=3, calibration=calibration,
                          noise_aware=True, layout="noise")

    for label, result in (("hop-count routing", unaware), ("noise-aware routing", aware)):
        bad_usage = sum(
            1 for inst in result.circuit.instructions
            if inst.gate.num_qubits == 2
            and (min(inst.qubits), max(inst.qubits)) in bad_edges
        )
        exact = sampled_success(
            result, program, "ptm", calibration, shots=1, seed=0,
            expected=expected, exact=True,
        )
        print(f"{label:22s} cnots={result.two_qubit_gate_count:4d}  "
              f"gates on noisy couplers={bad_usage:3d}  "
              f"est. success={result.success_probability(calibration):.4f}  "
              f"exact ptm success={exact:.4f}")

    print("\nThe noise-aware variant trades a few extra SWAPs for avoiding the bad")
    print("couplers, which pays off in overall success probability.")


if __name__ == "__main__":
    main()
