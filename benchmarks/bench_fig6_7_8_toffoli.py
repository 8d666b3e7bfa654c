"""Regenerates the Toffoli-only experiment: Figures 6, 7 and 8 (§5.1).

The paper runs 35 random triplets (Figures 6/7) and 99 (Figure 8) with 8192
shots on IBM Johannesburg; here the hardware is replaced by the calibrated
noisy sampler.  The benchmark uses a reduced default so the
suite stays quick — pass ``--triplets``-style customisation by editing the
constants below if a full-size run is wanted.
"""

from repro.experiments import run_toffoli_experiment
from repro.experiments.report import (
    format_toffoli_gate_counts,
    format_toffoli_normalized,
    format_toffoli_success,
)

NUM_TRIPLETS_FIG67 = 12
NUM_TRIPLETS_FIG8 = 24
SHOTS = 1024


def test_fig7_toffoli_gate_counts(benchmark):
    result = benchmark.pedantic(
        run_toffoli_experiment,
        kwargs=dict(num_triplets=NUM_TRIPLETS_FIG67, shots=SHOTS, seed=0),
        iterations=1, rounds=1,
    )
    print("\n[Figure 7] CNOT gate count per triplet (lower is better)")
    print(format_toffoli_gate_counts(result))
    reduction = result.gate_reduction()
    print(f"\nTrios (8-CNOT) reduces average gate count by {reduction * 100:.1f}% "
          f"(paper: 35%)")
    assert reduction > 0.15


def test_fig6_toffoli_success_rates(benchmark):
    result = benchmark.pedantic(
        run_toffoli_experiment,
        kwargs=dict(num_triplets=NUM_TRIPLETS_FIG67, shots=SHOTS, seed=1),
        iterations=1, rounds=1,
    )
    print("\n[Figure 6] Toffoli success probability per triplet (higher is better)")
    print(format_toffoli_success(result))
    baseline = result.geomean_success("Qiskit (baseline)")
    trios = result.geomean_success("Trios (8-CNOT Toffoli)")
    print(f"\nGeomean success: baseline {baseline:.3f} -> Trios {trios:.3f} "
          f"(paper: 0.41 -> 0.50)")
    assert trios > baseline


def test_fig8_normalized_success(benchmark):
    result = benchmark.pedantic(
        run_toffoli_experiment,
        kwargs=dict(num_triplets=NUM_TRIPLETS_FIG8, shots=SHOTS, seed=2),
        iterations=1, rounds=1,
    )
    print("\n[Figure 8] Trios success normalised to the Qiskit baseline")
    print(format_toffoli_normalized(result))
    improvement = result.geomean_improvement()
    print(f"\nGeomean success increase: {(improvement - 1) * 100:.1f}% (paper: 23%)")
    assert improvement > 1.0
