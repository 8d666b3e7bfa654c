"""Ablations of the Trios compiler's design choices.

Each benchmark compares the full Trios pipeline against a variant with one
ingredient removed, over a pool of random Toffoli placements on Johannesburg:

* mapping-aware second decomposition vs. always-6-CNOT,
* overlap-aware path trimming in the trio router on vs. off,
* noise-aware (reliability-weighted) routing vs. hop-count routing,
* the stochastic (Qiskit-like) baseline router vs. the deterministic greedy one.
"""

import random

from repro import QuantumCircuit, transpile
from repro.experiments import geometric_mean
from repro.hardware import johannesburg, johannesburg_aug19_2020

DEVICE = johannesburg()
CALIBRATION = johannesburg_aug19_2020()
NUM_PLACEMENTS = 20


def _placements(seed=5):
    rng = random.Random(seed)
    return [dict(enumerate(rng.sample(range(20), 3))) for _ in range(NUM_PLACEMENTS)]


def _toffoli():
    circuit = QuantumCircuit(3, "toffoli")
    circuit.ccx(0, 1, 2)
    return circuit


def _geomean_cnots(compile_fn):
    return geometric_mean(
        compile_fn(placement).two_qubit_gate_count for placement in _placements()
    )


def test_ablation_mapping_aware_decomposition(benchmark):
    aware = benchmark.pedantic(
        lambda: _geomean_cnots(
            lambda p: transpile(_toffoli(), DEVICE, method="trios", layout=p)
        ),
        iterations=1, rounds=1,
    )
    forced_6 = _geomean_cnots(
        lambda p: transpile(
            _toffoli(), DEVICE, method="trios", layout=p, second_decomposition="6cnot"
        )
    )
    print(f"\n[Ablation] mapping-aware {aware:.1f} CNOTs vs forced 6-CNOT {forced_6:.1f}")
    assert aware <= forced_6


def test_ablation_overlap_optimization(benchmark):
    with_overlap = benchmark.pedantic(
        lambda: _geomean_cnots(
            lambda p: transpile(
                _toffoli(), DEVICE, method="trios", layout=p, overlap_optimization=True
            )
        ),
        iterations=1, rounds=1,
    )
    without = _geomean_cnots(
        lambda p: transpile(
            _toffoli(), DEVICE, method="trios", layout=p, overlap_optimization=False
        )
    )
    print(f"\n[Ablation] overlap trimming {with_overlap:.1f} CNOTs vs off {without:.1f}")
    assert with_overlap <= without


def test_ablation_noise_aware_routing(benchmark):
    noisy = CALIBRATION.with_edge_errors({(5, 6): 0.12, (6, 7): 0.12, (10, 11): 0.12})

    def success(noise_aware):
        values = []
        for placement in _placements():
            result = transpile(
                _toffoli(), DEVICE, method="trios", layout=placement,
                calibration=noisy, noise_aware=noise_aware,
            )
            values.append(result.success_probability(noisy))
        return geometric_mean(values)

    aware = benchmark.pedantic(lambda: success(True), iterations=1, rounds=1)
    unaware = success(False)
    print(f"\n[Ablation] noise-aware routing success {aware:.3f} vs hop-count {unaware:.3f}")
    assert aware >= unaware * 0.98  # never meaningfully worse


def test_ablation_baseline_router_strength(benchmark):
    stochastic = benchmark.pedantic(
        lambda: _geomean_cnots(
            lambda p: transpile(_toffoli(), DEVICE, method="baseline", layout=p, seed=1)
        ),
        iterations=1, rounds=1,
    )
    greedy = _geomean_cnots(
        lambda p: transpile(_toffoli(), DEVICE, method="baseline", layout=p, routing="greedy")
    )
    trios = _geomean_cnots(lambda p: transpile(_toffoli(), DEVICE, method="trios", layout=p))
    print(f"\n[Ablation] baseline CNOTs: stochastic {stochastic:.1f}, greedy {greedy:.1f}, "
          f"Trios {trios:.1f}")
    # Trios beats even the stronger deterministic baseline.
    assert trios <= greedy <= stochastic * 1.05
