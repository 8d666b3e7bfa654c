"""Tests for the cached tied-path routing fast path (vs the frozen legacy picker).

The legacy reference (``benchmarks/_legacy_routing.py``) enumerates every tied
shortest path with networkx; the fast path samples from a cached predecessor
DAG.  These tests pin down the equivalence contract:

* deterministic (non-stochastic) routing is byte-identical to the legacy
  picker on every paper topology,
* the same seed reproduces the same compiled circuit for both pipelines,
* the sampled tied path is uniform over the enumerated tied-path set
  (chi-square), and
* legacy and new stochastic routing agree on the Figure 9/10 CNOT-reduction
  geomeans (different RNG streams, same distribution).
"""

import importlib.util
import random
from pathlib import Path

import networkx as nx
import pytest

from repro.bench_circuits import get_benchmark
from repro.compiler import transpile
from repro.experiments import run_benchmark_experiment
from repro.experiments.benchmarks import clear_compile_cache
from repro.hardware import clusters, grid, johannesburg, johannesburg_aug19_2020, line

_LEGACY_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "_legacy_routing.py"
_spec = importlib.util.spec_from_file_location("_legacy_routing", _LEGACY_PATH)
_legacy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_legacy)

TOPOLOGIES = {
    "johannesburg": johannesburg,
    "grid": grid,
    "clusters": clusters,
    "line": line,
}


def _signature(result):
    """Byte-comparable form of a compiled circuit."""
    return [
        (inst.name, inst.qubits, inst.gate.params, inst.clbits)
        for inst in result.circuit.instructions
    ]


class TestDeterministicByteIdentity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("name", ["cnx_dirty-11", "grovers-9"])
    def test_both_pipelines_match_legacy(self, topology, name):
        coupling_map = TOPOLOGIES[topology]()
        circuit = get_benchmark(name)
        kwargs = dict(routing="greedy", seed=None)
        new_baseline = transpile(circuit, coupling_map, method="baseline", **kwargs)
        new_trios = transpile(circuit, coupling_map, method="trios", **kwargs)
        with _legacy.legacy_routers():
            old_baseline = transpile(circuit, coupling_map, method="baseline", **kwargs)
            old_trios = transpile(circuit, coupling_map, method="trios", **kwargs)
        assert _signature(new_baseline) == _signature(old_baseline)
        assert _signature(new_trios) == _signature(old_trios)

    def test_noise_aware_routing_matches_legacy(self):
        coupling_map = johannesburg()
        calibration = johannesburg_aug19_2020().with_edge_errors(
            {(0, 1): 0.09, (5, 6): 0.001, (10, 11): 0.03}
        )
        circuit = get_benchmark("cnx_dirty-11")
        kwargs = dict(routing="greedy", seed=None, calibration=calibration,
                      noise_aware=True)
        new = transpile(circuit, coupling_map, method="baseline", **kwargs)
        with _legacy.legacy_routers():
            old = transpile(circuit, coupling_map, method="baseline", **kwargs)
        assert _signature(new) == _signature(old)


class TestSeedDeterminism:
    @pytest.mark.parametrize("method", ["baseline", "trios"])
    def test_same_seed_same_circuit(self, method):
        coupling_map = grid()
        circuit = get_benchmark("cnx_dirty-11")
        first = transpile(circuit, coupling_map, method=method, seed=17)
        second = transpile(circuit, coupling_map, method=method, seed=17)
        assert _signature(first) == _signature(second)
        assert first.two_qubit_gate_count == second.two_qubit_gate_count


class TestTiedPathSampling:
    def test_tied_path_count_matches_enumeration(self):
        coupling_map = grid(4, 4)
        for a, b in [(0, 15), (0, 7), (1, 14)]:
            enumerated = len(list(nx.all_shortest_paths(coupling_map.graph, a, b)))
            assert coupling_map.tied_path_count(a, b) == enumerated

    def test_weighted_tied_path_count_matches_enumeration(self):
        coupling_map = johannesburg()
        weight = {edge: 0.25 for edge in coupling_map.edges}

        def edge_weight(u, v, _attrs):
            return weight[(min(u, v), max(u, v))]

        for a, b in [(0, 12), (3, 17), (0, 19)]:
            enumerated = len(
                list(nx.all_shortest_paths(coupling_map.graph, a, b, weight=edge_weight))
            )
            assert coupling_map.tied_path_count(a, b, weight=weight) == enumerated

    def test_sampled_path_is_uniform_over_ties(self):
        # 4x4 grid corner to corner: C(6, 3) = 20 tied shortest paths.  With
        # 4000 samples the expected count per path is 200; the chi-square
        # statistic over 19 degrees of freedom stays below the p=0.001
        # critical value (43.82) when sampling is uniform.  Seeded, so the
        # statistic is reproducible.
        coupling_map = grid(4, 4)
        assert coupling_map.tied_path_count(0, 15) == 20
        rng = random.Random(7)
        samples = 4000
        counts = {}
        for _ in range(samples):
            path = tuple(coupling_map.sample_shortest_path(0, 15, rng))
            assert len(path) == 7
            counts[path] = counts.get(path, 0) + 1
        assert len(counts) == 20, "every tied path should eventually be sampled"
        expected = samples / 20
        chi_square = sum((n - expected) ** 2 / expected for n in counts.values())
        assert chi_square < 43.82, f"tied-path sampling is not uniform ({chi_square=:.1f})"

    def test_sampled_paths_are_valid_shortest_paths(self):
        coupling_map = johannesburg()
        rng = random.Random(3)
        for a, b in [(0, 19), (2, 15), (4, 10)]:
            for _ in range(25):
                path = coupling_map.sample_shortest_path(a, b, rng)
                assert path[0] == a and path[-1] == b
                assert len(path) == coupling_map.distance(a, b) + 1
                for u, v in zip(path, path[1:]):
                    assert coupling_map.are_adjacent(u, v)

    def test_avoid_nodes_are_respected(self):
        coupling_map = grid(4, 4)
        rng = random.Random(11)
        avoid = (5, 6)
        for _ in range(50):
            path = coupling_map.sample_shortest_path(0, 15, rng, avoid=avoid)
            assert not set(avoid) & set(path)
        deterministic = coupling_map.shortest_path(0, 15, avoid=avoid)
        assert not set(avoid) & set(deterministic)


class TestStochasticSweepEquivalence:
    def test_legacy_vs_new_cnot_geomeans_agree(self):
        # The Figure 9/10 metric: geomean CNOT reduction over the
        # Toffoli-containing benchmarks.  The fast path draws from a
        # different RNG stream than the legacy enumeration, so individual
        # circuits differ, but the distribution over tied paths is the same —
        # the per-topology geomeans must agree closely.
        names = ["cnx_dirty-11", "grovers-9", "incrementer_borrowedbit-5"]
        topologies = {"ibmq-johannesburg": johannesburg, "full-grid-5x4": grid}
        clear_compile_cache()
        new = run_benchmark_experiment(topologies=topologies, benchmarks=names, seed=11)
        clear_compile_cache()
        with _legacy.legacy_routers():
            old = run_benchmark_experiment(topologies=topologies, benchmarks=names, seed=11)
        clear_compile_cache()
        for label in topologies:
            new_geomean = new.geomean_cnot_reduction(label)
            old_geomean = old.geomean_cnot_reduction(label)
            assert new_geomean == pytest.approx(old_geomean, abs=0.06), label


class TestParallelSweep:
    def test_parallel_sweep_matches_serial(self):
        names = ["cnx_dirty-11", "bv-20"]
        serial = run_benchmark_experiment(benchmarks=names, seed=11, jobs=1)
        parallel = run_benchmark_experiment(benchmarks=names, seed=11, jobs=2)
        assert serial.topologies() == parallel.topologies()
        for topology in serial.topologies():
            assert serial.comparisons[topology] == parallel.comparisons[topology]
