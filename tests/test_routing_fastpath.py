"""Tests for ``CouplingMap``'s own path searches and the tied-path fast path.

The map answers every query from its adjacency table; networkx is only the
tests' oracle.  These tests pin down the contract:

* deterministic (non-stochastic) routing reproduces the compiled bytes
  recorded when the map delegated its searches to networkx, on every paper
  topology and for noise-aware routing,
* ``shortest_path`` matches ``nx.shortest_path`` tie for tie on random graphs
  built from the same edge sequence, and the distance, connectivity and
  triangle queries match networkx's,
* the same seed reproduces the same compiled circuit for both pipelines,
* the sampled tied path is uniform over the enumerated tied-path set
  (chi-square), and
* stochastic routing agrees with the frozen enumerate-then-choose picker
  (``tests/_legacy_routing.py``) on the Figure 9/10 CNOT-reduction
  geomeans (different RNG streams, same distribution).
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import _legacy_routing as _legacy
import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench_circuits import get_benchmark
from repro.compiler import transpile
from repro.exceptions import HardwareError
from repro.experiments import run_benchmark_experiment
from repro.experiments.benchmarks import clear_compile_cache
from repro.hardware import (
    CouplingMap,
    clusters,
    grid,
    johannesburg,
    johannesburg_aug19_2020,
    line,
)

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_freeze = _load("freeze_fig9_10_reference")

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


#: sha256 of each deterministic (``routing="greedy"``) compile, recorded when
#: ``CouplingMap`` still delegated its searches to networkx; keyed
#: ``topology|benchmark|method``.
GREEDY_DIGESTS = {
    "johannesburg|cnx_dirty-11|baseline":
        "90af01927463319332740d56927948135ce5201c92bdfbca5161e17951349e45",
    "johannesburg|cnx_dirty-11|trios":
        "9eb782ce69a289cfaedb2374de9f1f0bd32788311eb49111a080c628239e21a0",
    "johannesburg|grovers-9|baseline":
        "a31f8f8ce2b814215bdc47234def3180b1645f8d9c075ff506fb893e8c0cf96a",
    "johannesburg|grovers-9|trios":
        "7f2d74a72480af417b003618ffbdb88fd45efb406ef691edb391dcd60f8e6ef7",
    "grid|cnx_dirty-11|baseline":
        "396b02ee64d593cb9e1fbedfb893b3f84aadd0a5c8d23f6f9e11ae9268b53b4c",
    "grid|cnx_dirty-11|trios":
        "551011fceb5c119f8e810930958bbad33100d0fd777f5c9917c628c72575618d",
    "grid|grovers-9|baseline":
        "5d631f0faf2e9aa272319f4cda2c1eaf742ea27abd44a47f72c97168b9171ce9",
    "grid|grovers-9|trios":
        "3a39f51153ac94e4b0244fdb209036d30d08d39c011b9ede0f6ab3d5425da3bd",
    "clusters|cnx_dirty-11|baseline":
        "591aba1836e9b8b498d584299e00965aa7fa6f4652456760fe3af1e054565945",
    "clusters|cnx_dirty-11|trios":
        "d59b5247ad6e1c985541d83806f8d5790d00d38f83c4f913775061449cc94baa",
    "clusters|grovers-9|baseline":
        "0b730955d2cb2349778f43dfb0b768177bfc4dfcc72933a5b86376dd8a08027a",
    "clusters|grovers-9|trios":
        "7bc76f4bd62fe2c8a5f33895a07fb900be6159f57dc3a1473af18bc2bdb51711",
    "line|cnx_dirty-11|baseline":
        "93b11306db74d684a074376db3caa24e9c15654248368a8286f5a772f1ecbb30",
    "line|cnx_dirty-11|trios":
        "9c0f77dd8a56c72d41fef5be9eeac4f5708916fd957a99bf2b1731a31fa26b2f",
    "line|grovers-9|baseline":
        "f68f918a6144bd51255ae458baefa5aed8eb5abf8433e151a4403761b5f56297",
    "line|grovers-9|trios":
        "6be45c346fdf188dac7cecc2abb07a4859e289b102ab4ce7f47b6cd4e17df212",
}

#: Noise-aware ``cnx_dirty-11`` compiles on the calibrated Johannesburg,
#: recorded alongside :data:`GREEDY_DIGESTS`; keyed ``routing|method``.
NOISE_AWARE_DIGESTS = {
    "greedy|baseline": "3bc96696f275924ea00504dd14319a8904a68dbe044998c50c77860daecd01ca",
    "greedy|trios": "b172a2b6494d64f9fe5ee6bbd468e72d9accf9cac2d5a92e38d36eaf54a04a2f",
    "stochastic|baseline": "71471ff17d8ab7b41e690df65d92ed015bb83df01b81b5bf0c00d3fc3532a582",
    "stochastic|trios": "153c75d9eb89521282d3db2c29ec78c4ff86f43fe831d4576021437418f2d740",
}

#: 200 seeded weighted + avoid ``sample_shortest_path`` draws on a 4x4 grid.
SAMPLED_DRAWS_DIGEST = "7b7bee289ac108f4398b6283b5efe0dc137bdd4ea6945250ced175e8234e1410"


class TestRecordedDigests:
    @pytest.mark.parametrize("method", ["baseline", "trios"])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("name", ["cnx_dirty-11", "grovers-9"])
    def test_greedy_routing_matches_recorded_digest(self, topology, name, method):
        coupling_map = TOPOLOGIES[topology]()
        result = transpile(
            get_benchmark(name), coupling_map, method=method, routing="greedy", seed=None
        )
        assert _freeze.sha256(result.circuit) == GREEDY_DIGESTS[f"{topology}|{name}|{method}"]

    @pytest.mark.parametrize("method", ["baseline", "trios"])
    @pytest.mark.parametrize("routing, seed", [("greedy", None), ("stochastic", 11)])
    def test_noise_aware_routing_matches_recorded_digest(self, routing, seed, method):
        calibration = johannesburg_aug19_2020().with_edge_errors(
            {(0, 1): 0.09, (5, 6): 0.001, (10, 11): 0.03}
        )
        result = transpile(
            get_benchmark("cnx_dirty-11"), johannesburg(), method=method,
            routing=routing, seed=seed, calibration=calibration, noise_aware=True,
        )
        assert _freeze.sha256(result.circuit) == NOISE_AWARE_DIGESTS[f"{routing}|{method}"]

    def test_weighted_avoid_samples_match_recorded_digest(self):
        coupling_map = grid(4, 4)
        rng = random.Random(5)
        weight = {edge: 0.5 + (i % 3) * 0.25 for i, edge in enumerate(coupling_map.edges)}
        draws = []
        for _ in range(200):
            a, b = rng.sample(range(16), 2)
            avoid = tuple(sorted(set(rng.sample(range(16), 2)) - {a, b}))
            draws.append(coupling_map.sample_shortest_path(a, b, rng, weight=weight, avoid=avoid))
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == SAMPLED_DRAWS_DIGEST


def _nx_graph(num_qubits, edges, avoid=()):
    """The networkx graph of ``edges`` on ``range(num_qubits)`` minus ``avoid``."""
    graph = nx.Graph()
    graph.add_nodes_from(q for q in range(num_qubits) if q not in avoid)
    graph.add_edges_from((a, b) for a, b in edges if a not in avoid and b not in avoid)
    return graph


@st.composite
def _devices(draw):
    """A random coupling map: 1-14 qubits, edges in random order and orientation
    (repeats allowed), often disconnected, with edge weights from a small set so
    that weighted ties occur."""
    num_qubits = draw(st.integers(1, 14))
    pairs = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    edges = []
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2 * num_qubits)):
            edges.append((b, a) if draw(st.booleans()) else (a, b))
    weight = {
        edge: draw(st.sampled_from([0.5, 1.0, 1.5]))
        for edge in sorted({(min(a, b), max(a, b)) for a, b in edges})
        if draw(st.booleans())
    }
    avoid = tuple(sorted(draw(st.sets(st.integers(0, num_qubits - 1), max_size=3))))
    return num_qubits, edges, weight, avoid


def _oracle_path(graph, a, b, weight):
    """``nx.shortest_path``, or ``None`` when networkx finds no path."""
    def edge_weight(u, v, _attrs):
        return weight.get((min(u, v), max(u, v)), 1.0)

    try:
        return nx.shortest_path(graph, a, b, weight=edge_weight if weight else None)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


class TestNetworkxOracle:
    """The map's own searches against networkx on the same edge sequence."""

    @given(_devices())
    def test_shortest_paths_match_networkx(self, device):
        num_qubits, edges, weight, avoid = device
        coupling_map = CouplingMap(num_qubits, edges)
        for blocked in ((), avoid):
            graph = _nx_graph(num_qubits, edges, blocked)
            for a in range(-1, num_qubits + 1):
                for b in range(-1, num_qubits + 1):
                    for variant in ({}, weight):
                        expected = _oracle_path(graph, a, b, variant)
                        if expected is None:
                            with pytest.raises(HardwareError):
                                coupling_map.shortest_path(a, b, variant, avoid=blocked)
                        else:
                            assert coupling_map.shortest_path(
                                a, b, variant, avoid=blocked
                            ) == expected, (a, b, variant, blocked)

    @given(_devices(), st.lists(st.integers(-2, 15), max_size=8))
    def test_graph_queries_match_networkx(self, device, qubits):
        num_qubits, edges, _weight, _avoid = device
        coupling_map = CouplingMap(num_qubits, edges)
        graph = _nx_graph(num_qubits, edges)
        expected = np.full((num_qubits, num_qubits), -1)
        for source, lengths in nx.all_pairs_shortest_path_length(graph):
            for target, length in lengths.items():
                expected[source, target] = length
        assert np.array_equal(coupling_map.distance_matrix(), expected)
        assert coupling_map.is_connected() == nx.is_connected(graph)
        sub = graph.subgraph(qubits)
        assert coupling_map.subgraph_is_connected(qubits) == (
            len(sub) > 0 and nx.is_connected(sub)
        )
        triangles = sorted(
            tuple(sorted(clique))
            for clique in nx.enumerate_all_cliques(graph)
            if len(clique) == 3
        )
        assert coupling_map.triangles() == triangles
        assert coupling_map.edges == sorted((min(a, b), max(a, b)) for a, b in graph.edges)
        for qubit in range(num_qubits):
            assert coupling_map.neighbors(qubit) == sorted(graph.neighbors(qubit))
            assert coupling_map.degree(qubit) == graph.degree(qubit)


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
        graph = _nx_graph(coupling_map.num_qubits, coupling_map.edges)
        for a, b in [(0, 15), (0, 7), (1, 14)]:
            enumerated = len(list(nx.all_shortest_paths(graph, a, b)))
            assert coupling_map.tied_path_count(a, b) == enumerated

    def test_weighted_tied_path_count_matches_enumeration(self):
        coupling_map = johannesburg()
        weight = {edge: 0.25 for edge in coupling_map.edges}
        graph = _nx_graph(coupling_map.num_qubits, coupling_map.edges)

        def edge_weight(u, v, _attrs):
            return weight[(min(u, v), max(u, v))]

        for a, b in [(0, 12), (3, 17), (0, 19)]:
            enumerated = len(
                list(nx.all_shortest_paths(graph, a, b, weight=edge_weight))
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
