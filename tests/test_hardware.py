"""Tests for coupling maps, the paper's topologies and device calibrations."""

import math
import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro.exceptions import HardwareError
from repro.hardware import (
    CouplingMap,
    DeviceCalibration,
    by_name,
    clusters,
    fully_connected,
    grid,
    johannesburg,
    johannesburg_aug19_2020,
    line,
    near_term_calibration,
    PAPER_TOPOLOGIES,
)


class TestCouplingMap:
    def test_rejects_self_loops_and_out_of_range(self):
        with pytest.raises(HardwareError):
            CouplingMap(3, [(0, 0)])
        with pytest.raises(HardwareError):
            CouplingMap(3, [(0, 5)])

    def test_adjacency_and_distance(self):
        cmap = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        assert cmap.are_adjacent(1, 2)
        assert not cmap.are_adjacent(0, 3)
        assert cmap.distance(0, 3) == 3
        assert cmap.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_weighted_shortest_path_prefers_reliable_edges(self):
        cmap = CouplingMap(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        weights = {(0, 1): 10.0, (1, 3): 10.0, (0, 2): 1.0, (2, 3): 1.0}
        assert cmap.shortest_path(0, 3, weights) == [0, 2, 3]

    def test_triangle_and_linear_middle(self):
        cmap = CouplingMap(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert cmap.has_triangle(0, 1, 2)
        assert not cmap.has_triangle(1, 2, 3)
        assert cmap.linear_middle(1, 2, 3) == 2
        assert cmap.linear_middle(0, 1, 3) is None

    def test_total_distance(self):
        cmap = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        assert cmap.total_distance([0, 1, 3]) == 1 + 2 + 3

    def test_subgraph_connectivity(self):
        cmap = CouplingMap(5, [(0, 1), (1, 2), (3, 4)])
        assert cmap.subgraph_is_connected([0, 1, 2])
        assert not cmap.subgraph_is_connected([0, 1, 3])


class TestPaperTopologies:
    @pytest.mark.parametrize("name", sorted(PAPER_TOPOLOGIES))
    def test_all_have_20_connected_qubits(self, name):
        cmap = by_name(name)
        assert cmap.num_qubits == 20
        assert cmap.is_connected()

    def test_johannesburg_is_sparse_rings(self):
        cmap = johannesburg()
        assert len(cmap.edges) == 23
        # Four rings, no triangles: the mapping-aware pass must always pick the
        # 8-CNOT decomposition on this device.
        assert cmap.triangles() == []

    def test_grid_edge_count(self):
        assert len(grid(4, 5).edges) == 31

    def test_line_is_a_path(self):
        cmap = line(20)
        assert len(cmap.edges) == 19
        assert cmap.distance(0, 19) == 19

    def test_clusters_are_dense_locally(self):
        cmap = clusters(4, 5)
        # Within a cluster every pair is adjacent.
        for a in range(5):
            for b in range(a + 1, 5):
                assert cmap.are_adjacent(a, b)
        # Crossing clusters requires the ring links.
        assert not cmap.are_adjacent(0, 7)
        assert len(cmap.triangles()) > 0

    def test_fully_connected_has_no_routing_needs(self):
        cmap = fully_connected(6)
        assert all(cmap.are_adjacent(a, b) for a in range(6) for b in range(a + 1, 6))

    def test_unknown_topology_name(self):
        with pytest.raises(HardwareError):
            by_name("torus-1000")

    @pytest.mark.parametrize("name", sorted(PAPER_TOPOLOGIES))
    def test_by_name_builds_each_topology_once(self, name):
        shared = by_name(name)
        assert by_name(name) is shared
        fresh = PAPER_TOPOLOGIES[name]()
        assert fresh is not shared
        assert (fresh.name, fresh.edges) == (shared.name, shared.edges)


class TestSharedMapCaches:
    def test_weight_tokens_are_distinct_across_threads(self):
        cmap = line(6)
        barrier = threading.Barrier(4)
        tokens = {}

        def worker(index):
            barrier.wait()
            for variant in range(50):
                weight = {(0, 1): float(index * 100 + variant + 1)}
                tokens[(index, variant)] = cmap._weight_token(weight)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(token) for token in tokens.values()}) == 200
        # An equal weight map built later gets the same token back.
        assert cmap._weight_token({(0, 1): 1.0}) is tokens[(0, 0)]
        assert cmap._weight_token(None) == 0

    def test_pickles_carry_no_caches(self):
        cmap = grid(4, 5)
        cold = len(pickle.dumps(cmap))
        weights = {edge: 1.0 + 0.1 * i for i, edge in enumerate(cmap.edges)}
        expected = [cmap.shortest_path(0, 19), cmap.shortest_path(0, 19, weights)]
        cmap.distance_matrix()
        assert len(pickle.dumps(cmap)) == cold
        clone = pickle.loads(pickle.dumps(cmap))
        assert [clone.shortest_path(0, 19), clone.shortest_path(0, 19, weights)] == expected


class TestCalibration:
    def test_paper_snapshot_values(self):
        calibration = johannesburg_aug19_2020()
        assert calibration.t1 == pytest.approx(70.87)
        assert calibration.t2 == pytest.approx(72.72)
        assert calibration.two_qubit_gate_time == pytest.approx(0.559)
        assert calibration.one_qubit_gate_time == pytest.approx(0.07)
        assert calibration.two_qubit_gate_error == pytest.approx(0.0147)
        assert calibration.one_qubit_gate_error == pytest.approx(0.0004)

    def test_improved_scales_errors_and_coherence(self):
        calibration = johannesburg_aug19_2020().improved(20)
        assert calibration.two_qubit_gate_error == pytest.approx(0.0147 / 20)
        assert calibration.t1 == pytest.approx(70.87 * 20)
        assert near_term_calibration().two_qubit_gate_error == pytest.approx(0.0147 / 20)

    def test_improved_rejects_nonpositive_factor(self):
        with pytest.raises(HardwareError):
            johannesburg_aug19_2020().improved(0)

    def test_gate_error_lookup(self):
        calibration = johannesburg_aug19_2020()
        assert calibration.gate_error("cx", (0, 1)) == pytest.approx(0.0147)
        assert calibration.gate_error("u3", (4,)) == pytest.approx(0.0004)
        assert calibration.gate_error("measure", (0,)) == pytest.approx(0.02)
        with pytest.raises(HardwareError):
            calibration.gate_error("ccx", (0, 1, 2))

    def test_per_edge_errors_override_average(self):
        calibration = johannesburg_aug19_2020().with_edge_errors({(1, 0): 0.05})
        assert calibration.gate_error("cx", (0, 1)) == pytest.approx(0.05)
        assert calibration.gate_error("cx", (2, 3)) == pytest.approx(0.0147)

    def test_noise_aware_edge_weights(self):
        cmap = line(4)
        calibration = johannesburg_aug19_2020().with_edge_errors({(0, 1): 0.1})
        weights = calibration.edge_weight_neg_log_success(cmap)
        assert weights[(0, 1)] == pytest.approx(-math.log(0.9))
        assert weights[(1, 2)] == pytest.approx(-math.log(1 - 0.0147))
        assert weights[(0, 1)] > weights[(1, 2)]

    def test_swap_duration_is_three_cnots(self):
        calibration = johannesburg_aug19_2020()
        assert calibration.gate_duration("swap", (0, 1)) == pytest.approx(3 * 0.559)

    @pytest.mark.parametrize("edges", [{}, {(3, 1): 0.05, (0, 2): 0.125}])
    def test_gate_costs_come_from_the_fields(self, edges):
        calibration = near_term_calibration()
        if edges:
            calibration = calibration.with_edge_errors(edges)
        costs = calibration.gate_costs
        assert costs is calibration.gate_costs  # computed once
        assert costs.one_qubit_error == calibration.one_qubit_gate_error
        assert costs.readout_error == calibration.readout_error
        assert costs.swap_time == 3 * calibration.two_qubit_gate_time
        for a, b in [(1, 3), (3, 1), (2, 0), (0, 1), (4, 5)]:
            expected = float(edges.get((b, a), edges.get((a, b), calibration.two_qubit_gate_error)))
            assert costs.two_qubit_error_on(a, b) == expected
            assert calibration.gate_error("cx", (a, b)) == expected
            assert calibration.gate_error("swap", (a, b)) == expected
        assert calibration.gate_error("barrier", (0, 1, 2)) == 0.0
        assert calibration.gate_duration("barrier", (0, 1, 2)) == 0.0
        assert calibration.gate_duration("u3", (4,)) == calibration.one_qubit_gate_time
        assert calibration.gate_duration("cx", (4, 5)) == calibration.two_qubit_gate_time
        for op in ("measure", "reset"):
            assert calibration.gate_duration(op, (0,)) == calibration.readout_time
        with pytest.raises(HardwareError):
            calibration.gate_duration("ccx", (0, 1, 2))

    def test_invalid_calibration_rejected(self):
        with pytest.raises(HardwareError):
            DeviceCalibration(
                name="bad", t1=-1, t2=1, one_qubit_gate_time=1, two_qubit_gate_time=1,
                one_qubit_gate_error=0, two_qubit_gate_error=0, readout_error=0,
                readout_time=1,
            )
        with pytest.raises(HardwareError):
            DeviceCalibration(
                name="bad", t1=1, t2=1, one_qubit_gate_time=1, two_qubit_gate_time=1,
                one_qubit_gate_error=0, two_qubit_gate_error=1.5, readout_error=0,
                readout_time=1,
            )


#: Imports the runtime's entry points with networkx made unimportable (or,
#: with ``allow``, importable), compiles one Fig 9/10 cell, and fails if any
#: networkx module was loaded.
_NO_NETWORKX_PROBE = """
import sys
if sys.argv[1] == "block":
    sys.modules["networkx"] = None  # any "import networkx" now raises
import repro
import repro.experiments.benchmarks
import repro.service.service
from repro.hardware import johannesburg

result = repro.experiments.benchmarks.run_benchmark_experiment(
    topologies={"ibmq-johannesburg": johannesburg}, benchmarks=["cnx_dirty-11"]
)
assert result.comparisons["ibmq-johannesburg"]["cnx_dirty-11"].trios_cnots > 0
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "networkx" and module is not None]
assert not loaded, loaded
"""


@pytest.mark.parametrize("mode", ["block", "allow"])
def test_runtime_does_not_need_networkx(mode):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _NO_NETWORKX_PROBE, mode],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
