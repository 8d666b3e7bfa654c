"""Tests for layout, routing (baseline and Trios), optimisation and scheduling passes."""

import pytest

from repro.bench_circuits.suite import get_benchmark
from repro.circuits import QuantumCircuit
from repro.circuits.dag import DagCircuit
from repro.compiler.pipeline import transpile
from repro.exceptions import LayoutError, RoutingError
from repro.hardware import CouplingMap, johannesburg, line
from repro.passes import (
    ASAPSchedulePass,
    CancelAdjacentInversesPass,
    Consolidate1qRunsPass,
    DecomposeSwapsPass,
    FixedLayoutPass,
    GreedyInteractionLayoutPass,
    GreedySwapRouter,
    Layout,
    LegalizationRouter,
    NoiseAwareLayoutPass,
    PassManager,
    PropertySet,
    RemoveIdentitiesPass,
    TrivialLayoutPass,
    TriosRouter,
    asap_schedule,
)
from repro.sim import circuits_equivalent


class TestLayout:
    def test_bijection_enforced(self):
        with pytest.raises(LayoutError):
            Layout({0: 3, 1: 3})

    def test_physical_and_logical_lookup(self):
        layout = Layout({0: 5, 1: 2})
        assert layout.physical(0) == 5
        assert layout.logical(2) == 1
        assert layout.logical(9) is None
        with pytest.raises(LayoutError):
            layout.physical(7)

    def test_swap_physical_moves_data(self):
        layout = Layout({0: 5, 1: 2})
        layout.swap_physical(5, 2)
        assert layout.physical(0) == 2
        assert layout.physical(1) == 5
        # Swapping with an empty wire moves the data there.
        layout.swap_physical(2, 9)
        assert layout.physical(0) == 9

    def test_trivial(self):
        assert Layout.trivial(3).to_dict() == {0: 0, 1: 1, 2: 2}


class TestLayoutPasses:
    def test_trivial_layout_pass(self, johannesburg_map):
        circuit = QuantumCircuit(5)
        properties = PropertySet()
        TrivialLayoutPass(johannesburg_map).run(circuit, properties)
        assert properties["layout"].to_dict() == {i: i for i in range(5)}

    def test_fixed_layout_pass_validates(self, johannesburg_map):
        circuit = QuantumCircuit(3)
        with pytest.raises(LayoutError):
            FixedLayoutPass(johannesburg_map, {0: 1, 1: 2}).run(circuit, PropertySet())
        with pytest.raises(LayoutError):
            FixedLayoutPass(johannesburg_map, {0: 1, 1: 2, 2: 99}).run(circuit, PropertySet())

    def test_circuit_larger_than_device_rejected(self):
        small = CouplingMap(2, [(0, 1)])
        with pytest.raises(LayoutError):
            TrivialLayoutPass(small).run(QuantumCircuit(3), PropertySet())

    def test_greedy_layout_places_interacting_qubits_nearby(self, johannesburg_map):
        circuit = QuantumCircuit(3)
        for _ in range(5):
            circuit.ccx(0, 1, 2)
        properties = PropertySet()
        GreedyInteractionLayoutPass(johannesburg_map).run(circuit, properties)
        layout = properties["layout"]
        placed = [layout.physical(q) for q in range(3)]
        assert len(set(placed)) == 3
        assert johannesburg_map.total_distance(placed) <= 4

    def test_noise_aware_layout_avoids_bad_edges(self, hardware_calibration):
        cmap = line(4)
        noisy = hardware_calibration.with_edge_errors({(0, 1): 0.4, (1, 2): 0.001, (2, 3): 0.001})
        circuit = QuantumCircuit(2)
        for _ in range(3):
            circuit.cx(0, 1)
        properties = PropertySet()
        NoiseAwareLayoutPass(cmap, noisy).run(circuit, properties)
        layout = properties["layout"]
        pair = {layout.physical(0), layout.physical(1)}
        assert pair != {0, 1}


class TestBaselineRouter:
    def test_adjacent_gates_need_no_swaps(self, line_map):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2)
        routed, properties = PassManager(
            [TrivialLayoutPass(line_map), GreedySwapRouter(line_map)]
        ).run(circuit)
        assert properties["swaps_inserted"] == 0
        assert routed.count_ops().get("swap", 0) == 0

    def test_distant_gate_gets_swaps_and_respects_coupling(self, line_map):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        routed, properties = PassManager(
            [TrivialLayoutPass(line_map), GreedySwapRouter(line_map)]
        ).run(circuit)
        assert properties["swaps_inserted"] == 3
        for inst in routed.instructions:
            if inst.gate.num_qubits == 2:
                assert line_map.are_adjacent(*inst.qubits)

    def test_final_layout_tracks_data_movement(self, line_map):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        _, properties = PassManager(
            [TrivialLayoutPass(line_map), GreedySwapRouter(line_map)]
        ).run(circuit)
        final = properties["final_layout"]
        # Qubit 0's data walked down the line to sit next to qubit 4.
        assert final.physical(0) == 3
        assert final.physical(4) == 4

    def test_routed_circuit_is_equivalent(self, line_map):
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 3).t(3).cx(1, 2).cx(0, 1)
        routed, properties = PassManager(
            [TrivialLayoutPass(line_map), GreedySwapRouter(line_map), DecomposeSwapsPass()]
        ).run(circuit)
        initial = properties["initial_layout"].to_dict()
        final = properties["final_layout"].to_dict()
        embedded = circuit.remap_qubits(initial, num_qubits=line_map.num_qubits)
        # Compare on the induced 4-qubit subspace of the line (wires 0..3).
        assert circuits_equivalent(
            embedded.remap_qubits({i: i for i in range(4)}, num_qubits=4),
            routed.remap_qubits({i: i for i in range(4)}, num_qubits=4),
            final_permutation={initial[q]: final[q] for q in initial},
        )

    def test_stochastic_mode_is_deterministic_per_seed(self, johannesburg_map):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2).cx(1, 2).cx(0, 1)
        def route(seed):
            return PassManager([
                FixedLayoutPass(johannesburg_map, {0: 0, 1: 9, 2: 15}),
                GreedySwapRouter(johannesburg_map, stochastic=True, seed=seed),
            ]).run(circuit)[1]["swaps_inserted"]
        assert route(3) == route(3)

    def test_measure_and_barrier_are_remapped(self, line_map):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).barrier().measure(0, 0).measure(1, 1)
        routed, _ = PassManager(
            [FixedLayoutPass(line_map, {0: 4, 1: 5}), GreedySwapRouter(line_map)]
        ).run(circuit)
        measured = [inst.qubits[0] for inst in routed.instructions if inst.name == "measure"]
        assert measured == [4, 5]

    def test_three_qubit_gate_rejected(self, line_map):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(RoutingError):
            PassManager([TrivialLayoutPass(line_map), GreedySwapRouter(line_map)]).run(circuit)


class TestTriosRouter:
    @pytest.mark.parametrize("placement", [
        {0: 0, 1: 4, 2: 15},
        {0: 6, 1: 17, 2: 3},
        {0: 19, 1: 0, 2: 10},
        {0: 5, 1: 6, 2: 7},
    ])
    def test_toffoli_lands_on_connected_qubits(self, johannesburg_map, placement):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        routed, properties = PassManager(
            [FixedLayoutPass(johannesburg_map, placement), TriosRouter(johannesburg_map)]
        ).run(circuit)
        toffolis = [inst for inst in routed.instructions if inst.name == "ccx"]
        assert len(toffolis) == 1
        assert johannesburg_map.subgraph_is_connected(list(toffolis[0].qubits))

    def test_already_connected_trio_needs_no_swaps(self, johannesburg_map):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        _, properties = PassManager(
            [FixedLayoutPass(johannesburg_map, {0: 5, 1: 6, 2: 7}), TriosRouter(johannesburg_map)]
        ).run(circuit)
        assert properties["swaps_inserted"] == 0

    def test_trios_uses_fewer_swaps_than_pairwise_routing(self, johannesburg_map):
        # The Figure 1 pathology: a distant Toffoli routed as a unit needs far
        # fewer SWAPs than routing its six decomposed CNOTs one by one.
        from repro.passes import DecomposeToBasisPass

        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        placement = {0: 0, 1: 4, 2: 15}
        _, trios_props = PassManager(
            [FixedLayoutPass(johannesburg_map, placement), TriosRouter(johannesburg_map)]
        ).run(circuit)
        _, baseline_props = PassManager(
            [
                DecomposeToBasisPass(),
                FixedLayoutPass(johannesburg_map, placement),
                GreedySwapRouter(johannesburg_map, stochastic=True, seed=0),
            ]
        ).run(circuit)
        assert trios_props["swaps_inserted"] < baseline_props["swaps_inserted"]

    def test_two_qubit_gates_still_routed(self, line_map):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2).ccx(0, 1, 2)
        routed, _ = PassManager(
            [FixedLayoutPass(line_map, {0: 0, 1: 10, 2: 19}), TriosRouter(line_map)]
        ).run(circuit)
        for inst in routed.instructions:
            if inst.name in ("cx", "swap"):
                assert line_map.are_adjacent(*inst.qubits)

    def test_overlap_optimization_never_increases_swaps(self, johannesburg_map):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        for placement in ({0: 0, 1: 4, 2: 15}, {0: 2, 1: 13, 2: 18}, {0: 16, 1: 1, 2: 8}):
            def swaps(overlap: bool) -> int:
                _, props = PassManager([
                    FixedLayoutPass(johannesburg_map, placement),
                    TriosRouter(johannesburg_map, overlap_optimization=overlap),
                ]).run(circuit)
                return props["swaps_inserted"]
            assert swaps(True) <= swaps(False)


class TestLegalizationRouter:
    def test_no_op_on_legal_circuit(self, line_map):
        circuit = QuantumCircuit(20)
        circuit.cx(3, 4).cx(4, 5)
        properties = PropertySet()
        properties["final_layout"] = Layout.trivial(20)
        routed = LegalizationRouter(line_map).run(circuit, properties)
        assert properties["swaps_inserted"] == 0
        assert routed.count_ops() == circuit.count_ops()

    def test_fixes_illegal_cnots(self, line_map):
        circuit = QuantumCircuit(20)
        circuit.cx(0, 3)
        properties = PropertySet()
        properties["final_layout"] = Layout.trivial(20)
        routed = LegalizationRouter(line_map).run(circuit, properties)
        for inst in routed.instructions:
            if inst.gate.num_qubits == 2:
                assert line_map.are_adjacent(*inst.qubits)
        # The recorded final layout composes the extra movement.
        assert properties["final_layout"].physical(0) == 2

    def test_no_placeholder_layout_leaks(self, line_map):
        # Regression: with no prior layout, the router's temporary full-device
        # trivial layout must not remain in the property set afterwards.
        circuit = QuantumCircuit(20)
        circuit.cx(0, 3)
        properties = PropertySet()
        LegalizationRouter(line_map).run(circuit, properties)
        assert "layout" not in properties
        assert "initial_layout" not in properties

    def test_prior_layout_is_preserved(self, line_map):
        circuit = QuantumCircuit(20)
        circuit.cx(3, 4)
        properties = PropertySet()
        prior = Layout({0: 3, 1: 4})
        properties["layout"] = prior
        properties["initial_layout"] = prior.copy()
        properties["final_layout"] = Layout.trivial(20)
        LegalizationRouter(line_map).run(circuit, properties)
        assert properties["layout"].to_dict() == prior.to_dict()
        assert properties["initial_layout"].to_dict() == prior.to_dict()

    # -- the already-legal short cut ------------------------------------
    @staticmethod
    def _legal_dag(num_qubits=20):
        circuit = QuantumCircuit(num_qubits)
        circuit.h(0).cx(0, 1).cx(2, 1).t(5).cx(5, 4).measure(4, 0)
        return DagCircuit.from_circuit(circuit)

    def test_legal_input_is_returned_as_is(self, line_map):
        dag = self._legal_dag()
        before = dag.instructions
        properties = PropertySet()
        assert LegalizationRouter(line_map).run(dag, properties) is dag
        assert dag.instructions == before
        assert properties["swaps_inserted"] == 0

    @pytest.mark.parametrize("prior", ["none", "final", "layout", "all"])
    def test_legal_input_records_what_the_rebuild_would(self, line_map, prior):
        def properties():
            props = PropertySet()
            if prior in ("layout", "all"):
                props["layout"] = Layout({0: 3, 1: 4})
                props["initial_layout"] = Layout({0: 3, 1: 4})
            if prior in ("final", "all"):
                props["final_layout"] = Layout({0: 4, 1: 3, 2: 7})
            if prior == "all":
                props["swaps_inserted"] = 5
            return props

        router = LegalizationRouter(line_map)
        short_cut, rebuilt = properties(), properties()
        kept = router.run_dag(self._legal_dag(), short_cut)
        rerouted = router._reroute(self._legal_dag(), rebuilt)
        assert kept.instructions == rerouted.instructions

        def plain(props):
            return {
                key: value.to_dict() if isinstance(value, Layout) else value
                for key, value in props.items()
            }

        assert plain(short_cut) == plain(rebuilt)
        assert list(short_cut) == list(rebuilt)

    def test_three_qubit_gate_still_raises(self, line_map):
        circuit = QuantumCircuit(20)
        circuit.ccx(0, 1, 2)
        with pytest.raises(RoutingError):
            LegalizationRouter(line_map).run(circuit, PropertySet())

    def test_narrower_dag_lands_on_the_device_wires(self, line_map):
        dag = DagCircuit.from_circuit(QuantumCircuit(3).cx(0, 1).cx(1, 2))
        routed = LegalizationRouter(line_map).run(dag, PropertySet())
        assert routed is not dag
        assert routed.num_qubits == line_map.num_qubits
        assert routed.instructions == dag.instructions

    def test_barrier_across_non_adjacent_qubits_is_legal(self, line_map):
        circuit = QuantumCircuit(20)
        circuit.cx(0, 1).barrier(0, 7).barrier(2, 9, 15)
        dag = DagCircuit.from_circuit(circuit)
        properties = PropertySet()
        assert LegalizationRouter(line_map).run(dag, properties) is dag
        assert properties["swaps_inserted"] == 0

    @pytest.mark.parametrize("device", [johannesburg, line])
    def test_mapping_aware_trios_compiles_take_the_short_cut(self, device, monkeypatch):
        def rebuild(*args):
            raise AssertionError("a mapping-aware Trios circuit was re-routed")

        monkeypatch.setattr(LegalizationRouter, "_reroute", rebuild)
        result = transpile(get_benchmark("grovers-9"), device(), method="trios", seed=11)
        assert result.properties["swaps_inserted"] > 0  # the Trios router's, not ours


class TestOptimizationPasses:
    def test_swap_decomposition(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        out = DecomposeSwapsPass().run(circuit, PropertySet())
        assert out.count_ops() == {"cx": 3}
        assert circuits_equivalent(circuit, out)

    def test_adjacent_cnot_pair_cancels(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(0, 1).h(2)
        out = CancelAdjacentInversesPass().run(circuit, PropertySet())
        assert out.count_ops() == {"h": 1}

    def test_t_tdg_pair_cancels(self):
        circuit = QuantumCircuit(1)
        circuit.t(0).tdg(0)
        out = CancelAdjacentInversesPass().run(circuit, PropertySet())
        assert len(out) == 0

    def test_cancellation_respects_intervening_gates(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).x(1).cx(0, 1)
        out = CancelAdjacentInversesPass().run(circuit, PropertySet())
        assert out.count_ops() == {"cx": 2, "x": 1}

    def test_cascading_cancellation(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).cx(0, 1).h(0)
        out = CancelAdjacentInversesPass().run(circuit, PropertySet())
        assert len(out) == 0

    def test_consolidate_1q_runs_preserves_unitary(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).t(0).h(0).s(1).cx(0, 1).tdg(1).h(1)
        out = Consolidate1qRunsPass().run(circuit, PropertySet())
        one_qubit = [inst for inst in out.instructions if inst.gate.num_qubits == 1]
        assert all(inst.name == "u3" for inst in one_qubit)
        assert len(one_qubit) <= 4
        assert circuits_equivalent(circuit, out)

    def test_consolidate_drops_identity_runs(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).h(0)
        out = Consolidate1qRunsPass().run(circuit, PropertySet())
        assert len(out) == 0

    def test_remove_identities(self):
        circuit = QuantumCircuit(1)
        circuit.i(0).rz(0.0, 0).x(0)
        out = RemoveIdentitiesPass().run(circuit, PropertySet())
        assert out.count_ops() == {"x": 1}


class TestScheduling:
    def test_serial_chain_duration(self, hardware_calibration):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(0, 1).measure(0, 0)
        schedule = asap_schedule(circuit, hardware_calibration)
        assert schedule.duration == pytest.approx(2 * 0.559 + 3.5)

    def test_parallel_gates_overlap(self, hardware_calibration):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1).cx(2, 3)
        schedule = asap_schedule(circuit, hardware_calibration)
        assert schedule.duration == pytest.approx(0.559)
        assert schedule.parallelism() == pytest.approx(4.0)

    def test_schedule_pass_records_duration(self, hardware_calibration):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        _, properties = PassManager([ASAPSchedulePass(hardware_calibration)]).run(circuit)
        assert properties["duration"] == pytest.approx(0.559)

    def test_barrier_synchronises_without_time(self, hardware_calibration):
        circuit = QuantumCircuit(2)
        circuit.u3(0.1, 0.2, 0.3, 0).barrier().cx(0, 1)
        schedule = asap_schedule(circuit, hardware_calibration)
        assert schedule.duration == pytest.approx(0.07 + 0.559)
