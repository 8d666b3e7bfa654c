"""The unified transpile() driver: Target handling, levels, and the frozen
byte-identity guarantee that the paper-reproduction numbers survived the
list-IR → DAG-IR refactor."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from tests.conftest import assert_compilation_equivalent

from repro import QuantumCircuit, Target, transpile
from repro.bench_circuits.suite import PAPER_BENCHMARKS, get_benchmark
from repro.compiler import check_connectivity
from repro.exceptions import TranspilerError
from repro.hardware import johannesburg, johannesburg_aug19_2020, fully_connected
from repro.hardware.library import PAPER_TOPOLOGIES
from repro.passes import (
    CancelAdjacentInversesPass,
    Consolidate1qRunsPass,
    DecomposeSwapsPass,
    DecomposeToBasisPass,
    MappingAwareToffoliDecomposePass,
    PropertySet,
    RemoveIdentitiesPass,
    ToffoliDecomposePass,
)
from repro.sim import circuits_equivalent

REFERENCE = Path(__file__).parent / "data" / "fig9_10_compiled_sha256.json"

# Frozen at the PR that introduced optimization_level=3: levels 0/1/2 are
# untouched by the level-3 machinery (the commutation loop and the seed
# search are gated behind level >= 3), so these hashes — like the level-1
# reference file — must never change unless a PR *intentionally* changes
# the lower levels' output and says so.
LEVEL_0_2_FROZEN = {
    ("ibmq-johannesburg", "grovers-9", "baseline", 0):
        "ac1c8db6ad7a2fe8bb35d765f0b7b9846b879ce523622de6cce4cbbe8e634839",
    ("ibmq-johannesburg", "grovers-9", "baseline", 2):
        "cab4d77bc0c9f9c07169747ce48d82c1515675c4a98e7899fed2708664a42a3d",
    ("ibmq-johannesburg", "grovers-9", "trios", 0):
        "33400260f8d8d0d401a8e85e5778eb99b93f9f6c9bd8c10d988f06816a563fe6",
    ("ibmq-johannesburg", "grovers-9", "trios", 2):
        "c20c0bfc8e2b1a1927b14ba5ca02c96ddd1e5ea8fa3f7ff292ebcc1d12974fb4",
    ("full-grid-5x4", "cnx_dirty-11", "baseline", 0):
        "acc66e4d190e333ed7cf5186e55e78fdc9d302f6b2e25eb7049231b54606bad9",
    ("full-grid-5x4", "cnx_dirty-11", "baseline", 2):
        "d9d38c5a9d517dbdd6e6ddff0efbbdc175e551a741ed4b7fe2f915c8f01f7ef0",
    ("full-grid-5x4", "cnx_dirty-11", "trios", 0):
        "ecebb31dd81ffdc8d880538130029e86d24bf62cdb3c33d0349ea3c527394dd2",
    ("full-grid-5x4", "cnx_dirty-11", "trios", 2):
        "551011fceb5c119f8e810930958bbad33100d0fd777f5c9917c628c72575618d",
    # Toffoli-free control: baseline and trios compile identically.
    ("clusters-5x4", "qft_adder-16", "baseline", 0):
        "8c6e878edfe12caea852a66b37db6f1f3bca4ae577dd113257431e5a0b7396d8",
    ("clusters-5x4", "qft_adder-16", "baseline", 2):
        "a6f457bd0f211f1ef0d75920570b28d373351462e2a7e08844e3121ff6cde5e2",
    ("clusters-5x4", "qft_adder-16", "trios", 0):
        "8c6e878edfe12caea852a66b37db6f1f3bca4ae577dd113257431e5a0b7396d8",
    ("clusters-5x4", "qft_adder-16", "trios", 2):
        "a6f457bd0f211f1ef0d75920570b28d373351462e2a7e08844e3121ff6cde5e2",
}


def canonical_bytes(circuit: QuantumCircuit) -> str:
    """Full-precision canonical serialisation (params as float hex)."""
    lines = [f"{circuit.num_qubits}"]
    for inst in circuit.instructions:
        params = ",".join(float(p).hex() for p in inst.gate.params)
        qubits = ",".join(map(str, inst.qubits))
        clbits = ",".join(map(str, inst.clbits))
        lines.append(f"{inst.name}({params}) q{qubits} c{clbits}")
    return "\n".join(lines)


def sha(circuit: QuantumCircuit) -> str:
    return hashlib.sha256(canonical_bytes(circuit).encode()).hexdigest()


class TestByteIdentityWithPreRefactorPipelines:
    """The Figure 9/10 sweep must be byte-identical to the frozen pre-DAG output."""

    def test_full_fig9_10_sweep_matches_frozen_hashes(self):
        frozen = json.loads(REFERENCE.read_text())
        seed = frozen["seed"]
        hashes = frozen["hashes"]
        checked = 0
        for label, builder in PAPER_TOPOLOGIES.items():
            coupling_map = builder()
            for name in PAPER_BENCHMARKS:
                circuit = get_benchmark(name)
                if circuit.num_qubits > coupling_map.num_qubits:
                    continue
                for method in ("baseline", "trios"):
                    result = transpile(circuit, coupling_map, method=method, seed=seed)
                    key = f"{label}|{name}|{method}"
                    assert sha(result.circuit) == hashes[key], (
                        f"compiled output for {key} drifted from the frozen "
                        "pre-refactor pipeline. If this PR intentionally "
                        "changes compiled output, say so in the PR and "
                        "regenerate the reference with "
                        "`python benchmarks/freeze_fig9_10_reference.py`; "
                        "otherwise this is a regression in a default-level "
                        "pass."
                    )
                    checked += 1
        assert checked == len(hashes)

    def test_fixed_point_loop_converges_across_the_sweep(self):
        device = johannesburg()
        for name in ("grovers-9", "qft_adder-16", "cuccaro_adder-20"):
            result = transpile(get_benchmark(name), device, method="trios", seed=11)
            iterations = result.properties["fixed_point_iterations"]
            assert iterations, "optimisation stage did not run the fixed-point loop"
            assert all(i >= 1 for i in iterations)

    def test_levels_0_and_2_are_untouched_by_the_level3_machinery(self):
        # Level 3 is additive: the lower optimisation levels' outputs are
        # byte-identical to their pre-level-3 state (frozen above), so the
        # level-1 reference file must NOT be regenerated for this feature.
        for (label, name, method, level), expected in LEVEL_0_2_FROZEN.items():
            coupling_map = PAPER_TOPOLOGIES[label]()
            result = transpile(
                get_benchmark(name), coupling_map, method=method, seed=11,
                optimization_level=level,
            )
            assert sha(result.circuit) == expected, (
                f"level-{level} output for {label}|{name}|{method} drifted; "
                "levels 0-2 must not change when level-3 features evolve. "
                "An intentional change to the lower levels needs these "
                "LEVEL_0_2_FROZEN hashes updated by hand AND the level-1 "
                "reference regenerated with "
                "`python benchmarks/freeze_fig9_10_reference.py`."
            )


class TestTranspileApi:
    def _program(self):
        circuit = QuantumCircuit(4, "prog")
        circuit.h(0).cx(0, 1).ccx(0, 1, 2).t(2).cx(2, 3)
        return circuit

    def test_accepts_target_and_bare_coupling_map(self, johannesburg_map):
        target = Target(johannesburg_map, johannesburg_aug19_2020())
        via_target = transpile(self._program(), target, method="trios", seed=3)
        via_map = transpile(self._program(), johannesburg_map, method="trios", seed=3)
        assert via_target.circuit == via_map.circuit
        assert via_target.target is target
        assert via_map.target.coupling_map is johannesburg_map

    def test_target_calibration_is_default_for_metrics(self, johannesburg_map):
        calibration = johannesburg_aug19_2020()
        result = transpile(
            self._program(),
            Target(johannesburg_map, calibration),
            method="trios",
            seed=3,
        )
        assert result.duration() == result.duration(calibration)
        assert result.success_probability() == pytest.approx(
            result.success_probability(calibration)
        )
        bare = transpile(self._program(), johannesburg_map, method="trios", seed=3)
        with pytest.raises(TranspilerError):
            bare.duration()

    def test_noise_aware_needs_calibrated_target(self, johannesburg_map):
        with pytest.raises(TranspilerError):
            transpile(self._program(), johannesburg_map, noise_aware=True)
        calibrated = Target(johannesburg_map, johannesburg_aug19_2020())
        result = transpile(
            self._program(), calibrated, noise_aware=True, layout="noise", seed=3
        )
        assert check_connectivity(result.circuit, johannesburg_map) == []

    @pytest.mark.parametrize("method", ["baseline", "trios"])
    def test_optimization_levels(self, johannesburg_map, method):
        program = self._program()
        by_level = {
            level: transpile(
                program, johannesburg_map, method=method, seed=5,
                optimization_level=level,
            )
            for level in (0, 1, 2)
        }
        for result in by_level.values():
            assert check_connectivity(result.circuit, johannesburg_map) == []
            assert_compilation_equivalent(program, result)
        assert len(by_level[1].circuit) <= len(by_level[0].circuit)
        # Level 1 is the default.
        default = transpile(program, johannesburg_map, method=method, seed=5)
        assert by_level[1].circuit == default.circuit

    def test_unknown_method_layout_and_routing_rejected(self, johannesburg_map):
        with pytest.raises(TranspilerError):
            transpile(self._program(), johannesburg_map, method="magic")
        with pytest.raises(TranspilerError):
            transpile(self._program(), johannesburg_map, layout="psychic")
        with pytest.raises(TranspilerError):
            transpile(self._program(), johannesburg_map, routing="quantum")

    def test_options_the_pipeline_ignores_are_rejected(self, johannesburg_map):
        # An ablation run must not silently fall back to the defaults.
        with pytest.raises(TranspilerError, match="no effect"):
            transpile(
                self._program(),
                johannesburg_map,
                method="baseline",
                second_decomposition="8cnot",
            )
        with pytest.raises(TranspilerError, match="no effect"):
            transpile(
                self._program(),
                johannesburg_map,
                method="baseline",
                overlap_optimization=False,
            )
        with pytest.raises(TranspilerError, match="no effect"):
            transpile(
                self._program(), johannesburg_map, method="trios", toffoli_mode="8cnot"
            )

    def test_pass_timings_are_exposed(self, johannesburg_map):
        result = transpile(self._program(), johannesburg_map, seed=2)
        timings = result.pass_timings
        assert timings, "transpile recorded no pass telemetry"
        stages = {record["stage"] for record in timings}
        assert {"decompose", "layout", "routing", "optimize"} <= stages
        assert all(record["seconds"] >= 0 for record in timings)


def random_test_circuits(count: int = 8, max_qubits: int = 6, gates: int = 12):
    """Seeded random circuits (≤ ``max_qubits`` qubits) for equivalence checks."""
    rng = random.Random(20260730)
    circuits = []
    for index in range(count):
        num_qubits = rng.randint(3, max_qubits)
        circuit = QuantumCircuit(num_qubits, f"rand{index}")
        for _ in range(gates):
            kind = rng.choice(["1q", "1q", "2q", "2q", "3q", "swap"])
            qubits = rng.sample(range(num_qubits), 3)
            if kind == "1q":
                getattr(circuit, rng.choice(["h", "x", "t", "tdg", "s", "z"]))(qubits[0])
            elif kind == "2q":
                circuit.cx(qubits[0], qubits[1])
            elif kind == "swap":
                circuit.swap(qubits[0], qubits[1])
            else:
                circuit.ccx(qubits[0], qubits[1], qubits[2])
        circuits.append(circuit)
    return circuits


class TestPortedPassesPreserveSemantics:
    """Every DAG-ported pass keeps the circuit unitary on randomized circuits."""

    @pytest.mark.parametrize(
        "make_pass",
        [
            DecomposeSwapsPass,
            CancelAdjacentInversesPass,
            Consolidate1qRunsPass,
            RemoveIdentitiesPass,
            DecomposeToBasisPass,
            lambda: DecomposeToBasisPass(keep=("ccx", "ccz")),
            lambda: ToffoliDecomposePass(mode="6cnot"),
            lambda: ToffoliDecomposePass(mode="8cnot"),
        ],
        ids=[
            "decompose_swaps",
            "cancel_inverses",
            "consolidate_1q",
            "remove_identities",
            "unroll",
            "unroll_keep_toffoli",
            "toffoli_6cnot",
            "toffoli_8cnot",
        ],
    )
    def test_pass_preserves_unitary(self, make_pass):
        for circuit in random_test_circuits():
            out = make_pass().run(circuit, PropertySet())
            assert circuits_equivalent(circuit, out), (
                f"{type(make_pass()).__name__} changed the semantics of "
                f"{circuit.name}"
            )

    def test_mapping_aware_toffoli_preserves_unitary(self):
        # On a fully connected device every trio is a triangle, so the pass is
        # applicable without routing.
        device = fully_connected(6)
        decompose = MappingAwareToffoliDecomposePass(device)
        for circuit in random_test_circuits(count=4):
            out = decompose.run(circuit, PropertySet())
            assert out.count_ops().get("ccx", 0) == 0
            assert circuits_equivalent(circuit, out)


class TestOptimizationLevel3:
    """The commutation-aware level plus its multi-seed layout/routing search."""

    def _program(self):
        circuit = QuantumCircuit(4, "prog")
        circuit.h(0).cx(0, 1).ccx(0, 1, 2).t(2).cx(2, 3).tdg(2).ccx(0, 1, 2)
        return circuit

    @pytest.mark.parametrize("method", ["baseline", "trios"])
    def test_never_worse_than_level2_and_equivalent(self, johannesburg_map, method):
        program = self._program()
        level2 = transpile(
            program, johannesburg_map, method=method, seed=5, optimization_level=2
        )
        level3 = transpile(
            program, johannesburg_map, method=method, seed=5, optimization_level=3
        )
        assert level3.two_qubit_gate_count <= level2.two_qubit_gate_count
        assert level3.depth <= level2.depth
        level3.assert_equivalent(program)

    def test_seed_search_telemetry(self, johannesburg_map):
        result = transpile(
            self._program(), johannesburg_map, method="baseline", seed=5,
            optimization_level=3, seed_trials=3,
        )
        search = result.seed_search
        assert search is not None
        assert len(search["seeds"]) == 3
        assert search["seeds"][0] == 5  # the caller's seed is the base candidate
        assert search["chosen_seed"] in search["seeds"]
        base = search["candidates"][0]
        assert base["admissible"], "the base-seed candidate is always admissible"
        chosen = search["candidates"][search["chosen_index"]]
        assert chosen["admissible"]
        # The winner never regresses the base candidate on the paper metrics.
        assert chosen["cnots"] <= base["cnots"]
        assert chosen["depth"] <= base["depth"]
        # And the telemetry matches the circuit that was actually returned.
        assert chosen["cnots"] == result.two_qubit_gate_count
        assert chosen["depth"] == result.depth
        # Below level 3 there is no search.
        level1 = transpile(self._program(), johannesburg_map, seed=5)
        assert level1.seed_search is None

    def test_parallel_search_equals_serial(self, johannesburg_map):
        serial = transpile(
            self._program(), johannesburg_map, method="trios", seed=5,
            optimization_level=3,
        )
        parallel = transpile(
            self._program(), johannesburg_map, method="trios", seed=5,
            optimization_level=3, jobs=3,
        )
        assert serial.circuit == parallel.circuit
        assert serial.seed_search["chosen_seed"] == parallel.seed_search["chosen_seed"]

    def test_prefix_reuse_is_byte_identical_to_full_per_seed_pipeline(
        self, johannesburg_map
    ):
        # The search runs the seed-independent prefix (decomposition +
        # pre-placement clean-up) once and resumes each candidate from the
        # decomposed circuit.  Every candidate must be byte-identical to
        # what the full monolithic pipeline produces for the same seed —
        # the optimisation is a pure cost cut, never a result change.
        from repro.compiler.pipeline import (
            TranspileOptions,
            _TranspileContext,
            _build_partial_manager,
            _candidate_seeds,
            _seed_candidate,
            _split_stage_names,
        )
        from repro.hardware.target import Target

        program = self._program()
        target = Target(johannesburg_map)
        for method in ("baseline", "trios"):
            ctx = _TranspileContext(
                options=TranspileOptions(method, optimization_level=3, seed=5),
                target=target, edge_weights=None, validate_mode="full",
            )
            prefix_names, suffix_names = _split_stage_names(method)
            assert prefix_names, "every registered pipeline has a layout stage"
            assert suffix_names[0] == "layout"
            pre_circuit, pre_properties = _build_partial_manager(
                prefix_names, ctx
            ).run(program)
            for candidate_seed in _candidate_seeds(5, 3):
                reference = _seed_candidate((ctx, program, None, candidate_seed))
                reused = _seed_candidate(
                    (ctx, pre_circuit, pre_properties, candidate_seed)
                )
                assert canonical_bytes(reused[0]) == canonical_bytes(reference[0])
                # cnots, depth, estimated success — the admissibility inputs.
                assert reused[2:] == reference[2:]

    def test_seed_search_telemetry_records_prefix_stages(self, johannesburg_map):
        result = transpile(
            self._program(), johannesburg_map, method="trios", seed=5,
            optimization_level=3, seed_trials=2,
        )
        assert result.seed_search["prefix_stages"] == [
            "unroll_keep_toffoli", "pre_optimize",
        ]

    def test_seedless_search_degenerates_to_one_candidate(self, johannesburg_map):
        result = transpile(
            self._program(), johannesburg_map, method="trios", seed=None,
            optimization_level=3, routing="greedy",
        )
        assert result.seed_search["seeds"] == [None]

    def test_search_knobs_rejected_below_level3(self, johannesburg_map):
        with pytest.raises(TranspilerError, match="no effect"):
            transpile(self._program(), johannesburg_map, optimization_level=2, jobs=2)
        with pytest.raises(TranspilerError, match="no effect"):
            transpile(
                self._program(), johannesburg_map, optimization_level=1,
                seed_trials=2,
            )
        with pytest.raises(TranspilerError, match="invalid optimization_level"):
            transpile(self._program(), johannesburg_map, optimization_level=4)
        with pytest.raises(TranspilerError, match="seed_trials"):
            transpile(
                self._program(), johannesburg_map, optimization_level=3,
                seed_trials=0,
            )

    def test_level3_output_respects_coupling_map(self, johannesburg_map):
        result = transpile(
            self._program(), johannesburg_map, method="trios", seed=5,
            optimization_level=3,
        )
        assert check_connectivity(result.circuit, johannesburg_map) == []

    def test_level3_on_random_circuits_is_equivalent(self, johannesburg_map):
        for circuit in random_test_circuits(count=3, max_qubits=5):
            for method in ("baseline", "trios"):
                level2 = transpile(
                    circuit, johannesburg_map, method=method, seed=9,
                    optimization_level=2,
                )
                level3 = transpile(
                    circuit, johannesburg_map, method=method, seed=9,
                    optimization_level=3, seed_trials=2,
                )
                assert level3.two_qubit_gate_count <= level2.two_qubit_gate_count
                assert level3.depth <= level2.depth
                level3.assert_equivalent(circuit, trials=2)


class TestGreedyDepthPipeline:
    """The registered deterministic "greedy-depth" flow (ROADMAP follow-on)."""

    def test_registered_in_pipelines(self):
        from repro.compiler import PIPELINES

        assert "greedy-depth" in PIPELINES

    def test_compiles_deterministically_and_equivalently(self, johannesburg_map):
        program = QuantumCircuit(4, "prog")
        program.h(0).cx(0, 1).ccx(0, 1, 2).t(2).cx(2, 3)
        first = transpile(program, johannesburg_map, method="greedy-depth", seed=1)
        second = transpile(program, johannesburg_map, method="greedy-depth", seed=2)
        # Deterministic: the routing ignores the stochastic seed entirely.
        assert first.circuit == second.circuit
        assert first.method == "greedy-depth"
        assert check_connectivity(first.circuit, johannesburg_map) == []
        assert_compilation_equivalent(program, first)

    def test_cli_compile_accepts_greedy_depth(self, capsys):
        from repro.experiments.cli import main

        assert main(["compile", "cnx_inplace-4", "--pipeline", "greedy-depth"]) == 0
        out = capsys.readouterr().out
        assert "greedy-depth" in out
        assert "CNOTs" in out

    def test_cli_compile_opt_level_3(self, capsys):
        from repro.experiments.cli import main

        assert main(
            ["compile", "cnx_inplace-4", "--opt-level", "3", "--seed-trials", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "seed search" in out
