"""Commutation analysis and commutative cancellation (`repro.passes.commutation`).

The pass decides commutation from a per-wire axis table, never from a
matrix.  Dense commutators are the oracle here: over every library gate
pair and placement the table must never claim a commutation the matrices
deny, and every real commutation it misses is listed by name (all of them
come from swap/cswap exchange symmetry).  Rotations by tiny angles must
block cancellation exactly as large ones do, and every optimisation pass
must preserve unitary equivalence on randomized circuits, checked through
the `repro.sim.equivalence` harness.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QuantumCircuit
from repro.bench_circuits.suite import get_benchmark
from repro.circuits.circuit import Instruction
from repro.circuits.gate import Gate
from repro.circuits import library
from repro.exceptions import TranspilerError
from repro.passes import (
    CancelAdjacentInversesPass,
    CommutationAnalysisPass,
    CommutativeCancellationPass,
    Consolidate1qRunsPass,
    DecomposeSwapsPass,
    DecomposeToBasisPass,
    FixedPoint,
    PassManager,
    PropertySet,
    RemoveIdentitiesPass,
)
from repro.passes.commutation import _commute, _wire_axes
from repro.sim import assert_unitary_equivalent, circuit_unitary, circuits_equivalent
from repro.sim.unitary import phase_aligned_distance
from test_run_synthesis import ANGLES

# ----------------------------------------------------------------------
# The full library gate inventory (parameter-free gates plus sampled angles
# for every parameterised gate) used by the exhaustive commutator check.
# ----------------------------------------------------------------------
_SAMPLE_ANGLE = 0.9337  # deliberately not a symmetry angle
_LIBRARY_GATES = [
    # 1q parameter-free
    *(Gate(name, 1) for name in
      ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg")),
    # 1q parameterised
    Gate("rx", 1, (_SAMPLE_ANGLE,)),
    Gate("ry", 1, (_SAMPLE_ANGLE,)),
    Gate("rz", 1, (_SAMPLE_ANGLE,)),
    Gate("u1", 1, (_SAMPLE_ANGLE,)),
    Gate("p", 1, (_SAMPLE_ANGLE,)),
    Gate("u2", 1, (_SAMPLE_ANGLE, 0.31)),
    Gate("u3", 1, (_SAMPLE_ANGLE, 0.31, -1.2)),
    # u2/u3 whose parameter bits give them an axis: z, x, x; then one with
    # φ − λ = π that is no X rotation (θ ≠ π and φ + λ ≠ 0).
    Gate("u3", 1, (0.0, 0.31, -1.2)),
    Gate("u3", 1, (math.pi, math.pi / 2, -math.pi / 2)),
    Gate("u2", 1, (math.pi / 2, -math.pi / 2)),
    Gate("u3", 1, (_SAMPLE_ANGLE, math.pi, 0.0)),
    # 2q
    *(Gate(name, 2) for name in ("cx", "cz", "cy", "ch", "swap")),
    Gate("cp", 2, (_SAMPLE_ANGLE,)),
    Gate("crz", 2, (_SAMPLE_ANGLE,)),
    Gate("rzz", 2, (_SAMPLE_ANGLE,)),
    # 3q
    *(Gate(name, 3) for name in ("ccx", "ccz", "cswap")),
]


def _overlapping_placements(arity_a: int, arity_b: int, rng: random.Random):
    """Placements of gate B's qubits against gate A on ``[0, arity_a)``.

    Enumerates every placement for small joint arities and samples for the
    big (3q, 3q) combinations, always keeping at least one shared wire.
    """
    pool = range(arity_a + arity_b)
    placements = [
        perm
        for perm in itertools.permutations(pool, arity_b)
        if set(perm) & set(range(arity_a))
    ]
    if arity_a + arity_b > 5:
        placements = rng.sample(placements, 12)
    return placements


def _explicit_commutator_vanishes(
    gate_a: Gate, qubits_a, gate_b: Gate, qubits_b, num_qubits: int
) -> bool:
    """Reference verdict: embed each gate alone, multiply dense matrices."""
    lone_a = QuantumCircuit(num_qubits)
    lone_a.append(gate_a, qubits_a)
    lone_b = QuantumCircuit(num_qubits)
    lone_b.append(gate_b, qubits_b)
    matrix_a = circuit_unitary(lone_a)
    matrix_b = circuit_unitary(lone_b)
    return bool(np.allclose(matrix_a @ matrix_b, matrix_b @ matrix_a, atol=1e-10))


def table_commutes(gate_a: Gate, qubits_a, gate_b: Gate, qubits_b) -> bool:
    """The pass's verdict on two gates, read from the axis table."""
    first = Instruction(gate_a, tuple(qubits_a))
    second = Instruction(gate_b, tuple(qubits_b))
    return _commute(first, _wire_axes(first), second, _wire_axes(second))


#: Library pairs that commute but that the table does not see, with the
#: number of placements each misses.  Every one relies on the exchange
#: symmetry of swap/cswap, which no per-wire axis can express.
_KNOWN_MISSES = {
    ("ccz", "cswap"): 2,
    ("cp", "cswap"): 6,
    ("cz", "cswap"): 6,
    ("cz", "swap"): 2,
    ("rzz", "cswap"): 6,
    ("swap", "ccx"): 6,
    ("swap", "ccz"): 18,
    ("swap", "cp"): 2,
    ("swap", "cswap"): 6,
    ("swap", "rzz"): 2,
    ("swap", "swap"): 1,
}


class TestCommutationTable:
    def test_never_unsound_and_misses_only_exchange_symmetry(self):
        rng = random.Random(42)
        checked = 0
        unsound = []
        misses: dict = {}
        for gate_a, gate_b in itertools.combinations_with_replacement(
            _LIBRARY_GATES, 2
        ):
            qubits_a = tuple(range(gate_a.num_qubits))
            for qubits_b in _overlapping_placements(
                gate_a.num_qubits, gate_b.num_qubits, rng
            ):
                num_qubits = max((*qubits_a, *qubits_b)) + 1
                expected = _explicit_commutator_vanishes(
                    gate_a, qubits_a, gate_b, qubits_b, num_qubits
                )
                verdict = table_commutes(gate_a, qubits_a, gate_b, qubits_b)
                # Symmetry: the table must agree with itself both ways.
                assert table_commutes(gate_b, qubits_b, gate_a, qubits_a) == verdict
                if verdict and not expected:
                    unsound.append(f"{gate_a} on {qubits_a} vs {gate_b} on {qubits_b}")
                elif expected and not verdict:
                    pair = (gate_a.name, gate_b.name)
                    misses[pair] = misses.get(pair, 0) + 1
                checked += 1
        assert checked > 3000  # the sweep really is library-wide
        assert unsound == []
        assert misses == _KNOWN_MISSES
        basis = {"cx", "u1", "u2", "u3"}
        assert not [pair for pair in misses if set(pair) <= basis]

    def test_known_commutation_facts(self):
        cx = library.cx_gate()
        assert table_commutes(cx, (0, 1), library.z_gate(), (0,))
        assert table_commutes(cx, (0, 1), library.t_gate(), (0,))
        assert table_commutes(cx, (0, 1), library.x_gate(), (1,))
        assert table_commutes(cx, (0, 1), library.rx_gate(0.3), (1,))
        assert not table_commutes(cx, (0, 1), library.x_gate(), (0,))
        assert not table_commutes(cx, (0, 1), library.z_gate(), (1,))
        assert not table_commutes(cx, (0, 1), library.h_gate(), (0,))
        # Shared control commutes; control-on-target does not.
        assert table_commutes(cx, (0, 1), cx, (0, 2))
        assert not table_commutes(cx, (0, 1), cx, (1, 2))
        # A Toffoli commutes with a CNOT sharing only a control wire, but not
        # with one whose target rewrites a Toffoli control.
        assert table_commutes(library.ccx_gate(), (0, 1, 2), cx, (0, 3))
        assert not table_commutes(library.ccx_gate(), (0, 1, 2), cx, (0, 1))
        # Disjoint supports commute trivially; id commutes with everything.
        assert table_commutes(cx, (0, 1), cx, (2, 3))
        assert table_commutes(library.i_gate(), (0,), library.swap_gate(), (0, 1))

    def test_tiny_rotations_do_not_commute(self):
        # Dense products under np.allclose's implicit rtol called the first
        # and last pair commuting; the table decides on axes, whatever the
        # angle.
        assert not table_commutes(
            library.rx_gate(math.pi / 2), (0,), library.rz_gate(5e-6), (0,)
        )
        assert not table_commutes(
            library.cx_gate(), (0, 1), library.u3_gate(1e-6, 0.0, 0.0), (0,)
        )
        assert not table_commutes(
            library.cx_gate(), (0, 1), library.u3_gate(0.0, 0.0, 1e-9), (1,)
        )

    def test_u_gate_axes_come_from_exact_parameter_bits(self):
        cx = library.cx_gate()
        # θ == 0 is diagonal: it commutes with the control.
        assert table_commutes(cx, (0, 1), library.u3_gate(0.0, 0.4, 0.2), (0,))
        assert not table_commutes(cx, (0, 1), library.u3_gate(-1e-300, 0.4, 0.2), (0,))
        # φ − λ ≡ π with θ == π (or φ + λ ≡ 0) is an X rotation: the target.
        assert table_commutes(cx, (0, 1), library.u3_gate(math.pi, 0.0, -math.pi), (1,))
        assert table_commutes(cx, (0, 1), library.u2_gate(math.pi / 2, -math.pi / 2), (1,))
        assert not table_commutes(
            cx, (0, 1), library.u2_gate(math.pi / 2, -math.pi / 2 + 1e-12), (1,)
        )

    def test_non_unitary_operations_never_commute(self):
        measure = library.measure_op()
        assert not table_commutes(measure, (0,), library.z_gate(), (0,))
        assert not table_commutes(library.z_gate(), (0,), measure, (0,))
        assert not table_commutes(
            library.barrier_op(2), (0, 1), library.z_gate(), (0,)
        )

    def test_instructions_with_classical_bits_never_commute(self):
        measure = Instruction(library.measure_op(), (0,), (0,))
        gate = Instruction(library.z_gate(), (0,))
        assert not _commute(measure, _wire_axes(measure), gate, _wire_axes(gate))


class TestCommutationAnalysisPass:
    def test_runs_partition_the_wire_chains(self):
        circuit = QuantumCircuit(2)
        circuit.t(0).cx(0, 1).rz(0.5, 0).h(0).cx(0, 1)
        properties = PropertySet()
        CommutationAnalysisPass().run(circuit, properties)
        sets = properties["commutation_sets"]
        runs0 = sets.runs(0)
        # Wire 0: [t, cx, rz] all commute (diagonals against the control);
        # h commutes with neither side, so it is a singleton run, and the
        # final cx starts another run after it.
        names = [inst.name for inst in circuit.instructions]
        assert [[names[node] for node in run] for run in runs0] == [
            ["t", "cx", "rz"], ["h"], ["cx"]
        ]
        # Signatures: the two cx gates sit in different runs on wire 0.
        first_cx = runs0[0][1]
        second_cx = runs0[2][0]
        assert sets.run_index(first_cx, 0) == 0
        assert sets.run_index(second_cx, 0) == 2
        stats = properties["commutation_stats"]
        assert stats["wires"] == 2
        assert stats["max_run"] >= 3

    def test_non_unitary_instructions_are_singleton_runs(self):
        circuit = QuantumCircuit(1)
        circuit.z(0).measure(0).z(0)
        properties = PropertySet()
        CommutationAnalysisPass().run(circuit, properties)
        assert [len(run) for run in properties["commutation_sets"].runs(0)] == [1, 1, 1]

    def test_run_index_unknown_wire_raises(self):
        circuit = QuantumCircuit(2)
        circuit.z(0)
        properties = PropertySet()
        CommutationAnalysisPass().run(circuit, properties)
        sets = properties["commutation_sets"]
        node = sets.runs(0)[0][0]
        with pytest.raises(TranspilerError):
            sets.run_index(node, 1)

    def test_properties_pickle_and_keep_the_reference_runs(self):
        # The sets hold table indices, so the property set pickles (the
        # drivers' cache and the process pool both pickle it).  The digest
        # pins every wire's runs as positions in the unrolled circuit.
        _, properties = PassManager(
            [DecomposeToBasisPass(), CommutationAnalysisPass()]
        ).run(get_benchmark("cuccaro_adder-20"))
        restored = pickle.loads(pickle.dumps(properties))
        sets = restored["commutation_sets"]
        runs = {str(wire): sets.runs(wire) for wire in sets.wires()}
        digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "31ac9dce8ca7dd805188d1b8ca544707b58d5dff1ded2d186f506e4624076263"
        )
        assert restored["commutation_stats"] == {
            "wires": 20,
            "runs": 317,
            "max_run": 10,
            "mean_run": 1.4258675078864353,
        }
        assert restored["commutation_stats"] == sets.stats()


class TestCommutativeCancellationPass:
    def run_pass(self, circuit: QuantumCircuit) -> QuantumCircuit:
        properties = PropertySet()
        out = CommutativeCancellationPass(verify=True).run(circuit, properties)
        # The node-bearing analysis entry must not leak into the property set
        # (it would break pickling across the level-3 --jobs pool).
        assert "commutation_sets" not in properties
        return out

    def test_cancels_cnot_pair_through_commuting_gates(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).t(0).x(1).rz(0.7, 0).cx(0, 1)
        out = self.run_pass(circuit)
        assert out.count_ops().get("cx", 0) == 0
        assert circuits_equivalent(circuit, out)

    def test_does_not_cancel_through_blocking_gates(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).h(0).cx(0, 1)
        out = self.run_pass(circuit)
        assert out.count_ops()["cx"] == 2

    def test_cancels_inverse_pairs_not_just_self_inverses(self):
        circuit = QuantumCircuit(2)
        circuit.cp(0.4, 0, 1).rz(1.1, 0).z(1).cp(-0.4, 0, 1)
        out = self.run_pass(circuit)
        assert "cp" not in out.count_ops()
        assert circuits_equivalent(circuit, out)

    def test_odd_gate_counts_keep_one(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).t(0).cx(0, 1).x(1).cx(0, 1)
        out = self.run_pass(circuit)
        assert out.count_ops()["cx"] == 1
        assert circuits_equivalent(circuit, out)

    def test_merges_z_family_rotations_through_cx_controls(self):
        circuit = QuantumCircuit(2)
        circuit.t(0).cx(0, 1).s(0).cx(0, 1).tdg(0)
        out = self.run_pass(circuit)
        counts = out.count_ops()
        # The cx pair annihilates and t·s·tdg merges to a single u1(pi/2).
        assert counts == {"u1": 1}
        assert out.instructions[0].gate.params[0] == pytest.approx(math.pi / 2)

    def test_merges_x_family_on_cx_targets(self):
        circuit = QuantumCircuit(2)
        circuit.rx(0.4, 1).cx(0, 1).rx(-0.4, 1)
        out = self.run_pass(circuit)
        assert "rx" not in out.count_ops()
        assert out.count_ops()["cx"] == 1
        assert circuits_equivalent(circuit, out)

    def test_full_turn_rotation_is_dropped(self):
        circuit = QuantumCircuit(2)
        circuit.z(0).cx(0, 1).z(0)
        out = self.run_pass(circuit)
        assert out.count_ops() == {"cx": 1}

    def test_hadamard_pair_through_commuting_neighbour(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).rz(0.3, 1).h(0)
        out = self.run_pass(circuit)
        assert "h" not in out.count_ops()

    def test_tiny_rz_blocks_the_x_rotation_merge(self):
        circuit = QuantumCircuit(1)
        circuit.rx(math.pi / 2, 0).rz(5e-6, 0).rx(-math.pi / 2, 0)
        out = self.run_pass(circuit)
        assert [inst.name for inst in out.instructions] == ["rx", "rz", "rx"]

    @pytest.mark.parametrize("params, qubit", [
        ((0.0, 0.0, 1e-6), 1),  # a tiny phase on the target
        ((1e-6, 0.0, 0.0), 0),  # a tiny Y rotation on the control
    ])
    def test_tiny_u3_blocks_the_cnot_cancellation(self, params, qubit):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).u3(*params, qubit).cx(0, 1)
        out = self.run_pass(circuit)
        assert out.count_ops() == {"cx": 2, "u3": 1}

    def test_gate_count_depth_and_cnots_never_increase(self):
        rng = random.Random(99)
        for _ in range(25):
            num_qubits = rng.randint(2, 5)
            circuit = QuantumCircuit(num_qubits)
            for _ in range(rng.randint(1, 20)):
                choice = rng.random()
                qubits = rng.sample(range(num_qubits), 2)
                if choice < 0.5:
                    getattr(circuit, rng.choice(["t", "s", "z", "x", "h"]))(qubits[0])
                else:
                    circuit.cx(qubits[0], qubits[1])
            out = self.run_pass(circuit)
            assert len(out) <= len(circuit)
            assert out.depth() <= circuit.depth()
            assert (out.two_qubit_gate_count(count_swap_as=3)
                    <= circuit.two_qubit_gate_count(count_swap_as=3))

    def test_verify_mode_catches_a_broken_rewrite(self):
        class BrokenCancellation(CommutativeCancellationPass):
            def _merge_rotations(self, work, flags, dead, sets):
                # Sabotage: drop the first surviving CNOT outright.
                for node, instruction in enumerate(work):
                    if instruction.name == "cx" and not dead[node]:
                        dead[node] = True
                        return

        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).t(0)
        with pytest.raises(TranspilerError, match="non-equivalent"):
            BrokenCancellation(verify=True).run(circuit, PropertySet())
        # The same sabotage without verify goes unnoticed — the debug mode is
        # what turns the harness into a pass-level safety net.
        BrokenCancellation(verify=False).run(circuit, PropertySet())


class TestDiagonalTwoQubitMerges:
    """cp/rzz/crz pairs on the same qubits merge by angle addition."""

    def run_pass(self, circuit: QuantumCircuit) -> QuantumCircuit:
        return CommutativeCancellationPass(verify=True).run(
            circuit, PropertySet()
        )

    def test_cp_pair_merges_through_commuting_gates(self):
        circuit = QuantumCircuit(2)
        circuit.cp(0.3, 0, 1).rz(0.5, 0).z(1).cp(0.5, 0, 1)
        out = self.run_pass(circuit)
        assert out.count_ops()["cp"] == 1
        (merged,) = [i for i in out.instructions if i.name == "cp"]
        assert merged.gate.params[0] == pytest.approx(0.8)
        assert circuits_equivalent(circuit, out)

    def test_rzz_full_turn_is_dropped(self):
        # rzz(2*pi) = -I: identity up to global phase, so the pair vanishes.
        circuit = QuantumCircuit(2)
        circuit.rzz(math.pi, 0, 1).rz(0.4, 0).rzz(math.pi, 0, 1)
        out = self.run_pass(circuit)
        assert "rzz" not in out.count_ops()
        assert circuits_equivalent(circuit, out)

    def test_crz_full_turn_is_kept(self):
        # crz(2*pi) = diag(1, 1, -1, -1) is NOT the identity (the phase is
        # conditional, not global) — the merged gate must survive.
        circuit = QuantumCircuit(2)
        circuit.crz(math.pi, 0, 1).crz(math.pi, 0, 1)
        out = self.run_pass(circuit)
        assert out.count_ops().get("crz", 0) == 1
        assert out.instructions[0].gate.params[0] == pytest.approx(2 * math.pi)
        assert circuits_equivalent(circuit, out)

    def test_crz_is_direction_sensitive(self):
        # crz(a, 0, 1) and crz(b, 1, 0) are different unitaries; the merge
        # groups by the exact qubit tuple, so nothing happens here.
        circuit = QuantumCircuit(2)
        circuit.crz(0.3, 0, 1).crz(0.4, 1, 0)
        out = self.run_pass(circuit)
        assert out.count_ops()["crz"] == 2
        assert circuits_equivalent(circuit, out)

    def test_blocking_gate_prevents_the_merge(self):
        circuit = QuantumCircuit(2)
        circuit.cp(0.3, 0, 1).h(0).cp(0.5, 0, 1)
        out = self.run_pass(circuit)
        assert out.count_ops()["cp"] == 2
        assert circuits_equivalent(circuit, out)

    def test_three_way_merge_accumulates_all_angles(self):
        circuit = QuantumCircuit(3)
        circuit.cp(0.2, 0, 1).rz(1.0, 0).cp(0.3, 0, 1).z(1).cp(0.4, 0, 1)
        out = self.run_pass(circuit)
        assert out.count_ops()["cp"] == 1
        (merged,) = [i for i in out.instructions if i.name == "cp"]
        assert merged.gate.params[0] == pytest.approx(0.9)
        assert circuits_equivalent(circuit, out)


# ----------------------------------------------------------------------
# Tiny angles: the pass alone must be exact to 1e-9, with no rtol anywhere
# in the check, on angles at and near 0, π and 2π.
# ----------------------------------------------------------------------
_TINY_ANGLE_GATES = {
    # name: (arity, parameter count)
    "rz": (1, 1), "rx": (1, 1), "ry": (1, 1), "u1": (1, 1), "u2": (1, 2),
    "u3": (1, 3), "h": (1, 0), "t": (1, 0), "x": (1, 0), "sx": (1, 0),
    "cx": (2, 0), "cp": (2, 1), "crz": (2, 1), "rzz": (2, 1),
}


@st.composite
def tiny_angle_workloads(draw, max_qubits: int = 3, max_gates: int = 12):
    """Random ≤3-qubit circuits whose angles come from the biased strategy."""
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, "tiny-angles")
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        name = draw(st.sampled_from(sorted(_TINY_ANGLE_GATES)))
        arity, num_params = _TINY_ANGLE_GATES[name]
        qubits = draw(st.lists(st.integers(0, num_qubits - 1), min_size=arity,
                               max_size=arity, unique=True))
        params = tuple(draw(ANGLES) for _ in range(num_params))
        circuit.append(Gate(name, arity, params), qubits)
    return circuit


class TestTinyAngles:
    @given(circuit=tiny_angle_workloads())
    @settings(max_examples=200, deadline=None)
    def test_cancellation_alone_is_exact_to_1e_9(self, circuit):
        out = CommutativeCancellationPass().run(circuit, PropertySet())
        distance = phase_aligned_distance(circuit_unitary(circuit), circuit_unitary(out))
        assert distance <= 1e-9, (circuit.count_ops(), out.count_ops())


# ----------------------------------------------------------------------
# Satellite: every optimisation pass (old and new) preserves equivalence on
# random circuits, via the sim.equivalence helpers.
# ----------------------------------------------------------------------
_OPTIMIZATION_PASSES = {
    "decompose_swaps": DecomposeSwapsPass,
    "cancel_adjacent": CancelAdjacentInversesPass,
    "consolidate_1q": Consolidate1qRunsPass,
    "remove_identities": RemoveIdentitiesPass,
    "commutative_cancellation": CommutativeCancellationPass,
    "commutation_loop": lambda: FixedPoint(
        [
            CommutativeCancellationPass(),
            CancelAdjacentInversesPass(),
            Consolidate1qRunsPass(),
            RemoveIdentitiesPass(),
        ]
    ),
}


@st.composite
def optimization_workloads(draw, max_qubits: int = 6, max_gates: int = 18):
    """Random ≤6-qubit circuits biased toward cancellable structure."""
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, "workload")
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        kind = draw(st.sampled_from(
            ["1q", "1q", "rot", "cx", "cx", "cz", "swap", "ccx", "cp"]
        ))
        qubits = draw(
            st.lists(st.integers(0, num_qubits - 1), min_size=min(3, num_qubits),
                     max_size=min(3, num_qubits), unique=True)
        )
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(
                ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
            )))(qubits[0])
        elif kind == "rot":
            angle = draw(st.floats(-math.pi, math.pi, allow_nan=False))
            if draw(st.booleans()):
                circuit.rz(angle, qubits[0])
            else:
                circuit.rx(angle, qubits[0])
        elif kind == "cx":
            circuit.cx(qubits[0], qubits[1])
        elif kind == "cz":
            circuit.cz(qubits[0], qubits[1])
        elif kind == "swap":
            circuit.swap(qubits[0], qubits[1])
        elif kind == "cp":
            circuit.cp(draw(st.floats(-3, 3, allow_nan=False)), qubits[0], qubits[1])
        elif num_qubits >= 3:
            circuit.ccx(qubits[0], qubits[1], qubits[2])
    return circuit


class TestEveryOptimizationPassPreservesEquivalence:
    @pytest.mark.parametrize("pass_name", sorted(_OPTIMIZATION_PASSES))
    @given(circuit=optimization_workloads())
    @settings(max_examples=20, deadline=None)
    def test_pass_preserves_unitary_equivalence(self, pass_name, circuit):
        out = _OPTIMIZATION_PASSES[pass_name]().run(circuit, PropertySet())
        # atol accommodates Consolidate1qRunsPass's ZYZ resynthesis, whose
        # float error is ~1e-6 on adversarial angle combinations; genuine
        # rewrite bugs deviate by O(1).
        assert_unitary_equivalent(
            circuit, out, atol=1e-5, context=f"optimisation pass {pass_name}"
        )
