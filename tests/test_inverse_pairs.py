"""Allocation-free cancellation and merged-instruction reuse, against their definitions.

``is_inverse_pair`` tests the cheapest thing first and builds no inverse for
a self-inverse gate, but it must answer exactly its definition
``first.gate.is_unitary and second.gate.is_unitary and first.qubits ==
second.qubits and first.gate == second.gate.inverse()``: on every pair of
library gates in both qubit orders, and on ``u2``/``u3``/``rz`` with signed
zeros and random angles.  ``CancelAdjacentInversesPass`` and
``Consolidate1qRunsPass`` must give exactly what the straightforward sweeps
below give (instructions to the parameter bit, flags, dropped identity runs).
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import DagCircuit, QuantumCircuit
from repro.circuits.circuit import Instruction
from repro.circuits.gate import Gate
from repro.circuits.library import GATE_ARITY, GATE_NUM_PARAMS
from repro.passes import CancelAdjacentInversesPass, Consolidate1qRunsPass, PropertySet
from repro.passes.optimization import is_inverse_pair

from test_cleanup_convergence import cleanup_tables
from test_run_synthesis import ANGLES, historical


def defined_inverse_pair(first: Instruction, second: Instruction) -> bool:
    return (
        first.gate.is_unitary
        and second.gate.is_unitary
        and first.qubits == second.qubits
        and first.gate == second.gate.inverse()
    )


def _library_gates() -> List[Gate]:
    """Every library gate and op, over a few parameter sets, plus their inverses."""
    rng = random.Random(24)
    gates = [Gate("barrier", width) for width in (1, 2, 3)]
    for name, arity in sorted(GATE_ARITY.items()):
        count = GATE_NUM_PARAMS[name]
        angles = tuple(rng.uniform(-4.0, 4.0) for _ in range(count))
        for params in {
            (0.0,) * count,
            (-0.0,) * count,
            angles,
            tuple(-angle for angle in angles),
        }:
            gates.append(Gate(name, arity, params))
    gates += [gate.inverse() for gate in gates if gate.is_unitary]
    return gates


def _orders(arity: int):
    forward = tuple(range(arity))
    return {forward, forward[::-1]}


def test_every_library_pair_matches_the_definition():
    gates = _library_gates()
    agreed = positives = 0
    for first, second in itertools.product(gates, repeat=2):
        for a, b in itertools.product(_orders(first.num_qubits), _orders(second.num_qubits)):
            left, right = Instruction(first, a), Instruction(second, b)
            expected = defined_inverse_pair(left, right)
            assert is_inverse_pair(left, right) is expected, (left, right)
            agreed += 1
            positives += expected
    assert positives > 100 and agreed > positives


_ROTATIONS = {"u2": 2, "u3": 3, "rz": 1}


@st.composite
def rotation_pairs(draw):
    """Two of ``u2``/``u3``/``rz``, often the second an exact or sign-flipped inverse."""
    name = draw(st.sampled_from(sorted(_ROTATIONS)))
    second = Gate(name, 1, tuple(draw(ANGLES) for _ in range(_ROTATIONS[name])))
    how = draw(st.sampled_from(["inverse", "flipped_zeros", "random"]))
    if how == "random":
        other = draw(st.sampled_from(sorted(_ROTATIONS)))
        first = Gate(other, 1, tuple(draw(ANGLES) for _ in range(_ROTATIONS[other])))
    else:
        first = second.inverse()
        if how == "flipped_zeros":
            first = Gate(
                first.name,
                1,
                tuple(-p if p == 0.0 else p for p in first.params),
            )
    qubits = draw(st.sampled_from([((0,), (0,)), ((0,), (1,))]))
    return Instruction(first, qubits[0]), Instruction(second, qubits[1])


@settings(max_examples=400, deadline=None)
@given(rotation_pairs())
def test_rotation_pairs_match_the_definition(pair):
    first, second = pair
    assert is_inverse_pair(first, second) is defined_inverse_pair(first, second)
    assert is_inverse_pair(second, first) is defined_inverse_pair(second, first)


# ----------------------------------------------------------------------
# The straightforward sweeps the passes must reproduce
# ----------------------------------------------------------------------
def reference_cancel(dag: DagCircuit) -> DagCircuit:
    out: list = []
    flags: List[bool] = []
    live: List[List[int]] = [[-1] for _ in range(dag.num_qubits)]
    cancelled = False
    for instruction, canonical in zip(dag.instructions, dag.canonical_1q):
        qubits = instruction.qubits
        if qubits:
            partner = live[qubits[0]][-1]
            if (
                partner >= 0
                and all(live[q][-1] == partner for q in qubits[1:])
                and defined_inverse_pair(out[partner], instruction)
            ):
                out[partner] = None
                for qubit in qubits:
                    live[qubit].pop()
                cancelled = True
                continue
            index = len(out)
            for qubit in qubits:
                live[qubit].append(index)
        out.append(instruction)
        flags.append(canonical)
    if not cancelled:
        return dag
    keep = [i for i, instruction in enumerate(out) if instruction is not None]
    return dag.derive([out[i] for i in keep], [flags[i] for i in keep])


def reference_consolidate(dag: DagCircuit):
    """``(table, identity runs dropped)`` of one consolidation sweep."""
    out: list = []
    flags: List[bool] = []
    pending: Dict[int, List[int]] = {}
    changed = False
    dropped = 0

    def flush(qubit: int, slots: List[int]) -> None:
        nonlocal changed, dropped
        if len(slots) == 1 and flags[slots[0]]:
            return
        merged = historical([out[slot].gate for slot in slots])
        for slot in slots:
            out[slot] = None
        changed = True
        if merged is None:
            dropped += 1
            return
        out.append(Instruction(merged, (qubit,)))
        flags.append(True)

    for instruction, canonical in zip(dag.instructions, dag.canonical_1q):
        qubits = instruction.qubits
        if len(qubits) == 1 and instruction.gate.is_unitary:
            pending.setdefault(qubits[0], []).append(len(out))
        elif pending:
            for qubit in qubits:
                if qubit in pending:
                    flush(qubit, pending.pop(qubit))
        out.append(instruction)
        flags.append(canonical)
    for qubit in sorted(pending):
        flush(qubit, pending[qubit])
    if not changed:
        return dag, dropped
    keep = [i for i, instruction in enumerate(out) if instruction is not None]
    return dag.derive([out[i] for i in keep], [flags[i] for i in keep]), dropped


def _gates(dag: DagCircuit):
    return [
        (
            inst.name,
            struct.pack(f"<{len(inst.gate.params)}d", *inst.gate.params),
            inst.qubits,
            inst.clbits,
        )
        for inst in dag.instructions
    ]


_MIXED_ONE_QUBIT = ("h", "x", "t", "tdg", "s", "u2", "u3", "rz", "measure", "reset")
_MIXED_TWO_QUBIT = ("cx", "cz", "swap", "cp", "rzz")


@st.composite
def mixed_tables(draw):
    """Library gates on 1-4 wires, often followed by their inverse (u2 → u3 too)."""
    num_qubits = draw(st.integers(min_value=1, max_value=4))
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    instructions: List[Instruction] = []
    flags: List[bool] = []
    names = _MIXED_ONE_QUBIT + (_MIXED_TWO_QUBIT if num_qubits >= 2 else ())
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        name = draw(st.sampled_from(names))
        arity = GATE_ARITY[name]
        gate = Gate(name, arity, tuple(draw(ANGLES) for _ in range(GATE_NUM_PARAMS[name])))
        qubits = tuple(draw(st.lists(qubit, min_size=arity, max_size=arity, unique=True)))
        clbits = (draw(st.integers(min_value=0, max_value=2)),) if name == "measure" else ()
        instructions.append(Instruction(gate, qubits, clbits))
        flags.append(name == "u3" and draw(st.booleans()))
        if gate.is_unitary and draw(st.booleans()):
            instructions.append(Instruction(gate.inverse(), qubits))
            flags.append(False)
    return DagCircuit(num_qubits, instructions, canonical_1q=flags)


TABLES = st.one_of(cleanup_tables(), mixed_tables())


@settings(max_examples=300, deadline=None)
@given(TABLES)
def test_cancellation_equals_the_reference_sweep(dag):
    out = CancelAdjacentInversesPass().run_dag(dag, PropertySet())
    expected = reference_cancel(dag)
    assert (out is dag) == (expected is dag)
    assert _gates(out) == _gates(expected)
    assert out.canonical_1q == expected.canonical_1q


@settings(max_examples=300, deadline=None)
@given(TABLES)
def test_consolidation_equals_the_reference_sweep(dag):
    consolidate = Consolidate1qRunsPass()
    out = consolidate.run_dag(dag, PropertySet())
    expected, dropped = reference_consolidate(dag)
    assert (out is dag) == (expected is dag)
    assert _gates(out) == _gates(expected)
    assert out.canonical_1q == expected.canonical_1q
    assert consolidate.identity_runs_dropped == dropped


def test_a_repeated_run_reuses_its_merged_instruction():
    circuit = QuantumCircuit(2)
    circuit.h(0).t(0).cx(0, 1).h(0).t(0).cx(0, 1)
    dag = DagCircuit(2, circuit.instructions)
    out = Consolidate1qRunsPass().run_dag(dag, PropertySet())
    first, second = (inst for inst in out.instructions if inst.name == "u3")
    assert first is second
    assert math.isclose(first.gate.params[0], math.pi / 2)
