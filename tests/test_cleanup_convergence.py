"""The clean-up loop's convergence rule gives exactly the fixpoint.

``CleanupLoop`` (the level 1-2 ``_cleanup_loop``) stops after the first
sweep that dropped no identity run in consolidation and removed no gate in
``RemoveIdentitiesPass``.  The reference below ignores that rule: it repeats
the three single-sweep passes until a sweep changes nothing at all.  Both
must agree gate for gate (name, exact parameter bits, qubits, clbits) on
random tables built to exercise every rewrite: inverse pairs, identity
runs that hold no inverse pair, CNOTs and CZs that become adjacent when
those runs vanish, measurements and barriers that end runs, and ``u3``
entries already flagged canonical (identities among them), which only
``RemoveIdentitiesPass`` can drop.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import DagCircuit, QuantumCircuit
from repro.compiler.pipeline import _cleanup_loop
from repro.passes import (
    CancelAdjacentInversesPass,
    Consolidate1qRunsPass,
    PropertySet,
    RemoveIdentitiesPass,
)

_ANGLES = st.sampled_from([0.0, -0.0, 0.1, -0.3, math.pi / 4, math.pi, 2 * math.pi, 1e-9])


@st.composite
def cleanup_tables(draw):
    num_qubits = draw(st.integers(min_value=1, max_value=5))
    circuit = QuantumCircuit(num_qubits)
    canonical = set()
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    kinds = ["1q", "pair", "identity_run", "canonical_u3", "measure", "barrier"]
    if num_qubits >= 2:
        kinds += ["2q", "2q", "sandwich"]
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "1q":
            name = draw(st.sampled_from(["h", "x", "t", "s", "sdg", "rx", "u1"]))
            if name in ("rx", "u1"):
                getattr(circuit, name)(draw(_ANGLES), draw(qubit))
            else:
                getattr(circuit, name)(draw(qubit))
        elif kind == "pair":
            target = draw(qubit)
            pair = draw(st.sampled_from(["hh", "xx", "ttdg", "u1", "rz"]))
            if pair == "hh":
                circuit.h(target).h(target)
            elif pair == "xx":
                circuit.x(target).x(target)
            elif pair == "ttdg":
                circuit.t(target).tdg(target)
            else:
                theta = draw(_ANGLES)
                getattr(circuit, pair)(theta, target)
                getattr(circuit, pair)(-theta, target)
        elif kind == "identity_run":
            # No two neighbours are inverses, yet the product is the identity.
            a, b = draw(_ANGLES), draw(_ANGLES)
            target = draw(qubit)
            circuit.u1(a, target).u1(b, target).u1(-(a + b), target)
        elif kind == "canonical_u3":
            canonical.add(len(circuit))
            circuit.u3(draw(_ANGLES), draw(_ANGLES), draw(_ANGLES), draw(qubit))
        elif kind == "2q":
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            getattr(circuit, draw(st.sampled_from(["cx", "cz"])))(a, b)
        elif kind == "sandwich":
            # A two-qubit gate, something that may vanish, the same gate again.
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gate = draw(st.sampled_from(["cx", "cz"]))
            getattr(circuit, gate)(a, b)
            target = draw(st.sampled_from([a, b]))
            middle = draw(st.sampled_from(["identity_run", "identity_u3", "h"]))
            if middle == "identity_run":
                circuit.u1(0.1, target).u1(-0.3, target).u1(0.2, target)
            elif middle == "identity_u3":
                canonical.add(len(circuit))
                circuit.u3(0.0, math.pi, math.pi, target)
            else:
                circuit.h(target)
            getattr(circuit, gate)(a, b)
        elif kind == "measure":
            circuit.measure(draw(qubit), draw(st.integers(min_value=0, max_value=3)))
        else:
            circuit.barrier(*sorted(set(draw(st.lists(qubit, min_size=1, max_size=3)))))
    flags = [index in canonical for index in range(len(circuit))]
    return DagCircuit(num_qubits, circuit.instructions, canonical_1q=flags)


def _gates(dag: DagCircuit):
    """Gate-for-gate identity: name, exact parameter bits, qubits, clbits."""
    return [
        (
            inst.name,
            struct.pack(f"<{len(inst.gate.params)}d", *inst.gate.params),
            inst.qubits,
            inst.clbits,
        )
        for inst in dag.instructions
    ]


def reference_fixpoint(dag: DagCircuit) -> DagCircuit:
    """Repeat the three single-sweep passes until a sweep changes nothing."""
    while True:
        before = (_gates(dag), list(dag.canonical_1q))
        for single_pass in (
            CancelAdjacentInversesPass(),
            Consolidate1qRunsPass(),
            RemoveIdentitiesPass(),
        ):
            dag = single_pass.execute(dag, PropertySet())
        if (_gates(dag), list(dag.canonical_1q)) == before:
            return dag


@settings(max_examples=300, deadline=None)
@given(cleanup_tables())
def test_convergence_rule_equals_the_fixpoint(dag):
    properties = PropertySet()
    out = _cleanup_loop().execute(dag, properties)
    expected = reference_fixpoint(dag)
    assert _gates(out) == _gates(expected)
    assert out.canonical_1q == expected.canonical_1q
    assert properties["fixed_point_iterations"][0] >= 1


@settings(max_examples=300, deadline=None)
@given(cleanup_tables())
def test_one_cancellation_sweep_is_its_own_fixed_point(dag):
    once = CancelAdjacentInversesPass().execute(dag, PropertySet())
    assert CancelAdjacentInversesPass().execute(once, PropertySet()) is once
