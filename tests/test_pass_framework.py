"""Tests for the staged pass manager, pass kinds, telemetry and FixedPoint."""

import pytest

from repro.circuits import DagCircuit, Instruction, QuantumCircuit, library
from repro.exceptions import TranspilerError
from repro.passes import (
    AnalysisPass,
    CancelAdjacentInversesPass,
    CleanupLoop,
    Consolidate1qRunsPass,
    DecomposeSwapsPass,
    FixedPoint,
    PassManager,
    PropertySet,
    RemoveIdentitiesPass,
    Stage,
    TransformationPass,
)


class CountingAnalysis(AnalysisPass):
    def analyze(self, dag, properties):
        properties["counted"] = len(dag)


class AppendOneX(TransformationPass):
    """A pathological pass that always modifies (never reaches a fixed point)."""

    def run_dag(self, dag, properties):
        return DagCircuit(
            dag.num_qubits, dag.instructions + [Instruction(library.x_gate(), (0,))]
        )


class RebuildUnchanged(TransformationPass):
    """A pass that rebuilds a fresh (but identical) DAG every sweep."""

    def run_dag(self, dag, properties):
        return DagCircuit.from_circuit(dag.to_circuit())


def cx_pair_circuit():
    circuit = QuantumCircuit(2)
    circuit.x(0).cx(0, 1).cx(0, 1).x(0)
    return circuit


class TestPassKinds:
    def test_analysis_pass_on_circuit_returns_same_object(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        properties = PropertySet()
        out = CountingAnalysis().run(circuit, properties)
        assert out is circuit
        assert properties["counted"] == 2

    def test_transformation_pass_accepts_circuit_and_dag(self):
        circuit = cx_pair_circuit()
        as_circuit = CancelAdjacentInversesPass().run(circuit, PropertySet())
        assert isinstance(as_circuit, QuantumCircuit)
        assert len(as_circuit) == 0
        dag = DagCircuit.from_circuit(cx_pair_circuit())
        as_dag = CancelAdjacentInversesPass().run(dag, PropertySet())
        assert isinstance(as_dag, DagCircuit)
        assert len(as_dag) == 0
        assert len(dag) == 4  # tables are never edited in place

    def test_pass_manager_rejects_non_pass(self):
        with pytest.raises(TranspilerError):
            PassManager([object()])


class TestStagedManager:
    def test_stage_names_reach_telemetry(self):
        manager = PassManager(
            [
                Stage("analysis", [CountingAnalysis()]),
                Stage("optimize", [CancelAdjacentInversesPass()]),
            ]
        )
        out, properties = manager.run(cx_pair_circuit())
        assert len(out) == 0
        assert manager.stages() == ["analysis", "optimize"]
        stages = {span.attrs["stage"] for span in properties["pass_spans"]}
        assert stages == {"analysis", "optimize"}
        for span in properties["pass_spans"]:
            assert span.duration >= 0
            assert span.attrs["size_before"] >= span.attrs["size_after"] >= 0

    def test_history_and_flat_pass_list(self):
        manager = PassManager([CountingAnalysis()])
        manager.append(CancelAdjacentInversesPass(), stage="optimize")
        assert [type(p).__name__ for p in manager.passes] == [
            "CountingAnalysis",
            "CancelAdjacentInversesPass",
        ]
        _, properties = manager.run(cx_pair_circuit())
        assert properties["pass_history"] == [
            "CountingAnalysis",
            "CancelAdjacentInversesPass",
        ]

    def test_dag_in_dag_out(self):
        dag = DagCircuit.from_circuit(cx_pair_circuit())
        out, _ = PassManager([CancelAdjacentInversesPass()]).run(dag)
        assert isinstance(out, DagCircuit) and len(out) == 0
        # A pipeline that rewrites nothing hands back the very same table.
        again, _ = PassManager([CancelAdjacentInversesPass()]).run(out)
        assert again is out


class TestFixedPoint:
    def _loop(self):
        return FixedPoint(
            [
                CancelAdjacentInversesPass(),
                Consolidate1qRunsPass(),
                RemoveIdentitiesPass(),
            ]
        )

    def test_converges_and_records_iterations(self):
        properties = PropertySet()
        out = self._loop().run(cx_pair_circuit(), properties)
        # x·x and cx·cx both cancel: nothing survives.
        assert len(out) == 0
        assert properties["fixed_point_iterations"][0] >= 1

    def test_cascaded_cancellation_needs_no_extra_sweeps(self):
        # h x x h on one wire: consolidation folds it to identity in sweep one;
        # the confirming sweep finds nothing to do.
        circuit = QuantumCircuit(1)
        circuit.h(0).x(0).x(0).h(0)
        properties = PropertySet()
        out = self._loop().run(circuit, properties)
        assert len(out) == 0
        assert properties["fixed_point_iterations"] == [2]

    def test_rerun_on_same_dag_is_a_noop(self):
        dag = DagCircuit.from_circuit(cx_pair_circuit())
        properties = PropertySet()
        loop = self._loop()
        out = loop.run_dag(dag, properties)
        assert loop.run_dag(out, properties) is out  # idempotent at the fixed point
        assert properties["fixed_point_iterations"][-1] == 1

    def test_divergent_loop_raises(self):
        loop = FixedPoint([AppendOneX()], max_iterations=5)
        with pytest.raises(TranspilerError):
            loop.run(QuantumCircuit(1), PropertySet())

    def test_pass_rebuilding_an_unchanged_dag_converges(self):
        # Passes may return a fresh DAG instead of mutating in place; an
        # unchanged rebuild must still count as a fixed point.
        properties = PropertySet()
        loop = FixedPoint([RebuildUnchanged()], max_iterations=5)
        out = loop.run(cx_pair_circuit(), properties)
        assert properties["fixed_point_iterations"] == [1]
        assert len(out) == 4

    def test_inner_passes_record_telemetry_per_sweep(self):
        properties = PropertySet()
        manager = PassManager([Stage("optimize", [self._loop()])])
        manager.run(cx_pair_circuit(), properties)
        names = [span.name for span in properties["pass_spans"]]
        # Each sweep contributes one record per inner pass; no aggregate
        # FixedPoint record duplicates them.
        assert "CancelAdjacentInversesPass" in names
        assert all("FixedPoint" not in name for name in names)
        sweeps = properties["fixed_point_iterations"][0]
        assert names.count("CancelAdjacentInversesPass") == sweeps

    def test_swap_decomposition_then_cancellation_composes(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1).swap(0, 1)
        manager = PassManager(
            [Stage("optimize", [DecomposeSwapsPass(), self._loop()])]
        )
        out, _ = manager.run(circuit)
        assert len(out) == 0


class TestCleanupLoop:
    def test_cascaded_cancellation_finishes_in_one_sweep(self):
        # h x x h: the cancellation sweep retracts x·x and then h·h itself,
        # and drops no identity run, so no confirming sweep is needed.
        circuit = QuantumCircuit(1)
        circuit.h(0).x(0).x(0).h(0)
        properties = PropertySet()
        out = CleanupLoop().run(circuit, properties)
        assert len(out) == 0
        assert properties["fixed_point_iterations"] == [1]

    def test_dropped_identity_run_triggers_another_sweep(self):
        # The u1 run multiplies to the identity but holds no inverse pair:
        # consolidation drops it, which makes the two CNOTs adjacent.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).u1(0.3, 0).u1(0.4, 0).u1(-0.7, 0).cx(0, 1)
        properties = PropertySet()
        out = CleanupLoop().run(circuit, properties)
        assert len(out) == 0
        assert properties["fixed_point_iterations"] == [2]

    def test_removed_identity_triggers_another_sweep(self):
        # A canonical identity u3 survives consolidation untouched; removing
        # it makes the two CNOTs adjacent.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).u3(0.0, 0.0, 0.0, 0).cx(0, 1)
        dag = DagCircuit(
            2, circuit.instructions, canonical_1q=[False, True, False]
        )
        properties = PropertySet()
        out = CleanupLoop().run(dag, properties)
        assert len(out) == 0
        assert properties["fixed_point_iterations"] == [2]

    def test_canonical_flags_survive_the_loop(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).t(0).cx(0, 1)
        out = CleanupLoop().run(DagCircuit.from_circuit(circuit), PropertySet())
        assert [inst.name for inst in out] == ["u3", "cx"]
        assert out.canonical_1q == [True, False]
