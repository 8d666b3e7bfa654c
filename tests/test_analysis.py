"""The static verification layer: lint rules, sabotage mutations, contracts.

Three families of tests:

* **Sabotage**: take a *correct* compiled circuit, corrupt its table in a
  specific way (illegal edge, reversed direction, backwards wire link,
  dropped measurement, ...) and assert the linter reports exactly the documented
  ``QLxxx`` code for that corruption.
* **Contracts**: the pass-contract validator must attribute the first broken
  pipeline invariant to the offending pass, for all violation kinds
  (``requires``, per-pass checks, full-mode structure/invariant re-checks).
* **Clean outputs**: whatever ``transpile()`` produces — at every
  optimization level, for both pipelines, on randomized programs — must lint
  without error-severity findings.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QuantumCircuit, Target, transpile
from repro.analysis import (
    ALL_RULES,
    PROPERTY_CHECKERS,
    RULES_BY_CODE,
    CircuitLinter,
    ContractValidator,
    Severity,
    lint_circuit,
    resolve_validation_mode,
    structural_linter,
)
from repro.analysis.linter import STRUCTURAL_CODES
from repro.bench_circuits.suite import get_benchmark
from repro.circuits.circuit import Instruction
from repro.circuits.dag import DagCircuit
from repro.circuits.gate import Gate
from repro.circuits.qasm import to_qasm
from repro.exceptions import AnalysisError, ContractViolationError
from repro.hardware import fully_connected, johannesburg, line
from repro.passes import (
    CancelAdjacentInversesPass,
    DecomposeSwapsPass,
    FixedPoint,
    GreedySwapRouter,
    MappingAwareToffoliDecomposePass,
    PassManager,
    PropertySet,
    RemoveIdentitiesPass,
    ToffoliDecomposePass,
    TransformationPass,
)


def compiled_dag(method: str = "trios", seed: int = 11) -> DagCircuit:
    """A freshly routed, legal table to corrupt (one per test: corruptions stick)."""
    result = transpile(
        get_benchmark("cnx_inplace-4"), johannesburg(), method=method, seed=seed
    )
    return DagCircuit.from_circuit(result.circuit)


def corrupt_qubits(dag: DagCircuit, arity: int, qubits) -> None:
    """Swap the first ``arity``-qubit entry for a copy on ``qubits``.

    Instructions are shared between tables (and memoised by the passes), so
    the corruption goes into a private copy, never into the shared object.
    """
    for node, instruction in enumerate(dag.instructions):
        if len(instruction.qubits) == arity:
            bad = copy.copy(instruction)
            object.__setattr__(bad, "qubits", qubits(instruction))
            dag.instructions[node] = bad
            return
    raise AssertionError(f"no {arity}-qubit entry to corrupt")


def node_with_wire_successor(dag: DagCircuit):
    """Some (node, wire, successor) triple with a wire link."""
    for node, following in enumerate(dag._wire_links().next):
        for wire, nxt in following.items():
            if nxt is not None:
                return node, wire, nxt
    raise AssertionError("compiled table has no wire links at all")


def non_adjacent_pair(coupling_map):
    for a in range(coupling_map.num_qubits):
        for b in range(a + 1, coupling_map.num_qubits):
            if not coupling_map.are_adjacent(a, b):
                return a, b
    raise AssertionError(f"{coupling_map.name} is fully connected")


# ----------------------------------------------------------------------
# Sabotage: structural IR corruption -> exact QL00x code
# ----------------------------------------------------------------------
class TestStructuralSabotage:
    def test_clean_compiled_dag_lints_clean(self):
        report = structural_linter().lint(compiled_dag())
        assert not report.diagnostics

    def test_duplicate_qubit_args_is_ql003(self):
        dag = compiled_dag()
        corrupt_qubits(dag, 2, lambda inst: (inst.qubits[0], inst.qubits[0]))
        report = structural_linter().lint(dag)
        assert "QL003" in report.codes()
        assert report.has_errors

    def test_out_of_register_qubit_is_ql004(self):
        dag = compiled_dag()
        corrupt_qubits(dag, 1, lambda inst: (dag.num_qubits + 3,))
        report = structural_linter().lint(dag)
        assert "QL004" in report.codes()

    def test_backwards_wire_link_is_ql005(self):
        dag = compiled_dag()
        node, wire, nxt = node_with_wire_successor(dag)
        # A corrupted link table: the wire now orders the successor before
        # its predecessor while the linear order disagrees.
        dag._wire_links().next[nxt][wire] = node
        report = structural_linter().lint(dag)
        assert "QL005" in report.codes()

    def test_every_structural_code_has_a_registered_rule(self):
        for code in STRUCTURAL_CODES:
            assert code in RULES_BY_CODE
            assert RULES_BY_CODE[code].severity is Severity.ERROR


# ----------------------------------------------------------------------
# Sabotage: hardware legality -> exact QL1xx code
# ----------------------------------------------------------------------
class TestHardwareLegalitySabotage:
    def test_illegal_edge_is_ql101(self):
        device = johannesburg()
        dag = compiled_dag()
        a, b = non_adjacent_pair(device)
        dag = DagCircuit(
            dag.num_qubits, dag.instructions + [Instruction(Gate("cx", 2), (a, b))]
        )
        report = CircuitLinter(target=device).lint(dag)
        assert report.by_code("QL101"), report.to_table()
        finding = report.by_code("QL101")[0]
        assert finding.severity is Severity.ERROR
        assert finding.qubits == (a, b)

    def test_reversed_direction_is_ql102(self):
        target = Target(line(3), directed_edges=frozenset({(0, 1), (1, 2)}))
        circuit = QuantumCircuit(3)
        circuit.cx(1, 0)  # against the declared native direction
        report = CircuitLinter(target=target).lint(circuit)
        assert report.by_code("QL102")
        # The right way round is silent.
        ok = QuantumCircuit(3)
        ok.cx(0, 1)
        assert not CircuitLinter(target=target).lint(ok).by_code("QL102")

    def test_symmetric_gates_are_exempt_from_ql102(self):
        target = Target(line(3), directed_edges=frozenset({(0, 1), (1, 2)}))
        circuit = QuantumCircuit(3)
        circuit.swap(1, 0).cz(1, 0)
        assert not CircuitLinter(target=target).lint(circuit).by_code("QL102")

    def test_undirected_target_never_fires_ql102(self):
        circuit = QuantumCircuit(3)
        circuit.cx(1, 0)
        report = CircuitLinter(target=Target(line(3))).lint(circuit)
        assert not report.by_code("QL102")

    def test_non_basis_gates_are_ql103_error_2q_warning_1q(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)  # 1q stray: synthesisable, warning
        circuit.append(Gate("crz", 2, (0.5,)), (0, 1))  # 2q stray: error
        report = CircuitLinter(target=Target(line(3))).lint(circuit)
        findings = report.by_code("QL103")
        assert {f.severity for f in findings} == {
            Severity.WARNING,
            Severity.ERROR,
        }
        assert {f.gate for f in findings} == {"h", "crz"}

    def test_qubit_beyond_device_is_ql104(self):
        device = johannesburg()  # 20 qubits
        circuit = QuantumCircuit(25)
        circuit.x(24)
        report = CircuitLinter(target=device).lint(circuit)
        assert report.by_code("QL104")
        assert report.by_code("QL104")[0].qubits == (24,)

    def test_invalid_layouts_are_ql105(self):
        device = line(4)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        linter = CircuitLinter(target=device)
        off_device = linter.lint(circuit, initial_layout={0: 0, 1: 9})
        assert off_device.by_code("QL105")
        collision = linter.lint(circuit, final_layout={0: 1, 1: 1})
        assert collision.by_code("QL105")
        mismatch = linter.lint(
            circuit, initial_layout={0: 0, 1: 1}, final_layout={0: 0, 2: 1}
        )
        assert mismatch.by_code("QL105")
        clean = linter.lint(
            circuit, initial_layout={0: 0, 1: 1}, final_layout={0: 1, 1: 0}
        )
        assert not clean.by_code("QL105")

    def test_wide_unitary_is_ql106(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        report = CircuitLinter(target=line(3)).lint(circuit)
        assert report.by_code("QL106")
        assert report.has_errors

    def test_hardware_rules_are_skipped_without_a_target(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)  # QL106 if a target were given
        report = CircuitLinter().lint(circuit)
        assert not any(code.startswith("QL1") for code in report.codes())


# ----------------------------------------------------------------------
# Resource / usage rules (QL2xx)
# ----------------------------------------------------------------------
class TestResourceRules:
    def test_idle_qubits_are_one_aggregated_ql201_info(self):
        circuit = QuantumCircuit(4)
        circuit.x(0)
        findings = CircuitLinter().lint(circuit).by_code("QL201")
        assert len(findings) == 1
        assert findings[0].severity is Severity.INFO
        assert findings[0].qubits == (1, 2, 3)

    def test_unmeasured_circuit_is_a_single_ql202(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        findings = CircuitLinter().lint(circuit).by_code("QL202")
        assert len(findings) == 1
        assert "no measurements" in findings[0].message

    def test_dropped_measurement_is_ql202_naming_the_qubit(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).measure_all()
        dag = DagCircuit(
            circuit.num_qubits,
            [
                inst for inst in circuit.instructions
                if not (inst.name == "measure" and inst.qubits == (1,))
            ],
        )
        findings = CircuitLinter().lint(dag).by_code("QL202")
        assert len(findings) == 1
        assert findings[0].qubits == (1,)

    def test_clobbered_clbit_is_ql203(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).measure(0, 0).measure(1, 0)
        findings = CircuitLinter().lint(circuit).by_code("QL203")
        assert len(findings) == 1
        assert "overwrites" in findings[0].message

    def test_gate_after_measure_is_one_ql204_per_measurement(self):
        circuit = QuantumCircuit(1)
        circuit.measure(0, 0).x(0).x(0)
        findings = CircuitLinter().lint(circuit).by_code("QL204")
        assert len(findings) == 1  # one finding per measurement, not per gate

    def test_perturbed_ancilla_tail_is_ql205(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).x(2)  # wire 2 carries no program qubit at the end
        report = CircuitLinter().lint(circuit, final_layout={0: 0, 1: 1})
        findings = report.by_code("QL205")
        assert len(findings) == 1
        assert findings[0].qubits == (2,)
        # Without a final layout the rule cannot tell ancillas apart.
        assert not CircuitLinter().lint(circuit).by_code("QL205")


# ----------------------------------------------------------------------
# Linter API: suppression, report formats, subject handling
# ----------------------------------------------------------------------
class TestLinterApi:
    def _idle(self) -> QuantumCircuit:
        circuit = QuantumCircuit(3)
        circuit.x(0)
        return circuit

    def test_suppression_removes_findings_and_is_recorded(self):
        report = CircuitLinter(suppress=("QL201", "QL202")).lint(self._idle())
        assert "QL201" not in report.codes()
        assert "QL202" not in report.codes()
        assert report.suppressed == ("QL201", "QL202")

    def test_unknown_suppression_code_is_rejected(self):
        with pytest.raises(AnalysisError, match="QL999"):
            CircuitLinter(suppress=("QL999",))

    def test_unsupported_subject_is_rejected(self):
        with pytest.raises(AnalysisError, match="expects"):
            CircuitLinter().lint(42)

    def test_unsupported_layout_object_is_rejected(self):
        with pytest.raises(AnalysisError, match="layout"):
            CircuitLinter().lint(self._idle(), final_layout=object())

    def test_structural_linter_runs_only_the_ql00x_rules(self):
        linter = structural_linter()
        assert tuple(rule.code for rule in linter.rules) == STRUCTURAL_CODES

    def test_compilation_result_carries_its_own_context(self):
        result = transpile(
            get_benchmark("cnx_inplace-4"), johannesburg(), method="trios",
            seed=11,
        )
        report = result.lint()
        assert not report.has_errors, report.to_table()
        assert "trios" in report.subject
        # Per-rule suppression passes straight through.
        suppressed = result.lint(suppress=("QL201", "QL202"))
        assert not suppressed.codes()

    def test_bare_coupling_map_is_accepted_as_target(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        assert lint_circuit(circuit, target=line(3)).by_code("QL106")

    def test_report_rendering(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        report = CircuitLinter(target=line(3)).lint(circuit, name="demo")
        assert report.has_errors and len(report) > 0
        # Errors sort ahead of warnings and info.
        severities = [d.severity.rank for d in report.sorted()]
        assert severities == sorted(severities, reverse=True)
        table = report.to_table()
        assert "QL106" in table and "severity" in table
        payload = report.to_json()
        assert payload["subject"] == "demo"
        assert any(d["code"] == "QL106" for d in payload["diagnostics"])
        assert "error" in report.summary()
        anchored = report.by_code("QL106")[0]
        assert "QL106" in str(anchored) and "node" in str(anchored)

    def test_rule_registry_is_consistent(self):
        assert len({rule.code for rule in ALL_RULES}) == len(ALL_RULES)
        for code, rule in RULES_BY_CODE.items():
            assert rule.code == code
            assert rule.description


# ----------------------------------------------------------------------
# Pass contracts: violations are attributed to the offending pass
# ----------------------------------------------------------------------
class _NoOpPass(TransformationPass):
    invalidates = ()

    def run_dag(self, dag, properties):
        return dag


class _EstablishThing(_NoOpPass):
    establishes = ("thing",)


class _InvalidateThing(_NoOpPass):
    invalidates = ("thing",)


class _RequireThing(_NoOpPass):
    requires = ("thing",)


class _GrowingPass(TransformationPass):
    """Claims gate_count_nonincreasing but appends a gate anyway."""

    checks = ("gate_count_nonincreasing",)

    def run_dag(self, dag, properties):
        return DagCircuit(
            dag.num_qubits, dag.instructions + [Instruction(Gate("x", 1), (0,))]
        )


class _AppendIllegalCx(TransformationPass):
    """Silently un-routes the circuit after the router established 'routed'."""

    def run_dag(self, dag, properties):
        return DagCircuit(
            dag.num_qubits, dag.instructions + [Instruction(Gate("cx", 2), (0, 4))]
        )


class _CorruptRegister(TransformationPass):
    """Moves an entry outside the register without going through validation."""

    def run_dag(self, dag, properties):
        out = DagCircuit(dag.num_qubits, dag.instructions)
        corrupt_qubits(out, 1, lambda inst: (dag.num_qubits,))
        return out


class TestPassContracts:
    def _toffoli_program(self) -> QuantumCircuit:
        circuit = QuantumCircuit(3)
        circuit.h(0).ccx(0, 1, 2)
        return circuit

    def test_requires_violation_names_both_passes(self):
        device = fully_connected(6)
        manager = PassManager(
            [ToffoliDecomposePass(), MappingAwareToffoliDecomposePass(device)],
            validate="contracts",
        )
        properties = PropertySet()
        with pytest.raises(ContractViolationError, match="routed_toffoli"):
            manager.run(self._toffoli_program(), properties)
        record = properties["contract_violation"]
        assert record["pass"] == "MappingAwareToffoliDecomposePass"
        assert record["kind"] == "requires"
        assert "ToffoliDecomposePass" in record["detail"]

    def test_unknown_property_does_not_violate_requires(self):
        # Partial pipelines start with every property unknown, not absent.
        device = fully_connected(6)
        manager = PassManager(
            [MappingAwareToffoliDecomposePass(device)], validate="contracts"
        )
        out, _ = manager.run(self._toffoli_program())
        assert out.count_ops().get("ccx", 0) == 0

    def test_reestablished_property_satisfies_requires(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        for passes, ok in (
            ([_InvalidateThing(), _RequireThing()], False),
            ([_InvalidateThing(), _EstablishThing(), _RequireThing()], True),
            ([_RequireThing()], True),
        ):
            manager = PassManager(passes, validate="contracts")
            if ok:
                manager.run(circuit)
            else:
                with pytest.raises(ContractViolationError):
                    manager.run(circuit)

    def test_failed_check_is_attributed(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        properties = PropertySet()
        manager = PassManager([_GrowingPass()], validate="contracts")
        with pytest.raises(ContractViolationError, match="grew the circuit"):
            manager.run(circuit, properties)
        record = properties["contract_violation"]
        assert record["pass"] == "_GrowingPass"
        assert record["kind"] == "check"

    def test_full_mode_recheck_catches_unrouting(self):
        device = line(5)
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        properties = PropertySet()
        properties["coupling_map"] = device
        manager = PassManager(
            [GreedySwapRouter(device), _AppendIllegalCx()], validate="full"
        )
        with pytest.raises(ContractViolationError, match="routed"):
            manager.run(circuit, properties)
        record = properties["contract_violation"]
        assert record["pass"] == "_AppendIllegalCx"
        assert record["kind"] == "invariant"
        assert record["invariant"] == "routed"

    def test_full_mode_lints_structure_after_every_pass(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        properties = PropertySet()
        manager = PassManager([_CorruptRegister()], validate="full")
        with pytest.raises(ContractViolationError, match="corrupted the IR"):
            manager.run(circuit, properties)
        record = properties["contract_violation"]
        assert record["kind"] == "structure"
        assert record["invariant"] == "QL004"

    def test_contracts_mode_does_not_recheck_the_dag(self):
        # The cheaper mode trusts declarations; only "full" catches this.
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        PassManager([_CorruptRegister()], validate="contracts").run(circuit)

    def test_off_mode_runs_no_validation(self):
        device = fully_connected(6)
        manager = PassManager(
            [ToffoliDecomposePass(), MappingAwareToffoliDecomposePass(device)],
            validate="off",
        )
        manager.run(self._toffoli_program())  # no ContractViolationError

    def test_validator_state_tracking(self):
        validator = ContractValidator("contracts")
        assert validator.enabled
        dag = DagCircuit.from_circuit(QuantumCircuit(2))
        properties = PropertySet()
        validator.after_pass(_EstablishThing(), dag, properties)
        assert validator.held() == {"thing"}
        validator.after_pass(_InvalidateThing(), dag, properties)
        assert validator.held() == set()

    def test_every_checkable_property_has_a_checker_contract(self):
        for prop, checker in PROPERTY_CHECKERS.items():
            dag = DagCircuit.from_circuit(QuantumCircuit(2))
            # Without device context the checkers must abstain, not crash.
            assert checker(dag, PropertySet()) is None or prop in (
                "decomposed",
                "swaps_expanded",
            )


class TestFixedPointContracts:
    def test_checks_are_the_intersection_of_inner_checks(self):
        loop = FixedPoint(
            [CancelAdjacentInversesPass(), RemoveIdentitiesPass()]
        )
        assert loop.checks == ("gate_count_nonincreasing",)
        mixed = FixedPoint([CancelAdjacentInversesPass(), DecomposeSwapsPass()])
        assert mixed.checks == ()

    def test_inner_requires_leak_out_unless_satisfied_earlier(self):
        device = fully_connected(6)
        loop = FixedPoint([MappingAwareToffoliDecomposePass(device)])
        assert "routed_toffoli" in loop.requires
        satisfied = FixedPoint([_EstablishThing(), _RequireThing()])
        assert satisfied.requires == ()
        unsatisfied = FixedPoint([_RequireThing(), _EstablishThing()])
        assert "thing" in unsatisfied.requires

    def test_reestablished_properties_are_not_reported_invalidated(self):
        loop = FixedPoint([_InvalidateThing(), _EstablishThing()])
        assert "thing" in loop.establishes
        assert "thing" not in loop.invalidates
        gone = FixedPoint([_EstablishThing(), _InvalidateThing()])
        assert "thing" in gone.invalidates
        assert "thing" not in gone.establishes


# ----------------------------------------------------------------------
# Validation-mode resolution and the transpile() surface
# ----------------------------------------------------------------------
class TestValidationModes:
    def test_resolution_table(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert resolve_validation_mode(None) == "off"
        assert resolve_validation_mode(True) == "contracts"
        assert resolve_validation_mode(False) == "off"
        assert resolve_validation_mode("none") == "off"
        assert resolve_validation_mode("FULL") == "full"
        assert resolve_validation_mode("contracts") == "contracts"

    def test_env_var_fills_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "contracts")
        assert resolve_validation_mode(None) == "contracts"
        assert PassManager().validate == "contracts"
        # An explicit argument wins over the environment.
        assert PassManager(validate="off").validate == "off"

    def test_invalid_modes_are_rejected(self, monkeypatch):
        with pytest.raises(AnalysisError, match="banana"):
            resolve_validation_mode("banana")
        with pytest.raises(AnalysisError):
            resolve_validation_mode(3)
        monkeypatch.setenv("REPRO_VALIDATE", "banana")
        with pytest.raises(AnalysisError):
            PassManager()

    def test_suite_runs_with_full_validation(self):
        # conftest exports REPRO_VALIDATE=full: every transpile() in the
        # suite is contract-checked, including this one.
        assert PassManager().validate == "full"

    def test_transpile_validate_argument(self):
        program = QuantumCircuit(3)
        program.h(0).ccx(0, 1, 2)
        device = johannesburg()
        for validate in (False, True, "contracts", "full"):
            result = transpile(
                program, device, method="trios", seed=3, validate=validate
            )
            assert not result.lint().has_errors
        with pytest.raises(AnalysisError, match="banana"):
            transpile(program, device, seed=3, validate="banana")


# ----------------------------------------------------------------------
# Clean outputs: everything transpile() emits lints error-free
# ----------------------------------------------------------------------
@st.composite
def lintable_programs(draw, min_qubits=3, max_qubits=5, max_gates=10):
    num_qubits = draw(st.integers(min_value=min_qubits, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, "lintprog")
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        kind = draw(st.sampled_from(["1q", "2q", "2q", "rot", "ccx"]))
        qubits = draw(
            st.lists(st.integers(0, num_qubits - 1), min_size=3, max_size=3,
                     unique=True)
        )
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(("h", "x", "s", "t"))))(qubits[0])
        elif kind == "2q":
            circuit.cx(qubits[0], qubits[1])
        elif kind == "rot":
            circuit.rz(draw(st.floats(-3, 3, allow_nan=False)), qubits[0])
        else:
            circuit.ccx(qubits[0], qubits[1], qubits[2])
    return circuit


class TestCompiledOutputLintsClean:
    @given(circuit=lintable_programs())
    @settings(max_examples=8, deadline=None)
    def test_every_level_and_pipeline_lints_error_free(self, circuit):
        device = johannesburg()
        for method in ("baseline", "trios"):
            for level in (0, 1, 2):
                result = transpile(
                    circuit, device, method=method, seed=7,
                    optimization_level=level,
                )
                report = result.lint()
                assert not report.has_errors, (
                    f"{method} level {level}:\n{report.to_table()}"
                )

    @pytest.mark.parametrize("method", ["baseline", "trios"])
    def test_level3_output_lints_error_free(self, method):
        program = QuantumCircuit(4)
        program.h(0).cx(0, 1).ccx(0, 1, 2).t(2).cx(2, 3)
        result = transpile(
            program, johannesburg(), method=method, seed=5,
            optimization_level=3, seed_trials=2,
        )
        assert not result.lint().has_errors

    @pytest.mark.parametrize(
        "bench_name, method",
        [("grovers-9", "trios"), ("qft_adder-16", "baseline")],
    )
    def test_representative_fig9_10_cells_lint_error_free(
        self, bench_name, method
    ):
        # The full 88-cell sweep is the CI lint gate (`repro lint --fig9-10`);
        # these two cells keep the property pinned in the unit suite.
        result = transpile(
            get_benchmark(bench_name), johannesburg(), method=method, seed=11
        )
        assert not result.lint().has_errors


# ----------------------------------------------------------------------
# The `repro lint` CLI subcommand
# ----------------------------------------------------------------------
class TestLintCli:
    def test_nothing_to_lint_exits_2(self, capsys):
        from repro.experiments.cli import main

        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_compiled_benchmark_lints_clean(self, capsys):
        from repro.experiments.cli import main

        assert main(["lint", "--benchmark", "cnx_inplace-4"]) == 0
        out = capsys.readouterr().out
        assert "[lint]" in out and "cnx_inplace-4" in out

    def test_json_output_is_parseable(self, capsys):
        from repro.experiments.cli import main

        assert main(
            ["lint", "--benchmark", "cnx_inplace-4", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subject"].startswith("cnx_inplace-4")
        assert "diagnostics" in payload

    def test_illegal_qasm_file_fails_the_gate(self, tmp_path, capsys):
        from repro.experiments.cli import main

        circuit = QuantumCircuit(3)
        circuit.h(0).ccx(0, 1, 2)  # a 3q unitary can never run on hardware
        path = tmp_path / "logical.qasm"
        path.write_text(to_qasm(circuit))
        assert main(["lint", str(path)]) == 1
        assert "QL106" in capsys.readouterr().out
        # Without a device target the hardware rules do not apply.
        assert main(["lint", str(path), "--no-target"]) == 0

    def test_suppression_flag_reaches_the_linter(self, tmp_path, capsys):
        from repro.experiments.cli import main

        circuit = QuantumCircuit(3)
        circuit.h(0)
        path = tmp_path / "idle.qasm"
        path.write_text(to_qasm(circuit))
        assert main(
            ["lint", str(path), "--no-target", "--suppress", "QL201", "QL202"]
        ) == 0
        assert "QL201" not in capsys.readouterr().out
