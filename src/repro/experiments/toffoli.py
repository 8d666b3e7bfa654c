"""The Toffoli-only experiment (paper §5.1, Figures 6, 7 and 8).

A single Toffoli is placed on three chosen physical qubits of the device (the
initial mapping is fixed "to force routing to occur"), compiled with the four
configurations compared in the paper —

* ``Qiskit (baseline)``        — conventional flow, 6-CNOT Toffoli,
* ``Qiskit (8-CNOT Toffoli)``  — conventional flow, 8-CNOT Toffoli,
* ``Trios (6-CNOT Toffoli)``   — Trios routing, fixed 6-CNOT second pass,
* ``Trios (8-CNOT Toffoli)``   — Trios routing, mapping-aware second pass
  (which on triangle-free devices such as Johannesburg always selects the
  8-CNOT decomposition) —

and executed on the noisy-hardware substitute with the controls prepared in
|1⟩ and the target in |0⟩, measuring the probability of reading |111⟩.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..circuits.circuit import QuantumCircuit
from ..compiler.result import CompilationResult
from ..exceptions import ReproError, SimulationError
from ..hardware.calibration import DeviceCalibration, johannesburg_aug19_2020
from ..hardware.topology import CouplingMap
from ..hardware.library import johannesburg
from ..runtime import (
    CellFailure,
    CellRunner,
    FailurePolicy,
    FaultPlan,
    failure_records,
    resolve_jobs,
)
from ..service.jobs import CompileJob, run_job_cached
from ..sim import get_backend
from .benchmarks import _COMPILE_CACHE, require_exact_capable_backend
from .stats import geometric_mean

#: The four compiler configurations of Figures 6 and 7, in plot order.
CONFIGURATIONS = (
    "Qiskit (baseline)",
    "Qiskit (8-CNOT Toffoli)",
    "Trios (6-CNOT Toffoli)",
    "Trios (8-CNOT Toffoli)",
)

#: Each configuration's (pipeline, transpile options) — the declarative form
#: the content-addressed job API consumes.
_CONFIGURATION_OPTIONS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "Qiskit (baseline)": ("baseline", {"toffoli_mode": "6cnot"}),
    "Qiskit (8-CNOT Toffoli)": ("baseline", {"toffoli_mode": "8cnot"}),
    "Trios (6-CNOT Toffoli)": ("trios", {"second_decomposition": "6cnot"}),
    "Trios (8-CNOT Toffoli)": ("trios", {"second_decomposition": "mapping_aware"}),
}


def toffoli_test_circuit() -> QuantumCircuit:
    """|110⟩ preparation, one Toffoli, measurement of all three qubits (§5.1)."""
    circuit = QuantumCircuit(3, "single_toffoli")
    circuit.x(0)
    circuit.x(1)
    circuit.ccx(0, 1, 2)
    for qubit in range(3):
        circuit.measure(qubit, qubit)
    return circuit


def compile_configuration(
    configuration: str,
    coupling_map: CouplingMap,
    placement: Dict[int, int],
    seed: Optional[int] = None,
) -> CompilationResult:
    """Compile the Toffoli test circuit under one of the four configurations.

    A thin client of the service-layer job API: the compile is memoized in
    the same content-addressed cache the benchmark sweep and the compile
    server use (keyed by circuit + topology + the configuration's full
    option set).  Seedless calls (``seed=None``, the stochastic-routing
    default here) are intentionally *not* cached — their output is
    non-reproducible by contract.
    """
    circuit = toffoli_test_circuit()
    try:
        method, options = _CONFIGURATION_OPTIONS[configuration]
    except KeyError:
        raise ReproError(f"unknown configuration {configuration!r}") from None
    job = CompileJob.from_circuit(
        circuit, coupling_map, method, layout=dict(placement), seed=seed, **options
    )
    result, _ = run_job_cached(job, _COMPILE_CACHE)
    return result


@dataclass
class TripletResult:
    """Results for one triplet of physical qubits across the four configurations."""

    triplet: Tuple[int, int, int]
    total_distance: int
    cnot_counts: Dict[str, int] = field(default_factory=dict)
    success_rates: Dict[str, float] = field(default_factory=dict)
    pass_spans: Dict[str, List[obs.Span]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """The x-axis label style of Figures 6/7: ``(a-b-c) distance``."""
        a, b, c = self.triplet
        return f"({a}-{b}-{c}) {self.total_distance}"

    def improvement(self) -> float:
        """Figure 8's metric: Trios (8-CNOT) success over the Qiskit baseline."""
        baseline = self.success_rates.get("Qiskit (baseline)", 0.0)
        trios = self.success_rates.get("Trios (8-CNOT Toffoli)", 0.0)
        if baseline <= 0:
            return float("inf") if trios > 0 else 1.0
        return trios / baseline


@dataclass
class ToffoliExperimentResult:
    """Aggregated output of the Toffoli-only experiment."""

    device: str
    shots: int
    #: True when the success rates are analytic probabilities from an exact
    #: backend (zero shot variance) rather than sampled frequencies.
    exact: bool = False
    rows: List[TripletResult] = field(default_factory=list)
    #: Triplets the fault-tolerant runtime could not complete (worker crashed,
    #: timed out, or kept raising) — explicit skip records for the report.
    failures: List[CellFailure] = field(default_factory=list)

    def geomean_cnots(self, configuration: str) -> float:
        return geometric_mean(row.cnot_counts[configuration] for row in self.rows)

    def geomean_success(self, configuration: str) -> float:
        return geometric_mean(
            max(row.success_rates[configuration], 1e-6) for row in self.rows
        )

    def geomean_improvement(self) -> float:
        """Geomean of the Figure 8 normalised success ratios."""
        return geometric_mean(min(row.improvement(), 1e6) for row in self.rows)

    def gate_reduction(self) -> float:
        """Fractional CNOT reduction of Trios (8-CNOT) vs. the Qiskit baseline."""
        baseline = self.geomean_cnots("Qiskit (baseline)")
        trios = self.geomean_cnots("Trios (8-CNOT Toffoli)")
        return 1.0 - trios / baseline

    def all_pass_spans(self) -> List[obs.Span]:
        """Every pass-telemetry span across triplets and configurations."""
        spans: List[obs.Span] = []
        for row in self.rows:
            for recorded in row.pass_spans.values():
                spans.extend(recorded)
        return spans


def random_triplets(
    coupling_map: CouplingMap, count: int, seed: Optional[int] = None
) -> List[Tuple[int, int, int]]:
    """Random triplets of distinct physical qubits, like the paper's sampling."""
    rng = random.Random(seed)
    triplets = []
    for _ in range(count):
        triplets.append(tuple(rng.sample(range(coupling_map.num_qubits), 3)))
    return triplets


def _toffoli_cell(payload) -> Optional[TripletResult]:
    """Evaluate one triplet across the four configurations; pool entry point."""
    index, triplet, coupling_map, calibration, shots, seed, sampler, exact = payload
    placement = {0: triplet[0], 1: triplet[1], 2: triplet[2]}
    row = TripletResult(
        triplet=tuple(triplet),
        total_distance=coupling_map.total_distance(triplet),
    )
    try:
        for configuration in CONFIGURATIONS:
            compiled = compile_configuration(
                configuration, coupling_map, placement, seed=seed + index
            )
            row.cnot_counts[configuration] = compiled.two_qubit_gate_count
            row.pass_spans[configuration] = compiled.pass_spans
            measured = compiled.physical_qubits_of([0, 1, 2])
            engine = get_backend(sampler, calibration, seed=seed + index)
            circuit = compiled.circuit.without(["measure"])
            if exact:
                row.success_rates[configuration] = engine.run_probabilities(
                    circuit, measured_qubits=measured
                ).get("111", 0.0)
            else:
                counts = engine.run_counts(
                    circuit, shots=shots, measured_qubits=measured
                )
                row.success_rates[configuration] = counts.success_rate("111")
    except SimulationError as exc:
        # The backend cannot simulate this triplet's compiled circuits
        # (e.g. the routing activated more qubits than a dense density
        # matrix can hold); drop the whole row so the per-row
        # configuration comparison stays balanced.
        warnings.warn(
            f"skipping triplet {row.triplet}: {exc}", RuntimeWarning,
            stacklevel=2,
        )
        return None
    return row


def run_toffoli_experiment(
    coupling_map: Optional[CouplingMap] = None,
    calibration: Optional[DeviceCalibration] = None,
    triplets: Optional[Sequence[Tuple[int, int, int]]] = None,
    num_triplets: int = 35,
    shots: int = 1024,
    seed: int = 0,
    sampler: str = "failure",
    exact: bool = False,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
    on_error: str = "skip",
    faults: Optional[FaultPlan] = None,
) -> ToffoliExperimentResult:
    """Run the §5.1 experiment on the noisy-hardware substitute.

    Args:
        coupling_map: Device topology (IBM Johannesburg by default).
        calibration: Error rates/timings (the 2020-08-19 snapshot by default).
        triplets: Explicit qubit triplets; random ones are drawn if omitted.
        num_triplets: How many random triplets to draw (35 in Figure 6/7,
            99 in Figure 8).
        shots: Shots per compiled circuit (the paper uses 8192 on hardware);
            ignored when ``exact`` is set.
        seed: Seed for triplet sampling, stochastic routing and the sampler.
        sampler: Name of a registered :class:`~repro.sim.SimulationBackend` —
            ``"failure"`` for the fast gate-failure model, ``"trajectory"``
            for the stochastic-Pauli Monte Carlo (slower, more detailed),
            ``"density"`` for exact density-matrix evolution, ``"ptm"`` for
            the faster exact Pauli-transfer-matrix engine, or ``"ideal"``
            for a noiseless control run.
        exact: Record the backend's *analytic* |111⟩ probability
            (``run_probabilities``) instead of a sampled frequency — zero
            shot variance.  Requires a probability-capable backend
            (``"density"``, ``"ptm"`` or ``"ideal"``).
        jobs: Worker processes for the per-triplet cells; ``1`` (the default)
            runs serially, ``0`` uses all CPUs.  Every cell derives its
            randomness from ``seed + index``, so parallel runs are
            bit-identical to serial ones.
        timeout: Per-triplet wall-clock seconds (pool mode) before a hung
            cell's worker is killed and the cell retried; ``None`` disables.
        retries: Extra attempts per faulted triplet.
        on_error: ``"fail"`` aborts the experiment on a permanent failure,
            ``"skip"`` (default) records it under
            :attr:`ToffoliExperimentResult.failures`, ``"serial"``
            additionally degrades to in-process execution when the pool
            keeps breaking.
        faults: Deterministic fault-injection plan; defaults to the
            ``REPRO_FAULTS`` environment variable.

    Triplets whose compiled circuits the selected backend cannot simulate
    (e.g. too many active qubits for the dense density matrix) are skipped
    with a warning rather than aborting the sweep.  NOTE: with the
    ``"density"`` backend these are precisely the *distant* placements, so
    the aggregate geomeans then cover only the simulable subset — compare
    like with like (pass explicit ``triplets``, or raise the backend's
    ``max_active_qubits``) before quoting them against a sampled run.  A
    :class:`~repro.exceptions.ReproError` is raised if every triplet was
    skipped.
    """
    coupling_map = coupling_map or johannesburg()
    calibration = calibration or johannesburg_aug19_2020()
    if exact:
        require_exact_capable_backend(sampler)
    if triplets is None:
        triplets = random_triplets(coupling_map, num_triplets, seed)
    result = ToffoliExperimentResult(
        device=coupling_map.name, shots=shots, exact=exact
    )
    payloads = [
        (index, tuple(triplet), coupling_map, calibration, shots, seed,
         sampler, exact)
        for index, triplet in enumerate(triplets)
    ]
    runner = CellRunner(
        jobs=resolve_jobs(jobs),
        policy=FailurePolicy(timeout=timeout, retries=retries, on_error=on_error),
        faults=faults if faults is not None else "env",
        label="toffoli experiment",
    )
    obs.maybe_enable_from_env()
    with obs.span(
        "toffoli_experiment",
        category="experiment",
        sampler=sampler,
        triplets=len(payloads),
        jobs=jobs,
    ):
        records = runner.run(payloads, _toffoli_cell)
    labels = [f"triplet {payload[1]}" for payload in payloads]
    result.failures = failure_records(records, labels)
    for record in records:
        if record.ok and record.value is not None:
            result.rows.append(record.value)
    if not result.rows:
        raise ReproError(
            f"backend {sampler!r} could not simulate any of the "
            f"{len(list(triplets))} triplets (see warnings); use a sampled "
            "backend, smaller placements, or a larger max_active_qubits"
        )
    # Present the rows sorted by decreasing distance, like the paper's figures.
    result.rows.sort(key=lambda r: -r.total_distance)
    return result


def single_case(
    triplet: Tuple[int, int, int] = (0, 4, 15),
    coupling_map: Optional[CouplingMap] = None,
) -> Dict[str, Dict[str, int]]:
    """A Figure 1-style walkthrough: SWAPs and CNOTs for one distant Toffoli."""
    coupling_map = coupling_map or johannesburg()
    placement = {0: triplet[0], 1: triplet[1], 2: triplet[2]}
    summary: Dict[str, Dict[str, int]] = {}
    for configuration in ("Qiskit (baseline)", "Trios (8-CNOT Toffoli)"):
        compiled = compile_configuration(configuration, coupling_map, placement, seed=1)
        summary[configuration] = {
            "swaps": compiled.swaps_inserted,
            "cnots": compiled.two_qubit_gate_count,
            "depth": compiled.depth,
        }
    return summary
