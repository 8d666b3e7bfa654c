"""The simulated NISQ-benchmark experiment (paper §5.2, Figures 9, 10 and 11).

Every Table 1 benchmark is compiled with the baseline and with Trios onto each
of the four 20-qubit topologies of Figure 5, and the analytic success model
(§2.6) is evaluated with error rates 20x better than the 2020-08-19
Johannesburg calibration — exactly the setup the paper simulates.

The sweep is embarrassingly parallel over its (topology, benchmark) cells:
:func:`run_benchmark_experiment` accepts ``jobs`` (also exposed as the CLI's
``--jobs``) and fans the cells out over a process pool.  Every cell compiles
with the same deterministic seed it would receive serially, so ``jobs=8``
reproduces ``jobs=1`` bit for bit.  Compilations are additionally memoized in
a per-process, content-addressed cache (the service layer's sharded LRU,
keyed by ``sha256(canonical QASM + topology signature + canonical
options)``), so repeated sweeps — and the sensitivity study, which compiles
the same circuits — reuse them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..bench_circuits.suite import (
    PAPER_BENCHMARKS,
    TOFFOLI_BENCHMARKS,
    get_benchmark,
)
from ..circuits.circuit import QuantumCircuit
from ..compiler.result import CompilationResult
from ..exceptions import ReproError, SimulationError
from ..hardware.calibration import DeviceCalibration, near_term_calibration
from ..hardware.library import PAPER_TOPOLOGIES
from ..hardware.topology import CouplingMap
from ..runtime import (
    CellFailure,
    CellRunner,
    FailurePolicy,
    FaultPlan,
    failure_records,
    resolve_jobs,
)
from ..service.cache import ShardedLRUCache
from ..service.jobs import CompileJob, run_job_cached
from ..sim import (
    EXACT_PROBABILITY_BACKENDS,
    StatevectorSimulator,
    get_backend,
    supports_exact_probabilities,
)
from .stats import geometric_mean, percent_reduction


@dataclass
class BenchmarkComparison:
    """Baseline-vs-Trios numbers for one benchmark on one topology."""

    benchmark: str
    topology: str
    baseline_cnots: int
    trios_cnots: int
    baseline_success: float
    trios_success: float
    baseline_depth: int
    trios_depth: int
    #: Per-pass telemetry spans of the two compilations (``--profile-passes``
    #: data); ``None`` for rows built before the observability layer.
    baseline_pass_spans: Optional[List[obs.Span]] = None
    trios_pass_spans: Optional[List[obs.Span]] = None

    @property
    def cnot_reduction(self) -> float:
        """Figure 10's metric: fraction of CNOTs removed by Trios."""
        return percent_reduction(self.baseline_cnots, self.trios_cnots)

    @property
    def success_ratio(self) -> float:
        """Figure 11's metric: ``p_trios / p_baseline``."""
        if self.baseline_success <= 0:
            return float("inf") if self.trios_success > 0 else 1.0
        return self.trios_success / self.baseline_success


@dataclass
class BenchmarkExperimentResult:
    """All comparisons, indexed by topology label then benchmark label."""

    calibration_name: str
    comparisons: Dict[str, Dict[str, BenchmarkComparison]] = field(default_factory=dict)
    #: Cells the fault-tolerant runtime could not complete (worker crashed,
    #: timed out, or kept raising): explicit skip records, so a partial sweep
    #: reports what is missing instead of crashing.  The geomean aggregates
    #: below simply cover the surviving rows.
    failures: List[CellFailure] = field(default_factory=list)

    def topologies(self) -> List[str]:
        return list(self.comparisons)

    def row(self, topology: str, benchmark: str) -> BenchmarkComparison:
        return self.comparisons[topology][benchmark]

    # Aggregates over the Toffoli-containing benchmarks, as in the figures.
    def geomean_cnot_reduction(self, topology: str) -> float:
        rows = self.toffoli_rows(topology)
        return 1.0 - geometric_mean(
            max(r.trios_cnots, 1) / max(r.baseline_cnots, 1) for r in rows
        )

    def geomean_success(self, topology: str, method: str) -> float:
        rows = self.toffoli_rows(topology)
        if method == "baseline":
            return geometric_mean(r.baseline_success for r in rows)
        if method == "trios":
            return geometric_mean(r.trios_success for r in rows)
        raise ReproError(f"unknown method {method!r}")

    def geomean_success_ratio(self, topology: str) -> float:
        rows = self.toffoli_rows(topology)
        return geometric_mean(min(r.success_ratio, 1e9) for r in rows)

    def toffoli_rows(self, topology: str) -> List[BenchmarkComparison]:
        """The Toffoli benchmarks' rows on ``topology``: the geo-means' population."""
        table = self.comparisons[topology]
        return [table[name] for name in table if name in TOFFOLI_BENCHMARKS]

    def all_pass_spans(self) -> List[obs.Span]:
        """Every pass-telemetry span across the sweep (both pipelines)."""
        spans: List[obs.Span] = []
        for table in self.comparisons.values():
            for row in table.values():
                for recorded in (row.baseline_pass_spans, row.trios_pass_spans):
                    if recorded:
                        spans.extend(recorded)
        return spans


# ----------------------------------------------------------------------
# Compile-once cache
# ----------------------------------------------------------------------
#: The drivers' compile memoization — the same bounded, sharded,
#: content-addressed LRU the compile service uses (one implementation, one
#: key recipe: ``sha256(canonical QASM + topology signature + canonical
#: options)``).  Content addressing subsumes the old (benchmark, topology,
#: method, seed) tuple *and* closes its two bugs: the cache no longer grows
#: without bound in a long-lived process, and two calls differing in any
#: semantic transpile option (``optimization_level``, ``toffoli_mode``, ...)
#: can never collide on one entry.  Both pipelines are deterministic given a
#: seed, so caching never changes results.  The cache is per process; pool
#: workers each warm their own copy.
#:
#: Entries are charged a structural estimate, not their pickled size (one
#: ``pickle.dumps`` per ``put`` cost ~0.5 ms, a tenth of a Fig 6-8 unit): a
#: fixed share for the pass spans, layouts and property set plus a share
#: per compiled instruction.  The passes take their instructions from the
#: process-wide :func:`~repro.circuits.circuit.placed` table, so an entry
#: holds references to shared instructions and the per-instruction share is
#: about one list slot.  Both constants are fitted to tracemalloc's retained
#: bytes over the Table 1 benchmarks on ibmq-johannesburg and four Fig 6-8
#: Toffoli cells, both pipelines (CPython 3.11), which they match within 1.3x.
_RESULT_BYTES = 6_500
_INSTRUCTION_BYTES = 11


def compile_result_size(key: str, result: CompilationResult) -> int:
    """The byte charge of one cached compile: structural, no serialisation."""
    return len(key) + _RESULT_BYTES + _INSTRUCTION_BYTES * len(result.circuit.instructions)


_COMPILE_CACHE = ShardedLRUCache(name="compile", size_of=compile_result_size)


def clear_compile_cache() -> None:
    """Drop all memoized compilations (mainly useful in benchmarks/tests)."""
    _COMPILE_CACHE.clear()


def compile_cache_stats():
    """Counters of the shared compile cache (hits/misses/evictions/bytes)."""
    return _COMPILE_CACHE.stats()


def compile_benchmark_cached(
    benchmark: str,
    coupling_map: CouplingMap,
    method: str,
    seed: Optional[int],
    circuit: Optional[QuantumCircuit] = None,
    **options: object,
) -> CompilationResult:
    """Compile a Table 1 benchmark with one pipeline, memoized.

    A thin client of the service's job API: the request is keyed by
    content (:func:`repro.service.compile_job_key`), so any further
    ``transpile()`` keyword passed via ``options`` participates in the key
    and differing option sets never share an entry.

    ``circuit`` may pass in an already-built instance of the benchmark to
    avoid regenerating it; it must be the circuit ``get_benchmark(benchmark)``
    would return (with content addressing an impostor would merely miss).
    """
    if method not in ("baseline", "trios"):
        raise ReproError(f"unknown compilation method {method!r}")
    if circuit is None:
        circuit = get_benchmark(benchmark)
    job = CompileJob.from_circuit(
        circuit, coupling_map, method, seed=seed, **options
    )
    result, _ = run_job_cached(job, _COMPILE_CACHE)
    return result


def ideal_expected_outcome(logical: QuantumCircuit) -> str:
    """The most likely outcome of the *ideal* logical circuit.

    This is the success criterion the paper's hardware runs use — the
    benchmarks are engineered to concentrate on one answer.  Compute it once
    per benchmark and pass it to :func:`sampled_success`; the dense statevector
    simulation behind it is the expensive part of a sampled sweep.
    """
    ideal = StatevectorSimulator(num_qubits_limit=24).probabilities(
        logical.without(["measure"])
    )
    return max(ideal, key=ideal.get)


def require_exact_capable_backend(backend: str) -> None:
    """Reject ``exact=True`` with a backend that has no analytic distribution.

    Validates the *name* against :data:`repro.sim.EXACT_PROBABILITY_BACKENDS`
    so the sweeps (and the Toffoli driver) fail up front — before any
    compilation or process-pool fan-out — instead of erroring per cell.
    """
    if backend.lower() not in EXACT_PROBABILITY_BACKENDS:
        raise ReproError(
            f"exact=True requires a backend with analytic run_probabilities "
            f"({', '.join(EXACT_PROBABILITY_BACKENDS)}); got {backend!r}"
        )


def sampled_success(
    compiled: CompilationResult,
    logical: QuantumCircuit,
    backend: str,
    calibration: DeviceCalibration,
    shots: int,
    seed: int,
    expected: Optional[str] = None,
    exact: bool = False,
) -> float:
    """Success rate of a compiled circuit under a shot-level backend.

    ``expected`` is the ideal outcome from :func:`ideal_expected_outcome`;
    it is computed on the fly when omitted, but callers evaluating the same
    logical circuit repeatedly should hoist it.  With ``exact=True`` the
    backend's analytic ``run_probabilities`` replaces shot sampling, so the
    returned probability carries zero shot variance (requires a
    probability-capable backend such as ``"density"`` or ``"ptm"``).
    """
    if expected is None:
        expected = ideal_expected_outcome(logical)
    measured = compiled.physical_qubits_of(list(range(logical.num_qubits)))
    engine = get_backend(backend, calibration, seed=seed)
    circuit = compiled.circuit.without(["measure"])
    if exact:
        if not supports_exact_probabilities(engine):
            raise ReproError(
                f"backend {backend!r} cannot produce exact probabilities; "
                "use 'density' or 'ptm' (noisy) or 'ideal' (noiseless)"
            )
        return engine.run_probabilities(circuit, measured_qubits=measured).get(
            expected, 0.0
        )
    result = engine.run_counts(circuit, shots, measured_qubits=measured)
    return result.success_rate(expected)


def compare_benchmark(
    benchmark: str,
    coupling_map: CouplingMap,
    calibration: DeviceCalibration,
    seed: int = 11,
    backend: str = "analytic",
    shots: int = 2048,
    expected: Optional[str] = None,
    circuit: Optional[QuantumCircuit] = None,
    exact: bool = False,
) -> BenchmarkComparison:
    """Compile one benchmark with both pipelines and evaluate its success.

    Args:
        benchmark: Table 1 benchmark label.
        coupling_map: Target topology.
        calibration: Device error model.
        seed: Seed for the baseline's stochastic routing (and the sampler).
        backend: ``"analytic"`` evaluates the paper's closed-form success
            model (§2.6, the default); any registered
            :class:`~repro.sim.SimulationBackend` name (``"failure"``,
            ``"trajectory"``, ``"density"``, ``"ptm"``, ``"ideal"``) instead
            *samples* the compiled circuits for ``shots`` shots.
        shots: Shots per circuit when a sampling backend is selected.
        expected: Precomputed :func:`ideal_expected_outcome` for sampling
            backends; computed on the fly when omitted.
        circuit: Already-built instance of the benchmark, so sweep callers
            construct each logical circuit once instead of once per cell.
        exact: Evaluate analytic success probabilities via the backend's
            ``run_probabilities`` (zero shot variance) instead of sampling;
            requires a probability-capable backend such as ``"density"`` or ``"ptm"``.
    """
    if circuit is None:
        circuit = get_benchmark(benchmark)
    if exact:
        require_exact_capable_backend(backend)
    baseline = compile_benchmark_cached(benchmark, coupling_map, "baseline", seed, circuit)
    # Same routing policy and seed as the baseline so that Toffoli-free
    # circuits compile identically (the paper's "no effect" control).
    trios = compile_benchmark_cached(benchmark, coupling_map, "trios", seed, circuit)
    if backend == "analytic":
        baseline_success = baseline.success_probability(calibration)
        trios_success = trios.success_probability(calibration)
    else:
        if expected is None:
            expected = ideal_expected_outcome(circuit)
        baseline_success = sampled_success(
            baseline, circuit, backend, calibration, shots, seed, expected,
            exact=exact,
        )
        trios_success = sampled_success(
            trios, circuit, backend, calibration, shots, seed, expected,
            exact=exact,
        )
    return BenchmarkComparison(
        benchmark=benchmark,
        topology=coupling_map.name,
        baseline_cnots=baseline.two_qubit_gate_count,
        trios_cnots=trios.two_qubit_gate_count,
        baseline_success=baseline_success,
        trios_success=trios_success,
        baseline_depth=baseline.depth,
        trios_depth=trios.depth,
        baseline_pass_spans=baseline.pass_spans,
        trios_pass_spans=trios.pass_spans,
    )


def _benchmark_cell(
    payload: Tuple[str, CouplingMap, str, QuantumCircuit, DeviceCalibration,
                   int, str, int, Optional[str], bool],
) -> Tuple[str, str, Optional[BenchmarkComparison]]:
    """Evaluate one (topology, benchmark) cell; process-pool entry point."""
    (label, coupling_map, benchmark, circuit, calibration, seed, backend,
     shots, expected, exact) = payload
    try:
        comparison = compare_benchmark(
            benchmark, coupling_map, calibration, seed,
            backend=backend, shots=shots, expected=expected, circuit=circuit,
            exact=exact,
        )
    except SimulationError as exc:
        # The selected sampling backend cannot simulate this compiled
        # circuit (e.g. too many active qubits for the trajectory
        # sampler); skip the row rather than aborting the sweep.
        warnings.warn(
            f"skipping {benchmark} on {label}: {exc}", RuntimeWarning,
            stacklevel=2,
        )
        return label, benchmark, None
    return label, benchmark, comparison


def run_benchmark_experiment(
    topologies: Optional[Mapping[str, Callable[[], CouplingMap]]] = None,
    calibration: Optional[DeviceCalibration] = None,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 11,
    backend: str = "analytic",
    shots: int = 2048,
    jobs: int = 1,
    exact: bool = False,
    timeout: Optional[float] = None,
    retries: int = 2,
    on_error: str = "skip",
    faults: Optional[FaultPlan] = None,
) -> BenchmarkExperimentResult:
    """Run the full Figures 9-11 sweep on the fault-tolerant runtime.

    Args:
        topologies: Mapping from label to topology builder; defaults to the
            paper's four devices.
        calibration: Error model; defaults to 20x-improved Johannesburg.
        benchmarks: Benchmark labels to include; defaults to all of Table 1.
        seed: Seed for the baseline's stochastic routing.
        backend: ``"analytic"`` (paper default) or a registered
            :class:`~repro.sim.SimulationBackend` name to sample shot counts.
        shots: Shots per circuit when a sampling backend is selected.
        jobs: Worker processes for the (topology, benchmark) cells; ``1``
            (the default) runs serially, ``0`` uses all CPUs.  Results are
            identical either way (the exact backend's channels and simulator
            pickle cleanly), and a cell that succeeds after retries is
            byte-identical to its fault-free serial run (each cell derives
            randomness from the seed carried in its own payload).
        exact: Record the backend's analytic success probabilities instead
            of sampled frequencies (zero shot variance); requires a
            probability-capable backend such as ``"density"`` or ``"ptm"``.
        timeout: Per-cell wall-clock seconds (pool mode) before a hung cell's
            worker is killed and the cell retried; ``None`` disables.
        retries: Extra attempts per faulted cell (crash, timeout, exception).
        on_error: What a permanently failed cell does — ``"fail"`` aborts the
            sweep (the pre-runtime behaviour), ``"skip"`` (default) records
            it under :attr:`BenchmarkExperimentResult.failures`, ``"serial"``
            additionally degrades to in-process execution when the pool keeps
            breaking.
        faults: Deterministic fault-injection plan (tests/benchmarks); by
            default the ``REPRO_FAULTS`` environment variable is honoured.
    """
    topologies = topologies or PAPER_TOPOLOGIES
    calibration = calibration or near_term_calibration()
    benchmarks = list(benchmarks or PAPER_BENCHMARKS)
    if exact:
        require_exact_capable_backend(backend)
    obs.maybe_enable_from_env()
    with obs.span(
        "benchmark_experiment",
        category="experiment",
        backend=backend,
        benchmarks=len(benchmarks),
        jobs=jobs,
    ):
        return _run_benchmark_experiment(
            topologies, calibration, benchmarks, seed, backend, shots, jobs,
            exact, timeout, retries, on_error, faults,
        )


def _run_benchmark_experiment(
    topologies: Mapping[str, Callable[[], CouplingMap]],
    calibration: DeviceCalibration,
    benchmarks: List[str],
    seed: int,
    backend: str,
    shots: int,
    jobs: int,
    exact: bool,
    timeout: Optional[float],
    retries: int,
    on_error: str,
    faults: Optional[FaultPlan],
) -> BenchmarkExperimentResult:
    result = BenchmarkExperimentResult(calibration_name=calibration.name)
    # Build each topology and each logical circuit exactly once per sweep.
    built = {label: builder() for label, builder in topologies.items()}
    circuits = {name: get_benchmark(name) for name in benchmarks}
    # The ideal expected outcome depends only on the logical circuit, so
    # compute it once per benchmark, not once per (topology, benchmark) cell.
    expected_cache: Dict[str, str] = {}
    payloads = []
    for label, coupling_map in built.items():
        result.comparisons[label] = {}
        for benchmark in benchmarks:
            if circuits[benchmark].num_qubits > coupling_map.num_qubits:
                continue
            expected = None
            if backend != "analytic":
                if benchmark not in expected_cache:
                    expected_cache[benchmark] = ideal_expected_outcome(
                        circuits[benchmark]
                    )
                expected = expected_cache[benchmark]
            payloads.append(
                (label, coupling_map, benchmark, circuits[benchmark],
                 calibration, seed, backend, shots, expected, exact)
            )
    runner = CellRunner(
        jobs=resolve_jobs(jobs),
        policy=FailurePolicy(timeout=timeout, retries=retries, on_error=on_error),
        faults=faults if faults is not None else "env",
        label="benchmark sweep",
    )
    records = runner.run(payloads, _benchmark_cell)
    labels = [f"{label}|{benchmark}" for (label, _, benchmark, *_rest) in payloads]
    result.failures = failure_records(records, labels)
    for record in records:
        if not record.ok:
            continue
        label, benchmark, comparison = record.value
        if comparison is not None:
            result.comparisons[label][benchmark] = comparison
    return result
