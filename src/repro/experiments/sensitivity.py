"""Error-rate sensitivity study (paper §6.4, Figure 12).

For a range of error-rate improvement factors (1x = today's Johannesburg,
20x = the near-term model used in Figures 9-11, up to 100x), the compiled
baseline and Trios circuits are re-evaluated under the scaled calibration and
the success ratio ``p_trios / p_baseline`` is reported per benchmark.  The
circuits themselves are compiled once — only the error model changes — exactly
as in the paper.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..bench_circuits.suite import TOFFOLI_BENCHMARKS, get_benchmark
from ..exceptions import SimulationError
from ..hardware.calibration import DeviceCalibration, johannesburg_aug19_2020
from ..hardware.library import johannesburg
from ..hardware.topology import CouplingMap
from ..runtime import (
    CellFailure,
    CellRunner,
    FailurePolicy,
    FaultPlan,
    failure_records,
    resolve_jobs,
)
from .benchmarks import (
    compile_benchmark_cached,
    ideal_expected_outcome,
    require_exact_capable_backend,
    sampled_success,
)


@dataclass
class SensitivityCurve:
    """Success-ratio curve for one benchmark over the improvement factors."""

    benchmark: str
    factors: List[float]
    ratios: List[float]
    pass_spans: List[obs.Span] = field(default_factory=list)

    def ratio_at(self, factor: float) -> float:
        """Ratio at the factor closest to ``factor``."""
        index = int(np.argmin([abs(f - factor) for f in self.factors]))
        return self.ratios[index]


@dataclass
class SensitivityResult:
    """Figure 12: one curve per Toffoli-containing benchmark."""

    device: str
    factors: List[float]
    curves: Dict[str, SensitivityCurve] = field(default_factory=dict)
    #: Curves the fault-tolerant runtime could not complete (worker crashed,
    #: timed out, or kept raising) — explicit skip records for the report.
    failures: List[CellFailure] = field(default_factory=list)

    def benchmarks(self) -> List[str]:
        return list(self.curves)

    def all_pass_spans(self) -> List[obs.Span]:
        """Every pass-telemetry span across the compiled benchmark pairs."""
        spans: List[obs.Span] = []
        for curve in self.curves.values():
            spans.extend(curve.pass_spans)
        return spans


def default_factors(num_points: int = 9, maximum: float = 100.0) -> List[float]:
    """Log-spaced improvement factors from 1x to ``maximum`` (the Figure 12 x-axis)."""
    return [float(f) for f in np.logspace(0, np.log10(maximum), num_points)]


def _sensitivity_cell(
    payload,
) -> "Optional[SensitivityCurve]":
    """Evaluate one benchmark's whole curve; process-pool entry point."""
    (benchmark, coupling_map, base_calibration, factors, seed, backend,
     shots, exact) = payload
    circuit = get_benchmark(benchmark)
    # The circuits are compiled once — only the error model changes — and the
    # compilation is shared with the Figures 9-11 sweep via the compile cache.
    baseline = compile_benchmark_cached(benchmark, coupling_map, "baseline", seed, circuit)
    trios = compile_benchmark_cached(benchmark, coupling_map, "trios", seed, circuit)
    expected = None if backend == "analytic" else ideal_expected_outcome(circuit)
    ratios: List[float] = []
    try:
        for factor in factors:
            calibration = base_calibration.improved(factor)
            if backend == "analytic":
                base_p = baseline.success_probability(calibration)
                trios_p = trios.success_probability(calibration)
            elif exact:
                # Analytic probabilities carry no shot noise, so no floor is
                # needed: a true zero stays zero (handled below).
                base_p = sampled_success(
                    baseline, circuit, backend, calibration, shots, seed,
                    expected, exact=True,
                )
                trios_p = sampled_success(
                    trios, circuit, backend, calibration, shots, seed,
                    expected, exact=True,
                )
            else:
                # Floor at half a shot so a deep circuit that happens to
                # score zero matches in a finite sample yields a large but
                # finite ratio instead of poisoning the curve with inf.
                floor = 1.0 / (2.0 * shots)
                base_p = max(floor, sampled_success(
                    baseline, circuit, backend, calibration, shots, seed, expected
                ))
                trios_p = max(floor, sampled_success(
                    trios, circuit, backend, calibration, shots, seed, expected
                ))
            if base_p <= 0:
                ratios.append(float("inf") if trios_p > 0 else 1.0)
            else:
                ratios.append(trios_p / base_p)
    except SimulationError as exc:
        # The sampling backend cannot simulate this compiled circuit
        # (e.g. too many active qubits); skip the whole curve.
        warnings.warn(
            f"skipping the {benchmark} sensitivity curve: {exc}",
            RuntimeWarning, stacklevel=2,
        )
        return None
    return SensitivityCurve(
        benchmark=benchmark, factors=list(factors), ratios=ratios,
        pass_spans=baseline.pass_spans + trios.pass_spans,
    )


def run_sensitivity_experiment(
    coupling_map: Optional[CouplingMap] = None,
    base_calibration: Optional[DeviceCalibration] = None,
    benchmarks: Optional[Sequence[str]] = None,
    factors: Optional[Sequence[float]] = None,
    seed: int = 11,
    backend: str = "analytic",
    shots: int = 2048,
    jobs: int = 1,
    exact: bool = False,
    timeout: Optional[float] = None,
    retries: int = 2,
    on_error: str = "skip",
    faults: Optional[FaultPlan] = None,
) -> SensitivityResult:
    """Reproduce Figure 12 on the Johannesburg topology.

    Args:
        coupling_map: Device topology (Johannesburg by default).
        base_calibration: The 1x error model that the factors scale.
        benchmarks: Benchmark labels (the Toffoli-containing set by default).
        factors: Error-rate improvement factors (log-spaced 1x-100x default).
        seed: Seed for the baseline's stochastic routing (and the sampler).
        backend: ``"analytic"`` re-evaluates the closed-form model at each
            factor (the paper's method, the default); any registered
            :class:`~repro.sim.SimulationBackend` name instead re-samples the
            compiled circuits under each scaled calibration.
        shots: Shots per circuit when a sampling backend is selected.
        jobs: Worker processes for the per-benchmark curves; ``1`` (the
            default) runs serially, ``0`` uses all CPUs.  Results are
            identical either way.
        exact: Evaluate analytic success probabilities via the backend's
            ``run_probabilities`` (zero shot variance, no shot-noise floor);
            requires a probability-capable backend such as ``"density"`` or ``"ptm"``.
        timeout: Per-curve wall-clock seconds (pool mode) before a hung
            cell's worker is killed and the cell retried; ``None`` disables.
        retries: Extra attempts per faulted curve.
        on_error: ``"fail"`` aborts the study on a permanent failure,
            ``"skip"`` (default) records it under
            :attr:`SensitivityResult.failures`, ``"serial"`` additionally
            degrades to in-process execution when the pool keeps breaking.
        faults: Deterministic fault-injection plan; defaults to the
            ``REPRO_FAULTS`` environment variable.
    """
    coupling_map = coupling_map or johannesburg()
    base_calibration = base_calibration or johannesburg_aug19_2020()
    benchmarks = list(benchmarks or TOFFOLI_BENCHMARKS)
    factors = list(factors or default_factors())
    if exact:
        require_exact_capable_backend(backend)
    result = SensitivityResult(device=coupling_map.name, factors=list(factors))
    fitting = [
        name for name in benchmarks
        if get_benchmark(name).num_qubits <= coupling_map.num_qubits
    ]
    payloads = [
        (name, coupling_map, base_calibration, list(factors), seed, backend,
         shots, exact)
        for name in fitting
    ]
    runner = CellRunner(
        jobs=resolve_jobs(jobs),
        policy=FailurePolicy(timeout=timeout, retries=retries, on_error=on_error),
        faults=faults if faults is not None else "env",
        label="sensitivity study",
    )
    obs.maybe_enable_from_env()
    with obs.span(
        "sensitivity_experiment",
        category="experiment",
        backend=backend,
        curves=len(payloads),
        jobs=jobs,
    ):
        records = runner.run(payloads, _sensitivity_cell)
    result.failures = failure_records(records, fitting)
    for name, record in zip(fitting, records):
        if record.ok and record.value is not None:
            result.curves[name] = record.value
    return result
