"""Command-line interface for regenerating the paper's tables and figures.

Usage (after ``pip install -e .``)::

    python -m repro --list-backends
    python -m repro table1
    python -m repro toffoli --triplets 35 --shots 2048
    python -m repro toffoli --exact                 # analytic, shot-free
    python -m repro benchmarks --backend ptm --exact
    python -m repro sensitivity --exact --jobs 4
    python -m repro compile grovers-9 --pipeline trios
    python -m repro serve --port 8732          # compilation as a service
    python -m repro all

Each subcommand prints the corresponding table/figure data as plain text (the
same formatting used by the pytest-benchmark harness under ``benchmarks/``).
``--exact`` switches the success metric from sampled frequencies to an
exact backend's analytic probabilities (zero shot variance) — either the
density-matrix engine or the faster Pauli-transfer-matrix one (``ptm``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .. import obs
from ..bench_circuits import all_benchmark_statistics
from ..bench_circuits.suite import get_benchmark
from ..compiler.pipeline import PIPELINES, transpile
from ..hardware.calibration import near_term_calibration
from ..hardware.library import PAPER_TOPOLOGIES, by_name
from ..sim import (
    BACKEND_CAPABILITIES,
    BACKEND_DESCRIPTIONS,
    BACKEND_NAMES,
    EXACT_PROBABILITY_BACKENDS,
)
from .benchmarks import run_benchmark_experiment
from .report import (
    format_benchmark_normalized,
    format_benchmark_reduction,
    format_benchmark_success,
    format_failure_summary,
    format_metrics_summary,
    format_pass_profile,
    format_sensitivity,
    format_trace_summary,
    format_table1,
    format_toffoli_gate_counts,
    format_toffoli_normalized,
    format_toffoli_success,
)
from .sensitivity import run_sensitivity_experiment
from .toffoli import run_toffoli_experiment

def _resolve_exact_backend(backend: str, exact: bool) -> str:
    """Pick the backend that serves ``--exact``.

    ``--exact`` needs a backend with analytic ``run_probabilities``
    (:data:`repro.sim.EXACT_PROBABILITY_BACKENDS`); when the selected one
    cannot provide it — including the ``analytic`` closed-form model and the
    shot samplers — the density-matrix backend is substituted, with a printed
    note so the swap is never silent.
    """
    if not exact or backend in EXACT_PROBABILITY_BACKENDS:
        return backend
    print(f"note: --exact needs analytic probabilities; using the 'density' "
          f"backend instead of {backend!r}\n")
    return "density"


def _add_fault_tolerance_flags(parser: argparse.ArgumentParser,
                               cells: str) -> None:
    """The fault-tolerant runtime's knobs, shared by every sweep subcommand."""
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help=f"wall-clock timeout per {cells} (pool mode); a "
                             "hung worker is killed and the cell retried")
    parser.add_argument("--retries", type=int, default=2,
                        help=f"extra attempts per faulted {cells} "
                             "(crash/timeout/exception; default 2)")
    parser.add_argument("--on-error", default="skip",
                        choices=["fail", "skip", "serial"], dest="on_error",
                        help="permanent-failure policy: fail = abort the "
                             "sweep, skip = record the cell in the failure "
                             "table and continue (default), serial = skip "
                             "plus in-process fallback when the pool keeps "
                             "breaking")


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """The tracing knob, shared by every subcommand."""
    parser.add_argument("--trace", default=None, metavar="OUT.json",
                        dest="trace",
                        help="record hierarchical spans (compiler passes, "
                             "runtime cell attempts, simulator runs — "
                             "including worker processes) and write them as "
                             "Chrome trace-event JSON to this path on exit; "
                             "REPRO_TRACE=<path> is the environment "
                             "equivalent, REPRO_TRACE=1 prints the terminal "
                             "summary without writing a file")


def _finish_trace(trace_path: Optional[str]) -> None:
    """Print the span/metrics summaries and export the Chrome trace, if on."""
    if not obs.is_enabled():
        return
    spans = obs.trace_spans()
    print("\n[trace] span summary\n")
    print(format_trace_summary(spans))
    metrics = obs.metrics_summary()
    if metrics:
        print("\n[trace] metrics\n")
        print(format_metrics_summary(metrics))
    if trace_path:
        count = obs.export_chrome_trace(trace_path)
        print(f"\n[trace] wrote {count} span(s) to {trace_path}")


def _print_failures(failures) -> None:
    if failures:
        print(f"\n[failures] {len(failures)} cell(s) did not complete "
              f"(aggregates cover the surviving cells)\n")
        print(format_failure_summary(failures))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the Orchestrated Trios paper.",
    )
    parser.add_argument("--list-backends", action="store_true",
                        help="list the registered simulation backends and exit")
    subparsers = parser.add_subparsers(dest="command")

    table1 = subparsers.add_parser("table1", help="Table 1: benchmark inventory")
    _add_observability_flags(table1)

    exact_help = ("record analytic success probabilities (zero shot variance) "
                  "instead of sampled frequencies; implies the density-matrix "
                  "backend unless an exact-capable one is selected")

    toffoli = subparsers.add_parser(
        "toffoli", help="Figures 6-8: single-Toffoli experiment on Johannesburg"
    )
    toffoli.add_argument("--triplets", type=int, default=35,
                         help="number of random qubit triplets (default 35)")
    toffoli.add_argument("--shots", type=int, default=2048,
                         help="shots per compiled circuit (default 2048)")
    toffoli.add_argument("--seed", type=int, default=0, help="random seed")
    toffoli.add_argument("--sampler", default="failure",
                         choices=list(BACKEND_NAMES),
                         help="simulation backend (default: failure)")
    toffoli.add_argument("--exact", action="store_true", help=exact_help)
    toffoli.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the per-triplet cells "
                              "(default 1 = serial, 0 = all CPUs; results "
                              "are identical)")
    toffoli.add_argument("--profile-passes", action="store_true",
                         help="print the per-pass time / gate-delta table")
    _add_fault_tolerance_flags(toffoli, "triplet")
    _add_observability_flags(toffoli)

    benchmarks = subparsers.add_parser(
        "benchmarks", help="Figures 9-11: benchmark suite on the four topologies"
    )
    benchmarks.add_argument("--seed", type=int, default=11, help="routing seed")
    benchmarks.add_argument("--backend", default="analytic",
                            choices=["analytic", *BACKEND_NAMES],
                            help="success model: analytic (paper) or a simulator")
    benchmarks.add_argument("--shots", type=int, default=2048,
                            help="shots per circuit for sampling backends")
    benchmarks.add_argument("--exact", action="store_true", help=exact_help)
    benchmarks.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the sweep cells "
                                 "(default 1 = serial, 0 = all CPUs; "
                                 "results are identical)")
    benchmarks.add_argument("--benchmarks", nargs="+", metavar="NAME",
                            default=None,
                            help="restrict the sweep to these Table 1 "
                                 "benchmarks (default: all)")
    benchmarks.add_argument("--profile-passes", action="store_true",
                            help="print the per-pass time / gate-delta table")
    _add_fault_tolerance_flags(benchmarks, "sweep cell")
    _add_observability_flags(benchmarks)

    sensitivity = subparsers.add_parser(
        "sensitivity", help="Figure 12: sensitivity to device error rates"
    )
    sensitivity.add_argument(
        "--factors", type=float, nargs="+",
        default=[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
        help="error-rate improvement factors",
    )
    sensitivity.add_argument("--backend", default="analytic",
                             choices=["analytic", *BACKEND_NAMES],
                             help="success model: analytic (paper) or a simulator")
    sensitivity.add_argument("--shots", type=int, default=2048,
                             help="shots per circuit for sampling backends")
    sensitivity.add_argument("--exact", action="store_true", help=exact_help)
    sensitivity.add_argument("--jobs", type=int, default=1,
                             help="worker processes for the per-benchmark "
                                  "curves (default 1 = serial, 0 = all CPUs)")
    sensitivity.add_argument("--profile-passes", action="store_true",
                             help="print the per-pass time / gate-delta table")
    _add_fault_tolerance_flags(sensitivity, "benchmark curve")
    _add_observability_flags(sensitivity)

    compile_cmd = subparsers.add_parser(
        "compile",
        help="transpile one Table 1 benchmark with a named pipeline",
    )
    compile_cmd.add_argument("benchmark",
                             help="Table 1 benchmark label, e.g. grovers-9")
    compile_cmd.add_argument("--pipeline", default="trios",
                             choices=sorted(PIPELINES),
                             help="named pipeline from "
                                  "repro.compiler.pipeline.PIPELINES "
                                  "(default: trios)")
    compile_cmd.add_argument("--topology", default="ibmq-johannesburg",
                             choices=sorted(PAPER_TOPOLOGIES),
                             help="target device topology")
    compile_cmd.add_argument("--seed", type=int, default=11, help="routing seed")
    compile_cmd.add_argument("--optimization-level", "--opt-level", type=int,
                             default=1, choices=[0, 1, 2, 3],
                             dest="optimization_level",
                             help="transpile() level; 3 adds the "
                                  "commutation-aware cancellation loop and a "
                                  "multi-seed layout/routing search")
    compile_cmd.add_argument("--seed-trials", type=int, default=None,
                             help="layout/routing seeds the level-3 search "
                                  "tries (only with --opt-level 3; default 4)")
    _add_observability_flags(compile_cmd)

    lint = subparsers.add_parser(
        "lint",
        help="statically lint QASM files or compiled benchmarks "
             "(exits non-zero on error-severity findings)",
    )
    lint.add_argument("paths", nargs="*", metavar="FILE.qasm",
                      help="QASM files to lint")
    lint.add_argument("--benchmark", default=None, metavar="NAME",
                      help="compile this Table 1 benchmark and lint the output")
    lint.add_argument("--pipeline", default="trios", choices=sorted(PIPELINES),
                      help="pipeline for --benchmark (default: trios)")
    lint.add_argument("--topology", default="ibmq-johannesburg",
                      choices=sorted(PAPER_TOPOLOGIES),
                      help="target device; for QASM files this enables the "
                           "hardware-legality rules")
    lint.add_argument("--no-target", action="store_true",
                      help="lint QASM files without a device target "
                           "(structural and resource rules only)")
    lint.add_argument("--seed", type=int, default=11, help="routing seed")
    lint.add_argument("--optimization-level", "--opt-level", type=int,
                      default=1, choices=[0, 1, 2, 3],
                      dest="optimization_level",
                      help="transpile() level for --benchmark / --fig9-10")
    lint.add_argument("--format", default="table", choices=["table", "json"],
                      dest="output_format", help="diagnostic output format")
    lint.add_argument("--suppress", nargs="+", metavar="CODE", default=(),
                      help="rule codes to suppress, e.g. QL201 QL202")
    lint.add_argument("--fig9-10", action="store_true", dest="fig9_10",
                      help="compile and lint every Fig 9/10 sweep cell "
                           "(all benchmarks x topologies x both pipelines); "
                           "the CI lint gate")
    _add_observability_flags(lint)

    serve = subparsers.add_parser(
        "serve",
        help="run the compile service: JSON-over-HTTP, content-addressed "
             "sharded cache, request coalescing, batched pool dispatch",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8732,
                       help="TCP port (default 8732; 0 picks a free port)")
    serve.add_argument("--cache-mb", type=int, default=256, dest="cache_mb",
                       help="compile-cache byte budget in MiB (default 256)")
    serve.add_argument("--shards", type=int, default=8,
                       help="cache shards, each with its own lock (default 8)")
    serve.add_argument("--pool-jobs", type=int, default=2, dest="pool_jobs",
                       help="worker processes per dispatched compile batch "
                            "(default 2; 0 = all CPUs)")
    serve.add_argument("--max-batch", type=int, default=32, dest="max_batch",
                       help="maximum unique compiles per batch (default 32)")
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="wall-clock timeout per dispatched compile; a "
                            "hung worker is killed and the compile retried")
    serve.add_argument("--retries", type=int, default=1,
                       help="extra attempts per faulted compile (default 1)")
    _add_observability_flags(serve)

    run_all = subparsers.add_parser("all", help="Run everything (may take a minute)")
    _add_observability_flags(run_all)
    return parser


def _run_table1() -> None:
    print("[Table 1] Benchmark inventory (measured vs paper)\n")
    print(format_table1(all_benchmark_statistics()))


def _print_pass_profile(result) -> None:
    print("\n[Pass profile] per-pass compile time and gate delta\n")
    print(format_pass_profile(result.all_pass_spans()))


def _list_backends() -> None:
    print("Registered simulation backends (repro.sim.get_backend):\n")
    for name in BACKEND_NAMES:
        capability = BACKEND_CAPABILITIES[name]
        print(f"  {name:12s} [{capability:7s}] {BACKEND_DESCRIPTIONS[name]}")


def _run_toffoli(triplets: int, shots: int, seed: int, sampler: str = "failure",
                 exact: bool = False, profile_passes: bool = False,
                 jobs: int = 1, timeout: Optional[float] = None,
                 retries: int = 2, on_error: str = "skip") -> None:
    sampler = _resolve_exact_backend(sampler, exact)
    result = run_toffoli_experiment(num_triplets=triplets, shots=shots, seed=seed,
                                    sampler=sampler, exact=exact, jobs=jobs,
                                    timeout=timeout, retries=retries,
                                    on_error=on_error)
    note = " (exact probabilities, zero shot variance)" if exact else ""
    print("[Figure 7] CNOT gate counts\n")
    print(format_toffoli_gate_counts(result))
    print(f"\n[Figure 6] Success probabilities{note}\n")
    print(format_toffoli_success(result))
    print(f"\n[Figure 8] Success normalised to the baseline{note}\n")
    print(format_toffoli_normalized(result))
    print(f"\nGeomean gate reduction: {result.gate_reduction() * 100:.1f}% (paper: 35%)")
    print(f"Geomean success increase: {(result.geomean_improvement() - 1) * 100:.1f}% "
          f"(paper: 23%)")
    _print_failures(result.failures)
    if profile_passes:
        _print_pass_profile(result)


def _run_benchmarks(seed: int, backend: str = "analytic", shots: int = 2048,
                    jobs: int = 1, benchmarks: Optional[Sequence[str]] = None,
                    exact: bool = False, profile_passes: bool = False,
                    timeout: Optional[float] = None, retries: int = 2,
                    on_error: str = "skip") -> None:
    backend = _resolve_exact_backend(backend, exact)
    result = run_benchmark_experiment(seed=seed, backend=backend, shots=shots,
                                      jobs=jobs, benchmarks=benchmarks,
                                      exact=exact, timeout=timeout,
                                      retries=retries, on_error=on_error)
    note = " (exact probabilities, zero shot variance)" if exact else ""
    print(f"[Figure 9] Simulated success probabilities{note}\n")
    print(format_benchmark_success(result))
    print("[Figure 10] CNOT reduction\n")
    print(format_benchmark_reduction(result))
    print(f"\n[Figure 11] Success normalised to the baseline{note}\n")
    print(format_benchmark_normalized(result))
    _print_failures(result.failures)
    if profile_passes:
        _print_pass_profile(result)


def _run_sensitivity(factors: Sequence[float], backend: str = "analytic",
                     shots: int = 2048, jobs: int = 1, exact: bool = False,
                     profile_passes: bool = False,
                     timeout: Optional[float] = None, retries: int = 2,
                     on_error: str = "skip") -> None:
    backend = _resolve_exact_backend(backend, exact)
    result = run_sensitivity_experiment(factors=list(factors), backend=backend,
                                        shots=shots, jobs=jobs, exact=exact,
                                        timeout=timeout, retries=retries,
                                        on_error=on_error)
    note = " (exact probabilities)" if exact else ""
    print(f"[Figure 12] p_trios / p_baseline vs error-rate improvement{note}\n")
    print(format_sensitivity(result))
    _print_failures(result.failures)
    if profile_passes:
        _print_pass_profile(result)


def _run_compile(benchmark: str, pipeline: str, topology: str, seed: int,
                 optimization_level: int, seed_trials: Optional[int] = None) -> None:
    circuit = get_benchmark(benchmark)
    coupling_map = by_name(topology)
    # The search knob is always forwarded: below level 3 its default passes
    # and any other value hits transpile()'s "has no effect" rejection.
    compiled = transpile(circuit, coupling_map, method=pipeline, seed=seed,
                         optimization_level=optimization_level,
                         seed_trials=seed_trials)
    calibration = near_term_calibration()
    print(f"[compile] {benchmark} with the {pipeline!r} pipeline "
          f"on {topology} (seed {seed}, O{optimization_level})\n")
    print(f"  qubits (logical):      {circuit.num_qubits}")
    print(f"  CNOTs:                 {compiled.two_qubit_gate_count}")
    print(f"  depth:                 {compiled.depth}")
    print(f"  SWAPs inserted:        {compiled.swaps_inserted}")
    print(f"  duration:              {compiled.duration(calibration):.3f} us")
    print(f"  analytic success (20x): {compiled.success_probability(calibration):.4f}")
    search = compiled.seed_search
    if search is not None:
        tried = len(search["seeds"])
        print(f"  seed search:           {tried} seed(s), "
              f"chose seed {search['chosen_seed']}")
        for record in search["candidates"]:
            marker = "*" if record["seed"] == search["chosen_seed"] else " "
            print(f"    {marker} seed {record['seed']}: "
                  f"{record['cnots']} CNOTs, depth {record['depth']}, "
                  f"est. success {record['estimated_success']:.4f}"
                  + ("" if record["admissible"] else " (inadmissible)"))


def _run_serve(host: str, port: int, cache_mb: int, shards: int,
               pool_jobs: int, max_batch: int,
               timeout: Optional[float], retries: int) -> int:
    """The ``repro serve`` subcommand: run the compile service until shutdown."""
    import asyncio

    from ..runtime import FailurePolicy
    from ..service import CompileService, ShardedLRUCache
    from ..service.http import serve as serve_http

    cache = ShardedLRUCache(
        max_bytes=cache_mb * 1024 * 1024, shards=shards, name="compile"
    )
    service = CompileService(
        cache=cache,
        pool_jobs=pool_jobs,
        max_batch=max_batch,
        policy=FailurePolicy(timeout=timeout, retries=retries, on_error="skip"),
    )
    asyncio.run(serve_http(service, host=host, port=port))
    return 0


def _print_report(report, output_format: str) -> None:
    if output_format == "json":
        import json

        print(json.dumps(report.to_json(), indent=2))
        return
    print(f"[lint] {report.subject}: {report.summary()}")
    if report:
        print(report.to_table())


def _run_lint(paths: Sequence[str], benchmark: Optional[str], pipeline: str,
              topology: str, seed: int, optimization_level: int,
              output_format: str, suppress: Sequence[str],
              fig9_10: bool, no_target: bool) -> int:
    """The ``repro lint`` subcommand; returns the process exit code."""
    from ..analysis import CircuitLinter
    from ..circuits.qasm import from_qasm

    if not paths and benchmark is None and not fig9_10:
        print("nothing to lint: give QASM paths, --benchmark or --fig9-10",
              file=sys.stderr)
        return 2

    failed = False
    reports = []

    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            circuit = from_qasm(handle.read())
        target = None if no_target else by_name(topology)
        linter = CircuitLinter(target=target, suppress=suppress)
        reports.append(linter.lint(circuit, name=path))

    if benchmark is not None:
        result = transpile(
            get_benchmark(benchmark), by_name(topology), method=pipeline,
            seed=seed, optimization_level=optimization_level,
        )
        linter = CircuitLinter(suppress=suppress)
        reports.append(
            linter.lint(result, name=f"{benchmark}|{topology}|{pipeline}")
        )

    if fig9_10:
        # The Fig 9/10 sweep, cell for cell (same loop as
        # benchmarks/freeze_fig9_10_reference.py): every compiled output must
        # lint without error-severity findings.
        from ..bench_circuits import PAPER_BENCHMARKS

        linter = CircuitLinter(suppress=suppress)
        cells = skipped = 0
        for label, builder in PAPER_TOPOLOGIES.items():
            coupling_map = builder()
            for name in sorted(PAPER_BENCHMARKS):
                circuit = get_benchmark(name)
                if circuit.num_qubits > coupling_map.num_qubits:
                    skipped += 1
                    continue
                for method in ("baseline", "trios"):
                    result = transpile(
                        circuit, coupling_map, method=method, seed=seed,
                        optimization_level=optimization_level,
                    )
                    cells += 1
                    reports.append(
                        linter.lint(result, name=f"{label}|{name}|{method}")
                    )
        print(f"[lint] Fig 9/10 sweep: {cells} cells compiled and linted "
              f"({skipped} skipped: circuit wider than device)")

    for report in reports:
        _print_report(report, output_format)
        if report.has_errors:
            failed = True
    if len(reports) > 1 and output_format == "table":
        errors = sum(len(r.errors()) for r in reports)
        print(f"\n[lint] {len(reports)} subjects, {errors} error-severity "
              f"finding(s) -> {'FAIL' if failed else 'OK'}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_backends:
        _list_backends()
        return 0
    if args.command is None:
        parser.error("a subcommand is required (or --list-backends)")
    # --trace (or REPRO_TRACE) switches on the observability layer before any
    # compilation or sweep runs, so every span of the command lands in one
    # trace; the export and terminal summary happen in _finish_trace.
    trace_path = getattr(args, "trace", None) or obs.trace_path_from_env()
    if trace_path or obs.env_requests_tracing():
        obs.enable()
    code = _dispatch(args)
    _finish_trace(trace_path)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected subcommand; returns its exit code."""
    if args.command == "table1":
        _run_table1()
    elif args.command == "toffoli":
        _run_toffoli(args.triplets, args.shots, args.seed, args.sampler,
                     exact=args.exact, profile_passes=args.profile_passes,
                     jobs=args.jobs, timeout=args.timeout,
                     retries=args.retries, on_error=args.on_error)
    elif args.command == "benchmarks":
        _run_benchmarks(args.seed, args.backend, args.shots, args.jobs,
                        benchmarks=args.benchmarks, exact=args.exact,
                        profile_passes=args.profile_passes,
                        timeout=args.timeout, retries=args.retries,
                        on_error=args.on_error)
    elif args.command == "sensitivity":
        _run_sensitivity(args.factors, args.backend, args.shots, args.jobs,
                         exact=args.exact, profile_passes=args.profile_passes,
                         timeout=args.timeout, retries=args.retries,
                         on_error=args.on_error)
    elif args.command == "compile":
        _run_compile(args.benchmark, args.pipeline, args.topology, args.seed,
                     args.optimization_level, seed_trials=args.seed_trials)
    elif args.command == "serve":
        return _run_serve(args.host, args.port, args.cache_mb, args.shards,
                          args.pool_jobs, args.max_batch,
                          args.timeout, args.retries)
    elif args.command == "lint":
        return _run_lint(args.paths, args.benchmark, args.pipeline,
                         args.topology, args.seed, args.optimization_level,
                         args.output_format, tuple(args.suppress),
                         args.fig9_10, args.no_target)
    elif args.command == "all":
        _run_table1()
        print("\n")
        _run_toffoli(triplets=20, shots=1024, seed=0)
        print("\n")
        _run_benchmarks(seed=11)
        print("\n")
        _run_sensitivity([1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
