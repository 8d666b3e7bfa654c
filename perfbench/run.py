"""The repository benchmark: three workloads, end-to-end and per layer.

Run one workload (the last line of stdout is the JSON result)::

    python3 perfbench/run.py --workload fig9_10_compile --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` rotates untraced, obs-only and traced epochs and prints
per-layer self times from the traced ones, plus the tracing overhead.  ``--workload all``
runs the three workloads one after another, each in its own process, and
exits non-zero if any output check fails.  ``--quick`` shrinks every input
so the whole thing takes seconds (the self-tests use it).  See README.md in
this directory for what each workload and metric means.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Sequence, Tuple  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig9_10_compile", "toffoli_exact_ptm", "serve_zipf")
#: Environment variables that would change what the program does or measure
#: tracing instead of the program: fault injection, contract validation.
PROGRAM_ENV = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_VALIDATE")
#: Set-ups per run (this process plus fresh child processes); setup_s is
#: their median, because one cold import varies by a quarter.
SETUP_REPEATS = 7
#: Reference kernel runs, in this process, before and after each set-up;
#: their median puts the set-up at reference speed.
SETUP_KERNEL_RUNS = 8
#: Files outside this directory the benchmark needs from the checkout.
REQUIRED = (
    Path("src") / "repro" / "__init__.py",
    Path("tests") / "data" / "fig9_10_compiled_sha256.json",
    Path("benchmarks") / "freeze_fig9_10_reference.py",
    Path("benchmarks") / "_common.py",
)

#: Pass classes reported one by one; any other pass lands in passes.other.
PASSES = (
    "DecomposeToBasisPass",
    "GreedyInteractionLayoutPass",
    "FixedLayoutPass",
    "GreedySwapRouter",
    "TriosRouter",
    "ToffoliDecomposePass",
    "MappingAwareToffoliDecomposePass",
    "LegalizationRouter",
    "DecomposeSwapsPass",
    "CancelAdjacentInversesPass",
    "Consolidate1qRunsPass",
    "RemoveIdentitiesPass",
    "CommutativeCancellationPass",
)

#: (metric, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("units_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("correct_pct", "%", "higher"),
    ("cnot_reduction_pct", "%", "higher"),
    ("success_ratio_geomean", "ratio", "higher"),
)

#: Painted layer → per-layer metric name (self time per unit of work).
SELF_TIME_METRICS = (
    ("compiler", "compiler.self_ms"),
    ("compiler.seed_search", "compiler.seed_search_ms"),
    ("sim.estimator", "sim.estimator.ms"),
    ("sim.ptm", "sim.ptm.run_ms"),
    ("sim.other", "sim.other_ms"),
    ("sim.backend_setup", "sim.backend_setup_ms"),
    ("circuits.qasm.parse", "circuits.qasm.parse_ms"),
    ("circuits.qasm.render", "circuits.qasm.render_ms"),
    ("service.jobs.key", "service.jobs.key_ms"),
    ("service.cache", "service.cache.ms"),
    ("service", "service.self_ms"),
    ("service.http", "service.http.overhead_ms"),
    ("runtime", "runtime.overhead_ms"),
    ("experiments", "experiments.self_ms"),
    ("bench.harness", "bench.harness_ms"),
    ("unattributed", "unattributed_ms"),
)


def _per_layer_names() -> List[Tuple[str, str, str]]:
    """(metric, unit, better) of every per-layer metric, in report order."""
    names = [("layers.wall_ms", "ms/unit", "lower"), ("layers.attributed_pct", "%", "higher")]
    names += [(metric, "ms/unit", "lower") for _, metric in SELF_TIME_METRICS]
    for pass_name in PASSES:
        names.append((f"passes.{pass_name}.self_ms", "ms/unit", "lower"))
        names.append((f"passes.{pass_name}.calls", "1/unit", "lower"))
    names += [
        ("passes.other.self_ms", "ms/unit", "lower"),
        ("passes.fixedpoint_iterations", "1/unit", "lower"),
    ]
    for method in ("baseline", "trios"):
        for level in (1, 2, 3):
            names.append((f"compiler.transpile_ms.{method}.l{level}", "ms/call", "lower"))
    names += [
        ("sim.estimator.calls", "1/unit", "lower"),
        ("sim.ptm.op_applications", "1/unit", "lower"),
        ("sim.ptm.fused_ops_saved", "1/unit", "higher"),
        ("sim.ptm.peak_bytes", "bytes", "lower"),
        ("service.cache.get_us", "us/call", "lower"),
        ("service.cache.put_us", "us/call", "lower"),
        ("service.cache.hit_ratio", "ratio", "higher"),
        ("service.cache.evictions", "1/unit", "lower"),
        ("service.queue_ms", "ms/call", "lower"),
        ("service.batches", "1/unit", "lower"),
        ("service.coalesced", "1/unit", "higher"),
        ("runtime.retries", "1/unit", "lower"),
        ("obs.trace_overhead_pct", "%", "lower"),
    ]
    return names


PER_LAYER = tuple(_per_layer_names())


def use_checkout() -> None:
    """Import the program from this checkout's ``src`` (never an installed copy)."""
    for path in (HERE, ROOT / "benchmarks", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def program_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
@dataclass
class TracedEpoch:
    epoch: object
    window: Tuple[float, float]
    intervals: list
    metrics: Dict[str, Dict[str, float]]
    extras: Dict[str, float]


def setups_at_reference_speed(args: argparse.Namespace, own: float) -> List[Tuple[float, float]]:
    """(at reference speed, as timed) of this process's set-up and of the
    fresh children's.

    The kernel runs here, in the warmed-up measuring process: timed inside
    a fresh interpreter, its own time swung with the process's state and
    doubled the set-ups' spread.
    """
    from measure import median, scale_to_reference

    setups = [(scale_to_reference(own, median(reference.samples(SETUP_KERNEL_RUNS))), own)]
    for _ in range(0 if args.quick else SETUP_REPEATS - 1):
        before = reference.samples(SETUP_KERNEL_RUNS)
        seconds = child_setup_seconds(args)
        speed = median(before + reference.samples(SETUP_KERNEL_RUNS))
        setups.append((scale_to_reference(seconds, speed), seconds))
    return setups


def child_setup_seconds(args: argparse.Namespace) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=170, env=program_env()
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_untraced(workload, seconds: float, min_epochs: int):
    from measure import peak_rss_mb

    workload.warmup()
    epochs = []
    start = time.perf_counter()
    while len(epochs) < min_epochs or time.perf_counter() - start < seconds:
        epochs.append(workload.run_epoch(len(epochs)))
    return epochs, peak_rss_mb()


def run_traced(workload, seconds: float, min_epochs: int):
    """Untraced, obs-only and traced epochs take turns, so all see the same
    machine.  Obs-only epochs turn on :mod:`repro.obs` without the
    benchmark's probe wrappers; they measure the program's tracing overhead.
    Traced epochs add the wrappers and give the per-layer figures."""
    from repro import obs

    from layers import Probe, intervals_from_trace

    workload.warmup()
    untraced, obs_only, traced = [], [], []
    start = time.perf_counter()
    index = 0
    while index < 3 * min_epochs or time.perf_counter() - start < seconds:
        if index % 3 == 0:
            untraced.append(workload.run_epoch(index))
        elif index % 3 == 1:
            obs.enable()
            try:
                obs_only.append(workload.run_epoch(index))
            finally:
                obs.disable()
        else:
            probe = Probe(workload.loop_thread)
            obs.enable()
            try:
                workload.instrument(probe)
                window_start = obs.now()
                epoch = workload.run_epoch(index, probe)
                window = (window_start, obs.now())
            finally:
                probe.unpatch()
            traced.append(
                TracedEpoch(
                    epoch, window, intervals_from_trace(obs.trace_spans()) + probe.records,
                    obs.metrics_summary(), workload.layer_extras(),
                )
            )
            obs.disable()
        index += 1
    return untraced, obs_only, traced


def end_to_end_metrics(workload, setups, epochs, rss, outputs, min_epochs):
    """The end-to-end metrics; the times in them are at reference speed."""
    from measure import LatencyLog, median

    log = LatencyLog(workload.epoch_units * min_epochs)
    raw = LatencyLog(workload.epoch_units * min_epochs)
    for epoch in epochs:
        log.extend(epoch.scaled_latencies)
        raw.extend(epoch.latencies)
    attempted = sum(epoch.units for epoch in epochs) + workload.warmup_units
    failed = sum(epoch.failed for epoch in epochs) + outputs.failed
    values = {
        "setup_s": median([scaled for scaled, _ in setups]),
        "units_per_s": median([epoch.units / epoch.scaled_seconds for epoch in epochs]),
        "latency_p50_ms": log.p50_ms(),
        "latency_tail_ms": log.tail_ms(),
        "peak_rss_mb": rss,
        "correct_pct": 100.0 * (attempted - failed) / attempted,
        "cnot_reduction_pct": outputs.cnot_reduction_pct,
        "success_ratio_geomean": outputs.success_ratio_geomean,
    }
    deciles = statistics.quantiles([t for epoch in epochs for t in epoch.kernel_times], n=10)
    notes = [
        f"epochs: {len(epochs)} of {workload.epoch_units} units, seconds "
        + " ".join(f"{epoch.seconds:.3f}" for epoch in epochs)
        + ", at reference speed "
        + " ".join(f"{epoch.scaled_seconds:.3f}" for epoch in epochs),
        "reference kernel ms p10/p50/p90 "
        + " ".join(f"{1e3 * deciles[i]:.3f}" for i in (0, 4, 8))
        + f" (nominal {1e3 * reference.NOMINAL_S:.3f})",
        "measured as timed: units_per_s "
        f"{median([epoch.units / epoch.seconds for epoch in epochs]):.4f}, "
        f"latency_p50_ms {raw.p50_ms():.4f}, latency_tail_ms {raw.tail_ms():.4f}",
        f"latency_tail_ms is p{log.tail_q:g} of {log.samples.count} samples",
        f"failed_pct {100.0 * failed / attempted:.3f} ({failed} of {attempted} units)",
        "setup_s samples at reference speed " + " ".join(f"{s:.3f}" for s, _ in setups)
        + ", as timed " + " ".join(f"{s:.3f}" for _, s in setups),
    ]
    return values, attempted, failed, notes


def per_layer_metrics(untraced, obs_only, traced) -> Dict[str, float]:
    """Per-layer metrics over the traced epochs (see README.md)."""
    from layers import paint
    from measure import median

    units = sum(t.epoch.units for t in traced)
    wall = sum(t.window[1] - t.window[0] for t in traced)
    totals: Dict[str, float] = defaultdict(float)
    pass_calls: Counter = Counter()
    durations: Dict[str, List[float]] = defaultdict(list)
    counts: Counter = Counter()
    peak_bytes = 0.0
    for t in traced:
        for layer, seconds in paint(t.intervals, t.window).items():
            totals[layer] += seconds
        for interval in t.intervals:
            duration = interval.end - interval.start
            if interval.layer.startswith("passes."):
                pass_calls[interval.layer[len("passes."):]] += 1
            elif interval.name in ("cache.get", "cache.put"):
                durations[interval.name].append(duration)
            elif interval.name == "transpile" and "optimization_level" in interval.attrs:
                method = str(interval.attrs.get("method", "")).split("-")[0]
                level = interval.attrs["optimization_level"]
                durations[f"compiler.transpile_ms.{method}.l{level}"].append(duration)
            elif interval.name == "cell" and int(interval.attrs.get("attempt", 1)) > 1:
                counts["retries"] += 1
        for name in ("sim.estimator.calls", "sim.ptm.op_applications", "sim.ptm.fused_ops_saved"):
            counts[name] += t.metrics.get(name, {}).get("count", 0.0)
        peak_bytes = max(peak_bytes, t.metrics.get("sim.ptm.peak_bytes", {}).get("max", 0.0))
        counts.update(t.extras)

    def per_unit_ms(seconds: float) -> float:
        return 1e3 * seconds / units

    def mean(values: Sequence[float], scale: float) -> float:
        return scale * sum(values) / len(values) if values else 0.0

    out: Dict[str, float] = {
        "layers.wall_ms": per_unit_ms(wall),
        "layers.attributed_pct": 100.0 * (wall - totals.get("unattributed", 0.0)) / wall,
    }
    for layer, metric in SELF_TIME_METRICS:
        out[metric] = per_unit_ms(totals.get(layer, 0.0))
    for pass_name in PASSES:
        out[f"passes.{pass_name}.self_ms"] = per_unit_ms(totals.get(f"passes.{pass_name}", 0.0))
        out[f"passes.{pass_name}.calls"] = pass_calls[pass_name] / units
    out["passes.other.self_ms"] = per_unit_ms(
        sum(
            seconds for layer, seconds in totals.items()
            if layer.startswith("passes.") and layer[len("passes."):] not in PASSES
        )
    )
    out["passes.fixedpoint_iterations"] = counts["fixedpoint_iterations"] / units
    for method in ("baseline", "trios"):
        for level in (1, 2, 3):
            name = f"compiler.transpile_ms.{method}.l{level}"
            out[name] = mean(durations[name], 1e3)
    out["sim.estimator.calls"] = counts["sim.estimator.calls"] / units
    out["sim.ptm.op_applications"] = counts["sim.ptm.op_applications"] / units
    out["sim.ptm.fused_ops_saved"] = counts["sim.ptm.fused_ops_saved"] / units
    out["sim.ptm.peak_bytes"] = peak_bytes
    out["service.cache.get_us"] = mean(durations["cache.get"], 1e6)
    out["service.cache.put_us"] = mean(durations["cache.put"], 1e6)
    lookups = counts["cache_lookups"]
    out["service.cache.hit_ratio"] = counts["cache_hits"] / lookups if lookups else 0.0
    out["service.cache.evictions"] = counts["cache_evictions"] / units
    queued = counts["queued_misses"]
    out["service.queue_ms"] = 1e3 * counts["queue_seconds"] / queued if queued else 0.0
    out["service.batches"] = counts["batches"] / units
    out["service.coalesced"] = counts["coalesced"] / units
    out["runtime.retries"] = counts["retries"] / units
    cost = [epoch.scaled_seconds / epoch.units for epoch in obs_only]
    base = [epoch.scaled_seconds / epoch.units for epoch in untraced]
    out["obs.trace_overhead_pct"] = 100.0 * (median(cost) / median(base) - 1.0)
    return out


def run_workload(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick, ROOT)
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": own_setup}))
        return 0
    from measure import fingerprint
    from _common import bench_metadata

    min_epochs = 2 if args.quick else workload.min_epochs
    try:
        setups = setups_at_reference_speed(args, own_setup)
        workload.prepare()
        if args.trace:
            untraced, obs_only, traced = run_traced(workload, args.seconds, 2)
        else:
            epochs, rss = run_untraced(workload, args.seconds, min_epochs)
        outputs = workload.finish()
    finally:
        workload.close()

    print("# machine " + json.dumps(fingerprint(bench_metadata(args.workload))))
    if args.trace:
        epochs = untraced + obs_only + [t.epoch for t in traced]
        attempted = sum(epoch.units for epoch in epochs) + workload.warmup_units
        failed = sum(epoch.failed for epoch in epochs) + outputs.failed
        values = per_layer_metrics(untraced, obs_only, traced)
        catalogue = PER_LAYER
        notes = [
            f"epochs: {len(untraced)} untraced, {len(obs_only)} obs-only, "
            f"{len(traced)} traced"
        ]
    else:
        values, attempted, failed, notes = end_to_end_metrics(
            workload, setups, epochs, rss, outputs, min_epochs
        )
        catalogue = END_TO_END
    for note in notes + outputs.notes:
        print(f"# {args.workload}: {note}")
    metrics = {}
    for name, unit, _ in catalogue:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload:18s} {name:44s} {values[name]:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# All workloads
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])
        proc = subprocess.run(command, capture_output=True, text=True, env=program_env())
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
        else:
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = 1
    print()
    print("metric".ljust(28) + "".join(name.rjust(22) for name in WORKLOAD_NAMES) + "  unit")
    catalogue = PER_LAYER if args.trace else END_TO_END
    for metric, unit, _ in catalogue:
        row = metric.ljust(28)
        for name in WORKLOAD_NAMES:
            value = results[name]["metrics"].get(metric, {}).get("value")
            row += (f"{value:22.4f}" if value is not None else "-".rjust(22))
        print(row + f"  {unit}")
    print(json.dumps(results))
    return status


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(path) for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the program; missing {missing}", file=sys.stderr)
        return 2
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    use_checkout()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
