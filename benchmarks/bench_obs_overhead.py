"""Overhead guard for the observability layer (``repro.obs``).

Times the full Figure 9/10 compile sweep (all Table 1 benchmarks x the four
paper topologies x both pipelines, seed 11 — 88 cells) twice:

- **disabled** — telemetry off, the shipping default.  The bar is < 3%
  overhead.  A wall-clock delta between two multi-second sweeps is dominated
  by scheduler noise at the 3% scale, so the disabled overhead is instead
  *bounded* analytically: (cost of one no-op instrumentation event) x (events
  per sweep) / (sweep seconds).  The event cost is measured in a tight loop
  where it cannot hide, and the event count is taken from an enabled run's
  span buffer, so the bound is honest about how often the hooks fire.
- **enabled** — spans + metrics collected for every pass, simulator call and
  estimator call.  The bar is < 10% against the best disabled sweep,
  best-of-``REPEATS`` on both sides.

Both bars are hard ``assert``s; the measurements land in
``build/bench/BENCH_obs.json``::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _common import BENCH_DIR, emit_bench_json

from repro import obs
from repro.bench_circuits.suite import PAPER_BENCHMARKS, get_benchmark
from repro.compiler.pipeline import transpile
from repro.hardware.library import PAPER_TOPOLOGIES

SEED = 11
REPEATS = 3
DISABLED_BAR = 0.03
ENABLED_BAR = 0.10
#: One instrumentation event = a disabled ``span()`` entry/exit plus the
#: ``is_enabled()`` guard and a metrics-accessor lookup next to it.
PRIMITIVE_ITERATIONS = 200_000


def sweep() -> int:
    """The Figure 9/10 compile sweep; returns the number of cells compiled."""
    cells = 0
    for _label, builder in PAPER_TOPOLOGIES.items():
        coupling_map = builder()
        for name in PAPER_BENCHMARKS:
            circuit = get_benchmark(name)
            if circuit.num_qubits > coupling_map.num_qubits:
                continue
            for method in ("baseline", "trios"):
                transpile(circuit, coupling_map, method=method, seed=SEED)
                cells += 1
    return cells


def timed_sweep() -> "tuple[float, int]":
    start = time.perf_counter()
    cells = sweep()
    return time.perf_counter() - start, cells


def best_disabled_seconds() -> "tuple[float, int]":
    obs.disable()
    best = float("inf")
    cells = 0
    for _ in range(REPEATS):
        seconds, cells = timed_sweep()
        best = min(best, seconds)
    return best, cells


def best_enabled_seconds() -> "tuple[float, int]":
    best = float("inf")
    span_count = 0
    for _ in range(REPEATS):
        obs.disable()  # drop the previous repeat's buffers
        obs.enable()
        seconds, _ = timed_sweep()
        span_count = len(obs.trace_spans())
        best = min(best, seconds)
    obs.disable()
    return best, span_count


def noop_event_seconds() -> float:
    """Measured cost of one disabled instrumentation event."""
    obs.disable()
    start = time.perf_counter()
    for _ in range(PRIMITIVE_ITERATIONS):
        with obs.span("noop", category="bench"):
            if obs.is_enabled():
                obs.counter("bench.noop").inc()
    return (time.perf_counter() - start) / PRIMITIVE_ITERATIONS


def main() -> int:
    # A stray REPRO_TRACE would silently enable telemetry inside transpile()
    # and turn the "disabled" baseline into an enabled run.
    os.environ.pop(obs.TRACE_ENV_VAR, None)
    sweep()  # warm caches (benchmark construction, imports) outside the clock

    event_cost = noop_event_seconds()
    disabled_seconds, cells = best_disabled_seconds()
    enabled_seconds, spans_per_sweep = best_enabled_seconds()

    enabled_overhead = enabled_seconds / disabled_seconds - 1.0
    # Disabled bound: every span in an enabled sweep corresponds to one no-op
    # event on the disabled path (guarded counters/histograms fire only when
    # enabled, so spans over-count the disabled work if anything).
    disabled_overhead = event_cost * spans_per_sweep / disabled_seconds

    print(f"cells per sweep:            {cells}")
    print(f"spans per enabled sweep:    {spans_per_sweep}")
    print(f"no-op event cost:           {event_cost * 1e9:.0f} ns")
    print(f"disabled sweep (best of {REPEATS}): {disabled_seconds:.3f} s")
    print(f"enabled sweep  (best of {REPEATS}): {enabled_seconds:.3f} s")
    print(f"disabled overhead (bound):  {disabled_overhead:.4%}  (bar {DISABLED_BAR:.0%})")
    print(f"enabled overhead:           {enabled_overhead:+.2%}  (bar {ENABLED_BAR:.0%})")

    assert disabled_overhead < DISABLED_BAR, (
        f"disabled-path overhead bound {disabled_overhead:.4%} exceeds "
        f"{DISABLED_BAR:.0%}: the no-op fast path regressed"
    )
    assert enabled_overhead < ENABLED_BAR, (
        f"enabled tracing overhead {enabled_overhead:.2%} exceeds "
        f"{ENABLED_BAR:.0%} on the Fig 9/10 compile sweep"
    )

    out = emit_bench_json(
        BENCH_DIR / "BENCH_obs.json",
        "obs_overhead",
        {
            "cells": cells,
            "repeats": REPEATS,
            "spans_per_sweep": spans_per_sweep,
            "noop_event_seconds": event_cost,
            "disabled_seconds": disabled_seconds,
            "enabled_seconds": enabled_seconds,
            "disabled_overhead_bound": disabled_overhead,
            "disabled_bar": DISABLED_BAR,
            "enabled_overhead": enabled_overhead,
            "enabled_bar": ENABLED_BAR,
        },
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
