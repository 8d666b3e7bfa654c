"""Fault-tolerant runtime benchmark: overhead and crash-sweep survival.

Two claims, both asserted:

* **Overhead**: on a fault-free 88-cell sweep the :class:`repro.runtime.
  CellRunner` costs less than 5% wall-clock over a bare
  ``ProcessPoolExecutor`` running the identical payloads — the retry
  machinery, fault-plan plumbing and bounded-submission bookkeeping are
  effectively free when nothing goes wrong.
* **Survival**: the same 88-cell sweep with deterministically injected worker
  crashes (one transient, one persistent) still completes; every surviving
  cell's value equals the fault-free serial run's, and the lost cell is
  reported as a structured failure record instead of an exception.

Run it alone with::

    PYTHONPATH=src python -m pytest benchmarks/bench_runtime.py -q -s

(collected after a module that imports numpy, the BLAS pin below comes too
late), or standalone (prints the comparison, asserts both bars and writes
the ``build/bench/BENCH_runtime.json`` trajectory file with the failure
records)::

    PYTHONPATH=src python benchmarks/bench_runtime.py
"""

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# One BLAS thread per process, in both arms.  The pin must precede numpy's
# first import (it does when the script runs standalone): with BLAS's default
# thread pool, four workers' matrix products oversubscribe the cores, and the
# overhead bar then measures that contention instead of the runner.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import BENCH_DIR, emit_bench_json

import numpy as np

from repro.runtime import (
    CellRunner,
    FailurePolicy,
    Fault,
    FaultPlan,
    failure_records,
)

#: Cells per sweep — matches the paper sweep's scale (Figures 9-11 compile
#: 22 benchmark/topology pairs x 4 seeds' worth of work in its largest runs).
NUM_CELLS = 88
JOBS = 4
REPEATS = 3

#: Acceptance bar: fault-free runner wall-clock over the bare pool.
OVERHEAD_BAR = 1.05


#: Products per cell: about 30 ms of single-threaded work (2 CPUs, OpenBLAS).
CELL_PRODUCTS = 280


def simulation_cell(payload):
    """A deterministic ~30ms stand-in for one experiment cell.

    Seeded dense linear algebra: the same payload always produces the same
    float, so survivor values can be compared bit-for-bit across runs.
    """
    rng = np.random.default_rng(payload)
    matrix = rng.standard_normal((110, 110))
    for _ in range(CELL_PRODUCTS):
        matrix = np.tanh(matrix @ matrix.T / 110.0)
    return float(matrix.sum())


PAYLOADS = list(range(NUM_CELLS))


def bare_pool_seconds() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=JOBS) as pool:
            values = list(pool.map(simulation_cell, PAYLOADS))
        best = min(best, time.perf_counter() - start)
        assert len(values) == NUM_CELLS
    return best


def runner_seconds() -> float:
    best = float("inf")
    runner = CellRunner(jobs=JOBS, policy=FailurePolicy(timeout=120.0), faults=None)
    for _ in range(REPEATS):
        start = time.perf_counter()
        records = runner.run(PAYLOADS, simulation_cell)
        best = min(best, time.perf_counter() - start)
        assert all(record.ok for record in records)
    return best


def crash_sweep():
    """The 88-cell sweep with injected crashes; returns (records, failures)."""
    plan = FaultPlan.of({
        13: [Fault("crash", attempts=(1,))],   # transient: healed by retry
        55: [Fault("crash")],                  # persistent: reported, not raised
    })
    runner = CellRunner(
        jobs=JOBS,
        policy=FailurePolicy(retries=3, on_error="skip", backoff_base=0.01),
        faults=plan,
    )
    records = runner.run(PAYLOADS, simulation_cell)
    labels = [f"cell-{index}" for index in range(NUM_CELLS)]
    return records, failure_records(records, labels)


def test_runtime_overhead_and_crash_survival():
    import warnings

    bare = bare_pool_seconds()
    runner = runner_seconds()
    overhead = runner / bare
    print(f"\nfault-free {NUM_CELLS}-cell sweep, {JOBS} workers, best of {REPEATS}")
    print(f"  bare ProcessPoolExecutor : {bare * 1000:8.1f} ms")
    print(f"  CellRunner               : {runner * 1000:8.1f} ms")
    print(f"  overhead                 : {(overhead - 1) * 100:+7.2f}%  "
          f"(bar: <{(OVERHEAD_BAR - 1) * 100:.0f}%)")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # expected crash warnings
        records, failures = crash_sweep()
    reference = {index: simulation_cell(index) for index in PAYLOADS}
    survivors = [record for record in records if record.ok]
    mismatches = [
        record.index for record in survivors
        if record.value != reference[record.index]
    ]
    print(f"crash sweep: {len(survivors)}/{NUM_CELLS} cells survived, "
          f"{len(failures)} reported as failure records")
    for failure in failures:
        print(f"  {failure.label}: {failure.status} after "
              f"{failure.attempts} attempt(s)")

    payload = {
        "workload": f"{NUM_CELLS}-cell sweep, {JOBS} workers",
        "bare_pool_seconds": bare,
        "runner_seconds": runner,
        "overhead_ratio": overhead,
        "overhead_bar": OVERHEAD_BAR,
        "crash_sweep": {
            "survivors": len(survivors),
            "value_mismatches": mismatches,
            "failures": [
                {
                    "cell": failure.label,
                    "status": failure.status,
                    "attempts": failure.attempts,
                    "error": failure.error,
                }
                for failure in failures
            ],
        },
    }
    out = emit_bench_json(BENCH_DIR / "BENCH_runtime.json", "runtime", payload)
    print(f"  wrote {out}")

    assert overhead < OVERHEAD_BAR, (
        f"fault-free runtime overhead regressed: {(overhead - 1) * 100:.1f}% "
        f">= {(OVERHEAD_BAR - 1) * 100:.0f}%"
    )
    assert not mismatches, (
        f"survivor values diverged from the fault-free run: cells {mismatches}"
    )
    # Cell 55 crashes on every attempt, so it must be the single loss;
    # cell 13's single crash must have healed through a retry.
    assert [failure.label for failure in failures] == ["cell-55"]
    assert failures[0].status == "crashed"
    assert records[13].ok and records[13].attempts >= 2


if __name__ == "__main__":
    test_runtime_overhead_and_crash_survival()
    print("ok")
