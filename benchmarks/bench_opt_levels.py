"""Optimization level 3 vs level 2 on the Figure 9/10 benchmark suite.

For every (topology, benchmark, pipeline) cell of the paper's sweep this
compiles at ``optimization_level=2`` and ``optimization_level=3`` (the
commutation-aware cancellation loop plus the multi-seed layout/routing
search) and asserts the level-3 contract cell by cell:

* **never worse** — level 3 matches or reduces both the CNOT count and the
  depth of level 2 on *every* cell (the search's admissibility guard makes
  this a hard guarantee, and this benchmark is the regression net for it);
* **still correct** — the level-3 output is machine-verified against the
  logical circuit with the `repro.sim.equivalence` harness
  (:func:`routed_circuits_equivalent`, layouts included) on every cell whose
  active wire count fits the dense statevector check; cells too wide to
  verify are counted and listed, never silently skipped.

Run standalone (prints the per-cell table, asserts the contract, writes the
``build/bench/BENCH_opt.json`` trajectory file consumed by CI)::

    PYTHONPATH=src python benchmarks/bench_opt_levels.py [--jobs N] [--quick]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import BENCH_DIR, emit_bench_json

from repro.bench_circuits.suite import PAPER_BENCHMARKS, get_benchmark
from repro.compiler.pipeline import transpile
from repro.exceptions import SimulationError
from repro.hardware.library import PAPER_TOPOLOGIES
from repro.sim.equivalence import routed_circuits_equivalent

SEED = 11
METHODS = ("baseline", "trios")
#: Cells with more active device wires than this skip the statevector
#: equivalence check (the dense state would not fit); they are reported.
MAX_VERIFY_WIRES = 16
FIDELITY_FLOOR = 1.0 - 1e-7

QUICK_BENCHMARKS = ("cnx_inplace-4", "grovers-9", "cnx_dirty-11")


def run_cell(label, coupling_map, name, circuit, method, jobs):
    start = time.perf_counter()
    level2 = transpile(circuit, coupling_map, method=method, seed=SEED,
                       optimization_level=2)
    level3 = transpile(circuit, coupling_map, method=method, seed=SEED,
                       optimization_level=3, jobs=jobs)
    seconds = time.perf_counter() - start
    verified = None
    try:
        fidelity = routed_circuits_equivalent(
            circuit,
            level3.circuit,
            level3.initial_layout.to_dict(),
            level3.final_layout.to_dict(),
            trials=1,
            max_active=MAX_VERIFY_WIRES,
            fidelity_floor=FIDELITY_FLOOR,
        )
        verified = bool(fidelity >= FIDELITY_FLOOR)
    except SimulationError:
        pass  # too many active wires for the dense check; recorded as skipped
    return {
        "topology": label,
        "benchmark": name,
        "method": method,
        "level2_cnots": level2.two_qubit_gate_count,
        "level3_cnots": level3.two_qubit_gate_count,
        "level2_depth": level2.depth,
        "level3_depth": level3.depth,
        "chosen_seed": level3.seed_search["chosen_seed"],
        "equivalence_verified": verified,
        "seconds": seconds,
    }


def geomean(values):
    values = [max(v, 1e-12) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for each cell's level-3 seed "
                             "search (results are identical to --jobs 1)")
    parser.add_argument("--quick", action="store_true",
                        help=f"restrict to {', '.join(QUICK_BENCHMARKS)}")
    args = parser.parse_args(argv)

    benchmarks = QUICK_BENCHMARKS if args.quick else tuple(PAPER_BENCHMARKS)
    circuits = {name: get_benchmark(name) for name in benchmarks}
    rows = []
    print("[bench_opt_levels] optimization_level 3 vs 2, "
          f"Figure 9/10 suite (seed {SEED})\n")
    header = (f"{'topology':18s} {'benchmark':18s} {'method':9s} "
              f"{'CNOTs 2->3':>12s} {'depth 2->3':>12s} {'eq':>4s}")
    print(header)
    print("-" * len(header))
    for label, builder in PAPER_TOPOLOGIES.items():
        coupling_map = builder()
        for name in benchmarks:
            circuit = circuits[name]
            if circuit.num_qubits > coupling_map.num_qubits:
                continue
            for method in METHODS:
                row = run_cell(label, coupling_map, name, circuit, method,
                               args.jobs)
                rows.append(row)
                eq = {True: "ok", False: "FAIL", None: "skip"}[
                    row["equivalence_verified"]
                ]
                print(f"{label:18s} {name:18s} {method:9s} "
                      f"{row['level2_cnots']:5d} ->{row['level3_cnots']:5d} "
                      f"{row['level2_depth']:5d} ->{row['level3_depth']:5d} "
                      f"{eq:>4s}")

    # ------------------------------------------------------------------
    # Aggregates and the acceptance contract
    # ------------------------------------------------------------------
    regressions = [
        r for r in rows
        if r["level3_cnots"] > r["level2_cnots"]
        or r["level3_depth"] > r["level2_depth"]
    ]
    broken = [r for r in rows if r["equivalence_verified"] is False]
    verified = [r for r in rows if r["equivalence_verified"] is True]
    skipped = [r for r in rows if r["equivalence_verified"] is None]
    improved = [
        r for r in rows
        if r["level3_cnots"] < r["level2_cnots"]
        or r["level3_depth"] < r["level2_depth"]
    ]
    cnot_ratio = geomean(
        [max(r["level3_cnots"], 1) / max(r["level2_cnots"], 1) for r in rows]
    )
    depth_ratio = geomean(
        [max(r["level3_depth"], 1) / max(r["level2_depth"], 1) for r in rows]
    )
    print(f"\n  cells: {len(rows)}  improved: {len(improved)}  "
          f"geomean CNOT ratio: {cnot_ratio:.4f}  "
          f"geomean depth ratio: {depth_ratio:.4f}")
    print(f"  equivalence verified: {len(verified)}  "
          f"skipped (> {MAX_VERIFY_WIRES} active wires): {len(skipped)}")
    if skipped:
        names = sorted({f"{r['benchmark']}@{r['topology']}" for r in skipped})
        print(f"    skipped cells: {', '.join(names)}")

    payload = {
        "seed": SEED,
        "quick": args.quick,
        "cells": rows,
        "geomean_cnot_ratio": cnot_ratio,
        "geomean_depth_ratio": depth_ratio,
        "improved_cells": len(improved),
        "verified_cells": len(verified),
        "skipped_verification_cells": len(skipped),
    }
    out = emit_bench_json(BENCH_DIR / "BENCH_opt.json", "opt_levels", payload)
    print(f"\n  wrote {out}")

    assert not regressions, (
        "level 3 regressed CNOTs or depth vs level 2 on: "
        + ", ".join(f"{r['benchmark']}@{r['topology']}/{r['method']}"
                    for r in regressions)
    )
    assert not broken, (
        "level 3 broke unitary equivalence on: "
        + ", ".join(f"{r['benchmark']}@{r['topology']}/{r['method']}"
                    for r in broken)
    )
    assert verified, "no cell was equivalence-verified; the harness is dead"
    print("  level-3 contract holds: no cell regressed, all verifiable "
          "cells equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
