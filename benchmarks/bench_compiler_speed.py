"""Compilation-throughput benchmarks (not a paper figure).

Two halves:

* pytest-benchmark timings of both pipelines on representative Table 1
  benchmarks (Johannesburg), so regressions in overall compiler performance
  are visible, and
* a legacy-vs-new comparison of the stochastic router's path picker on
  routing-heavy grid cases.  The legacy picker (``_legacy_routing.py``)
  enumerates all tied shortest paths, whose number grows combinatorially with
  distance on a grid; the corner-alternating layouts below make every routed
  pair span ~the grid diameter, which is exactly the workload the cached
  predecessor-DAG sampler fixes.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_compiler_speed.py -q -s

or standalone (prints the comparison, asserts the >=5x speedup and writes the
``BENCH_compiler.json`` trajectory file)::

    PYTHONPATH=src python benchmarks/bench_compiler_speed.py
"""

import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_bench_json
from _legacy_routing import legacy_routers

from repro.bench_circuits import get_benchmark
from repro.compiler import transpile
from repro.hardware import johannesburg
from repro.hardware.library import grid

DEVICE = johannesburg()
CASES = ["cnx_dirty-11", "cuccaro_adder-20", "grovers-9", "qaoa_complete-10"]

#: Acceptance bar for the stochastic-routing grid cases: the fast path must
#: compile at least this many times faster than the frozen legacy enumeration.
SPEEDUP_BAR = 5.0


@pytest.mark.parametrize("name", CASES)
def test_compile_speed_baseline(benchmark, name):
    circuit = get_benchmark(name)
    result = benchmark(lambda: transpile(circuit, DEVICE, method="baseline", seed=0))
    assert result.two_qubit_gate_count > 0


@pytest.mark.parametrize("name", CASES)
def test_compile_speed_trios(benchmark, name):
    circuit = get_benchmark(name)
    result = benchmark(lambda: transpile(circuit, DEVICE, method="trios", seed=0))
    assert result.two_qubit_gate_count > 0


# ----------------------------------------------------------------------
# Stochastic routing on grids: legacy enumeration vs DAG sampling
# ----------------------------------------------------------------------
def corner_alternating_layout(num_logical: int, rows: int, cols: int) -> dict:
    """Pin logical 0 to one grid corner and its partners to alternating corners.

    Bernstein-Vazirani interacts qubit 0 with every other qubit in turn, so
    this layout forces every routed pair to span roughly the grid diameter —
    where the number of tied shortest paths (binomial in the distance) is at
    its combinatorial worst.
    """
    n = rows * cols
    by_corner0 = sorted(range(n), key=lambda q: (q // cols) + (q % cols))
    by_corner1 = sorted(
        range(n), key=lambda q: (rows - 1 - q // cols) + (cols - 1 - q % cols)
    )
    layout = {0: by_corner0[0]}
    used = {by_corner0[0]}
    for k in range(1, num_logical):
        ranked = by_corner1 if k % 2 else by_corner0
        physical = next(q for q in ranked if q not in used)
        layout[k] = physical
        used.add(physical)
    return layout


#: (label, benchmark, (rows, cols), asserted) — the asserted cases carry the
#: >=5x bar; the paper-topology case is informational (routing is a small
#: share of its compile time, so the path picker barely moves it).
ROUTING_CASES = [
    ("bv-20 @ full-grid-10x10 corners", "bv-20", (10, 10), True),
    ("bv-20 @ full-grid-12x12 corners", "bv-20", (12, 12), True),
    ("cuccaro_adder-20 @ full-grid-5x4 (paper)", "cuccaro_adder-20", (4, 5), False),
]


def _best_compile_seconds(circuit, coupling_map, layout, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = transpile(circuit, coupling_map, method="baseline", seed=5, layout=layout)
        best = min(best, time.perf_counter() - start)
        assert result.two_qubit_gate_count > 0
    return best


def measure_routing_cases():
    """Legacy-vs-new stochastic compile times for every routing case."""
    rows = []
    for label, name, dims, asserted in ROUTING_CASES:
        coupling_map = grid(*dims)
        circuit = get_benchmark(name)
        if dims == (4, 5):
            layout = "greedy"  # the paper sweep's own placement
            repeats = 3
        else:
            layout = corner_alternating_layout(circuit.num_qubits, *dims)
            repeats = 3 if dims[0] <= 10 else 2  # the legacy 12x12 run is slow
        new_seconds = _best_compile_seconds(circuit, coupling_map, layout, repeats)
        with legacy_routers():
            legacy_seconds = _best_compile_seconds(
                circuit, coupling_map, layout, repeats
            )
        rows.append({
            "case": label,
            "benchmark": name,
            "grid": f"{dims[1]}x{dims[0]}",
            "asserted": asserted,
            "legacy_seconds": legacy_seconds,
            "new_seconds": new_seconds,
            "speedup": legacy_seconds / new_seconds,
        })
    return rows


def pipeline_rates():
    """Compiles-per-second of both pipelines on the Johannesburg cases."""
    rates = {}
    for name in CASES:
        circuit = get_benchmark(name)
        for method in ("baseline", "trios"):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                transpile(circuit, DEVICE, method=method, seed=0)
                best = min(best, time.perf_counter() - start)
            rates[f"{method}/{name}"] = 1.0 / best
    return rates


def report(rows) -> str:
    lines = ["stochastic routing, legacy all-shortest-paths vs cached DAG sampling"]
    for row in rows:
        flag = "*" if row["asserted"] else " "
        lines.append(
            f" {flag} {row['case']:42s} legacy {row['legacy_seconds']*1000:9.1f} ms"
            f"  new {row['new_seconds']*1000:8.1f} ms  {row['speedup']:7.1f}x"
        )
    lines.append(" (* counted toward the >=5x acceptance geomean)")
    return "\n".join(lines)


def test_routing_fastpath_speedup():
    rows = measure_routing_cases()
    print("\n" + report(rows))
    asserted = [row["speedup"] for row in rows if row["asserted"]]
    geomean = math.exp(sum(math.log(s) for s in asserted) / len(asserted))
    print(f"  geomean speedup (asserted cases): {geomean:.1f}x")
    payload = {
        "workload": "stochastic-routing compile throughput, legacy vs DAG sampling",
        "cases": rows,
        "geomean_speedup": geomean,
        "speedup_bar": SPEEDUP_BAR,
        "pipeline_compiles_per_second": pipeline_rates(),
    }
    out = emit_bench_json(Path.cwd() / "BENCH_compiler.json", "compiler_speed", payload)
    print(f"  wrote {out}")
    assert geomean >= SPEEDUP_BAR, (
        f"routing fast path regressed: {geomean:.1f}x < {SPEEDUP_BAR}x"
    )


if __name__ == "__main__":
    test_routing_fastpath_speedup()
    print("ok")
