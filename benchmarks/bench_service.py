"""Throughput and latency of the compile service under a mixed request mix.

The workload is the Figure 9/10 compile stream the repo pins byte-exactly:
[cnx_inplace-4, grovers-9] x [line-20, full-grid-5x4] x [baseline, trios]
at seed 11 — 8 unique content keys — driven through one in-process
:class:`repro.service.CompileService` in three phases:

* **cold**   — every unique key once against an empty cache (all misses);
* **warm**   — the same stream repeated: every request is a cache hit;
* **duplicates** — the cache cleared, then every key submitted
  ``DUPLICATES`` times *concurrently*, so the coalescer (not the cache)
  must absorb the fan-in.

Latency comes from the service's own request-level telemetry — the
``service.request`` spans :mod:`repro.obs` records for every request are
sliced per phase and reused verbatim (and embedded in the output payload),
so the benchmark measures exactly what a trace of production traffic would
show.  Two hard acceptance bars:

* warm-cache p50 latency is at least ``REQUIRED_WARM_SPEEDUP``x (50x)
  better than cold p50;
* the duplicate-heavy phase costs at most **one pool compile per unique
  key** — coalescing plus caching never recompiles a key within a phase.

Every cold response is additionally re-hashed against the frozen Fig 9/10
sha256 reference, so throughput can never come from a semantics drift.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q -s

or standalone (prints the table, writes BENCH_service.json)::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

import asyncio
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_bench_json

from repro import obs
from repro.bench_circuits.suite import get_benchmark
from repro.circuits.qasm import from_qasm, to_qasm
from repro.service import CompileRequest, CompileService

#: Hard acceptance bar: warm p50 must beat cold p50 by at least this factor.
REQUIRED_WARM_SPEEDUP = 50.0
#: Concurrent submissions per unique key in the duplicate-heavy phase.
DUPLICATES = 6
SEED = 11

BENCHMARKS = ("cnx_inplace-4", "grovers-9")
TOPOLOGIES = ("line-20", "full-grid-5x4")
METHODS = ("baseline", "trios")

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"
REFERENCE = (
    Path(__file__).resolve().parent.parent
    / "tests" / "data" / "fig9_10_compiled_sha256.json"
)


def canonical_bytes(circuit) -> str:
    """Same canonical form the frozen-reference freezer hashes."""
    lines = [f"{circuit.num_qubits}"]
    for inst in circuit.instructions:
        params = ",".join(float(p).hex() for p in inst.gate.params)
        qubits = ",".join(map(str, inst.qubits))
        clbits = ",".join(map(str, inst.clbits))
        lines.append(f"{inst.name}({params}) q{qubits} c{clbits}")
    return "\n".join(lines)


def request_mix():
    """The 8-unique-key Fig 9/10 mix: (reference_key, CompileRequest)."""
    mix = []
    for benchmark in BENCHMARKS:
        qasm = to_qasm(get_benchmark(benchmark))
        for topology in TOPOLOGIES:
            for method in METHODS:
                mix.append((
                    f"{topology}|{benchmark}|{method}",
                    CompileRequest(
                        qasm=qasm, target=topology, method=method,
                        options={"seed": SEED},
                    ),
                ))
    return mix


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def request_spans():
    return [s for s in obs.trace_spans() if s.name == "service.request"]


def phase_summary(name, spans, wall_seconds):
    """p50/p99/throughput for one phase, from its request spans verbatim."""
    latencies_ms = [s.duration * 1000.0 for s in spans]
    statuses = {}
    for span in spans:
        status = span.attrs.get("status", "?")
        statuses[status] = statuses.get(status, 0) + 1
    return {
        "phase": name,
        "requests": len(spans),
        "statuses": statuses,
        "wall_seconds": wall_seconds,
        "compiles_per_second": len(spans) / wall_seconds if wall_seconds else 0.0,
        "p50_ms": percentile(latencies_ms, 0.50),
        "p99_ms": percentile(latencies_ms, 0.99),
    }


async def drive(service) -> dict:
    mix = request_mix()
    reference = json.loads(REFERENCE.read_text())["hashes"]
    phases = {}

    # Phase 1 — cold: every unique key once, empty cache, sequential so each
    # latency is a genuine end-to-end compile.
    before = len(request_spans())
    start = time.perf_counter()
    cold_responses = [await service.compile(req) for _, req in mix]
    cold_wall = time.perf_counter() - start
    cold_spans = request_spans()[before:]
    phases["cold"] = phase_summary("cold", cold_spans, cold_wall)
    assert all(r.status == "miss" for r in cold_responses)

    # Byte-identity gate: served results must hash to the frozen reference.
    for (key, _), response in zip(mix, cold_responses):
        digest = hashlib.sha256(
            canonical_bytes(from_qasm(response.qasm)).encode()
        ).hexdigest()
        assert digest == reference[key], f"served result drifted for {key}"

    # Phase 2 — warm: the same stream, three rounds, every request a hit.
    before = len(request_spans())
    start = time.perf_counter()
    for _ in range(3):
        warm_responses = [await service.compile(req) for _, req in mix]
        assert all(r.status == "hit" for r in warm_responses)
    warm_wall = time.perf_counter() - start
    phases["warm"] = phase_summary("warm", request_spans()[before:], warm_wall)
    assert all(
        warm.qasm == cold.qasm
        for warm, cold in zip(warm_responses, cold_responses)
    )

    # Phase 3 — duplicates: cache cleared, DUPLICATES copies of every key
    # in flight at once; only the coalescer stands between them and the pool.
    service.cache.clear()
    pool_before = service.stats.pool_compiles
    before = len(request_spans())
    start = time.perf_counter()
    await asyncio.gather(*[
        service.compile(req) for _, req in mix for _ in range(DUPLICATES)
    ])
    dup_wall = time.perf_counter() - start
    phases["duplicates"] = phase_summary(
        "duplicates", request_spans()[before:], dup_wall
    )
    phases["duplicates"]["pool_compiles"] = (
        service.stats.pool_compiles - pool_before
    )
    phases["duplicates"]["unique_keys"] = len(mix)
    return phases


def run_benchmark() -> dict:
    obs.enable()
    obs.clear()

    async def scenario():
        service = CompileService(pool_jobs=2)
        await service.start()
        try:
            phases = await drive(service)
        finally:
            await service.stop()
        return service, phases

    service, phases = asyncio.run(scenario())
    payload = {
        "seed": SEED,
        "required_warm_speedup": REQUIRED_WARM_SPEEDUP,
        "duplicates_per_key": DUPLICATES,
        "phases": phases,
        "warm_speedup": (
            phases["cold"]["p50_ms"] / phases["warm"]["p50_ms"]
            if phases["warm"]["p50_ms"] else float("inf")
        ),
        "service": service.stats_json(),
        "request_ms_histogram": obs.histogram("service.request_ms").summary(),
        "spans": [dataclasses.asdict(s) for s in obs.trace_spans()
                  if s.category == "service"],
    }
    emit_bench_json(OUTPUT, "service", payload)
    return payload


def report(payload) -> str:
    lines = [
        "compile service under the mixed Fig 9/10 stream "
        f"(seed {payload['seed']}, 8 unique keys)",
        f"  {'phase':12s} {'requests':>8s} {'p50':>10s} {'p99':>10s} "
        f"{'rate':>12s}",
    ]
    for phase in payload["phases"].values():
        lines.append(
            f"  {phase['phase']:12s} {phase['requests']:>8d} "
            f"{phase['p50_ms']:>8.2f}ms {phase['p99_ms']:>8.2f}ms "
            f"{phase['compiles_per_second']:>8.1f}/s"
        )
    duplicates = payload["phases"]["duplicates"]
    lines.append(
        f"  warm speedup: {payload['warm_speedup']:.0f}x "
        f"(required ≥{payload['required_warm_speedup']:.0f}x); "
        f"duplicate phase: {duplicates['pool_compiles']} pool compiles for "
        f"{duplicates['requests']} requests over "
        f"{duplicates['unique_keys']} keys"
    )
    return "\n".join(lines)


def test_service_benchmark_meets_bars():
    payload = run_benchmark()
    print("\n" + report(payload))
    assert OUTPUT.exists()
    written = json.loads(OUTPUT.read_text())
    phases = written["phases"]
    assert phases["cold"]["requests"] == 8
    assert phases["warm"]["statuses"] == {"hit": 24}
    # Acceptance bar 1: the warm cache is ≥50x faster at the median.
    assert written["warm_speedup"] >= REQUIRED_WARM_SPEEDUP, (
        f"warm p50 only {written['warm_speedup']:.1f}x faster than cold; "
        f"required ≥{REQUIRED_WARM_SPEEDUP:.0f}x"
    )
    # Acceptance bar 2: coalescing holds duplicates to ≤1 compile per key.
    duplicates = phases["duplicates"]
    assert duplicates["pool_compiles"] <= duplicates["unique_keys"], (
        f"{duplicates['pool_compiles']} pool compiles for "
        f"{duplicates['unique_keys']} unique keys — coalescing leaked"
    )
    assert duplicates["requests"] == 8 * DUPLICATES
    # The spans embedded in the payload are the service's own telemetry.
    assert any(s["name"] == "service.request" for s in written["spans"])
    assert any(s["name"] == "service.batch" for s in written["spans"])


if __name__ == "__main__":
    test_service_benchmark_meets_bars()
    print("ok")
