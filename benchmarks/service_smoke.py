"""End-to-end smoke of ``repro serve``: real process, real sockets, real JSON.

CI's service job runs this script.  It starts the CLI server as a subprocess,
drives a small mixed stream over HTTP — a cold unique mix, a warm repeat, a
burst of duplicates, malformed requests, a hostile QASM angle, malformed gate
parameters, invalid options — then checks ``/stats`` agrees with what the stream implies (hits
observed, coalescing + caching held the pool compiles to at most one per
unique key, the bad requests were 400s not casualties), asks for
``/shutdown``, and requires a clean exit code.

Run locally with::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

import socket
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.bench_circuits.suite import get_benchmark
from repro.circuits.qasm import to_qasm
from repro.service import ServiceClient

SEED = 11
MIX = [
    ("cnx_inplace-4", "line-20", "baseline"),
    ("cnx_inplace-4", "line-20", "trios"),
    ("grovers-9", "full-grid-5x4", "baseline"),
    ("grovers-9", "full-grid-5x4", "trios"),
]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main() -> int:
    port = free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--pool-jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = ServiceClient(port=port, timeout=300)
    try:
        client.wait_until_healthy(attempts=200, delay=0.1)
        print(f"[smoke] server healthy on port {port}")

        requests = [
            (to_qasm(get_benchmark(bench)), target, method)
            for bench, target, method in MIX
        ]

        # Cold: every unique key misses.
        for qasm, target, method in requests:
            status, body = client.compile(qasm, target, method, {"seed": SEED})
            assert status == 200, (status, body)
            assert body["status"] == "miss", body["status"]
            assert body["cnots"] > 0 and body["qasm"].strip()
        print(f"[smoke] cold mix ok ({len(requests)} misses)")

        # Warm: the same stream is served from the cache, byte-identical.
        for qasm, target, method in requests:
            status, body = client.compile(qasm, target, method, {"seed": SEED})
            assert status == 200 and body["status"] == "hit", body
        print("[smoke] warm repeat ok (all hits)")

        # Duplicates: a burst of one key — all hits, counted distinctly.
        for _ in range(6):
            status, body = client.compile(
                requests[0][0], "line-20", "baseline", {"seed": SEED}
            )
            assert status == 200 and body["status"] == "hit"

        # A malformed request is a 400, never a server casualty.
        status, body = client.compile("OPENQASM 2.0;", "no-such-device")
        assert status == 400, (status, body)
        status, body = client.compile(
            requests[0][0], "line-20", "baseline", {"bogus": 1})
        assert status == 400, (status, body)
        print("[smoke] malformed requests rejected with 400")

        # A hostile angle (a power tower that once froze the parser on the
        # event loop) is a fast 400, and the server keeps serving afterwards.
        hostile = "OPENQASM 2.0;\nqreg q[1];\nrz(9**9**8) q[0];\n"
        status, body = client.compile(hostile, "line-20", "baseline")
        assert status == 400, (status, body)
        status, body = client.compile(
            requests[0][0], "line-20", "baseline", {"seed": SEED})
        assert status == 200 and body["status"] == "hit", (status, body)
        print("[smoke] hostile angle rejected with 400; server still serving")

        # A wrong parameter count and a non-finite angle are the client's
        # fault (400), not a crashed compile (500).
        for line in ("u3(0,0) q[0];", "rz(1e999) q[0];"):
            malformed = f"OPENQASM 2.0;\nqreg q[1];\n{line}\n"
            status, body = client.compile(malformed, "line-20", "baseline")
            assert status == 400, (line, status, body)
        status, body = client.compile(
            requests[0][0], "line-20", "baseline", {"seed": SEED})
        assert status == 200 and body["status"] == "hit", (status, body)
        print("[smoke] malformed gate parameters rejected with 400; server still serving")

        # An ill-typed option and a level-3-only knob at level 1 fail while
        # the job is built: 400s that never reach the cache or the pool.
        for options in ({"optimization_level": "1"}, {"jobs": 3}):
            status, body = client.compile(
                requests[0][0], "line-20", "baseline", {"seed": SEED, **options})
            assert status == 400, (options, status, body)
        status, body = client.compile(
            requests[0][0], "line-20", "baseline", {"seed": SEED})
        assert status == 200 and body["status"] == "hit", (status, body)
        print("[smoke] invalid options rejected with 400; server still serving")

        status, stats = client.stats()
        assert status == 200
        service_stats = stats["service"]
        unique = len(requests)
        assert service_stats["misses"] == unique, service_stats
        assert service_stats["hits"] == unique + 9, service_stats
        assert service_stats["pool_compiles"] <= unique, service_stats
        assert service_stats["errors"] == 7, service_stats
        assert stats["cache"]["hits"] == unique + 9, stats["cache"]
        assert stats["cache"]["entries"] == unique, stats["cache"]
        print(f"[smoke] stats consistent: {service_stats}")

        status, final = client.shutdown()
        assert status == 200 and "service" in final
        code = server.wait(timeout=30)
        assert code == 0, f"server exited with {code}"
        print("[smoke] graceful shutdown, exit code 0")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
        output = server.stdout.read() if server.stdout else ""
        if output:
            print("[smoke] server output:\n" + output)


if __name__ == "__main__":
    sys.exit(main())
