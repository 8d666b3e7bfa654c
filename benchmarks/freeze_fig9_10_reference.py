"""Regenerate the frozen compiled-circuit hashes.

Writes three files:

* ``tests/data/fig9_10_compiled_sha256.json`` pins a SHA-256 of every
  compiled circuit in the Figures 9-11 sweep (all Table 1 benchmarks x the
  four paper topologies x both pipelines, seed 11, level 1) at full float
  precision.  The byte-identity test in ``tests/test_transpile.py`` compares
  against it, so the paper-reproduction numbers provably survive compiler
  refactors.
* ``tests/data/compiled_levels_sha256.json`` pins the same cells at
  optimisation levels 0, 2 and 3, the ``greedy-depth`` flow at level 1, and
  the four Figure 6-8 Toffoli configurations on six fixed Johannesburg
  triplets (``tests/test_compiled_levels.py``).
* ``tests/data/fig9_10_qasm_sha256.json`` pins a SHA-256 of the OpenQASM
  text :func:`repro.circuits.qasm.to_qasm` renders for every level-1 cell,
  so the exporter's bytes (pi fractions, ``repr`` fallbacks) are pinned
  as well as the circuits (``tests/test_qasm.py``).

Only regenerate these files when a PR *intentionally* changes compiled
output (e.g. a new default optimisation) — and say so in the PR
description::

    PYTHONPATH=src python benchmarks/freeze_fig9_10_reference.py

CI reruns this script and fails on any diff under ``tests/data/``.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench_circuits.suite import PAPER_BENCHMARKS, get_benchmark
from repro.circuits.qasm import to_qasm
from repro.compiler.pipeline import transpile
from repro.experiments.toffoli import CONFIGURATIONS, compile_configuration
from repro.hardware.library import PAPER_TOPOLOGIES, johannesburg

SEED = 11
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
OUTPUT = DATA / "fig9_10_compiled_sha256.json"
LEVELS_OUTPUT = DATA / "compiled_levels_sha256.json"
QASM_OUTPUT = DATA / "fig9_10_qasm_sha256.json"

#: Physical Johannesburg triplets the Toffoli configurations are pinned on:
#: two lines, one bent pair plus a far qubit, and three spread-out trios.
TOFFOLI_TRIPLETS = (
    (0, 1, 2),
    (0, 5, 10),
    (6, 7, 12),
    (1, 13, 18),
    (3, 9, 15),
    (4, 14, 16),
)


def canonical_bytes(circuit) -> str:
    lines = [f"{circuit.num_qubits}"]
    for inst in circuit.instructions:
        params = ",".join(float(p).hex() for p in inst.gate.params)
        qubits = ",".join(map(str, inst.qubits))
        clbits = ",".join(map(str, inst.clbits))
        lines.append(f"{inst.name}({params}) q{qubits} c{clbits}")
    return "\n".join(lines)


def sha256(circuit) -> str:
    return hashlib.sha256(canonical_bytes(circuit).encode()).hexdigest()


def qasm_sha256(circuit) -> str:
    return hashlib.sha256(to_qasm(circuit).encode()).hexdigest()


def sweep_cells():
    """``(label, coupling_map, benchmark name)`` for every Fig 9/10 cell."""
    for label, builder in PAPER_TOPOLOGIES.items():
        coupling_map = builder()
        for name in PAPER_BENCHMARKS:
            if get_benchmark(name).num_qubits > coupling_map.num_qubits:
                continue
            yield label, coupling_map, name


def level_key(label: str, name: str, method: str, level: int) -> str:
    return f"{label}|{name}|{method}|L{level}"


def compile_level(coupling_map, name: str, method: str, level: int, validate=None):
    options = {"seed": SEED, "optimization_level": level}
    if validate is not None:
        options["validate"] = validate
    return transpile(get_benchmark(name), coupling_map, method=method, **options)


def toffoli_key(triplet, configuration: str) -> str:
    return f"ibmq-johannesburg|{'-'.join(map(str, triplet))}|{configuration}"


def compile_toffoli(index: int, triplet, configuration: str):
    placement = {logical: physical for logical, physical in enumerate(triplet)}
    return compile_configuration(
        configuration, johannesburg(), placement, seed=SEED + index
    )


def level_hashes():
    hashes = {}
    for label, coupling_map, name in sweep_cells():
        for method in ("baseline", "trios"):
            for level in (0, 2, 3):
                result = compile_level(coupling_map, name, method, level)
                hashes[level_key(label, name, method, level)] = sha256(result.circuit)
        result = compile_level(coupling_map, name, "greedy-depth", 1)
        hashes[level_key(label, name, "greedy-depth", 1)] = sha256(result.circuit)
    for index, triplet in enumerate(TOFFOLI_TRIPLETS):
        for configuration in CONFIGURATIONS:
            result = compile_toffoli(index, triplet, configuration)
            hashes[toffoli_key(triplet, configuration)] = sha256(result.circuit)
    return hashes


def main() -> int:
    hashes = {}
    qasm_hashes = {}
    for label, coupling_map, name in sweep_cells():
        circuit = get_benchmark(name)
        for method in ("baseline", "trios"):
            result = transpile(circuit, coupling_map, method=method, seed=SEED)
            hashes[f"{label}|{name}|{method}"] = sha256(result.circuit)
            qasm_hashes[f"{label}|{name}|{method}"] = qasm_sha256(result.circuit)
    OUTPUT.write_text(
        json.dumps({"seed": SEED, "hashes": hashes}, indent=1, sort_keys=True)
    )
    print(f"froze {len(hashes)} compiled-circuit hashes to {OUTPUT}")
    QASM_OUTPUT.write_text(
        json.dumps({"seed": SEED, "hashes": qasm_hashes}, indent=1, sort_keys=True)
    )
    print(f"froze {len(qasm_hashes)} rendered-QASM hashes to {QASM_OUTPUT}")
    levels = level_hashes()
    LEVELS_OUTPUT.write_text(
        json.dumps({"seed": SEED, "hashes": levels}, indent=1, sort_keys=True)
    )
    print(f"froze {len(levels)} compiled-circuit hashes to {LEVELS_OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
