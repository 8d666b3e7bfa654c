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
  triplets (``tests/test_compiled_levels.py``).  Before any file is written,
  every level-3 cell must hold the level-3 contract: no more CNOTs and no
  greater depth than level 2, and equivalence to the logical circuit
  (layouts included) on every cell with at most ``MAX_VERIFY_WIRES`` active
  wires; the verified and skipped counts are printed.
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
from repro.exceptions import SimulationError
from repro.experiments.toffoli import CONFIGURATIONS, compile_configuration
from repro.hardware.library import PAPER_TOPOLOGIES, johannesburg
from repro.sim.equivalence import routed_circuits_equivalent

SEED = 11
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
OUTPUT = DATA / "fig9_10_compiled_sha256.json"
LEVELS_OUTPUT = DATA / "compiled_levels_sha256.json"
QASM_OUTPUT = DATA / "fig9_10_qasm_sha256.json"
#: Level-3 cells with more active device wires than this skip the dense
#: equivalence check; they are counted, never silently dropped.
MAX_VERIFY_WIRES = 16
FIDELITY_FLOOR = 1.0 - 1e-7

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


def level3_verified(cell: str, name: str, level2, level3) -> bool:
    """Assert the level-3 contract on one cell.

    Returns ``True`` when the cell was equivalence-checked and ``False`` when
    it has too many active wires for the dense check.
    """
    assert level3.two_qubit_gate_count <= level2.two_qubit_gate_count, (
        f"level 3 has more CNOTs than level 2 on {cell}"
    )
    assert level3.depth <= level2.depth, (
        f"level 3 is deeper than level 2 on {cell}"
    )
    try:
        fidelity = routed_circuits_equivalent(
            get_benchmark(name),
            level3.circuit,
            level3.initial_layout.to_dict(),
            level3.final_layout.to_dict(),
            trials=1,
            max_active=MAX_VERIFY_WIRES,
            fidelity_floor=FIDELITY_FLOOR,
        )
    except SimulationError:
        return False
    assert fidelity >= FIDELITY_FLOOR, (
        f"level 3 is not equivalent to the logical circuit on {cell} "
        f"(fidelity {fidelity!r})"
    )
    return True


def level_hashes():
    hashes = {}
    verified = skipped = 0
    for label, coupling_map, name in sweep_cells():
        for method in ("baseline", "trios"):
            results = {}
            for level in (0, 2, 3):
                results[level] = compile_level(coupling_map, name, method, level)
                hashes[level_key(label, name, method, level)] = sha256(
                    results[level].circuit
                )
            cell = level_key(label, name, method, 3)
            if level3_verified(cell, name, results[2], results[3]):
                verified += 1
            else:
                skipped += 1
        result = compile_level(coupling_map, name, "greedy-depth", 1)
        hashes[level_key(label, name, "greedy-depth", 1)] = sha256(result.circuit)
    for index, triplet in enumerate(TOFFOLI_TRIPLETS):
        for configuration in CONFIGURATIONS:
            result = compile_toffoli(index, triplet, configuration)
            hashes[toffoli_key(triplet, configuration)] = sha256(result.circuit)
    assert verified, "no level-3 cell was equivalence-checked; the check is dead"
    print(
        f"level-3 contract holds on all {verified + skipped} cells: "
        f"{verified} equivalence-verified, {skipped} skipped "
        f"(> {MAX_VERIFY_WIRES} active wires)"
    )
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
    levels = level_hashes()
    OUTPUT.write_text(
        json.dumps({"seed": SEED, "hashes": hashes}, indent=1, sort_keys=True)
    )
    print(f"froze {len(hashes)} compiled-circuit hashes to {OUTPUT}")
    QASM_OUTPUT.write_text(
        json.dumps({"seed": SEED, "hashes": qasm_hashes}, indent=1, sort_keys=True)
    )
    print(f"froze {len(qasm_hashes)} rendered-QASM hashes to {QASM_OUTPUT}")
    LEVELS_OUTPUT.write_text(
        json.dumps({"seed": SEED, "hashes": levels}, indent=1, sort_keys=True)
    )
    print(f"froze {len(levels)} compiled-circuit hashes to {LEVELS_OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
