"""Byte identity beyond level 1: levels 0/2/3, greedy-depth and the Toffoli
configurations against ``tests/data/compiled_levels_sha256.json``.

The table is written by ``benchmarks/freeze_fig9_10_reference.py`` (the same
script that writes the level-1 Fig 9/10 reference).  Levels 0 and 2, the
``greedy-depth`` flow and the Toffoli configurations are checked in full;
level 3 on a fixed subset of cells, because all 88 level-3 compiles take
several seconds (CI reruns the whole script, which also asserts the level-3
contract on every cell, and diffs ``tests/data/``).  The pinned level-3 cells
are also checked against level 2: never more CNOTs, never greater depth.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.toffoli import CONFIGURATIONS

ROOT = Path(__file__).resolve().parent.parent
LEVELS_REFERENCE = ROOT / "tests" / "data" / "compiled_levels_sha256.json"


def _load_freeze_script():
    path = ROOT / "benchmarks" / "freeze_fig9_10_reference.py"
    spec = importlib.util.spec_from_file_location("freeze_fig9_10_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


freeze = _load_freeze_script()

#: The Johannesburg triplets the reference pins the Toffoli configurations on.
TOFFOLI_TRIPLETS = (
    (0, 1, 2),
    (0, 5, 10),
    (6, 7, 12),
    (1, 13, 18),
    (3, 9, 15),
    (4, 14, 16),
)

#: Level-3 cells checked in tier-1: every topology for the first three
#: benchmarks, Johannesburg only for the last three.
LEVEL3_ALL_TOPOLOGIES = ("cnx_inplace-4", "incrementer_borrowedbit-5", "bv-20")
LEVEL3_JOHANNESBURG = ("grovers-9", "cnx_dirty-11", "qaoa_complete-10")


@pytest.fixture(scope="module")
def frozen():
    reference = json.loads(LEVELS_REFERENCE.read_text())
    assert reference["seed"] == freeze.SEED
    return reference["hashes"]


def _check(frozen, key, circuit):
    assert freeze.sha256(circuit) == frozen[key], (
        f"compiled output for {key} drifted from "
        f"{LEVELS_REFERENCE.name}; regenerate it only for an intentional "
        "output change (benchmarks/freeze_fig9_10_reference.py)"
    )


def test_triplets_match_the_freeze_script():
    assert freeze.TOFFOLI_TRIPLETS == TOFFOLI_TRIPLETS


@pytest.mark.parametrize("level", [0, 2])
def test_levels_0_and_2_match_for_every_cell(frozen, level):
    checked = 0
    for label, coupling_map, name in freeze.sweep_cells():
        for method in ("baseline", "trios"):
            result = freeze.compile_level(
                coupling_map, name, method, level, validate=False
            )
            _check(frozen, freeze.level_key(label, name, method, level), result.circuit)
            checked += 1
    assert checked == 88


def test_greedy_depth_matches_for_every_cell(frozen):
    checked = 0
    for label, coupling_map, name in freeze.sweep_cells():
        result = freeze.compile_level(
            coupling_map, name, "greedy-depth", 1, validate=False
        )
        _check(frozen, freeze.level_key(label, name, "greedy-depth", 1), result.circuit)
        checked += 1
    assert checked == 44


def test_level_3_matches_on_the_pinned_cells(frozen):
    checked = 0
    for label, coupling_map, name in freeze.sweep_cells():
        if name not in LEVEL3_ALL_TOPOLOGIES and not (
            label == "ibmq-johannesburg" and name in LEVEL3_JOHANNESBURG
        ):
            continue
        for method in ("baseline", "trios"):
            result = freeze.compile_level(coupling_map, name, method, 3, validate=False)
            _check(frozen, freeze.level_key(label, name, method, 3), result.circuit)
            level2 = freeze.compile_level(coupling_map, name, method, 2, validate=False)
            assert result.two_qubit_gate_count <= level2.two_qubit_gate_count
            assert result.depth <= level2.depth
            checked += 1
    assert checked == 2 * (4 * len(LEVEL3_ALL_TOPOLOGIES) + len(LEVEL3_JOHANNESBURG))


def test_toffoli_configurations_match(frozen):
    for index, triplet in enumerate(TOFFOLI_TRIPLETS):
        for configuration in CONFIGURATIONS:
            result = freeze.compile_toffoli(index, triplet, configuration)
            _check(frozen, freeze.toffoli_key(triplet, configuration), result.circuit)
