"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout()

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

ROOT = run.ROOT


# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
     (100000, 99.99)],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert measure.tail_percentile(count) == expected


def test_tail_percentile_never_has_fewer_than_ten_beyond():
    for count in range(20, 5000, 7):
        q = measure.tail_percentile(count)
        assert round(count * (100 - q) / 100, 9) >= 10
        higher = [p for p in measure.TAIL_LADDER if p > q]
        assert all(round(count * (100 - p) / 100, 9) < 10 for p in higher)


def test_tail_uses_reference_count_not_collected_count():
    log = measure.LatencyLog(reference_count=264)
    log.extend([0.001 * i for i in range(1, 2001)])
    assert log.tail_q == 95.0
    # p95 of 1..2000 ms by linear interpolation: 1 + 0.95 * 1999 ms.
    assert log.tail_ms() == pytest.approx(1900.05)


# ----------------------------------------------------------------------
# Reference speed
# ----------------------------------------------------------------------
def test_times_are_scaled_to_the_nominal_kernel_time():
    nominal = measure.reference.NOMINAL_S
    scaled = measure.at_reference_speed([1.0, 1.0, 1.0], [nominal, nominal, nominal])
    assert scaled == pytest.approx([1.0, 1.0, 1.0])
    # A kernel twice as slow takes the program's slowdown out, to the elasticity.
    factor = 2 ** measure.reference.ELASTICITY
    assert measure.at_reference_speed([factor, factor], [2 * nominal, 2 * nominal]) == (
        pytest.approx([1.0, 1.0]))


def test_slow_kernel_calls_do_not_shrink_their_units():
    nominal = measure.reference.NOMINAL_S
    kernel = [nominal, nominal, 50 * nominal, 50 * nominal, nominal, nominal, nominal]
    assert measure.at_reference_speed([1.0] * 7, kernel) == pytest.approx([1.0] * 7)


def test_epoch_seconds_are_the_sum_of_its_units():
    nominal = measure.reference.NOMINAL_S
    epoch = workloads.Epoch([0.5, 1.5], [2 * nominal, 2 * nominal])
    assert epoch.units == 2
    assert epoch.seconds == pytest.approx(2.0)
    assert epoch.scaled_seconds == pytest.approx(2.0 / 2 ** measure.reference.ELASTICITY)


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------
def test_key_universe_is_fixed():
    keys = workloads.ranked_keys()
    assert len(keys) == len(set(keys)) == 264
    assert keys == workloads.ranked_keys()
    # Methods are adjacent, so every reached cell has both.
    for first, second in zip(keys[::2], keys[1::2]):
        assert (first.benchmark, first.topology, first.level) == (
            second.benchmark, second.topology, second.level)
        assert (first.method, second.method) == ("baseline", "trios")


def test_zipf_counts_are_exact_and_skewed():
    counts = workloads.zipf_counts(264, 150, 1.3)
    assert sum(counts) == 150
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 10 * counts[20]


def test_key_stream_is_deterministic_per_seed():
    counts = workloads.zipf_counts(30, 100, 1.2)
    base = workloads.smooth_sequence(counts, [i / 30 for i in range(30)])
    assert sorted(base) == sorted(r for r, c in enumerate(counts) for _ in range(c))
    one = workloads.windowed_shuffle(base, 8, random.Random("1"))
    again = workloads.windowed_shuffle(base, 8, random.Random("1"))
    other = workloads.windowed_shuffle(base, 8, random.Random("2"))
    assert one == again
    assert one != other
    assert sorted(one) == sorted(base)
    for start in range(0, len(base), 8):
        assert sorted(one[start:start + 8]) == sorted(base[start:start + 8])


def test_serve_rounds_repeat_one_seeded_order():
    def ranks(seed: int, round_index: int):
        workload = workloads.ServeZipf(seed, True, ROOT)
        try:
            return [rank for rank, _ in workload._bodies(round_index)]
        finally:
            workload.close()

    first = ranks(3, 1)
    assert first == ranks(3, 2) == ranks(3, 1)
    assert first != ranks(4, 1)


def test_triplet_draw_is_deterministic_per_seed():
    def classify(triplet, routing_seed):
        return 5 + sum(triplet) % 3

    quotas = {5: 2, 6: 2, 7: 1}
    first = workloads.draw_triplets(7, quotas, classify)
    assert first == workloads.draw_triplets(7, quotas, classify)
    assert first != workloads.draw_triplets(8, quotas, classify)
    assert sorted(classify(*item) for item in first) == [5, 5, 6, 6, 7]


def quick_toffoli(seed: int) -> workloads.ToffoliExactPtm:
    workload = workloads.ToffoliExactPtm(seed, True, ROOT)
    workload.prepare()
    return workload


def test_toffoli_units_come_from_the_seed():
    one = quick_toffoli(3).units
    assert one == quick_toffoli(3).units
    assert one != quick_toffoli(4).units


def test_toffoli_setup_does_not_draw_triplets():
    workload = workloads.ToffoliExactPtm(3, True, ROOT)
    assert workload.units == []


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_wrong_reference_hash_is_a_failure():
    workload = workloads.Fig9Compile(1, True, ROOT)
    assert workload.run_epoch(0).failed == 0
    label, _, name, _, method = workload.units[0]
    workload.reference[f"{label}|{name}|{method}"] = "0" * 64
    epoch = workload.run_epoch(1)
    assert epoch.failed == 1
    outputs = workload.finish()
    values, attempted, failed, _ = run.end_to_end_metrics(
        workload, [(1.0, 1.0)], [epoch], 1.0, outputs, 1
    )
    assert failed == 1 and values["correct_pct"] < 100.0


def test_wrong_probability_is_a_failure():
    workload = quick_toffoli(1)
    epoch = workload.run_epoch(0)
    assert epoch.failed == 0
    unit, (cnots, probability, circuit, measured) = next(iter(workload.first.items()))
    workload.first[unit] = (cnots, probability + 1e-6, circuit, measured)
    assert workload.finish().failed == 1


def test_compile_cache_hit_is_a_failure():
    workload = quick_toffoli(1)
    workload.units.append(workload.units[0])  # the same compile twice in one epoch
    assert workload.run_epoch(0).failed >= 1


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def test_paint_charges_innermost_span_and_covers_the_window():
    intervals = [
        layers.Interval(0.0, 10.0, "bench.harness"),
        layers.Interval(1.0, 9.0, "compiler"),
        layers.Interval(2.0, 4.0, "passes.A"),
        layers.Interval(5.0, 6.0, "passes.B"),
    ]
    totals = layers.paint(intervals, (0.0, 12.0))
    assert totals == pytest.approx(
        {"bench.harness": 2.0, "compiler": 5.0, "passes.A": 2.0, "passes.B": 1.0,
         "unattributed": 2.0}
    )


def test_paint_gives_executor_priority_over_interleaved_loop_spans():
    intervals = [
        layers.Interval(0.0, 6.0, "service.http", layers.LOOP),
        layers.Interval(1.0, 2.0, "circuits.qasm.parse", layers.LOOP),
        layers.Interval(0.5, 5.0, "service.http", layers.LOOP),  # second client
        layers.Interval(3.0, 4.0, "passes.A", layers.EXECUTOR),
    ]
    totals = layers.paint(intervals, (0.0, 6.0))
    assert totals == pytest.approx(
        {"service.http": 4.0, "circuits.qasm.parse": 1.0, "passes.A": 1.0}
    )
    assert sum(totals.values()) == pytest.approx(6.0)


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------
def test_declared_metrics_match_what_the_runner_prints():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == [m for m, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        run.PER_LAYER
    )
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)


def test_quick_mode_runs_every_workload_in_seconds():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--quick",
         "--seconds", "0.5", "--seed", "5"],
        capture_output=True, text=True, timeout=170, env=run.program_env(),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == set(run.WORKLOAD_NAMES)
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m for m, _, _ in run.END_TO_END}


def test_traced_quick_run_attributes_the_wall_time():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "serve_zipf", "--quick",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=170, env=run.program_env(),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {m for m, _, _ in run.PER_LAYER}
    assert metrics["layers.attributed_pct"]["value"] >= 95.0


def test_refuses_to_run_outside_a_checkout(tmp_path: Path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in run.HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "fig9_10_compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
