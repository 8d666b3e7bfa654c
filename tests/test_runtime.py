"""Tests for the fault-tolerant execution runtime (``repro.runtime``).

Every fault here is injected through the deterministic
:class:`~repro.runtime.FaultPlan` layer, so worker crashes, hangs, transient
exceptions and corrupted results replay identically on every run.  Crash and
hang faults fire only inside pool worker processes — the in-process serial
paths (serial mode and the ``on_error="serial"`` fallback) are immune by
construction, which is exactly the degradation story the runtime promises.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.exceptions import ExecutionError, FaultInjectionError
from repro.experiments import run_sensitivity_experiment
from repro.experiments.report import format_failure_summary
from repro.runtime import (
    CellRunner,
    FailurePolicy,
    Fault,
    FaultPlan,
    failure_records,
    resolve_jobs,
)
from repro.runtime.faults import FAULTS_ENV_VAR, Corrupted, is_corrupted

# A fast policy for tests: near-zero backoff so retry loops don't sleep.
FAST = dict(backoff_base=0.001, backoff_cap=0.002, backoff_jitter=0.0)


def square_cell(payload):
    """Deterministic worker: a pure function of the payload."""
    return payload * payload


def slow_cell(payload):
    time.sleep(0.05)
    return payload * payload


PAYLOADS = list(range(8))
EXPECTED = [p * p for p in PAYLOADS]


def run_values(runner, payloads=PAYLOADS, worker=square_cell):
    return [r.value for r in runner.run(payloads, worker)]


# ----------------------------------------------------------------------
# jobs resolution (satellite 1)
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ExecutionError, match="jobs"):
            resolve_jobs(-2)

    def test_runner_accepts_jobs_zero(self):
        runner = CellRunner(jobs=0, faults=None)
        assert run_values(runner, [2, 3]) == [4, 9]


# ----------------------------------------------------------------------
# The fault plan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan.of({
            0: [Fault("crash", attempts=(1,))],
            3: [Fault("hang", duration=9.5), Fault("raise", attempts=(2, 3),
                                                   message="flaky")],
            5: [Fault("corrupt")],
        })
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_from_env(self, monkeypatch):
        plan = FaultPlan.single(2, Fault("raise", attempts=(1,)))
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())
        assert FaultPlan.from_env() == plan
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert FaultPlan.from_env() is None

    def test_fires_on(self):
        every = Fault("raise")
        assert every.fires_on(1) and every.fires_on(99)
        once = Fault("raise", attempts=(2,))
        assert not once.fires_on(1) and once.fires_on(2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecutionError, match="kind"):
            Fault("explode")

    def test_crash_and_hang_inert_in_parent(self):
        # In the driver process an injected crash/hang must be a no-op —
        # this is what makes serial fallback and base-seed recovery safe.
        plan = FaultPlan.of({0: [Fault("crash")], 1: [Fault("hang")]})
        plan.apply(0, 1)
        plan.apply(1, 1)  # returns immediately; no sleep, no exit

    def test_corrupted_sentinel_survives_pickle(self):
        value = pickle.loads(pickle.dumps(Corrupted(3, 1)))
        assert is_corrupted(value)
        assert not is_corrupted({"fine": 1})

    def test_raise_fault_raises_fault_injection_error(self):
        plan = FaultPlan.single(4, Fault("raise", message="boom"))
        with pytest.raises(FaultInjectionError, match="boom"):
            plan.apply(4, 1)


# ----------------------------------------------------------------------
# Serial execution (jobs=1)
# ----------------------------------------------------------------------
class TestSerialRunner:
    def test_fault_free(self):
        records = CellRunner(jobs=1, faults=None).run(PAYLOADS, square_cell)
        assert [r.value for r in records] == EXPECTED
        assert all(r.ok and r.status == "ok" and r.attempts == 1 for r in records)

    def test_transient_raise_healed_by_retry(self):
        plan = FaultPlan.single(3, Fault("raise", attempts=(1, 2)))
        runner = CellRunner(
            jobs=1, policy=FailurePolicy(retries=2, **FAST), faults=plan
        )
        records = runner.run(PAYLOADS, square_cell)
        assert [r.value for r in records] == EXPECTED
        assert records[3].attempts == 3 and records[3].retried
        assert records[2].attempts == 1

    def test_persistent_raise_becomes_skip_record(self):
        plan = FaultPlan.single(1, Fault("raise", message="always"))
        runner = CellRunner(
            jobs=1, policy=FailurePolicy(retries=1, on_error="skip", **FAST),
            faults=plan,
        )
        records = runner.run(PAYLOADS, square_cell)
        failed = records[1]
        assert failed.status == "failed" and failed.attempts == 2
        assert failed.error is not None
        assert failed.error.type_name == "FaultInjectionError"
        assert "always" in failed.error.message
        assert failed.error.traceback_text  # structured, replayable record
        # Every other cell still produced its value.
        assert [r.value for r in records if r.ok] == [
            v for i, v in enumerate(EXPECTED) if i != 1
        ]

    def test_on_error_fail_reraises_original_exception(self):
        plan = FaultPlan.single(0, Fault("raise", message="fatal"))
        runner = CellRunner(
            jobs=1, policy=FailurePolicy(retries=0, on_error="fail"), faults=plan
        )
        with pytest.raises(FaultInjectionError, match="fatal"):
            runner.run(PAYLOADS, square_cell)

    def test_corrupted_result_detected(self):
        plan = FaultPlan.single(2, Fault("corrupt"))
        runner = CellRunner(
            jobs=1, policy=FailurePolicy(retries=1, **FAST), faults=plan
        )
        records = runner.run(PAYLOADS, square_cell)
        assert records[2].status == "failed"
        assert records[2].error.type_name == "CorruptedResult"

    def test_result_check_rejects_invalid_values(self):
        runner = CellRunner(
            jobs=1, policy=FailurePolicy(retries=0), faults=None,
            result_check=lambda v: v != 9,
        )
        records = runner.run(PAYLOADS, square_cell)
        assert records[3].status == "failed"
        assert records[3].error.type_name == "InvalidResult"

    def test_circuit_breaker_trips_on_max_failures(self):
        plan = FaultPlan.of({i: [Fault("raise")] for i in range(4)})
        runner = CellRunner(
            jobs=1,
            policy=FailurePolicy(retries=0, max_failures=2, on_error="skip"),
            faults=plan,
        )
        with pytest.raises(ExecutionError, match="circuit breaker"):
            runner.run(PAYLOADS, square_cell)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = FailurePolicy(backoff_seed=7)
        delays = [policy.backoff_delay(3, a) for a in range(1, 6)]
        assert delays == [policy.backoff_delay(3, a) for a in range(1, 6)]
        assert all(0 <= d <= policy.backoff_cap + policy.backoff_jitter
                   for d in delays)
        # Exponential growth until the cap dominates.
        assert delays[1] >= delays[0]


# ----------------------------------------------------------------------
# Pool execution (jobs > 1)
# ----------------------------------------------------------------------
class TestPoolRunner:
    def test_pool_matches_serial_fault_free(self):
        serial = CellRunner(jobs=1, faults=None).run(PAYLOADS, square_cell)
        pooled = CellRunner(jobs=4, faults=None).run(PAYLOADS, square_cell)
        assert [r.value for r in pooled] == [r.value for r in serial]

    def test_crash_sweep_survivors_bit_identical_to_serial(self):
        # Cell 3 crashes once (healed by retry); cell 6 crashes on every
        # attempt (permanently lost).  The sweep still completes, and every
        # surviving value is byte-identical to the fault-free serial run.
        plan = FaultPlan.of({
            3: [Fault("crash", attempts=(1,))],
            6: [Fault("crash")],
        })
        # A break with several cells in flight charges none of them; each is
        # rerun alone, so only cell 6 spends its retries=3 budget.
        runner = CellRunner(
            jobs=4, policy=FailurePolicy(retries=3, on_error="skip", **FAST),
            faults=plan,
        )
        with pytest.warns(RuntimeWarning, match="worker process died"):
            records = runner.run(PAYLOADS, square_cell)
        assert records[6].status == "crashed"
        assert records[6].attempts == 4  # exhausted its retry budget
        assert records[6].error.type_name == "WorkerCrash"
        assert records[3].ok and records[3].retried
        serial = CellRunner(jobs=1, faults=None).run(PAYLOADS, square_cell)
        for record, reference in zip(records, serial):
            if record.ok:
                assert pickle.dumps(record.value) == pickle.dumps(reference.value)

    def test_crash_charges_only_the_culprit(self):
        # A scaled-down crash sweep: cell 3 crashes once, cell 11 on every
        # attempt.  Cells sleep, so another cell is always in flight when a
        # worker dies.  With one retry, any innocent charged for two breaks
        # would be lost; no innocent may be charged for any.
        plan = FaultPlan.of({
            3: [Fault("crash", attempts=(1,))],
            11: [Fault("crash")],
        })
        runner = CellRunner(
            jobs=2, policy=FailurePolicy(retries=1, on_error="skip", **FAST),
            faults=plan,
        )
        payloads = list(range(16))
        with pytest.warns(RuntimeWarning, match="worker process died"):
            records = runner.run(payloads, slow_cell)
        labels = [f"cell-{index}" for index in payloads]
        failures = failure_records(records, labels)
        assert [(f.label, f.status, f.attempts) for f in failures] == [
            ("cell-11", "crashed", 2)
        ]
        assert records[3].ok and records[3].attempts == 2
        assert all(
            record.attempts == 1 for record in records if record.index not in (3, 11)
        )
        serial = CellRunner(jobs=1, faults=None).run(payloads, slow_cell)
        for record, reference in zip(records, serial):
            if record.ok:
                assert pickle.dumps(record.value) == pickle.dumps(reference.value)

    def test_timed_out_cell_retried_then_skipped(self):
        # Cell 1 hangs on every attempt; with a short timeout and one retry
        # it is killed twice, then skipped with a structured record, while
        # the innocent in-flight cells are requeued without attempt penalty.
        plan = FaultPlan.single(1, Fault("hang", duration=60.0))
        runner = CellRunner(
            jobs=2,
            policy=FailurePolicy(timeout=0.4, retries=1, on_error="skip", **FAST),
            faults=plan,
        )
        start = time.monotonic()
        records = runner.run(PAYLOADS, square_cell)
        elapsed = time.monotonic() - start
        assert records[1].status == "timed_out"
        assert records[1].attempts == 2
        assert "wall-clock timeout" in records[1].error.message
        assert records[1].error.type_name == "CellTimeout"
        survivors = [r for i, r in enumerate(records) if i != 1]
        assert all(r.ok and r.attempts == 1 for r in survivors)
        assert [r.value for r in survivors] == [
            v for i, v in enumerate(EXPECTED) if i != 1
        ]
        assert elapsed < 30, "hung workers must be killed, not awaited"

    def test_transient_raise_in_pool_healed(self):
        plan = FaultPlan.single(5, Fault("raise", attempts=(1,)))
        runner = CellRunner(
            jobs=3, policy=FailurePolicy(retries=2, **FAST), faults=plan
        )
        records = runner.run(PAYLOADS, square_cell)
        assert [r.value for r in records] == EXPECTED
        assert records[5].attempts == 2

    def test_serial_fallback_when_pool_keeps_breaking(self):
        # Crash on every attempt of every cell: the pool can never finish
        # anything.  Under on_error="serial" the runner degrades to
        # in-process execution (where crash faults are inert) and still
        # returns every value.
        plan = FaultPlan.of({i: [Fault("crash")] for i in range(len(PAYLOADS))})
        runner = CellRunner(
            jobs=2,
            policy=FailurePolicy(retries=1, on_error="serial",
                                 max_pool_respawns=1, **FAST),
            faults=plan,
        )
        with pytest.warns(RuntimeWarning, match="serial"):
            records = runner.run(PAYLOADS, square_cell)
        assert [r.value for r in records] == EXPECTED
        assert all(r.ok for r in records)

    def test_pool_on_error_fail_reraises(self):
        plan = FaultPlan.single(2, Fault("raise", message="pool fatal"))
        runner = CellRunner(
            jobs=2, policy=FailurePolicy(retries=0, on_error="fail"), faults=plan
        )
        with pytest.raises(FaultInjectionError, match="pool fatal"):
            runner.run(PAYLOADS, square_cell)

    def test_keyboard_interrupt_tears_down_cleanly(self, monkeypatch):
        # Simulate ^C arriving while the pool is mid-sweep: the runner must
        # warn about the partial results, kill the workers, and re-raise —
        # without hanging in executor shutdown.
        import repro.runtime.runner as runner_module

        real_wait = runner_module.wait
        calls = {"n": 0}

        def interrupting_wait(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(runner_module, "wait", interrupting_wait)
        runner = CellRunner(jobs=2, faults=None)
        start = time.monotonic()
        with pytest.warns(RuntimeWarning, match="interrupted"):
            with pytest.raises(KeyboardInterrupt):
                runner.run(PAYLOADS, slow_cell)
        assert time.monotonic() - start < 30, "teardown must not hang"


# ----------------------------------------------------------------------
# Failure records and reporting
# ----------------------------------------------------------------------
class TestFailureRecords:
    def _records(self):
        plan = FaultPlan.single(1, Fault("raise", message="flaky sim"))
        runner = CellRunner(
            jobs=1, policy=FailurePolicy(retries=1, on_error="skip", **FAST),
            faults=plan,
        )
        return runner.run([10, 11, 12], square_cell)

    def test_failure_records_use_labels(self):
        failures = failure_records(self._records(), ["a", "b", "c"])
        assert len(failures) == 1
        failure = failures[0]
        assert failure.label == "b" and failure.status == "failed"
        assert failure.attempts == 2
        assert "flaky sim" in failure.error

    def test_format_failure_summary(self):
        failures = failure_records(self._records(), ["a", "b", "c"])
        table = format_failure_summary(failures)
        assert "b" in table and "failed" in table and "flaky sim" in table
        assert format_failure_summary([]) == "(no failed cells)"


# ----------------------------------------------------------------------
# Experiment drivers aggregate partial results
# ----------------------------------------------------------------------
class TestDriverPartialResults:
    def test_sensitivity_skips_faulted_curve(self):
        benchmarks = ["cnx_inplace-4", "incrementer_borrowedbit-5"]
        plan = FaultPlan.single(0, Fault("raise", message="injected"))
        result = run_sensitivity_experiment(
            benchmarks=benchmarks, factors=[1.0, 10.0], jobs=1,
            retries=0, on_error="skip", faults=plan,
        )
        assert result.benchmarks() == ["incrementer_borrowedbit-5"]
        assert len(result.failures) == 1
        assert result.failures[0].label == "cnx_inplace-4"
        assert "injected" in result.failures[0].error

    def test_sensitivity_fault_free_unaffected(self):
        result = run_sensitivity_experiment(
            benchmarks=["cnx_inplace-4"], factors=[1.0, 10.0], jobs=1,
            faults=None,
        )
        assert result.failures == []
        assert result.benchmarks() == ["cnx_inplace-4"]
