"""The fault-tolerant cell runner behind every process-pool fan-out.

:class:`CellRunner` executes payload cells — the (topology, benchmark) cells
of the experiment sweeps, the candidate seeds of the level-3 search — under an
explicit :class:`FailurePolicy` and returns structured :class:`CellResult`
records instead of raising on the first fault:

* **Retries with deterministic backoff.**  A failing cell is retried up to
  ``retries`` times; the delay before each retry is seeded exponential
  backoff with jitter (:meth:`FailurePolicy.backoff_delay`), deterministic
  per (seed, cell, attempt).  Every cell derives its randomness from the seed
  carried in its own payload, so a cell that succeeds on attempt 3 is
  byte-identical to one that succeeds on attempt 1 — the bit-identical-to-
  serial invariant of the sweeps survives retries by construction.
* **Per-cell wall-clock timeouts.**  In pool mode at most ``jobs`` cells are
  in flight at once (one per worker), so submission time is start time; a
  cell running past ``timeout`` has its (hung) pool killed and respawned,
  the other in-flight cells requeued without penalty, and is itself retried
  or recorded as ``"timed_out"``.
* **Worker-crash survival.**  A died worker (segfault, OOM kill,
  ``os._exit``) breaks the whole ``ProcessPoolExecutor``; the runner kills
  and respawns the pool, gives each implicated in-flight cell a crash strike
  (the culprit exhausts its retries and is recorded as ``"crashed"``;
  innocents requeue and succeed), and requeues only unfinished cells.
* **Graceful degradation.**  Under ``on_error="serial"`` a pool that keeps
  breaking (more than ``max_pool_respawns`` times) is abandoned with a
  warning and the remaining cells run serially in the driver process.
* **Circuit breaker.**  ``max_failures`` bounds the number of permanently
  failed cells before the run aborts with :class:`ExecutionError`;
  ``on_error="fail"`` aborts on the first one, re-raising the worker's
  original exception when there is one.
* **Prompt Ctrl-C.**  ``KeyboardInterrupt`` cancels pending futures,
  terminates the pool (``shutdown(cancel_futures=True)``), notes how many
  cells had finished, and re-raises.

The deterministic fault-injection layer (:mod:`repro.runtime.faults`) hooks
into the same wrapper every worker runs, so all of the above is provable in
tests without real segfaults.
"""

from __future__ import annotations

import heapq
import os
import random
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from traceback import format_exception
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..exceptions import ExecutionError
from .faults import FaultPlan, is_corrupted

#: Sentinel for "resolve the fault plan from the REPRO_FAULTS environment".
ENV_FAULTS = "env"


def resolve_jobs(jobs: int) -> int:
    """Resolve a ``jobs`` request: ``0`` means all CPUs, negatives are errors."""
    jobs = int(jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ExecutionError(f"jobs must be >= 0 (0 = all CPUs), got {jobs}")
    return jobs


@dataclass(frozen=True)
class ExceptionRecord:
    """A pickled-safe snapshot of an exception raised in a worker.

    Exceptions themselves may hold unpicklable state and always hold a
    traceback that dies with the worker; the record carries the type name,
    message and formatted traceback as plain strings so it survives the pool
    boundary and serialises into failure reports.
    """

    type_name: str
    message: str
    traceback_text: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ExceptionRecord":
        return cls(
            type_name=type(exc).__name__,
            message=str(exc),
            traceback_text="".join(format_exception(type(exc), exc, exc.__traceback__)),
        )

    @classmethod
    def from_message(cls, type_name: str, message: str) -> "ExceptionRecord":
        return cls(type_name=type_name, message=message)

    def __str__(self) -> str:
        return f"{self.type_name}: {self.message}"


#: CellResult.status values.
CELL_STATUSES = ("ok", "failed", "timed_out", "crashed")


@dataclass
class CellResult:
    """The structured outcome of one payload cell.

    ``status`` is ``"ok"`` (``value`` holds the worker's return), ``"failed"``
    (the worker raised, or returned a corrupted payload), ``"timed_out"``
    (exceeded the policy's wall-clock timeout on its final attempt) or
    ``"crashed"`` (its worker process died).  ``attempts`` counts tries
    actually made, so ``retried`` is true whenever recovery machinery ran.
    """

    index: int
    status: str
    value: Any = None
    attempts: int = 1
    duration: float = 0.0
    error: Optional[ExceptionRecord] = None
    #: Spans the worker process produced for the final (successful) attempt,
    #: already adopted into the driver's trace and re-parented under this
    #: cell's attempt span.  Empty when tracing is off or in serial mode
    #: (serial cells record straight into the driver trace).
    spans: List[obs.Span] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass(frozen=True)
class CellFailure:
    """A labelled permanent failure, as surfaced in experiment reports."""

    label: str
    status: str
    attempts: int
    error: str


def failure_records(
    results: Sequence[CellResult], labels: Sequence[str]
) -> List[CellFailure]:
    """The failed cells of a run as labelled report records."""
    return [
        CellFailure(
            label=labels[result.index],
            status=result.status,
            attempts=result.attempts,
            error=str(result.error) if result.error else "",
        )
        for result in results
        if not result.ok
    ]


@dataclass(frozen=True)
class FailurePolicy:
    """The knobs governing how a :class:`CellRunner` absorbs faults.

    Args:
        timeout: Per-cell wall-clock seconds before an in-flight cell is
            declared hung (pool mode only; serial execution cannot preempt a
            running cell).  ``None`` disables the timeout.
        retries: Extra attempts after the first failed one (so a cell runs at
            most ``retries + 1`` times).
        backoff_base: First retry delay in seconds; doubles per attempt.
        backoff_cap: Upper bound on the undithered delay.
        backoff_jitter: Fractional jitter added on top (``0.1`` = up to +10%).
        backoff_seed: Seed of the deterministic jitter stream.
        max_failures: Circuit breaker — abort the whole run with
            :class:`ExecutionError` once more than this many cells have
            permanently failed (``None`` = never).
        max_pool_respawns: Pool breaks tolerated before ``on_error="serial"``
            abandons the pool for in-process serial execution.
        on_error: What a *permanent* cell failure does — ``"fail"`` aborts
            the run immediately (re-raising the worker's exception when
            available), ``"skip"`` records it and carries on, ``"serial"``
            is ``"skip"`` plus the serial-fallback degradation above.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    backoff_jitter: float = 0.1
    backoff_seed: int = 0
    max_failures: Optional[int] = None
    max_pool_respawns: int = 2
    on_error: str = "skip"

    def __post_init__(self) -> None:
        if self.on_error not in ("fail", "skip", "serial"):
            raise ExecutionError(
                f"on_error must be 'fail', 'skip' or 'serial', got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ExecutionError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ExecutionError(f"timeout must be positive, got {self.timeout}")
        if self.max_failures is not None and self.max_failures < 0:
            raise ExecutionError(
                f"max_failures must be >= 0, got {self.max_failures}"
            )
        if self.max_pool_respawns < 0:
            raise ExecutionError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )

    def backoff_delay(self, index: int, attempt: int) -> float:
        """Deterministic seeded exponential backoff + jitter before a retry.

        ``attempt`` is the attempt that just failed (1-based); the jitter
        stream depends only on (seed, cell, attempt), so two identical runs
        sleep identically.
        """
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))
        rng = random.Random(f"{self.backoff_seed}:{index}:{attempt}")
        return base * (1.0 + self.backoff_jitter * rng.random())


@dataclass
class _TracedValue:
    """Pool-boundary envelope: the worker's return plus captured telemetry."""

    value: Any
    telemetry: obs.WorkerTelemetry


def _unwrap_traced(value: Any) -> Tuple[Any, Optional[obs.WorkerTelemetry]]:
    if isinstance(value, _TracedValue):
        return value.value, value.telemetry
    return value, None


def _invoke(
    worker: Callable[[Any], Any],
    payload: Any,
    index: int,
    attempt: int,
    plan: Optional[FaultPlan],
    trace_pid: Optional[int] = None,
) -> Any:
    """The wrapper every cell attempt runs (in a worker or in-process).

    This is where the fault-injection layer hooks in: the plan may crash or
    hang the worker process, raise a transient error, or corrupt the return
    value, before/after the real ``worker(payload)`` call.

    ``trace_pid`` is the driver's pid when the driver is tracing: an attempt
    running in a *different* process then captures every span (and metric
    increment) the cell produces and ships it back inside a
    :class:`_TracedValue` envelope, which the pool loop unwraps and adopts
    into the driver's trace.  In-process attempts record straight into the
    driver's tracer, so no envelope is needed.
    """
    if plan is not None:
        plan.apply(index, attempt)
    if trace_pid is not None and os.getpid() != trace_pid:
        with obs.capture() as telemetry:
            value = worker(payload)
        if plan is not None:
            value = plan.corrupt(index, attempt, value)
        return _TracedValue(value, telemetry)
    value = worker(payload)
    if plan is not None:
        value = plan.corrupt(index, attempt, value)
    return value


class CellRunner:
    """Execute payload cells under a :class:`FailurePolicy`; see module docs.

    Args:
        jobs: Worker processes; ``1`` runs serially in-process, ``0`` means
            all CPUs (:func:`resolve_jobs`).
        policy: The failure policy; defaults to ``FailurePolicy()``.
        faults: A :class:`FaultPlan` to inject, ``None`` for none, or the
            default ``"env"`` to honour the ``REPRO_FAULTS`` variable.
        result_check: Optional validator; a cell whose value fails it is
            treated like a raised failure (corrupted payloads from the fault
            plan are always rejected).
        label: Name used in warnings and error messages.
    """

    def __init__(
        self,
        jobs: int = 1,
        policy: Optional[FailurePolicy] = None,
        faults: Any = ENV_FAULTS,
        result_check: Optional[Callable[[Any], bool]] = None,
        label: str = "cells",
    ):
        self.jobs = jobs
        self.policy = policy or FailurePolicy()
        self._faults = faults
        self.result_check = result_check
        self.label = label

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, payloads: Sequence[Any], worker: Callable[[Any], Any]) -> List[CellResult]:
        """Run every payload; returns one :class:`CellResult` per payload, in order."""
        n = len(payloads)
        if n == 0:
            return []
        jobs = resolve_jobs(self.jobs)
        plan = self._resolve_faults()
        results: List[Optional[CellResult]] = [None] * n
        failures: List[CellResult] = []
        obs.maybe_enable_from_env()
        with obs.span(
            "cell_sweep", category="runtime", label=self.label, cells=n, jobs=jobs
        ):
            if jobs <= 1 or n == 1:
                for index in range(n):
                    result = self._run_cell_serial(
                        index, payloads[index], worker, plan, 0
                    )
                    results[index] = result
                    if not result.ok:
                        self._permanent_failure(
                            result, getattr(result, "_exception", None), failures
                        )
            else:
                self._run_pool(payloads, worker, jobs, plan, results, failures)
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _resolve_faults(self) -> Optional[FaultPlan]:
        if self._faults == ENV_FAULTS:
            return FaultPlan.from_env()
        return self._faults

    def _value_failure(self, value: Any) -> Optional[ExceptionRecord]:
        """A record when ``value`` is corrupt/invalid, else ``None``."""
        if is_corrupted(value):
            return ExceptionRecord.from_message(
                "CorruptedResult", f"worker returned a corrupted payload: {value!r}"
            )
        if self.result_check is not None and not self.result_check(value):
            return ExceptionRecord.from_message(
                "InvalidResult", f"worker result failed validation: {value!r}"
            )
        return None

    def _permanent_failure(
        self,
        result: CellResult,
        exc: Optional[BaseException],
        failures: List[CellResult],
    ) -> None:
        """Apply the on_error / circuit-breaker policy to a permanent failure."""
        failures.append(result)
        if self.policy.on_error == "fail":
            if exc is not None:
                raise exc
            raise ExecutionError(
                f"{self.label}: cell {result.index} {result.status} after "
                f"{result.attempts} attempt(s): {result.error}"
            )
        if (
            self.policy.max_failures is not None
            and len(failures) > self.policy.max_failures
        ):
            summary = "; ".join(
                f"cell {r.index} {r.status} ({r.error})" for r in failures[-3:]
            )
            raise ExecutionError(
                f"{self.label}: circuit breaker tripped — "
                f"{len(failures)} cells permanently failed "
                f"(max_failures={self.policy.max_failures}): {summary}"
            )

    def _run_cell_serial(
        self,
        index: int,
        payload: Any,
        worker: Callable[[Any], Any],
        plan: Optional[FaultPlan],
        attempts_used: int,
    ) -> CellResult:
        """Run one cell in-process, honouring the retry budget.

        ``attempts_used`` carries over attempts already consumed in pool mode
        (the serial-fallback path); timeouts are not enforced in-process.
        Injected crash/hang faults are inert here by design — a worker death
        cannot take the driver process with it, and neither may its simulation.
        """
        attempt = attempts_used
        last: Optional[ExceptionRecord] = None
        exc_seen: Optional[BaseException] = None
        while True:
            attempt += 1
            start = time.monotonic()
            cell_span = obs.span(
                "cell",
                category="runtime.cell",
                label=self.label,
                index=index,
                attempt=attempt,
            )
            with cell_span:
                record: Optional[ExceptionRecord] = None
                value: Any = None
                try:
                    value = _invoke(worker, payload, index, attempt, plan)
                    record = self._value_failure(value)
                    exc_seen = None
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    record, exc_seen = ExceptionRecord.from_exception(exc), exc
                cell_span.add_attrs(status="ok" if record is None else "failed")
            if record is None:
                return CellResult(
                    index=index,
                    status="ok",
                    value=value,
                    attempts=attempt,
                    duration=time.monotonic() - start,
                )
            last = record
            if attempt >= self.policy.retries + 1:
                result = CellResult(
                    index=index,
                    status="failed",
                    attempts=attempt,
                    duration=time.monotonic() - start,
                    error=last,
                )
                result._exception = exc_seen  # type: ignore[attr-defined]
                return result
            delay = self.policy.backoff_delay(index, attempt)
            with obs.span(
                "backoff",
                category="runtime.backoff",
                label=self.label,
                index=index,
                attempt=attempt,
                delay=delay,
            ):
                time.sleep(delay)

    # ------------------------------------------------------------------
    # The pool loop
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        payloads: Sequence[Any],
        worker: Callable[[Any], Any],
        jobs: int,
        plan: Optional[FaultPlan],
        results: List[Optional[CellResult]],
        failures: List[CellResult],
    ) -> None:
        n = len(payloads)
        policy = self.policy
        max_workers = min(jobs, n)
        pending: deque = deque(range(n))
        delayed: List[Tuple[float, int]] = []  # (ready_time, index) heap
        attempts = [0] * n
        # future -> (index, submitted monotonic, submitted trace timestamp)
        in_flight: Dict[Any, Tuple[int, float, float]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        pool_breaks = 0
        interrupted = False
        trace_pid = os.getpid() if obs.is_enabled() else None

        def record_attempt(
            index: int,
            status: str,
            submitted_ts: float,
            telemetry: Optional[obs.WorkerTelemetry] = None,
        ) -> List[obs.Span]:
            """Record one completed pool attempt as a driver-side span.

            The span covers submit-to-completion (at most ``jobs`` cells are
            in flight, so submission is start time), and any telemetry the
            worker shipped back is adopted into the driver trace re-parented
            under it.  Returns the adopted worker spans.
            """
            if trace_pid is None:
                return []
            attempt_span = obs.record_span(
                "cell",
                category="runtime.cell",
                start=submitted_ts,
                duration=obs.now() - submitted_ts,
                attrs={
                    "label": self.label,
                    "index": index,
                    "attempt": attempts[index],
                    "status": status,
                },
            )
            if telemetry is None or attempt_span is None:
                return []
            adopted = obs.adopt_spans(telemetry.spans, attempt_span.span_id)
            obs.merge_metrics(telemetry.metrics)
            return adopted

        def finish(result: CellResult, exc: Optional[BaseException] = None) -> None:
            results[result.index] = result
            if not result.ok:
                self._permanent_failure(result, exc, failures)

        def retry_or_finish(
            index: int,
            status: str,
            record: ExceptionRecord,
            duration: float,
            exc: Optional[BaseException] = None,
        ) -> None:
            if attempts[index] <= policy.retries:
                delay = policy.backoff_delay(index, attempts[index])
                heapq.heappush(delayed, (time.monotonic() + delay, index))
                if trace_pid is not None:
                    # Pool retries wait on the scheduler heap, not in a
                    # sleep; the span covers the scheduled delay.
                    obs.record_span(
                        "backoff",
                        category="runtime.backoff",
                        start=obs.now(),
                        duration=delay,
                        attrs={
                            "label": self.label,
                            "index": index,
                            "attempt": attempts[index],
                            "delay": delay,
                        },
                    )
                return
            finish(
                CellResult(
                    index=index,
                    status=status,
                    attempts=attempts[index],
                    duration=duration,
                    error=record,
                ),
                exc,
            )

        def unfinished() -> List[int]:
            return [i for i in range(n) if results[i] is None]

        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
            while any(result is None for result in results):
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    pending.append(heapq.heappop(delayed)[1])
                while pending and len(in_flight) < max_workers:
                    index = pending.popleft()
                    attempts[index] += 1
                    future = pool.submit(
                        _invoke,
                        worker,
                        payloads[index],
                        index,
                        attempts[index],
                        plan,
                        trace_pid,
                    )
                    in_flight[future] = (index, time.monotonic(), obs.now())
                if not in_flight:
                    if delayed:
                        time.sleep(max(0.0, min(delayed[0][0] - time.monotonic(), 0.05)))
                        continue
                    break  # defensive: nothing queued but cells unfinished
                done, _ = wait(
                    set(in_flight), timeout=self._poll_interval(delayed),
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                broken = False
                for future in done:
                    index, submitted, submitted_ts = in_flight.pop(future)
                    try:
                        value = future.result()
                    except BrokenExecutor:
                        # A worker died; every in-flight cell is implicated.
                        broken = True
                        in_flight[future] = (index, submitted, submitted_ts)
                        continue
                    except Exception as exc:
                        # A raising worker loses its telemetry envelope (the
                        # exception is the only thing that crosses the pool).
                        record_attempt(index, "failed", submitted_ts)
                        retry_or_finish(
                            index, "failed", ExceptionRecord.from_exception(exc),
                            now - submitted, exc,
                        )
                        continue
                    value, telemetry = _unwrap_traced(value)
                    record = self._value_failure(value)
                    if record is not None:
                        record_attempt(index, "failed", submitted_ts, telemetry)
                        retry_or_finish(index, "failed", record, now - submitted)
                        continue
                    finish(
                        CellResult(
                            index=index,
                            status="ok",
                            value=value,
                            attempts=attempts[index],
                            duration=now - submitted,
                            spans=record_attempt(index, "ok", submitted_ts, telemetry),
                        )
                    )
                if broken:
                    pool_breaks += 1
                    respawn_start = obs.now()
                    crash_record = ExceptionRecord.from_message(
                        "WorkerCrash",
                        "worker process died (segfault/OOM/killed); "
                        "the process pool was respawned",
                    )
                    for future, (index, submitted, submitted_ts) in list(
                        in_flight.items()
                    ):
                        record_attempt(index, "crashed", submitted_ts)
                        retry_or_finish(index, "crashed", crash_record, now - submitted)
                    in_flight.clear()
                    self._stop_pool(pool, hard=True)
                    pool = None
                    if (
                        policy.on_error == "serial"
                        and pool_breaks > policy.max_pool_respawns
                    ):
                        remaining = unfinished()
                        warnings.warn(
                            f"{self.label}: process pool broke {pool_breaks} "
                            f"times; degrading to serial execution for the "
                            f"{len(remaining)} remaining cell(s)",
                            RuntimeWarning, stacklevel=3,
                        )
                        # Drain the queues; the serial loop owns the rest.
                        pending.clear()
                        delayed.clear()
                        for index in remaining:
                            finish_result = self._run_cell_serial(
                                index, payloads[index], worker, plan, attempts[index]
                            )
                            finish(
                                finish_result,
                                getattr(finish_result, "_exception", None),
                            )
                        break
                    if pool_breaks == 1:
                        warnings.warn(
                            f"{self.label}: a worker process died; respawning "
                            f"the pool and requeueing unfinished cells",
                            RuntimeWarning, stacklevel=3,
                        )
                    pool = ProcessPoolExecutor(max_workers=max_workers)
                    if trace_pid is not None:
                        obs.record_span(
                            "pool_respawn",
                            category="runtime.pool",
                            start=respawn_start,
                            duration=obs.now() - respawn_start,
                            attrs={"label": self.label, "reason": "worker_crash"},
                        )
                    continue
                if policy.timeout is not None:
                    expired = [
                        (future, index, submitted, submitted_ts)
                        for future, (index, submitted, submitted_ts) in in_flight.items()
                        if now - submitted > policy.timeout
                    ]
                    if expired:
                        timeout_record = ExceptionRecord.from_message(
                            "CellTimeout",
                            f"cell exceeded the {policy.timeout:.3g}s wall-clock "
                            f"timeout; its worker was killed",
                        )
                        expired_ids = {index for _, index, _, _ in expired}
                        # The hung workers cannot be cancelled individually:
                        # kill the pool, requeue the innocent in-flight cells
                        # without consuming one of their attempts.
                        for future, (index, submitted, submitted_ts) in list(
                            in_flight.items()
                        ):
                            if index not in expired_ids:
                                attempts[index] -= 1
                                pending.append(index)
                        for _, index, submitted, submitted_ts in expired:
                            record_attempt(index, "timed_out", submitted_ts)
                            retry_or_finish(
                                index, "timed_out", timeout_record, now - submitted
                            )
                        in_flight.clear()
                        respawn_start = obs.now()
                        self._stop_pool(pool, hard=True)
                        pool = ProcessPoolExecutor(max_workers=max_workers)
                        if trace_pid is not None:
                            obs.record_span(
                                "pool_respawn",
                                category="runtime.pool",
                                start=respawn_start,
                                duration=obs.now() - respawn_start,
                                attrs={"label": self.label, "reason": "timeout"},
                            )
        except KeyboardInterrupt:
            interrupted = True
            completed = sum(result is not None for result in results)
            warnings.warn(
                f"{self.label}: interrupted — cancelling pending cells "
                f"({completed}/{n} finished; partial results preserved)",
                RuntimeWarning, stacklevel=2,
            )
            raise
        except BaseException:
            interrupted = True  # hard teardown for breaker/fail aborts too
            raise
        finally:
            self._stop_pool(pool, hard=interrupted or bool(in_flight))

    @staticmethod
    def _poll_interval(delayed: List[Tuple[float, int]]) -> Optional[float]:
        """How long ``wait()`` may block before the loop must look around."""
        intervals = [0.25]  # always wake up to notice hung workers promptly
        if delayed:
            intervals.append(max(0.0, delayed[0][0] - time.monotonic()))
        return min(intervals)

    @staticmethod
    def _stop_pool(pool: Optional[ProcessPoolExecutor], hard: bool) -> None:
        """Shut a pool down; ``hard`` terminates workers and cancels futures."""
        if pool is None:
            return
        if hard:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                if process.is_alive():
                    process.terminate()
        pool.shutdown(wait=True, cancel_futures=hard)

