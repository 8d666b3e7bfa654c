"""The asyncio compile front end: coalescing, batching, cached dispatch.

:class:`CompileService` accepts compile requests (QASM + target + options),
answers cache hits immediately from the shared :class:`~repro.service.cache.
ShardedLRUCache`, **coalesces** identical in-flight requests onto one
pending compile, and dispatches cache misses in batches to the existing
fault-tolerant process pool (:class:`repro.runtime.CellRunner`) under a
:class:`repro.runtime.FailurePolicy` — so a crashed or hung worker becomes a
structured :class:`~repro.exceptions.ServiceCompileError` for exactly the
requests that needed it, never a dead server.

Request lifecycle::

    compile(request)
      └─ resolve → CompileJob (key = sha256(qasm+topology+options))
         ├─ cache hit  ───────────────────────────────→ respond "hit"
         ├─ key already in flight → await its future  → respond "coalesced"
         └─ enqueue job, wake the dispatcher, await   → respond "miss"

    _dispatch_loop (one task)
      └─ on wake-up, drain ≤ max_batch unique jobs, run them on a
         CellRunner pool in a thread executor, resolve each future with its
         result / structured error; repeat while jobs are pending.

Batches form without a timer: requests that arrive in one event-loop tick
(an ``asyncio.gather``) are all pending when the dispatcher wakes, and
requests that arrive while a batch compiles are pending when it returns.
A lone miss waits for nothing but its compile.

Request-level telemetry goes through :mod:`repro.obs` verbatim:
``service.request`` spans (recorded post-hoc via ``record_span`` — the
tracer's context-manager stack is synchronous and would mis-parent
interleaved async requests), a ``service.request_ms`` histogram, and the
cache's hit/miss/eviction counters.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .. import obs
from ..exceptions import (
    ServiceCompileError,
    ServiceError,
    ServiceRequestError,
    ServiceUnavailableError,
)
from ..hardware.library import PAPER_TOPOLOGIES, by_name
from ..hardware.topology import CouplingMap
from ..exceptions import HardwareError
from ..runtime import CellResult, CellRunner, FailurePolicy
from .cache import ShardedLRUCache
from .jobs import CompileJob, CompiledArtifact, execute_compile_job
from ..compiler.pipeline import PIPELINES

#: Worker-exception type names that indicate the *request* was at fault
#: (bad option values, an unroutable circuit, an illegal layout) rather than
#: service infrastructure — the HTTP layer maps these to 400.
USER_ERROR_TYPES = frozenset(
    {
        "TranspilerError",
        "ContractViolationError",
        "RoutingError",
        "LayoutError",
        "ScheduleError",
        "CircuitError",
        "GateError",
        "HardwareError",
        "BenchmarkError",
        "ServiceRequestError",
    }
)


@dataclass
class CompileRequest:
    """One client request: a circuit, a target, a pipeline, options.

    ``target`` is either the name of a registered paper topology or an
    explicit :class:`CouplingMap`; ``options`` are ``transpile()`` keywords,
    resolved into :class:`~repro.compiler.TranspileOptions` when the job is
    built.
    """

    qasm: str
    target: Any
    method: str = "trios"
    options: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CompileRequest":
        """Build a request from a decoded JSON body, with strict validation."""
        if not isinstance(payload, Mapping):
            raise ServiceRequestError("request body must be a JSON object")
        qasm = payload.get("qasm")
        if not isinstance(qasm, str) or not qasm.strip():
            raise ServiceRequestError("request must carry a non-empty 'qasm' string")
        target = payload.get("target")
        if not isinstance(target, str):
            raise ServiceRequestError(
                f"request must name a 'target' topology; known targets: "
                f"{sorted(PAPER_TOPOLOGIES)}"
            )
        method = payload.get("method", "trios")
        if method not in PIPELINES:
            raise ServiceRequestError(
                f"unknown method {method!r}; known pipelines: {sorted(PIPELINES)}"
            )
        options = payload.get("options", {})
        if not isinstance(options, Mapping):
            raise ServiceRequestError("'options' must be a JSON object")
        options = dict(options)
        if "calibration" in options:
            raise ServiceRequestError(
                "'calibration' objects cannot travel over the wire; "
                "calibrations are server-side configuration"
            )
        layout = options.get("layout")
        if isinstance(layout, Mapping):
            # JSON object keys are strings; the layout mapping is int→int.
            try:
                options["layout"] = {int(k): int(v) for k, v in layout.items()}
            except (TypeError, ValueError) as exc:
                raise ServiceRequestError(
                    f"layout mapping must be logical→physical integers: {exc}"
                ) from exc
        return cls(qasm=qasm, target=target, method=method, options=options)

    def resolve_coupling_map(self) -> CouplingMap:
        if isinstance(self.target, CouplingMap):
            return self.target
        try:
            return by_name(str(self.target))
        except HardwareError as exc:
            raise ServiceRequestError(
                f"unknown target topology {self.target!r}; known targets: "
                f"{sorted(PAPER_TOPOLOGIES)}"
            ) from exc


@dataclass
class CompileResponse:
    """One served compile: the key, how it was served, and the result."""

    key: str
    status: str  # "miss" | "hit" | "coalesced" | "uncached"
    method: str
    qasm: str
    cnots: int
    depth: int
    swaps: int
    duration_ms: float
    attempts: int = 1

    @classmethod
    def build(
        cls,
        job: CompileJob,
        artifact: CompiledArtifact,
        status: str,
        duration_ms: float,
        attempts: int = 1,
    ) -> "CompileResponse":
        return cls(
            key=job.key,
            status=status,
            method=artifact.method,
            qasm=artifact.qasm,
            cnots=artifact.cnots,
            depth=artifact.depth,
            swaps=artifact.swaps,
            duration_ms=duration_ms,
            attempts=attempts,
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "status": self.status,
            "method": self.method,
            "qasm": self.qasm,
            "cnots": self.cnots,
            "depth": self.depth,
            "swaps": self.swaps,
            "duration_ms": self.duration_ms,
            "attempts": self.attempts,
        }


@dataclass
class ServiceStats:
    """Request-level counters for one :class:`CompileService` lifetime."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    uncached: int = 0
    errors: int = 0
    #: Compiles actually dispatched to the runner — the coalescing assertion
    #: in the service benchmark is ``pool_compiles <= unique keys``.
    pool_compiles: int = 0
    batches: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "uncached": self.uncached,
            "errors": self.errors,
            "pool_compiles": self.pool_compiles,
            "batches": self.batches,
        }


#: (artifact, attempts) as produced by the batch executor for compile().
_BatchOutcome = Tuple[CompiledArtifact, int]


def _compile_cell(job: CompileJob) -> CompiledArtifact:
    """Process-pool entry point: execute one compile job and render it.

    The QASM render happens here — in the worker, once per unique key — so
    hit and coalesced responses are pure lookups of pre-rendered bytes.
    """
    return CompiledArtifact.from_result(execute_compile_job(job))


class CompileService:
    """The asyncio compile service; see the module docstring for the flow.

    Args:
        cache: The shared content-addressed result cache; a fresh default
            :class:`ShardedLRUCache` when omitted.
        pool_jobs: Worker processes per dispatched batch.  ``1`` compiles
            in-process (useful in tests); a single-job batch always runs
            in-process regardless (the runner's serial fast path).
        max_batch: Upper bound on unique jobs per dispatched batch.
        policy: Failure policy for dispatched compiles.  ``on_error="fail"``
            is rejected — a server must never let one poisoned request abort
            a batch that carries other clients' work.
        faults: Fault-injection plan (``"env"`` honours ``REPRO_FAULTS``,
            like every other runner); used by the crash-resilience tests.
    """

    def __init__(
        self,
        cache: Optional[ShardedLRUCache] = None,
        pool_jobs: int = 2,
        max_batch: int = 32,
        policy: Optional[FailurePolicy] = None,
        faults: Any = "env",
    ):
        if policy is None:
            policy = FailurePolicy(retries=1, on_error="skip")
        if policy.on_error == "fail":
            raise ServiceError(
                "a compile service cannot use on_error='fail': one failing "
                "request would abort every request in its batch"
            )
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self.cache = cache if cache is not None else ShardedLRUCache(name="compile")
        self.pool_jobs = pool_jobs
        self.max_batch = max_batch
        self.policy = policy
        self._faults = faults
        self.stats = ServiceStats()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending: List[CompileJob] = []
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the dispatcher task; idempotent."""
        if self._dispatcher is not None:
            return
        obs.maybe_enable_from_env()
        self._stopping = False
        self._wake = asyncio.Event()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop dispatching; pending requests fail with ServiceUnavailableError."""
        self._stopping = True
        if self._wake is not None:
            self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        shutdown_error = ServiceUnavailableError("compile service is shutting down")
        for key, future in list(self._inflight.items()):
            if not future.done():
                future.set_exception(shutdown_error)
        self._inflight.clear()
        self._pending.clear()

    @property
    def running(self) -> bool:
        return self._dispatcher is not None and not self._stopping

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    async def compile(self, request: CompileRequest) -> CompileResponse:
        """Serve one compile request; see the module docstring for the flow."""
        if not self.running:
            raise ServiceUnavailableError("compile service is not running")
        start = obs.now()
        self.stats.requests += 1
        try:
            response = await self._compile_inner(request, start)
        except Exception:
            self.stats.errors += 1
            self._record_request(start, status="error", key=None)
            raise
        self._record_request(start, status=response.status, key=response.key)
        return response

    async def _compile_inner(
        self, request: CompileRequest, start: float
    ) -> CompileResponse:
        coupling_map = request.resolve_coupling_map()
        job = CompileJob.from_qasm(
            request.qasm, coupling_map, request.method, **request.options
        )
        if not job.cacheable:
            # Non-reproducible by request (seedless stochastic routing):
            # bypass cache *and* coalescing — two such requests legitimately
            # produce different circuits.
            artifact, attempts = await self._dispatch_solo(job)
            self.stats.uncached += 1
            return CompileResponse.build(
                job, artifact, "uncached", self._elapsed_ms(start), attempts
            )
        cached = self.cache.get(job.key)
        if cached is not None:
            self.stats.hits += 1
            return CompileResponse.build(job, cached, "hit", self._elapsed_ms(start))
        existing = self._inflight.get(job.key)
        if existing is not None:
            artifact, attempts = await asyncio.shield(existing)
            self.stats.coalesced += 1
            return CompileResponse.build(
                job, artifact, "coalesced", self._elapsed_ms(start), attempts
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[job.key] = future
        self._pending.append(job)
        assert self._wake is not None
        self._wake.set()
        artifact, attempts = await asyncio.shield(future)
        self.stats.misses += 1
        return CompileResponse.build(
            job, artifact, "miss", self._elapsed_ms(start), attempts
        )

    async def _dispatch_solo(self, job: CompileJob) -> _BatchOutcome:
        """Run one uncacheable job immediately, off the coalescing path."""
        loop = asyncio.get_running_loop()
        runner = self._make_runner(1)
        records = await loop.run_in_executor(
            None, runner.run, [job], _compile_cell
        )
        self.stats.pool_compiles += 1
        record = records[0]
        if not record.ok:
            raise self._compile_error(job, record)
        return record.value, record.attempts

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            await self._wake.wait()
            self._wake.clear()
            if self._stopping:
                return
            while self._pending:
                batch = self._pending[: self.max_batch]
                del self._pending[: len(batch)]
                await self._execute_batch(batch)

    def _make_runner(self, batch_size: int) -> CellRunner:
        return CellRunner(
            jobs=min(self.pool_jobs, batch_size),
            policy=self.policy,
            faults=self._faults,
            label="compile service",
        )

    async def _execute_batch(self, batch: List[CompileJob]) -> None:
        """Run one batch on the pool and resolve each job's future."""
        loop = asyncio.get_running_loop()
        self.stats.batches += 1
        batch_start = obs.now()
        runner = self._make_runner(len(batch))
        try:
            records = await loop.run_in_executor(
                None, runner.run, batch, _compile_cell
            )
        except Exception as exc:
            # Infrastructure failure (circuit breaker, broken executor the
            # runner could not absorb): fail this batch's requests, keep the
            # server alive for the next one.
            for job in batch:
                future = self._inflight.pop(job.key, None)
                if future is not None and not future.done():
                    future.set_exception(
                        ServiceError(f"batch execution failed: {exc}")
                    )
            return
        finally:
            self.stats.pool_compiles += len(batch)
            if obs.is_enabled():
                obs.record_span(
                    "service.batch",
                    category="service",
                    start=batch_start,
                    duration=obs.now() - batch_start,
                    attrs={"jobs": len(batch)},
                )
        for job, record in zip(batch, records):
            future = self._inflight.pop(job.key, None)
            if future is None or future.done():
                continue
            if record.ok:
                self.cache.put(job.key, record.value)
                future.set_result((record.value, record.attempts))
            else:
                future.set_exception(self._compile_error(job, record))

    @staticmethod
    def _compile_error(job: CompileJob, record: CellResult) -> ServiceCompileError:
        error = record.error
        return ServiceCompileError(
            f"compile {job.key[:12]}… permanently {record.status} after "
            f"{record.attempts} attempt(s): {error}",
            status=record.status,
            attempts=record.attempts,
            error_type=error.type_name if error is not None else "",
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @staticmethod
    def _elapsed_ms(start: float) -> float:
        return (obs.now() - start) * 1000.0

    def _record_request(
        self, start: float, status: str, key: Optional[str]
    ) -> None:
        if not obs.is_enabled():
            return
        duration = obs.now() - start
        attrs: Dict[str, Any] = {"status": status}
        if key is not None:
            attrs["key"] = key
        obs.record_span(
            "service.request",
            category="service",
            start=start,
            duration=duration,
            attrs=attrs,
        )
        obs.histogram("service.request_ms").observe(duration * 1000.0)
        obs.counter(f"service.requests.{status}").inc()

    def stats_json(self) -> Dict[str, Any]:
        """Service + cache counters, as one JSON-ready block."""
        return {
            "service": self.stats.to_json(),
            "cache": self.cache.stats().to_json(),
        }
