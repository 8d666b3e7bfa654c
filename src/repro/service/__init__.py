"""repro.service: compilation as a service.

Module map:

* :mod:`repro.service.cache`   — :class:`ShardedLRUCache`, the sharded,
  per-shard-locked, byte-size-bounded LRU shared by the server and the
  experiment drivers' compile-once memoization.
* :mod:`repro.service.jobs`    — the content-addressed job API:
  :class:`CompileJob`, the ``sha256(qasm + topology + options)`` key recipe
  (:func:`compile_job_key`) over resolved
  :class:`~repro.compiler.TranspileOptions`, and :func:`run_job_cached`.
* :mod:`repro.service.service` — :class:`CompileService`, the asyncio front
  end: request coalescing, batched dispatch onto the fault-tolerant
  :class:`repro.runtime.CellRunner` pool, structured per-request errors.
* :mod:`repro.service.http`    — the JSON-over-HTTP server behind the
  ``repro serve`` CLI subcommand (``/healthz``, ``/stats``, ``/compile``,
  ``/shutdown``).
* :mod:`repro.service.client`  — a synchronous client for smoke tests and
  benchmarks.

The experiment drivers consume the same job API as the server
(:func:`repro.experiments.benchmarks.compile_benchmark_cached` is a thin
client of :func:`run_job_cached` over the shared cache), so a compile cached
anywhere is a hit everywhere, with one key recipe to audit.
"""

from .cache import CacheStats, ShardedLRUCache, default_size_of
from .client import ServiceClient
from .http import ServiceHTTPServer, serve
from .jobs import (
    CompileJob,
    CompiledArtifact,
    compile_job_key,
    execute_compile_job,
    run_job_cached,
    topology_signature,
)
from .service import (
    USER_ERROR_TYPES,
    CompileRequest,
    CompileResponse,
    CompileService,
    ServiceStats,
)

__all__ = [
    "CacheStats",
    "CompileJob",
    "CompiledArtifact",
    "CompileRequest",
    "CompileResponse",
    "CompileService",
    "ServiceClient",
    "ServiceHTTPServer",
    "ServiceStats",
    "ShardedLRUCache",
    "USER_ERROR_TYPES",
    "compile_job_key",
    "default_size_of",
    "execute_compile_job",
    "run_job_cached",
    "serve",
    "topology_signature",
]
