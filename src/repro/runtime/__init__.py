"""repro.runtime: the fault-tolerant execution substrate for every fan-out.

Module map:

* :mod:`repro.runtime.runner` — :class:`CellRunner` executes payload cells
  under a :class:`FailurePolicy` (per-cell timeouts, bounded retries with
  deterministic seeded backoff + jitter, max-failure circuit breaker, pool
  respawn on worker crash, serial-fallback degradation, prompt Ctrl-C) and
  returns structured :class:`CellResult` records; :func:`resolve_jobs` maps
  ``jobs=0`` to all CPUs.
* :mod:`repro.runtime.faults` — the deterministic fault-injection layer:
  a :class:`FaultPlan` (arg- or ``REPRO_FAULTS`` env-activated) makes
  designated worker cells crash, hang, raise transiently, or return
  corrupted payloads on chosen attempts, reproducibly.

The experiment sweeps (``repro.experiments``), the level-3 seed search
(``repro.compiler.pipeline``) and the CLI all fan out through this package;
a faulted cell becomes an explicit failure record instead of a crashed sweep,
and every surviving cell is bit-identical to a fault-free serial run because
each payload carries its own seed.
"""

from .faults import (
    FAULT_KINDS,
    FAULTS_ENV_VAR,
    Corrupted,
    Fault,
    FaultPlan,
    is_corrupted,
)
from .runner import (
    CELL_STATUSES,
    CellFailure,
    CellResult,
    CellRunner,
    ExceptionRecord,
    FailurePolicy,
    failure_records,
    resolve_jobs,
)

__all__ = [
    "CELL_STATUSES",
    "CellFailure",
    "CellResult",
    "CellRunner",
    "Corrupted",
    "ExceptionRecord",
    "FAULT_KINDS",
    "FAULTS_ENV_VAR",
    "FailurePolicy",
    "Fault",
    "FaultPlan",
    "failure_records",
    "is_corrupted",
    "resolve_jobs",
]
