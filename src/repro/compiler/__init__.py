"""End-to-end compilation pipelines (baseline and Orchestrated Trios)."""

from .pipeline import (
    DEFAULT_SEED_TRIALS,
    PIPELINES,
    STAGE_BUILDERS,
    TranspileOptions,
    build_pass_manager,
    run_transpile,
    transpile,
)
from ..hardware.target import Target
from .result import CompilationResult, gate_reduction, check_connectivity

__all__ = [
    "DEFAULT_SEED_TRIALS",
    "PIPELINES",
    "STAGE_BUILDERS",
    "build_pass_manager",
    "Target",
    "TranspileOptions",
    "run_transpile",
    "transpile",
    "CompilationResult",
    "gate_reduction",
    "check_connectivity",
]
