"""Shared helpers for the ``BENCH_*.json`` trajectory files.

A benchmark script that emits a JSON payload for CI to archive
(``bench_runtime.py``) writes it under :data:`BENCH_DIR` (``build/bench/``,
gitignored), so running it leaves the checkout unchanged.
:func:`emit_bench_json` is the single writer, so each file carries
the same provenance block (benchmark name, git revision, python/numpy
versions) under a ``"meta"`` key while the script's own top-level keys are
left untouched — consumers that read a payload back keep working unchanged.
"""

import json
import platform
import subprocess
from pathlib import Path

import numpy

#: Where the benchmark scripts write their payloads (gitignored).
BENCH_DIR = Path(__file__).resolve().parent.parent / "build" / "bench"


def git_revision() -> str:
    """The repository HEAD revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_metadata(name: str) -> dict:
    """The provenance block shared by every ``BENCH_*.json`` payload."""
    return {
        "bench": name,
        "git_revision": git_revision(),
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
    }


def emit_bench_json(path, name: str, payload: dict) -> Path:
    """Write ``payload`` to ``path`` with the shared ``"meta"`` block added.

    The payload's own keys win on collision (a script that already records a
    ``"meta"`` key keeps it); the file always ends with a newline.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {"meta": bench_metadata(name)}
    data.update(payload)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path
