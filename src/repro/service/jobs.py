"""Content-addressed compile jobs: one key recipe for drivers and server.

A :class:`CompileJob` freezes everything that determines a compiled circuit —
the canonical QASM of the input, the target topology's signature and the
resolved :class:`~repro.compiler.pipeline.TranspileOptions` (pipeline name
included) — into a single SHA-256 key.  The experiment drivers
(:func:`repro.experiments.benchmarks.compile_benchmark_cached`, the Toffoli
configurations) and the compile service (:mod:`repro.service.service`) all
build their cache keys here, so a result cached by one is a hit for the
others.

The key recipe (also documented in the README's service section)::

    sha256("repro-compile-job/v2" + topology_signature
           + options.canonical() + canonical_qasm)

* ``canonical_qasm`` is ``to_qasm(circuit)`` — the bit-exact QASM
  round-trip makes the text a faithful content address for the circuit.
* ``topology_signature`` is the device name, qubit count and edge list.
* ``options.canonical()`` renders every semantic field of the resolved
  options, defaults filled in, so ``transpile(c, t)`` and
  ``transpile(c, t, optimization_level=1)`` share a key while
  ``optimization_level=2`` never collides with either.  ``validate``
  cannot change the compiled output and is left out, so varying it never
  fragments the cache.

Options are resolved when the job is built: an unknown, misdirected or
ill-typed option raises :class:`ServiceRequestError` before any key lookup
or dispatch, and :func:`execute_compile_job` runs exactly the resolved
object.

Caching safety: a job whose seed is ``None`` under stochastic routing is
**not cacheable** (:attr:`CompileJob.cacheable`) — its output is
intentionally non-reproducible, and serving a memoized copy would silently
change that contract.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.qasm import from_qasm, to_qasm
from ..compiler.pipeline import TranspileOptions, run_transpile
from ..compiler.result import CompilationResult
from ..exceptions import ReproError, ServiceRequestError
from ..hardware.topology import CouplingMap
from .cache import ShardedLRUCache

#: Version tag mixed into every key; bump when the recipe changes shape.
_KEY_VERSION = "repro-compile-job/v2"


def topology_signature(coupling_map: CouplingMap) -> tuple:
    """The hashable identity of a target device: name, size, edge list."""
    return (coupling_map.name, coupling_map.num_qubits, tuple(coupling_map.edges))


def compile_job_key(
    canonical_qasm: str, topology: tuple, options: TranspileOptions
) -> str:
    """The SHA-256 content address of one compile job (hex digest)."""
    payload = "\n".join(
        (
            _KEY_VERSION,
            f"topology={topology!r}",
            f"options={options.canonical()}",
            "qasm:",
            canonical_qasm,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _memo_size(key: str, value: str) -> int:
    """The charge of a memo entry: the lengths of its two strings."""
    return len(key) + len(value)


#: The raw → canonical QASM memo, two kinds of entry in one bounded cache.
#: A raw text's digest maps to the canonical text's digest, and
#: ``_TEXT_KEY + canonical digest`` maps to the canonical text, so every raw
#: variant of a circuit shares, and is charged for, one stored text.  Keeps
#: the warm-path key derivation free of parsing entirely.
_CANONICAL_QASM_CACHE = ShardedLRUCache(
    max_bytes=32 * 1024 * 1024, size_of=_memo_size, name="qasm"
)
_TEXT_KEY = "text:"


def canonical_qasm(text: str) -> Tuple[str, Optional[QuantumCircuit]]:
    """``text`` parsed and re-emitted by :func:`to_qasm`, memoized.

    Returns the canonical text and the parsed circuit, or ``None`` for the
    circuit when the raw text was memoized (no parse happened).  Raises
    :class:`ServiceRequestError` for text that does not parse.
    """
    digest = _sha256(text)
    canonical_digest = _CANONICAL_QASM_CACHE.get(digest)
    if canonical_digest is not None:
        canonical = _CANONICAL_QASM_CACHE.get(_TEXT_KEY + canonical_digest)
        if canonical is not None:
            return canonical, None
    try:
        circuit = from_qasm(text)
    except ReproError as exc:
        raise ServiceRequestError(f"unparseable QASM: {exc}") from exc
    canonical = to_qasm(circuit)
    # Interned, so the raw entries of one circuit share one digest string.
    canonical_digest = sys.intern(_sha256(canonical))
    text_key = _TEXT_KEY + canonical_digest
    stored = _CANONICAL_QASM_CACHE.get(text_key)
    if stored is None:
        _CANONICAL_QASM_CACHE.put(text_key, canonical)
    else:
        canonical = stored
    _CANONICAL_QASM_CACHE.put(digest, canonical_digest)
    return canonical, circuit


@dataclass
class CompileJob:
    """One fully specified compile: content key + everything to execute it."""

    qasm: str
    coupling_map: CouplingMap
    options: TranspileOptions
    key: str
    #: The parsed/original circuit, carried to skip a re-parse at execution.
    circuit: Optional[QuantumCircuit] = None

    @classmethod
    def from_circuit(
        cls,
        circuit: QuantumCircuit,
        coupling_map: CouplingMap,
        method: str,
        **options: Any,
    ) -> "CompileJob":
        """A job from an in-memory circuit (the drivers' entry point)."""
        qasm = to_qasm(circuit)
        return cls._build(qasm, circuit, coupling_map, method, options)

    @classmethod
    def from_qasm(
        cls,
        text: str,
        coupling_map: CouplingMap,
        method: str,
        **options: Any,
    ) -> "CompileJob":
        """A job from QASM text (the service's entry point).

        The text is parsed and re-emitted so formatting differences never
        produce distinct keys for the same circuit.  The raw-text →
        canonical-text step is memoized (:func:`canonical_qasm`: bounded,
        content-addressed), so a warm-cache request never pays the parse
        again.
        """
        canonical, circuit = canonical_qasm(text)
        return cls._build(canonical, circuit, coupling_map, method, options)

    @classmethod
    def _build(
        cls,
        qasm: str,
        circuit: Optional[QuantumCircuit],
        coupling_map: CouplingMap,
        method: str,
        options: Mapping[str, Any],
    ) -> "CompileJob":
        try:
            resolved = TranspileOptions.resolve(method, options)
        except ReproError as exc:
            raise ServiceRequestError(str(exc)) from exc
        if resolved.noise_aware or resolved.layout == "noise":
            # Jobs compile for a bare coupling map; the pass would fail in
            # the worker, after a dispatch and its retries.
            raise ServiceRequestError(
                "noise-aware layout and routing need a calibration, which "
                "compile jobs do not carry"
            )
        key = compile_job_key(qasm, topology_signature(coupling_map), resolved)
        return cls(qasm, coupling_map, resolved, key, circuit)

    @property
    def cacheable(self) -> bool:
        """False when the compile is intentionally non-reproducible.

        Seedless stochastic routing draws from an unseeded RNG; caching such
        a result would freeze one arbitrary draw forever, silently changing
        the caller's semantics.  Everything else is deterministic.
        """
        return not (self.options.seed is None and self.options.routing == "stochastic")


def execute_compile_job(job: CompileJob) -> CompilationResult:
    """Run one job with exactly its resolved options."""
    circuit = job.circuit if job.circuit is not None else from_qasm(job.qasm)
    return run_transpile(circuit, job.coupling_map, job.options)


@dataclass(frozen=True)
class CompiledArtifact:
    """A compiled result rendered for serving: what the service caches.

    Rendering the compiled circuit to QASM costs 2–3 ms for the largest
    Fig 9/10 benchmarks — far more than a cache lookup — so it happens
    exactly once, in the pool worker, and every subsequent hit ships these
    pre-rendered bytes untouched.
    """

    method: str
    qasm: str
    cnots: int
    depth: int
    swaps: int

    @classmethod
    def from_result(cls, result: CompilationResult) -> "CompiledArtifact":
        return cls(
            method=result.method,
            qasm=to_qasm(result.circuit),
            cnots=result.two_qubit_gate_count,
            depth=result.depth,
            swaps=result.swaps_inserted,
        )


def run_job_cached(
    job: CompileJob, cache: ShardedLRUCache
) -> Tuple[CompilationResult, str]:
    """Serve a job from the cache, compiling on a miss; returns (result, how).

    ``how`` is ``"hit"``, ``"miss"`` or ``"uncached"`` (a non-cacheable job,
    which bypasses the cache entirely — including its counters).
    """
    if not job.cacheable:
        return execute_compile_job(job), "uncached"
    cached = cache.get(job.key)
    if cached is not None:
        return cached, "hit"
    result = execute_compile_job(job)
    cache.put(job.key, result)
    return result, "miss"
