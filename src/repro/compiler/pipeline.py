"""The unified compilation driver: ``transpile(circuit, target, ...)``.

Both of the paper's flows are expressed as *named stage lists* over the DAG
IR (:data:`PIPELINES`):

* ``"baseline"`` — the conventional flow of Figure 2a (the paper's "Qiskit"
  baseline): fully decompose to one- and two-qubit gates, place, route pairs,
  optimise lightly.
* ``"trios"`` — the Orchestrated Trios flow of Figure 2b: decompose everything
  *except* Toffolis, place, route Toffolis as three-qubit units, run the
  mapping-aware second decomposition, legalise, then the same light
  optimisation.

Each stage name maps to a builder (:data:`STAGE_BUILDERS`) that instantiates
the stage's passes for a given :class:`~repro.hardware.target.Target` and
option set, so new pipelines are a new name list away.  The optimisation stage
wraps the clean-up passes in a :class:`~repro.passes.base.FixedPoint` loop
that iterates cancellation/consolidation to convergence.

:func:`compile_baseline` and :func:`compile_trios` remain as thin shims over
:func:`transpile` for the experiment harnesses and historical callers; their
outputs are byte-identical to the pre-DAG pipelines (the equivalence tests
pin this against frozen hashes).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from .. import obs
from ..analysis.contracts import resolve_validation_mode
from ..circuits.circuit import QuantumCircuit
from ..exceptions import TranspilerError
from ..hardware.calibration import DeviceCalibration
from ..hardware.target import Target
from ..hardware.topology import CouplingMap
from ..runtime import CellRunner, FailurePolicy, resolve_jobs
from ..passes.base import BasePass, FixedPoint, PassManager, PropertySet, Stage
from ..passes.commutation import CommutativeCancellationPass
from ..passes.decompose import DecomposeToBasisPass
from ..passes.layout import (
    FixedLayoutPass,
    GreedyInteractionLayoutPass,
    Layout,
    NoiseAwareLayoutPass,
    TrivialLayoutPass,
)
from ..passes.optimization import (
    CancelAdjacentInversesPass,
    Consolidate1qRunsPass,
    DecomposeSwapsPass,
    RemoveIdentitiesPass,
)
from ..passes.routing import GreedySwapRouter, LegalizationRouter
from ..passes.toffoli import MappingAwareToffoliDecomposePass, ToffoliDecomposePass
from ..passes.trios_routing import TriosRouter
from .result import CompilationResult, check_connectivity

LayoutSpec = Union[str, Layout, Mapping[int, int]]


def _layout_pass(
    layout: LayoutSpec,
    coupling_map: CouplingMap,
    calibration: Optional[DeviceCalibration],
) -> BasePass:
    """Build the placement pass from a layout specification.

    ``layout`` may be ``"trivial"``, ``"greedy"``, ``"noise"``, an explicit
    :class:`Layout`, or a logical→physical mapping dict.
    """
    if isinstance(layout, Layout):
        return FixedLayoutPass(coupling_map, layout.to_dict())
    if isinstance(layout, Mapping):
        return FixedLayoutPass(coupling_map, layout)
    if layout == "trivial":
        return TrivialLayoutPass(coupling_map)
    if layout == "greedy":
        return GreedyInteractionLayoutPass(coupling_map)
    if layout == "noise":
        if calibration is None:
            raise TranspilerError("noise-aware layout requires a calibration")
        return NoiseAwareLayoutPass(coupling_map, calibration)
    raise TranspilerError(f"unknown layout specification {layout!r}")


# ----------------------------------------------------------------------
# Stage builders
# ----------------------------------------------------------------------
@dataclass
class _TranspileContext:
    """Everything a stage builder may need, resolved once per transpile call."""

    target: Target
    layout: LayoutSpec
    optimization_level: int
    seed: Optional[int]
    routing: str
    toffoli_mode: str
    second_decomposition: str
    overlap_optimization: bool
    edge_weights: Optional[Mapping[Tuple[int, int], float]]
    validate_mode: Union[None, bool, str] = None


def _cleanup_loop() -> FixedPoint:
    """The convergent light-optimisation loop shared by every pipeline."""
    return FixedPoint(
        [
            CancelAdjacentInversesPass(),
            Consolidate1qRunsPass(),
            RemoveIdentitiesPass(),
        ]
    )


def _commutation_loop() -> FixedPoint:
    """The level-3 commutation-aware loop, iterated to convergence.

    Runs *after* the level-2 cleanup loop has converged and consists solely of
    gate-removing / gate-rewriting passes, so its output never has more CNOTs
    or greater depth than the level-2 output it starts from — the monotonicity
    the level-3 benchmark (``benchmarks/bench_opt_levels.py``) asserts cell by
    cell.
    """
    return FixedPoint(
        [
            CommutativeCancellationPass(),
            CancelAdjacentInversesPass(),
            Consolidate1qRunsPass(),
            RemoveIdentitiesPass(),
        ]
    )


def _stage_unroll(ctx: _TranspileContext) -> Stage:
    return Stage(
        "decompose",
        [
            DecomposeToBasisPass(
                basis=ctx.target.basis_gates, keep=(), toffoli_mode=ctx.toffoli_mode
            )
        ],
    )


def _stage_unroll_keep_toffoli(ctx: _TranspileContext) -> Stage:
    return Stage(
        "decompose",
        [DecomposeToBasisPass(basis=ctx.target.basis_gates, keep=("ccx", "ccz"))],
    )


def _stage_pre_optimize(ctx: _TranspileContext) -> Optional[Stage]:
    # Level 2+: clean the decomposed program *before* placement/routing too,
    # so routing never pays for gates the clean-up would have removed.
    if ctx.optimization_level < 2:
        return None
    return Stage("pre_optimize", [_cleanup_loop()])


def _stage_layout(ctx: _TranspileContext) -> Stage:
    return Stage(
        "layout",
        [_layout_pass(ctx.layout, ctx.target.coupling_map, ctx.target.calibration)],
    )


def _stage_route_pairs(ctx: _TranspileContext) -> Stage:
    return Stage(
        "routing",
        [
            GreedySwapRouter(
                ctx.target.coupling_map,
                edge_weights=ctx.edge_weights,
                stochastic=(ctx.routing == "stochastic"),
                seed=ctx.seed,
            )
        ],
    )


def _stage_route_trios(ctx: _TranspileContext) -> Stage:
    return Stage(
        "routing",
        [
            TriosRouter(
                ctx.target.coupling_map,
                edge_weights=ctx.edge_weights,
                overlap_optimization=ctx.overlap_optimization,
                stochastic=(ctx.routing == "stochastic"),
                seed=ctx.seed,
            )
        ],
    )


def _stage_second_decompose(ctx: _TranspileContext) -> Stage:
    if ctx.second_decomposition == "mapping_aware":
        second: BasePass = MappingAwareToffoliDecomposePass(ctx.target.coupling_map)
    else:
        second = ToffoliDecomposePass(mode=ctx.second_decomposition)
    return Stage("second_decompose", [second])


def _stage_legalize(ctx: _TranspileContext) -> Stage:
    # After a fixed-mode second decomposition some CNOTs may be between
    # non-coupled qubits; the legalisation router fixes them.  For the
    # mapping-aware decomposition the circuit is already legal and the
    # router returns it as is.
    return Stage(
        "legalize",
        [LegalizationRouter(ctx.target.coupling_map, edge_weights=ctx.edge_weights)],
    )


def _stage_route_pairs_greedy(ctx: _TranspileContext) -> Stage:
    # The "greedy-depth" flow pins deterministic shortest-path routing — that
    # determinism is the flow's identity, like the Trios router is trios'.
    return Stage(
        "routing",
        [
            GreedySwapRouter(
                ctx.target.coupling_map,
                edge_weights=ctx.edge_weights,
                stochastic=False,
                seed=ctx.seed,
            )
        ],
    )


def _stage_optimize(ctx: _TranspileContext) -> Stage:
    passes: List[BasePass] = [DecomposeSwapsPass()]
    if ctx.optimization_level >= 1:
        passes.append(_cleanup_loop())
    if ctx.optimization_level >= 3:
        # Appended after the level-2 loop converged: level 3 is additive.
        passes.append(_commutation_loop())
    return Stage("optimize", passes)


def _stage_optimize_depth(ctx: _TranspileContext) -> Stage:
    # The depth-oriented clean-up of the "greedy-depth" flow: always runs the
    # commutation-aware loop (its cancellations shorten dependency chains),
    # regardless of the optimisation level.
    return Stage(
        "optimize", [DecomposeSwapsPass(), _cleanup_loop(), _commutation_loop()]
    )


#: Stage-name → builder registry.  Builders may return ``None`` to skip a
#: stage for the current options (e.g. ``pre_optimize`` below level 2).
STAGE_BUILDERS: Dict[str, Callable[[_TranspileContext], Optional[Stage]]] = {
    "unroll": _stage_unroll,
    "unroll_keep_toffoli": _stage_unroll_keep_toffoli,
    "pre_optimize": _stage_pre_optimize,
    "layout": _stage_layout,
    "route_pairs": _stage_route_pairs,
    "route_pairs_greedy": _stage_route_pairs_greedy,
    "route_trios": _stage_route_trios,
    "second_decompose": _stage_second_decompose,
    "legalize": _stage_legalize,
    "optimize": _stage_optimize,
    "optimize_depth": _stage_optimize_depth,
}

#: The paper's two flows (Figure 2a / 2b) plus the deterministic
#: depth-oriented flow, as declarative stage-name lists.
PIPELINES: Dict[str, Tuple[str, ...]] = {
    "baseline": ("unroll", "pre_optimize", "layout", "route_pairs", "optimize"),
    "trios": (
        "unroll_keep_toffoli",
        "pre_optimize",  # no-op below level 2
        "layout",
        "route_trios",
        "second_decompose",
        "legalize",
        "optimize",
    ),
    # ROADMAP PR 3 follow-on: a fully deterministic flow — greedy
    # shortest-path routing plus the commutation-aware depth clean-up — for
    # callers that want reproducible compiles without a routing seed.
    "greedy-depth": (
        "unroll",
        "pre_optimize",
        "layout",
        "route_pairs_greedy",
        "optimize_depth",
    ),
}


def build_pass_manager(method: str, ctx: _TranspileContext) -> PassManager:
    """Assemble the :class:`PassManager` for one named pipeline."""
    try:
        stage_names = PIPELINES[method]
    except KeyError as exc:
        raise TranspilerError(f"unknown compilation method {method!r}") from exc
    return _build_partial_manager(stage_names, ctx)


def _build_partial_manager(
    stage_names: Tuple[str, ...], ctx: _TranspileContext
) -> PassManager:
    """A :class:`PassManager` over an explicit slice of a pipeline's stages."""
    manager = PassManager(validate=ctx.validate_mode)
    for stage_name in stage_names:
        stage = STAGE_BUILDERS[stage_name](ctx)
        if stage is not None:
            manager.append(stage)
    return manager


#: The first seed-*dependent* stage of every pipeline.  Stages before it
#: (unrolling, pre-placement clean-up) consume no randomness, so the level-3
#: search runs them once and shares the decomposed circuit across candidates.
_SEED_SEARCH_SPLIT_STAGE = "layout"


def _split_stage_names(method: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """A pipeline's stage names split at the first seed-dependent stage.

    Returns ``(prefix, suffix)`` with the split at
    :data:`_SEED_SEARCH_SPLIT_STAGE`: the prefix is identical for every
    candidate seed of a level-3 search, the suffix (placement onward) is what
    each candidate re-runs.  A pipeline without a ``"layout"`` stage gets an
    empty prefix — every stage re-runs per candidate, which is always correct.
    """
    try:
        stage_names = PIPELINES[method]
    except KeyError as exc:
        raise TranspilerError(f"unknown compilation method {method!r}") from exc
    try:
        split = stage_names.index(_SEED_SEARCH_SPLIT_STAGE)
    except ValueError:
        return (), stage_names
    return stage_names[:split], stage_names[split:]


# ----------------------------------------------------------------------
# The unified entry point
# ----------------------------------------------------------------------
#: Layout/routing seeds tried by the level-3 search when ``seed_trials`` is
#: not given.
DEFAULT_SEED_TRIALS = 4

#: Stride between the level-3 candidate seeds.  A large prime, so candidate
#: streams do not collide with the neighbouring base seeds sweeps use.
_SEED_STRIDE = 9973


def transpile(
    circuit: QuantumCircuit,
    target: Union[Target, CouplingMap],
    method: str = "trios",
    *,
    layout: LayoutSpec = "greedy",
    optimization_level: Optional[int] = None,
    seed: Optional[int] = 2021,
    routing: str = "stochastic",
    noise_aware: bool = False,
    toffoli_mode: Optional[str] = None,
    second_decomposition: Optional[str] = None,
    overlap_optimization: Optional[bool] = None,
    calibration: Optional[DeviceCalibration] = None,
    optimize: Optional[bool] = None,
    validate: Union[bool, str] = True,
    seed_trials: Optional[int] = None,
    jobs: int = 1,
) -> CompilationResult:
    """Compile ``circuit`` for ``target`` with a named pipeline.

    Args:
        circuit: The logical input program.
        target: A :class:`~repro.hardware.target.Target`, or a bare
            :class:`CouplingMap` (promoted to an uncalibrated target).
        method: Pipeline name — ``"trios"`` (Figure 2b) or ``"baseline"``
            (Figure 2a); see :data:`PIPELINES`.
        layout: Placement strategy (``"trivial"``/``"greedy"``/``"noise"``),
            an explicit :class:`Layout`, or a logical→physical mapping dict.
        optimization_level: ``0`` only expands routing SWAPs; ``1`` (default)
            additionally iterates the light clean-up passes (CNOT
            cancellation, 1q consolidation, identity removal) to a fixed
            point after routing; ``2`` also runs the same loop on the
            decomposed program *before* placement; ``3`` additionally runs
            the commutation-aware cancellation loop
            (:class:`~repro.passes.commutation.CommutativeCancellationPass`)
            after the level-2 loop converges *and* searches ``seed_trials``
            layout/routing seeds, keeping the candidate with the best
            estimated success probability among those that do not regress
            the base seed's CNOT count or depth — so a level-3 compile never
            has more CNOTs or greater depth than the level-2 compile with
            the same seed.
        seed: RNG seed for the stochastic routing policy.
        routing: ``"stochastic"`` models Qiskit 0.14's stochastic swap policy
            (the paper's baseline); ``"greedy"`` is deterministic
            shortest-path routing.
        noise_aware: Use ``-log`` CNOT-success edge weights when routing
            (requires a calibrated target).
        toffoli_mode: Up-front Toffoli decomposition for the baseline flow —
            ``"6cnot"`` (Qiskit's default, also the default here) or
            ``"8cnot"``.  Rejected when the selected pipeline has no
            ``unroll`` stage (e.g. ``method="trios"``).
        second_decomposition: Trios' post-routing decomposition —
            ``"mapping_aware"`` (the paper's contribution, the default),
            ``"6cnot"`` or ``"8cnot"`` for the ablations.  Rejected when the
            selected pipeline has no ``second_decompose`` stage.
        overlap_optimization: Trios' "ending points overlap" SWAP saving
            (default on).  Rejected when the selected pipeline has no
            ``route_trios`` stage.
        calibration: Convenience: folded into an uncalibrated target.
        optimize: Legacy boolean; maps to optimization level 1 (True) / 0
            (False) when ``optimization_level`` is not given.
        validate: ``False`` disables all checking.  Any other value keeps
            the final coupling-map connectivity check and additionally
            selects the pass-contract validation mode (see
            :mod:`repro.analysis.contracts`): ``True`` defers to the
            ``REPRO_VALIDATE`` environment variable, ``"contracts"`` checks
            declared pass contracts between stages, ``"full"`` also lints
            the IR structurally and re-verifies held invariants after every
            pass, attributing the first violation to the offending pass.
        seed_trials: Number of layout/routing seeds the level-3 search
            tries (default :data:`DEFAULT_SEED_TRIALS`); only meaningful —
            and only accepted — at ``optimization_level=3``.
        jobs: Worker processes for the level-3 seed search, run on the
            fault-tolerant runtime (:mod:`repro.runtime`): faulted candidate
            seeds are dropped and the base seed always survives, so the
            search cannot fail because of a flaky worker.  ``0`` means all
            CPUs; results are identical to ``jobs=1``.  Only accepted at
            ``optimization_level=3``.

    Returns:
        A :class:`CompilationResult` carrying the compiled circuit, the
        target, the layouts, and per-pass telemetry (``pass_timings``).
    """
    resolved = Target.of(target, calibration)
    if optimization_level is None:
        optimization_level = 1 if (optimize is None or optimize) else 0
    elif optimize is not None:
        raise TranspilerError("pass either optimization_level or optimize, not both")
    if not 0 <= optimization_level <= 3:
        raise TranspilerError(f"invalid optimization_level {optimization_level}")
    if optimization_level < 3:
        # Search knobs silently ignored by the lower levels are bugs at the
        # call site, exactly like pipeline-less options below.
        if seed_trials is not None:
            raise TranspilerError(
                f"seed_trials={seed_trials!r} has no effect below "
                f"optimization_level=3"
            )
        if jobs != 1:
            raise TranspilerError(
                f"jobs={jobs!r} has no effect below optimization_level=3"
            )
    if seed_trials is not None and seed_trials < 1:
        raise TranspilerError(f"seed_trials must be >= 1, got {seed_trials}")
    if routing not in ("stochastic", "greedy"):
        raise TranspilerError(f"unknown routing policy {routing!r}")
    try:
        stage_names = PIPELINES[method]
    except KeyError as exc:
        raise TranspilerError(f"unknown compilation method {method!r}") from exc
    # Reject options the selected pipeline would silently ignore — an ablation
    # run passing e.g. second_decomposition to the baseline flow is a bug.
    for option, value, consumer in (
        ("toffoli_mode", toffoli_mode, "unroll"),
        ("second_decomposition", second_decomposition, "second_decompose"),
        ("overlap_optimization", overlap_optimization, "route_trios"),
    ):
        if value is not None and consumer not in stage_names:
            raise TranspilerError(
                f"{option}={value!r} has no effect: pipeline {method!r} has "
                f"no {consumer!r} stage"
            )
    toffoli_mode = toffoli_mode if toffoli_mode is not None else "6cnot"
    if second_decomposition is None:
        second_decomposition = "mapping_aware"
    if overlap_optimization is None:
        overlap_optimization = True
    if toffoli_mode not in ("6cnot", "8cnot"):
        raise TranspilerError(f"unknown toffoli_mode {toffoli_mode!r}")
    if second_decomposition not in ("mapping_aware", "6cnot", "8cnot"):
        raise TranspilerError(
            f"unknown second_decomposition {second_decomposition!r}"
        )
    edge_weights = None
    if noise_aware:
        if resolved.calibration is None:
            raise TranspilerError("noise-aware routing requires a calibration")
        edge_weights = resolved.noise_edge_weights()
    # validate=False turns everything off; validate=True defers the contract
    # mode to the environment (REPRO_VALIDATE); an explicit string picks it.
    if validate is False:
        validate_mode: Union[None, bool, str] = "off"
    elif validate is True:
        validate_mode = None
    else:
        validate_mode = validate
    validate_mode = resolve_validation_mode(validate_mode)
    ctx = _TranspileContext(
        target=resolved,
        layout=layout,
        optimization_level=optimization_level,
        seed=seed,
        routing=routing,
        toffoli_mode=toffoli_mode,
        second_decomposition=second_decomposition,
        overlap_optimization=overlap_optimization,
        edge_weights=edge_weights,
        validate_mode=validate_mode,
    )
    if method == "baseline":
        method_label = f"baseline-{toffoli_mode}"
    elif "second_decompose" in stage_names:
        method_label = f"{method}-{second_decomposition}"
    else:
        method_label = method
    obs.maybe_enable_from_env()
    with obs.span(
        "transpile",
        category="compiler",
        source=circuit.name,
        method=method_label,
        optimization_level=optimization_level,
        qubits=circuit.num_qubits,
    ):
        if optimization_level >= 3:
            compiled, properties = _run_seed_search(
                circuit, method, ctx, seed_trials, jobs
            )
        else:
            manager = build_pass_manager(method, ctx)
            compiled, properties = manager.run(circuit)
        return _finish(
            compiled, properties, resolved, method_label, circuit.name, validate
        )


# ----------------------------------------------------------------------
# The level-3 multi-seed layout/routing search
# ----------------------------------------------------------------------
def _candidate_seeds(seed: Optional[int], trials: int) -> List[Optional[int]]:
    """The routing seeds a level-3 search tries; the caller's seed comes first."""
    if seed is None:
        # Seedless stochastic routing is non-reproducible anyway; a search
        # over indistinguishable RNG streams would add nothing but time.
        return [None]
    return [seed + _SEED_STRIDE * index for index in range(trials)]


def _seed_candidate(
    payload: Tuple[
        "_TranspileContext", str, QuantumCircuit, Optional[PropertySet], Optional[int]
    ]
):
    """Compile and score one level-3 candidate; process-pool entry point.

    ``circuit`` and ``prefix_properties`` are the output of the shared
    seed-independent pipeline prefix (decomposition + pre-placement clean-up),
    run once by :func:`_run_seed_search`; each candidate deep-copies the
    property set before running the suffix stages so candidates never observe
    each other's pass telemetry (the serial ``jobs=1`` path shares the
    object).  ``prefix_properties=None`` means no prefix ran — the candidate
    compiles the full pipeline itself.
    """
    base_ctx, method, circuit, prefix_properties, candidate_seed = payload
    ctx = replace(base_ctx, seed=candidate_seed)
    if prefix_properties is None:
        manager = build_pass_manager(method, ctx)
        properties = None
    else:
        _, suffix_names = _split_stage_names(method)
        manager = _build_partial_manager(suffix_names, ctx)
        properties = copy.deepcopy(prefix_properties)
    with obs.span(
        "seed_candidate", category="compiler.seed_search", seed=candidate_seed
    ) as candidate_span:
        compiled, properties = manager.run(circuit, properties)
        cnots = compiled.two_qubit_gate_count(count_swap_as=3)
        depth = compiled.depth()
        success = base_ctx.target.estimated_success(compiled)
        candidate_span.add_attrs(cnots=cnots, depth=depth, estimated_success=success)
    return compiled, properties, cnots, depth, success


def _run_seed_search(
    circuit: QuantumCircuit,
    method: str,
    ctx: _TranspileContext,
    seed_trials: Optional[int],
    jobs: int,
) -> Tuple[QuantumCircuit, PropertySet]:
    """Compile ``seed_trials`` candidates and keep the best admissible one.

    The base seed's candidate runs the level-2 pipeline plus the (strictly
    gate-removing) commutation loop, so it never has more CNOTs or depth than
    the level-2 compile with the same seed.  Other seeds are *admissible* only
    when they match or beat that base candidate on both CNOT count and depth;
    among admissible candidates the one with the highest estimated success
    probability wins (ties: fewer CNOTs, then lower depth, then earlier
    seed).  This keeps the search's output monotonically no worse than level
    2 on the paper's metrics while still exploiting routing-seed luck.

    The search runs on the fault-tolerant runtime: a candidate seed whose
    worker crashes, hangs or keeps raising is *dropped* (recorded in the
    telemetry, never raised), and the base seed's candidate is recompiled
    serially in the driver process if its worker was lost — so a level-3
    compile can never fail because of a flaky worker, and its result is
    always at least the base seed's.

    The pipeline's seed-independent prefix — decomposition and the
    pre-placement clean-up, everything before the ``"layout"`` stage — is
    identical across candidates, so it runs **once** here and every candidate
    resumes from the decomposed circuit (roughly halving the search cost;
    ``tests/test_transpile.py`` pins byte-identity against the full per-seed
    pipeline).
    """
    jobs = resolve_jobs(jobs)
    trials = seed_trials if seed_trials is not None else DEFAULT_SEED_TRIALS
    seeds = _candidate_seeds(ctx.seed, trials)
    prefix_names, _ = _split_stage_names(method)
    prefix_properties: Optional[PropertySet] = None
    with obs.span(
        "seed_search", category="compiler.seed_search", trials=len(seeds), jobs=jobs
    ):
        if prefix_names:
            circuit, prefix_properties = _build_partial_manager(
                prefix_names, ctx
            ).run(circuit)
        payloads = [
            (ctx, method, circuit, prefix_properties, candidate_seed)
            for candidate_seed in seeds
        ]
        runner = CellRunner(
            jobs=jobs,
            policy=FailurePolicy(retries=1, on_error="skip"),
            label="level-3 seed search",
        )
        records = runner.run(payloads, _seed_candidate)
    candidates: List[Optional[tuple]] = [
        record.value if record.ok else None for record in records
    ]
    if candidates[0] is None:
        # The base seed must always survive: recompile it in-process (where
        # an injected or real worker death cannot reach) and let a genuine
        # compilation error propagate as itself.
        candidates[0] = _seed_candidate(payloads[0])
    failed_seeds = [
        {
            "seed": seeds[record.index],
            "status": record.status,
            "attempts": record.attempts,
            "error": str(record.error) if record.error else "",
            "recovered_serially": record.index == 0,
        }
        for record in records
        if not record.ok
    ]
    base_cnots, base_depth = candidates[0][2], candidates[0][3]
    best_index = 0
    best_key = None
    for index, candidate in enumerate(candidates):
        if candidate is None:
            continue  # the candidate's worker was lost; seed dropped
        _, _, cnots, depth, success = candidate
        if cnots > base_cnots or depth > base_depth:
            continue  # inadmissible: would regress a level-2 metric
        key = (-success, cnots, depth, index)
        if best_key is None or key < best_key:
            best_key = key
            best_index = index
    compiled, properties, _, _, _ = candidates[best_index]
    properties["optimization3_search"] = {
        "seeds": list(seeds),
        "chosen_seed": seeds[best_index],
        "chosen_index": best_index,
        "jobs": jobs,
        "prefix_stages": list(prefix_names),
        "failed_seeds": failed_seeds,
        "candidates": [
            {
                "seed": seeds[index],
                "cnots": candidate[2],
                "depth": candidate[3],
                "estimated_success": candidate[4],
                "admissible": candidate[2] <= base_cnots and candidate[3] <= base_depth,
            }
            for index, candidate in enumerate(candidates)
            if candidate is not None
        ],
    }
    return compiled, properties


def _finish(
    circuit: QuantumCircuit,
    properties: PropertySet,
    target: Target,
    method: str,
    source_name: str,
    validate: Union[bool, str],
) -> CompilationResult:
    if validate is not False and validate != "off":
        violations = check_connectivity(circuit, target.coupling_map)
        if violations:
            raise TranspilerError(
                f"compiled circuit violates the coupling map: {violations[:3]}"
            )
    return CompilationResult(
        circuit=circuit,
        coupling_map=target.coupling_map,
        method=method,
        initial_layout=properties["initial_layout"],
        final_layout=properties["final_layout"],
        swaps_inserted=properties.get("swaps_inserted", 0),
        source_name=source_name,
        properties=properties,
        target=target,
    )


# ----------------------------------------------------------------------
# Legacy shims (the historical two-function API)
# ----------------------------------------------------------------------
def compile_baseline(
    circuit: QuantumCircuit,
    coupling_map: Union[Target, CouplingMap],
    *,
    toffoli_mode: str = "6cnot",
    layout: LayoutSpec = "greedy",
    calibration: Optional[DeviceCalibration] = None,
    noise_aware: bool = False,
    routing: str = "stochastic",
    seed: Optional[int] = 2021,
    optimize: bool = True,
    validate: bool = True,
) -> CompilationResult:
    """Conventional compilation (Figure 2a) — shim over :func:`transpile`."""
    return transpile(
        circuit,
        coupling_map,
        method="baseline",
        toffoli_mode=toffoli_mode,
        layout=layout,
        calibration=calibration,
        noise_aware=noise_aware,
        routing=routing,
        seed=seed,
        optimize=optimize,
        validate=validate,
    )


def compile_trios(
    circuit: QuantumCircuit,
    coupling_map: Union[Target, CouplingMap],
    *,
    second_decomposition: str = "mapping_aware",
    layout: LayoutSpec = "greedy",
    calibration: Optional[DeviceCalibration] = None,
    noise_aware: bool = False,
    overlap_optimization: bool = True,
    routing: str = "stochastic",
    seed: Optional[int] = 2021,
    optimize: bool = True,
    validate: bool = True,
) -> CompilationResult:
    """Orchestrated Trios compilation (Figure 2b) — shim over :func:`transpile`."""
    return transpile(
        circuit,
        coupling_map,
        method="trios",
        second_decomposition=second_decomposition,
        layout=layout,
        calibration=calibration,
        noise_aware=noise_aware,
        overlap_optimization=overlap_optimization,
        routing=routing,
        seed=seed,
        optimize=optimize,
        validate=validate,
    )
