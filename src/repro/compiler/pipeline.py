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
wraps the clean-up passes in a :class:`~repro.passes.optimization.CleanupLoop`
that iterates cancellation/consolidation to convergence.

Every compile option is named, defaulted and validated in one frozen
:class:`TranspileOptions`: :func:`transpile` resolves its keywords into it
once, the stage builders read it, and the compile service keys its cache on
its canonical rendering.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass, fields, replace
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .. import obs
from ..analysis.contracts import resolve_validation_mode
from ..circuits.circuit import QuantumCircuit
from ..exceptions import TranspilerError
from ..hardware.calibration import DeviceCalibration
from ..hardware.target import Target
from ..hardware.topology import CouplingMap
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
    CleanupLoop,
    Consolidate1qRunsPass,
    DecomposeSwapsPass,
    RemoveIdentitiesPass,
)
from ..passes.routing import GreedySwapRouter, LegalizationRouter
from ..passes.toffoli import MappingAwareToffoliDecomposePass, ToffoliDecomposePass
from ..passes.trios_routing import TriosRouter
from .result import CompilationResult, check_connectivity

#: A resolved layout: a strategy name or sorted (logical, physical) pairs.
LayoutSpec = Union[str, Tuple[Tuple[int, int], ...]]

#: Layout/routing seeds tried by the level-3 search when ``seed_trials`` is
#: not given.
DEFAULT_SEED_TRIALS = 4

#: Stage-conditional options: (option, consuming stage, default, accepted
#: values).  An option whose consuming stage is absent from the pipeline is
#: rejected — an ablation silently falling back to the default is a bug.
_STAGE_OPTIONS: Tuple[Tuple[str, str, Any, Tuple[Any, ...]], ...] = (
    ("toffoli_mode", "unroll", "6cnot", ("6cnot", "8cnot")),
    (
        "second_decomposition",
        "second_decompose",
        "mapping_aware",
        ("mapping_aware", "6cnot", "8cnot"),
    ),
    ("overlap_optimization", "route_trios", True, (True, False)),
)


def _integer(name: str, value: Any, minimum: Optional[int] = None) -> int:
    """``value`` as a plain int; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TranspilerError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise TranspilerError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _resolve_layout(layout: Any) -> LayoutSpec:
    """A strategy name, or a placement as sorted (logical, physical) pairs."""
    if isinstance(layout, Layout):
        layout = layout.to_dict()
    elif isinstance(layout, tuple):
        layout = dict(layout)
    if isinstance(layout, Mapping):
        pairs = tuple(
            sorted(
                (_integer("layout logical qubit", logical, 0),
                 _integer("layout physical qubit", physical, 0))
                for logical, physical in layout.items()
            )
        )
        if len({physical for _, physical in pairs}) != len(pairs):
            raise TranspilerError(
                f"layout {dict(pairs)} places two logical qubits on one "
                f"physical qubit"
            )
        return pairs
    if layout not in ("trivial", "greedy", "noise"):
        raise TranspilerError(f"unknown layout specification {layout!r}")
    return layout


@dataclass(frozen=True)
class TranspileOptions:
    """The one resolved option set of a compile: names, defaults, rules.

    Constructing one validates every field and fills the method-dependent
    defaults, so an instance is always fully resolved and two instances are
    equal exactly when they compile the same way.  :func:`transpile` builds
    one from its keywords; the compile service keys its cache on
    :meth:`canonical`.

    Attributes:
        method: Pipeline name — ``"trios"`` (Figure 2b), ``"baseline"``
            (Figure 2a) or ``"greedy-depth"``; see :data:`PIPELINES`.
        layout: Placement strategy (``"trivial"``/``"greedy"``/``"noise"``),
            or an explicit :class:`Layout` or logical→physical mapping,
            stored as sorted ``(logical, physical)`` pairs.
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
        seed: RNG seed for the stochastic routing policy; ``None`` draws
            from an unseeded RNG.
        routing: ``"stochastic"`` models Qiskit 0.14's stochastic swap policy
            (the paper's baseline); ``"greedy"`` is deterministic
            shortest-path routing.
        noise_aware: Use ``-log`` CNOT-success edge weights when routing
            (requires a calibrated target).
        toffoli_mode: Up-front Toffoli decomposition of pipelines with an
            ``unroll`` stage — ``"6cnot"`` (Qiskit's default, also the
            default here) or ``"8cnot"``.
        second_decomposition: Trios' post-routing decomposition —
            ``"mapping_aware"`` (the paper's contribution, the default),
            ``"6cnot"`` or ``"8cnot"`` for the ablations.
        overlap_optimization: Trios' "ending points overlap" SWAP saving
            (default on).
        seed_trials: Layout/routing seeds the level-3 search tries (default
            :data:`DEFAULT_SEED_TRIALS`).
        validate: ``False`` disables all checking.  Any other value keeps
            the final coupling-map connectivity check and additionally
            selects the pass-contract validation mode (see
            :mod:`repro.analysis.contracts`): ``True`` defers to the
            ``REPRO_VALIDATE`` environment variable, ``"contracts"`` checks
            declared pass contracts between stages, ``"full"`` also lints
            the IR structurally and re-verifies held invariants after every
            pass, attributing the first violation to the offending pass.

    The three stage-conditional options (``toffoli_mode``,
    ``second_decomposition``, ``overlap_optimization``) resolve to ``None``
    for pipelines without their consuming stage and are rejected there when
    given; ``seed_trials`` is likewise rejected below
    ``optimization_level=3``.  Integer options reject bools, floats and
    strings.
    """

    method: str = "trios"
    layout: LayoutSpec = "greedy"
    optimization_level: int = 1
    seed: Optional[int] = 2021
    routing: str = "stochastic"
    noise_aware: bool = False
    toffoli_mode: Optional[str] = None
    second_decomposition: Optional[str] = None
    overlap_optimization: Optional[bool] = None
    seed_trials: Optional[int] = None
    validate: Union[None, bool, str] = True

    #: Options that cannot change the compiled circuit — only how it is
    #: produced or checked — and so stay out of :meth:`canonical`.
    NON_SEMANTIC: ClassVar[FrozenSet[str]] = frozenset({"validate"})

    @classmethod
    def resolve(cls, method: str, options: Mapping[str, Any]) -> "TranspileOptions":
        """Resolve ``transpile()`` keywords, rejecting unknown names."""
        unknown = set(options) - _OPTION_NAMES
        if unknown:
            raise TranspilerError(
                f"unknown transpile option(s) {sorted(unknown)}; "
                f"valid options: {sorted(_OPTION_NAMES)}"
            )
        return cls(method, **options)

    def __post_init__(self) -> None:
        resolved: Dict[str, Any] = {}
        try:
            stage_names = PIPELINES[self.method]
        except (KeyError, TypeError) as exc:
            raise TranspilerError(
                f"unknown compilation method {self.method!r}"
            ) from exc
        resolved["layout"] = _resolve_layout(self.layout)
        level = _integer("optimization_level", self.optimization_level)
        if not 0 <= level <= 3:
            raise TranspilerError(f"invalid optimization_level {level}")
        resolved["optimization_level"] = level
        if self.seed is not None:
            resolved["seed"] = _integer("seed", self.seed)
        if self.routing not in ("stochastic", "greedy"):
            raise TranspilerError(f"unknown routing policy {self.routing!r}")
        if not isinstance(self.noise_aware, bool):
            raise TranspilerError(
                f"noise_aware must be a boolean, got {self.noise_aware!r}"
            )
        for name, consumer, default, accepted in _STAGE_OPTIONS:
            value = getattr(self, name)
            if consumer not in stage_names:
                if value is not None:
                    raise TranspilerError(
                        f"{name}={value!r} has no effect: pipeline "
                        f"{self.method!r} has no {consumer!r} stage"
                    )
            elif value is None:
                resolved[name] = default
            elif type(value) is not type(default) or value not in accepted:
                raise TranspilerError(f"unknown {name} {value!r}")
        if level < 3:
            # A search knob silently ignored by the lower levels is a bug at
            # the call site, exactly like pipeline-less options above.
            if self.seed_trials is not None:
                raise TranspilerError(
                    f"seed_trials={self.seed_trials!r} has no effect below "
                    f"optimization_level=3"
                )
        elif self.seed_trials is None:
            resolved["seed_trials"] = DEFAULT_SEED_TRIALS
        else:
            resolved["seed_trials"] = _integer("seed_trials", self.seed_trials, 1)
        if not isinstance(self.validate, bool):
            resolve_validation_mode(self.validate)
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    @property
    def label(self) -> str:
        """The method string of the compiled result (``"baseline-6cnot"``, ...)."""
        if self.method == "baseline":
            return f"baseline-{self.toffoli_mode}"
        if self.second_decomposition is not None:
            return f"{self.method}-{self.second_decomposition}"
        return self.method

    def canonical(self) -> str:
        """Every semantic field, rendered in field order for a content key."""
        return ";".join(
            f"{item.name}={getattr(self, item.name)!r}"
            for item in fields(self)
            if item.name not in self.NON_SEMANTIC
        )


#: Every keyword :func:`transpile` accepts as an option.
_OPTION_NAMES = frozenset(item.name for item in fields(TranspileOptions)) - {"method"}


def _layout_pass(
    layout: LayoutSpec,
    coupling_map: CouplingMap,
    calibration: Optional[DeviceCalibration],
) -> BasePass:
    """Build the placement pass for a resolved layout specification."""
    if isinstance(layout, tuple):
        return FixedLayoutPass(coupling_map, dict(layout))
    if layout == "trivial":
        return TrivialLayoutPass(coupling_map)
    if layout == "greedy":
        return GreedyInteractionLayoutPass(coupling_map)
    if calibration is None:
        raise TranspilerError("noise-aware layout requires a calibration")
    return NoiseAwareLayoutPass(coupling_map, calibration)


# ----------------------------------------------------------------------
# Stage builders
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TranspileContext:
    """What a stage builder reads: the options plus what they cannot say."""

    options: TranspileOptions
    target: Target
    edge_weights: Optional[Mapping[Tuple[int, int], float]]
    validate_mode: str


def _cleanup_loop() -> CleanupLoop:
    """The convergent light-optimisation loop shared by every pipeline."""
    return CleanupLoop()


def _commutation_loop() -> FixedPoint:
    """The level-3 commutation-aware loop, iterated to convergence.

    Runs *after* the level-2 cleanup loop has converged and consists solely of
    gate-removing / gate-rewriting passes, so its output never has more CNOTs
    or greater depth than the level-2 output it starts from — the monotonicity
    ``benchmarks/freeze_fig9_10_reference.py`` asserts on every Figure 9/10
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
                basis=ctx.target.basis_gates,
                keep=(),
                toffoli_mode=ctx.options.toffoli_mode,
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
    if ctx.options.optimization_level < 2:
        return None
    return Stage("pre_optimize", [_cleanup_loop()])


def _stage_layout(ctx: _TranspileContext) -> Stage:
    return Stage(
        "layout",
        [
            _layout_pass(
                ctx.options.layout, ctx.target.coupling_map, ctx.target.calibration
            )
        ],
    )


def _stage_route_pairs(ctx: _TranspileContext) -> Stage:
    return Stage(
        "routing",
        [
            GreedySwapRouter(
                ctx.target.coupling_map,
                edge_weights=ctx.edge_weights,
                stochastic=(ctx.options.routing == "stochastic"),
                seed=ctx.options.seed,
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
                overlap_optimization=ctx.options.overlap_optimization,
                stochastic=(ctx.options.routing == "stochastic"),
                seed=ctx.options.seed,
            )
        ],
    )


def _stage_second_decompose(ctx: _TranspileContext) -> Stage:
    mode = ctx.options.second_decomposition
    if mode == "mapping_aware":
        second: BasePass = MappingAwareToffoliDecomposePass(ctx.target.coupling_map)
    else:
        second = ToffoliDecomposePass(mode=mode)
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
                seed=ctx.options.seed,
            )
        ],
    )


def _stage_optimize(ctx: _TranspileContext) -> Stage:
    passes: List[BasePass] = [DecomposeSwapsPass()]
    if ctx.options.optimization_level >= 1:
        passes.append(_cleanup_loop())
    if ctx.options.optimization_level >= 3:
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


def build_pass_manager(ctx: _TranspileContext) -> PassManager:
    """Assemble the :class:`PassManager` for the context's pipeline."""
    return _build_partial_manager(PIPELINES[ctx.options.method], ctx)


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
    stage_names = PIPELINES[method]
    if _SEED_SEARCH_SPLIT_STAGE not in stage_names:
        return (), stage_names
    split = stage_names.index(_SEED_SEARCH_SPLIT_STAGE)
    return stage_names[:split], stage_names[split:]


# ----------------------------------------------------------------------
# The unified entry point
# ----------------------------------------------------------------------
#: Stride between the level-3 candidate seeds.  A large prime, so candidate
#: streams do not collide with the neighbouring base seeds sweeps use.
_SEED_STRIDE = 9973


def transpile(
    circuit: QuantumCircuit,
    target: Union[Target, CouplingMap],
    method: str = "trios",
    *,
    calibration: Optional[DeviceCalibration] = None,
    **options: Any,
) -> CompilationResult:
    """Compile ``circuit`` for ``target`` with a named pipeline.

    Args:
        circuit: The logical input program.
        target: A :class:`~repro.hardware.target.Target`, or a bare
            :class:`CouplingMap` (promoted to an uncalibrated target).
        method: Pipeline name — ``"trios"`` (Figure 2b) or ``"baseline"``
            (Figure 2a); see :data:`PIPELINES`.
        calibration: Folded into an uncalibrated target.
        **options: Resolved once into a :class:`TranspileOptions`, whose
            fields name every option with its default and rejection rules;
            an unknown name raises :class:`TranspilerError`.

    Returns:
        A :class:`CompilationResult` carrying the compiled circuit, the
        target, the layouts, and per-pass telemetry (``pass_spans``).
    """
    return run_transpile(
        circuit,
        Target.of(target, calibration),
        TranspileOptions.resolve(method, options),
    )


def run_transpile(
    circuit: QuantumCircuit,
    target: Union[Target, CouplingMap],
    options: TranspileOptions,
) -> CompilationResult:
    """Compile ``circuit`` with an already-resolved :class:`TranspileOptions`."""
    target = Target.of(target)
    edge_weights = None
    if options.noise_aware:
        if target.calibration is None:
            raise TranspilerError("noise-aware routing requires a calibration")
        edge_weights = target.noise_edge_weights()
    # validate=False turns everything off; validate=True defers the contract
    # mode to the environment (REPRO_VALIDATE); an explicit string picks it.
    validate = options.validate
    if validate is False:
        validate_mode = "off"
    else:
        validate_mode = resolve_validation_mode(None if validate is True else validate)
    ctx = _TranspileContext(options, target, edge_weights, validate_mode)
    obs.maybe_enable_from_env()
    with obs.span(
        "transpile",
        category="compiler",
        source=circuit.name,
        method=options.label,
        optimization_level=options.optimization_level,
        qubits=circuit.num_qubits,
    ):
        if options.optimization_level >= 3:
            compiled, properties = _run_seed_search(circuit, ctx)
        else:
            compiled, properties = build_pass_manager(ctx).run(circuit)
        return _finish(compiled, properties, ctx, circuit.name)


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
    base_ctx: _TranspileContext,
    circuit: QuantumCircuit,
    prefix_properties: Optional[PropertySet],
    candidate_seed: Optional[int],
):
    """Compile and score one level-3 candidate.

    ``circuit`` and ``prefix_properties`` are the output of the shared
    seed-independent pipeline prefix (decomposition + pre-placement clean-up),
    run once by :func:`_run_seed_search`; each candidate deep-copies the
    property set before running the suffix stages so candidates never observe
    each other's pass telemetry.  ``prefix_properties=None`` means no prefix
    ran — the candidate compiles the full pipeline itself.
    """
    ctx = replace(base_ctx, options=replace(base_ctx.options, seed=candidate_seed))
    if prefix_properties is None:
        manager = build_pass_manager(ctx)
        properties = None
    else:
        _, suffix_names = _split_stage_names(ctx.options.method)
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
    circuit: QuantumCircuit, ctx: _TranspileContext
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

    The pipeline's seed-independent prefix — decomposition and the
    pre-placement clean-up, everything before the ``"layout"`` stage — is
    identical across candidates, so it runs **once** here and every candidate
    resumes from the decomposed circuit (roughly halving the search cost;
    ``tests/test_transpile.py`` pins byte-identity against the full per-seed
    pipeline).
    """
    seeds = _candidate_seeds(ctx.options.seed, ctx.options.seed_trials)
    prefix_names, _ = _split_stage_names(ctx.options.method)
    prefix_properties: Optional[PropertySet] = None
    with obs.span(
        "seed_search", category="compiler.seed_search", trials=len(seeds)
    ):
        if prefix_names:
            circuit, prefix_properties = _build_partial_manager(
                prefix_names, ctx
            ).run(circuit)
        candidates = [
            _seed_candidate(ctx, circuit, prefix_properties, candidate_seed)
            for candidate_seed in seeds
        ]
    base_cnots, base_depth = candidates[0][2], candidates[0][3]
    best_index = 0
    best_key = None
    for index, candidate in enumerate(candidates):
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
        "prefix_stages": list(prefix_names),
        "candidates": [
            {
                "seed": seeds[index],
                "cnots": candidate[2],
                "depth": candidate[3],
                "estimated_success": candidate[4],
                "admissible": candidate[2] <= base_cnots and candidate[3] <= base_depth,
            }
            for index, candidate in enumerate(candidates)
        ],
    }
    return compiled, properties


def _finish(
    circuit: QuantumCircuit,
    properties: PropertySet,
    ctx: _TranspileContext,
    source_name: str,
) -> CompilationResult:
    validate = ctx.options.validate
    if validate is not False and validate != "off":
        violations = check_connectivity(circuit, ctx.target.coupling_map)
        if violations:
            raise TranspilerError(
                f"compiled circuit violates the coupling map: {violations[:3]}"
            )
    return CompilationResult(
        circuit=circuit,
        coupling_map=ctx.target.coupling_map,
        method=ctx.options.label,
        initial_layout=properties["initial_layout"],
        final_layout=properties["final_layout"],
        swaps_inserted=properties.get("swaps_inserted", 0),
        source_name=source_name,
        properties=properties,
        target=ctx.target,
    )
