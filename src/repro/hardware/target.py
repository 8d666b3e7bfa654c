"""The compilation target: connectivity + calibration + basis gate set.

A :class:`Target` bundles everything the driver needs to know about the device
being compiled for — the :class:`~repro.hardware.topology.CouplingMap`, an
optional :class:`~repro.hardware.calibration.DeviceCalibration` (required for
noise-aware layout/routing and for success estimation), and the native basis
gate names.  ``transpile(circuit, target, ...)`` consumes it directly, and it
travels on the :class:`~repro.compiler.result.CompilationResult` so downstream
consumers (experiments, reports) see what was compiled for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from ..exceptions import TranspilerError
from .calibration import DeviceCalibration
from .topology import CouplingMap

#: IBM's hardware-native basis (§1); SWAP is routing-internal and expanded later.
DEFAULT_BASIS_GATES: Tuple[str, ...] = ("u1", "u2", "u3", "cx")


@dataclass(eq=False)
class Target:
    """A compilation target (device model) for :func:`repro.compiler.transpile`."""

    coupling_map: CouplingMap
    calibration: Optional[DeviceCalibration] = None
    basis_gates: Tuple[str, ...] = DEFAULT_BASIS_GATES
    name: str = ""
    #: Native drive directions for direction-sensitive 2q gates.  ``None``
    #: (the default, and the paper's device model) means the coupling map is
    #: undirected and either orientation is legal; when set, the linter's
    #: QL102 rule flags gates running against the declared direction.
    directed_edges: Optional[FrozenSet[Tuple[int, int]]] = None

    def __post_init__(self) -> None:
        self.basis_gates = tuple(self.basis_gates)
        if not self.name:
            self.name = self.coupling_map.name
        if self.directed_edges is not None:
            edges: Iterable[Tuple[int, int]] = self.directed_edges
            self.directed_edges = frozenset(
                (int(a), int(b)) for a, b in edges
            )

    # ------------------------------------------------------------------
    @classmethod
    def of(
        cls,
        target: Union["Target", CouplingMap],
        calibration: Optional[DeviceCalibration] = None,
    ) -> "Target":
        """Normalise a ``Target`` or bare ``CouplingMap`` into a ``Target``.

        A ``calibration`` argument fills in (but never overrides) a missing
        calibration, which is how ``transpile()``'s ``calibration=`` keyword
        folds into the target.
        """
        if isinstance(target, Target):
            if calibration is not None and target.calibration is None:
                return cls(
                    target.coupling_map,
                    calibration,
                    target.basis_gates,
                    target.name,
                    target.directed_edges,
                )
            return target
        if isinstance(target, CouplingMap):
            return cls(target, calibration)
        raise TranspilerError(
            f"expected a Target or CouplingMap, got {type(target).__name__}"
        )

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of physical qubits on the device."""
        return self.coupling_map.num_qubits

    def require_calibration(self, why: str) -> DeviceCalibration:
        """The calibration, or a clear error naming the feature that needs it."""
        if self.calibration is None:
            raise TranspilerError(f"{why} requires a Target with a calibration")
        return self.calibration

    def noise_edge_weights(self) -> Dict[Tuple[int, int], float]:
        """Noise-aware routing weights: ``-log`` CNOT success per edge (§4)."""
        calibration = self.require_calibration("noise-aware compilation")
        return calibration.edge_weight_neg_log_success(self.coupling_map)

    # ------------------------------------------------------------------
    # Candidate scoring (the level-3 multi-seed search hooks)
    # ------------------------------------------------------------------
    def scoring_calibration(self) -> DeviceCalibration:
        """The calibration used to *rank* candidate compilations.

        An uncalibrated target still needs a consistent ranking for the
        level-3 multi-seed search, so this falls back to the paper's
        near-term (20x-improved Johannesburg) error model.  Metrics reported
        on results (:meth:`~repro.compiler.result.CompilationResult.duration`
        etc.) keep requiring a real calibration — only the internal candidate
        ranking uses the fallback.
        """
        if self.calibration is not None:
            return self.calibration
        from .calibration import near_term_calibration

        return near_term_calibration()

    def estimated_success(self, circuit, include_readout: bool = True) -> float:
        """Analytic success probability of ``circuit`` under the scoring model.

        The §2.6 closed-form estimate evaluated with
        :meth:`scoring_calibration` — the objective the level-3 search
        maximises over its layout/routing seeds.
        """
        from ..sim.estimator import estimate_success

        return estimate_success(
            circuit, self.scoring_calibration(), include_readout=include_readout
        ).probability

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cal = self.calibration.name if self.calibration is not None else None
        return (
            f"Target(name={self.name!r}, qubits={self.num_qubits}, "
            f"basis={'/'.join(self.basis_gates)}, calibration={cal!r})"
        )
