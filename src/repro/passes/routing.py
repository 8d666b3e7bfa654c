"""Baseline SWAP routing of one- and two-qubit gates.

This pass models the conventional compiler's routing stage: every gate is taken
in program order, and when a two-qubit gate acts on physical qubits that are
not coupled, SWAPs are inserted along a shortest path until the two data qubits
become adjacent (§2.4, §3).  The router works on *logical* circuits plus a
:class:`~repro.passes.layout.Layout`; its output is a circuit on the device's
physical wires that still contains explicit ``swap`` gates (expanded to CNOTs
by :class:`~repro.passes.optimization.DecomposeSwapsPass`).

The router optionally takes noise-aware edge weights (``-log`` CNOT success),
in which case "shortest" means "most reliable" (§4).

Path queries go through :class:`~repro.hardware.topology.CouplingMap`'s cached
shortest-path machinery: deterministic paths are memoized, and the stochastic
policy samples a uniformly random tied path from the cached predecessor DAG in
O(path length) instead of enumerating every shortest path (the frozen original
enumeration lives in ``tests/_legacy_routing.py`` as a reference for the
sampled distribution, not for the compiled bytes).

Every gate and SWAP the routers emit comes from the process-wide table of
placed instructions (:func:`~repro.circuits.circuit.placed`), so a gate
placed on the same physical wires by any compile is one shared object.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Tuple

from ..circuits.circuit import Instruction, placed
from ..circuits.dag import DagCircuit
from ..circuits import library
from ..exceptions import HardwareError, RoutingError
from ..hardware.topology import CouplingMap
from .base import PropertySet, TransformationPass
from .layout import Layout

Edge = Tuple[int, int]


class GreedySwapRouter(TransformationPass):
    """Route two-qubit gates one at a time along shortest SWAP paths.

    Args:
        coupling_map: Target device connectivity.
        edge_weights: Optional per-edge weights for noise-aware routing.
        meet_in_middle: Move both endpoints toward the centre of the path
            instead of walking only the first endpoint to the second.  The SWAP
            count is identical; only which data ends up where differs (§3
            mentions both strategies).
        stochastic: Model Qiskit's stochastic swap policy (the paper's
            baseline, §5.2): pick uniformly at random which endpoint walks and
            which of the tied shortest paths it follows.  The paper's §3
            motivation — "there is an even chance that the SWAPs for the second
            CNOT separate the two qubits that were just brought together" — is
            exactly this behaviour.
        seed: RNG seed for the stochastic mode.
    """

    establishes = ("routed",)
    invalidates = ("scheduled", "swaps_expanded")

    def __init__(
        self,
        coupling_map: CouplingMap,
        edge_weights: Optional[Mapping[Edge, float]] = None,
        meet_in_middle: bool = False,
        stochastic: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        self.coupling_map = coupling_map
        self.edge_weights = dict(edge_weights) if edge_weights else None
        self.meet_in_middle = meet_in_middle
        self.stochastic = stochastic
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Helpers shared with the Trios router
    # ------------------------------------------------------------------
    def _shortest_path(self, a: int, b: int, avoid: Tuple[int, ...] = ()) -> List[int]:
        """Shortest path from ``a`` to ``b``, preferring to avoid given nodes."""
        if avoid:
            blocked = tuple(sorted(set(avoid) - {a, b}))
            if blocked:
                try:
                    return self._pick_path(a, b, blocked)
                except HardwareError:
                    pass  # avoiding those nodes is impossible; use the full graph
        return self._pick_path(a, b)

    def _pick_path(self, a: int, b: int, avoid: Tuple[int, ...] = ()) -> List[int]:
        """One shortest path; in stochastic mode a uniformly random tied path."""
        if not self.stochastic:
            return self.coupling_map.shortest_path(
                a, b, weight=self.edge_weights, avoid=avoid
            )
        return self.coupling_map.sample_shortest_path(
            a, b, self._rng, weight=self.edge_weights, avoid=avoid
        )

    def _emit_swap(
        self, out: List[Instruction], layout: Layout, physical_a: int, physical_b: int
    ) -> None:
        if not self.coupling_map.are_adjacent(physical_a, physical_b):
            raise RoutingError(
                f"internal error: SWAP on non-adjacent qubits {physical_a}, {physical_b}"
            )
        out.append(placed(library.swap_gate(), (physical_a, physical_b)))
        layout.swap_physical(physical_a, physical_b)

    def _route_pair(
        self, out: List[Instruction], layout: Layout, logical_a: int, logical_b: int
    ) -> int:
        """Insert SWAPs until the two logical qubits sit on coupled wires."""
        swaps = 0
        physical_a = layout.physical(logical_a)
        physical_b = layout.physical(logical_b)
        if self.coupling_map.are_adjacent(physical_a, physical_b):
            return 0
        if self.stochastic and self._rng.random() < 0.5:
            # Qiskit's stochastic policy may just as well move the other qubit.
            physical_a, physical_b = physical_b, physical_a
        path = self._shortest_path(physical_a, physical_b)
        if not self.meet_in_middle:
            # Walk the data at ``a`` along the path until adjacent to ``b``.
            for step in range(len(path) - 2):
                self._emit_swap(out, layout, path[step], path[step + 1])
                swaps += 1
            return swaps
        # Meet in the middle: alternately advance each endpoint along the path.
        left = 0
        right = len(path) - 1
        move_left = True
        while right - left > 1:
            if move_left:
                self._emit_swap(out, layout, path[left], path[left + 1])
                left += 1
            else:
                self._emit_swap(out, layout, path[right], path[right - 1])
                right -= 1
            swaps += 1
            move_left = not move_left
        return swaps

    # ------------------------------------------------------------------
    def _route_instruction(
        self, out: List[Instruction], layout: Layout, instruction: Instruction
    ) -> int:
        """Route one instruction; returns the number of SWAPs inserted."""
        logical_qubits = instruction.qubits
        if len(logical_qubits) == 1 or instruction.name == "barrier":
            physical = tuple(map(layout.physical, logical_qubits))
            out.append(placed(instruction.gate, physical, instruction.clbits))
            return 0
        if len(logical_qubits) == 2:
            swaps = self._route_pair(out, layout, *logical_qubits)
            physical = tuple(map(layout.physical, logical_qubits))
            out.append(placed(instruction.gate, physical, instruction.clbits))
            return swaps
        return self._route_multi(out, layout, instruction)

    def _route_multi(
        self, out: List[Instruction], layout: Layout, instruction: Instruction
    ) -> int:
        raise RoutingError(
            f"{type(self).__name__} cannot route the {instruction.gate.num_qubits}-qubit "
            f"gate {instruction.name!r}; decompose it first or use the Trios router"
        )

    # ------------------------------------------------------------------
    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        layout: Layout = properties.get("layout") or Layout.trivial(dag.num_qubits)
        if layout.num_logical < dag.num_qubits:
            raise RoutingError(
                f"layout places {layout.num_logical} qubits but the circuit has "
                f"{dag.num_qubits}"
            )
        layout = layout.copy()
        properties.setdefault("initial_layout", layout.copy())
        # Routing changes the wire set (logical program wires → the device's
        # physical wires): the output is a fresh table on the device, appended
        # in one sweep over the input's order, every canonical flag unset.
        out: List[Instruction] = []
        swaps = 0
        for instruction in dag.instructions:
            swaps += self._route_instruction(out, layout, instruction)
        properties["final_layout"] = layout.copy()
        properties["swaps_inserted"] = properties.get("swaps_inserted", 0) + swaps
        return DagCircuit(self.coupling_map.num_qubits, out, name=dag.name)


def _compose_final_layout(final: Layout, wire_permutation: Layout) -> Layout:
    """``final`` followed by a permutation of the physical wires."""
    return Layout(
        {
            logical: wire_permutation.physical(physical)
            for logical, physical in final.to_dict().items()
        }
    )


class LegalizationRouter(GreedySwapRouter):
    """Re-route a circuit that already lives on physical wires.

    Used after a non-mapping-aware second decomposition (the "Trios (6-CNOT
    Toffoli)" ablation): any CNOT that the decomposition produced between
    non-coupled physical qubits gets the usual SWAP treatment.  For the real
    Trios flow the circuit is already legal — on the device's wires, no gate
    on three or more qubits other than a barrier, every two-qubit gate on a
    coupled pair — and the pass returns its input, recording in the property
    set exactly what re-routing it would (zero SWAPs, an unchanged final
    layout), which the tests assert.
    """

    establishes = ("routed",)
    invalidates = ("scheduled", "swaps_expanded")

    def _is_legal(self, dag: DagCircuit) -> bool:
        """Whether routing ``dag`` would copy every gate and insert no SWAP."""
        if dag.num_qubits != self.coupling_map.num_qubits:
            return False
        are_adjacent = self.coupling_map.are_adjacent
        for instruction in dag.instructions:
            qubits = instruction.qubits
            if len(qubits) < 2 or instruction.name == "barrier":
                continue
            if len(qubits) > 2 or not are_adjacent(*qubits):
                return False
        return True

    def run_dag(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        if not self._is_legal(dag):
            return self._reroute(dag, properties)
        # Re-routing a legal circuit would copy every gate and move nothing:
        # keep the table and record what the rebuild would have recorded.
        saved_final = properties.get("final_layout")
        trivial = Layout.trivial(self.coupling_map.num_qubits)
        properties["final_layout"] = (
            trivial if saved_final is None else _compose_final_layout(saved_final, trivial)
        )
        properties["swaps_inserted"] = properties.get("swaps_inserted", 0)
        return dag

    def _reroute(self, dag: DagCircuit, properties: PropertySet) -> DagCircuit:
        # The circuit is already expressed on physical wires; route with an
        # identity layout over the whole device, then compose the wire
        # permutation it introduces into the recorded final layout.
        saved_layout = properties.get("layout")
        saved_initial = properties.get("initial_layout")
        saved_final = properties.get("final_layout")
        properties["layout"] = Layout.trivial(self.coupling_map.num_qubits)
        routed = super().run_dag(dag, properties)
        if saved_final is not None:
            properties["final_layout"] = _compose_final_layout(
                saved_final, properties["final_layout"]
            )
        # Restore (or remove) the keys the temporary trivial layout touched so
        # no full-device placeholder leaks into later passes.
        if saved_initial is not None:
            properties["initial_layout"] = saved_initial
        else:
            properties.pop("initial_layout", None)
        if saved_layout is not None:
            properties["layout"] = saved_layout
        else:
            properties.pop("layout", None)
        return routed
