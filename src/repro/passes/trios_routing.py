"""Trios routing: move the three qubits of a Toffoli into one neighbourhood.

This is the modified routing pass of §4.  Two-qubit gates are routed exactly
like the baseline router.  For a three-qubit gate, the router:

1. finds shortest paths between all pairs of the gate's current physical
   qubits (optionally noise-weighted),
2. picks the qubit with the smallest sum of path lengths to the other two as
   the *destination*,
3. walks the nearer of the other two qubits along its shortest path until it is
   adjacent to the destination,
4. walks the remaining qubit toward the destination, stopping as soon as the
   three qubits induce a connected subgraph of the coupling map — which
   reproduces the paper's "ending points overlap" optimisation (the second
   qubit stops next to the first, which becomes the middle of a line, saving a
   SWAP).

The Toffoli itself is left in the circuit (still a ``ccx``), now guaranteed to
sit on mutually connected physical qubits, ready for the mapping-aware second
decomposition pass.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..circuits.circuit import Instruction, placed
from ..exceptions import RoutingError
from ..hardware.topology import CouplingMap
from .layout import Layout
from .routing import GreedySwapRouter


class TriosRouter(GreedySwapRouter):
    """Routing pass that handles one-, two- and three-qubit gates (§4)."""

    # Unlike the plain router, the output may still carry 3q Toffoli-family
    # gates — but every one sits on a connected trio (routed_toffoli), ready
    # for the mapping-aware second decomposition.
    establishes = ("routed_toffoli",)
    invalidates = ("scheduled", "swaps_expanded")

    def __init__(
        self,
        coupling_map: CouplingMap,
        edge_weights: Optional[Mapping[Tuple[int, int], float]] = None,
        meet_in_middle: bool = False,
        overlap_optimization: bool = True,
        stochastic: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(
            coupling_map,
            edge_weights,
            meet_in_middle,
            stochastic=stochastic,
            seed=seed,
        )
        self.overlap_optimization = overlap_optimization

    # ------------------------------------------------------------------
    def _path_length(self, a: int, b: int) -> float:
        return self.coupling_map.path_length(a, b, self.edge_weights)

    def _trio_connected(self, positions: Sequence[int]) -> bool:
        # Three distinct qubits induce a connected subgraph exactly when at
        # least two of the three pairs are coupled.
        a, b, c = positions
        adjacent = self.coupling_map.are_adjacent
        return (adjacent(a, b) + adjacent(b, c) + adjacent(a, c)) >= 2

    # ------------------------------------------------------------------
    def _route_multi(
        self, out: List[Instruction], layout: Layout, instruction: Instruction
    ) -> int:
        if instruction.gate.num_qubits != 3:
            raise RoutingError(
                f"Trios routing supports up to three-qubit gates, got "
                f"{instruction.gate.num_qubits}-qubit {instruction.name!r}"
            )
        swaps = self._gather_trio(out, layout, instruction.qubits)
        physical = tuple(map(layout.physical, instruction.qubits))
        if not self._trio_connected(physical):
            raise RoutingError(
                f"internal error: trio {physical} still disconnected after routing"
            )
        out.append(placed(instruction.gate, physical, instruction.clbits))
        return swaps

    # ------------------------------------------------------------------
    def _gather_trio(
        self, out: List[Instruction], layout: Layout, logical_qubits: Sequence[int]
    ) -> int:
        """Insert SWAPs until the trio's physical qubits form a connected group."""
        logical_qubits = list(logical_qubits)
        positions = [layout.physical(q) for q in logical_qubits]
        if self._trio_connected(positions):
            return 0

        # Step 1-2: pick the destination (smallest sum of path lengths).
        def total_path_length(index: int) -> float:
            return sum(
                self._path_length(positions[index], positions[other])
                for other in range(3)
                if other != index
            )

        destination_index = min(range(3), key=total_path_length)
        destination_logical = logical_qubits[destination_index]
        movers = [q for i, q in enumerate(logical_qubits) if i != destination_index]
        # Route the nearer mover first.
        movers.sort(
            key=lambda q: self._path_length(
                layout.physical(q), layout.physical(destination_logical)
            )
        )
        swaps = 0
        swaps += self._walk_until_adjacent(out, layout, movers[0], destination_logical)
        if self.overlap_optimization:
            # Step 4: move the second qubit until the whole trio is connected;
            # stopping next to the first mover reproduces the paper's
            # "ending points overlap" SWAP saving.
            swaps += self._walk_until_connected(out, layout, movers[1],
                                                destination_logical, logical_qubits)
        else:
            # Ablation: always walk the second qubit all the way to the
            # destination's neighbourhood.
            swaps += self._walk_until_adjacent(out, layout, movers[1],
                                               destination_logical)
        return swaps

    def _walk_until_adjacent(
        self,
        out: List[Instruction],
        layout: Layout,
        mover: int,
        destination: int,
        avoid: Tuple[int, ...] = (),
    ) -> int:
        """SWAP ``mover``'s data along a shortest path until adjacent to ``destination``."""
        swaps = 0
        guard = 0
        while True:
            start = layout.physical(mover)
            end = layout.physical(destination)
            if self.coupling_map.are_adjacent(start, end):
                return swaps
            path = self._shortest_path(start, end, avoid=avoid)
            # Walk only the first edge, then re-evaluate: walking step by step
            # keeps the loop correct even if a SWAP displaced another tracked
            # qubit along the way.
            self._emit_swap(out, layout, path[0], path[1])
            swaps += 1
            guard += 1
            if guard > self.coupling_map.num_qubits * 4:
                raise RoutingError("trio routing did not converge (adjacency walk)")

    def _walk_until_connected(
        self,
        out: List[Instruction],
        layout: Layout,
        mover: int,
        destination: int,
        trio: Sequence[int],
    ) -> int:
        """SWAP ``mover`` toward ``destination`` until the trio is connected."""
        swaps = 0
        guard = 0
        while True:
            positions = [layout.physical(q) for q in trio]
            if self._trio_connected(positions):
                return swaps
            start = layout.physical(mover)
            end = layout.physical(destination)
            # Walk one step along the shortest path toward the destination and
            # re-check connectivity: stopping as soon as the trio is connected
            # is the paper's "ending points overlap" SWAP saving (the second
            # qubit halts next to the first, which becomes the middle of the
            # line).  The walk can never displace the destination or the
            # already-routed qubit, because reaching a position adjacent to
            # either of them makes the trio connected and ends the loop first.
            path = self._shortest_path(start, end)
            self._emit_swap(out, layout, path[0], path[1])
            swaps += 1
            guard += 1
            if guard > self.coupling_map.num_qubits * 4:
                raise RoutingError("trio routing did not converge (connectivity walk)")
