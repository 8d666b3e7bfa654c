"""Frozen shortest-path picker from the seed repository's routers.

This is a faithful port of the original ``GreedySwapRouter._shortest_path`` /
``_pick_path`` pair, which rebuilt a networkx subgraph on every avoid-node
query and — in stochastic mode — enumerated **all** tied shortest paths with
``nx.all_shortest_paths`` before picking one at random.  On grid topologies
the number of tied paths grows combinatorially with distance, which is
exactly the cost the cached predecessor-DAG sampler removes.  It is kept so
that ``tests/test_routing_fastpath.py`` can assert that the sampled tied-path
distribution matches the enumerate-then-choose distribution.

It is a distribution reference, not a byte reference: the library no longer
uses networkx, so this module builds its own ``nx.Graph`` from the map's
sorted edge list (once per map), and that graph's neighbour order — hence
which tied path a deterministic query returns — need not match the map's.

Do not "optimize" this module — it is the reference the fast path is checked
against.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Tuple
from weakref import WeakKeyDictionary

import networkx as nx

from repro.compiler import pipeline as _pipeline
from repro.hardware import CouplingMap
from repro.passes.routing import GreedySwapRouter, LegalizationRouter
from repro.passes.trios_routing import TriosRouter


_GRAPHS: "WeakKeyDictionary[CouplingMap, nx.Graph]" = WeakKeyDictionary()


def _graph(coupling_map: CouplingMap) -> nx.Graph:
    """The networkx graph of ``coupling_map``, built once per map."""
    graph = _GRAPHS.get(coupling_map)
    if graph is None:
        graph = nx.Graph()
        graph.add_nodes_from(range(coupling_map.num_qubits))
        graph.add_edges_from(coupling_map.edges)
        _GRAPHS[coupling_map] = graph
    return graph


class _LegacyPathPickerMixin:
    """The seed repository's path selection, verbatim."""

    def _weight_function(self):
        if self.edge_weights is None:
            return None
        return lambda u, v, _d: self.edge_weights.get((min(u, v), max(u, v)), 1.0)

    def _shortest_path(self, a: int, b: int, avoid: Tuple[int, ...] = ()) -> List[int]:
        """Shortest path from ``a`` to ``b``, preferring to avoid given nodes."""
        if avoid:
            graph = _graph(self.coupling_map)
            blocked = set(avoid) - {a, b}
            sub = graph.subgraph([n for n in graph.nodes if n not in blocked])
            try:
                return self._pick_path(sub, a, b)
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                pass  # avoiding those nodes is impossible; fall back to the full graph
        return self._pick_path(_graph(self.coupling_map), a, b)

    def _pick_path(self, graph, a: int, b: int) -> List[int]:
        """One shortest path; in stochastic mode a uniformly random tied path."""
        weight = self._weight_function()
        if not self.stochastic:
            return list(nx.shortest_path(graph, a, b, weight=weight))
        paths = list(nx.all_shortest_paths(graph, a, b, weight=weight))
        return list(self._rng.choice(paths))


class LegacyGreedySwapRouter(_LegacyPathPickerMixin, GreedySwapRouter):
    """Baseline router with the frozen all-shortest-paths picker."""


class LegacyTriosRouter(_LegacyPathPickerMixin, TriosRouter):
    """Trios router with the frozen all-shortest-paths picker."""


class LegacyLegalizationRouter(_LegacyPathPickerMixin, LegalizationRouter):
    """Legalization router with the frozen all-shortest-paths picker."""


@contextmanager
def legacy_routers():
    """Run ``transpile()`` with the frozen path picker.

    Swaps the router classes referenced by :mod:`repro.compiler.pipeline` for
    their legacy subclasses, so both pipelines are byte-for-byte the modern
    ones except for the path selection under test.  The experiment harness's
    compile cache is cleared on entry and exit — its keys do not distinguish
    the picker, so stale entries would leak across the swap.
    """
    from repro.experiments.benchmarks import clear_compile_cache

    clear_compile_cache()
    saved = (
        _pipeline.GreedySwapRouter,
        _pipeline.TriosRouter,
        _pipeline.LegalizationRouter,
    )
    _pipeline.GreedySwapRouter = LegacyGreedySwapRouter
    _pipeline.TriosRouter = LegacyTriosRouter
    _pipeline.LegalizationRouter = LegacyLegalizationRouter
    try:
        yield
    finally:
        (
            _pipeline.GreedySwapRouter,
            _pipeline.TriosRouter,
            _pipeline.LegalizationRouter,
        ) = saved
        clear_compile_cache()
