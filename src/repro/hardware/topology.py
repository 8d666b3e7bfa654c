"""Hardware coupling maps.

A :class:`CouplingMap` is an undirected graph whose nodes are the physical
qubits of a device and whose edges are the pairs that can execute a two-qubit
gate directly.  Both the routers and the mapping-aware Toffoli decomposition
query it for adjacency, shortest paths and triangles.

Shortest-path queries are the routers' hot loop, so the map precomputes and
caches everything they re-derive:

* a dense numpy all-pairs distance matrix (:meth:`distance_matrix`),
* per-source shortest-path predecessor DAGs — keyed by the optional
  noise-aware edge weights and by the avoid-node set — with the number of
  tied shortest paths counted through the DAG, and
* deterministic shortest paths, memoized per (source, target, weights, avoid).

:meth:`sample_shortest_path` draws a uniformly random *tied* shortest path by
walking the predecessor DAG backwards, weighting each predecessor by its tied
path count.  That is the same uniform-over-tied-paths distribution as
enumerating every shortest path and picking one at random (the stochastic
baseline router's policy), but its cost is O(path length) instead of growing
with the — combinatorially explosive on grids — number of alternatives.

The map owns its graph as a plain adjacency table: each qubit's neighbours
in the order their edges were first added.  Every search visits neighbours
in that order, so ties between equal-length paths always break the same way.
The deterministic :meth:`shortest_path` is a bidirectional search that
reproduces networkx's ``bidirectional_shortest_path`` and
``bidirectional_dijkstra`` tie for tie on a graph built from the same edge
sequence — the compiled circuits pinned in ``tests/data`` were produced by
those searches — without the library at run time.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import HardwareError

Edge = Tuple[int, int]
#: Each qubit's neighbours, in the order their edges were first added.
Adjacency = List[List[int]]


class _PredecessorDAG:
    """Shortest-path predecessor DAG from one source qubit.

    ``dist`` maps each reachable node to its shortest distance from the
    source, ``preds`` to the list of predecessors that lie on some shortest
    path, and ``counts`` to the number of distinct tied shortest paths from
    the source — the weights used for uniform tied-path sampling.
    """

    __slots__ = ("source", "dist", "preds", "counts")

    def __init__(
        self,
        source: int,
        dist: Dict[int, float],
        preds: Dict[int, List[int]],
        order: List[int],
    ) -> None:
        self.source = source
        self.dist = dist
        self.preds = preds
        counts: Dict[int, int] = {source: 1}
        # ``order`` lists nodes by non-decreasing distance, so every
        # predecessor's count is final before it is summed into a successor.
        for node in order:
            if node == source:
                continue
            counts[node] = sum(counts[p] for p in preds[node])
        self.counts = counts

    def sample_path(self, target: int, rng: random.Random) -> List[int]:
        """A uniformly random tied shortest path from the source to ``target``.

        Walking backwards and picking each predecessor with probability
        proportional to its tied-path count makes every complete path equally
        likely (the per-step probabilities telescope to ``1 / counts[target]``).
        """
        path = [target]
        node = target
        while node != self.source:
            preds = self.preds[node]
            if len(preds) == 1:
                node = preds[0]
            else:
                pick = rng.randrange(self.counts[node])
                for pred in preds:
                    pick -= self.counts[pred]
                    if pick < 0:
                        node = pred
                        break
            path.append(node)
        path.reverse()
        return path


def _bfs_dag(adj: Adjacency, source: int, blocked: frozenset) -> _PredecessorDAG:
    """Unweighted shortest-path DAG via breadth-first search."""
    dist: Dict[int, float] = {source: 0}
    preds: Dict[int, List[int]] = {source: []}
    order: List[int] = [source]
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in adj[node]:
                if neighbor in blocked:
                    continue
                seen = dist.get(neighbor)
                if seen is None:
                    dist[neighbor] = depth
                    preds[neighbor] = [node]
                    next_frontier.append(neighbor)
                    order.append(neighbor)
                elif seen == depth:
                    preds[neighbor].append(node)
        frontier = next_frontier
    return _PredecessorDAG(source, dist, preds, order)


def _dijkstra_dag(
    adj: Adjacency,
    source: int,
    blocked: frozenset,
    weight: Mapping[Edge, float],
) -> _PredecessorDAG:
    """Weighted shortest-path DAG via Dijkstra.

    Ties are detected with exact float equality, matching
    :func:`networkx.all_shortest_paths`' notion of "tied" so the sampled
    distribution is over the same path set the enumeration would produce.
    """
    dist: Dict[int, float] = {}
    preds: Dict[int, List[int]] = {source: []}
    order: List[int] = []
    seen: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int, int]] = [(0.0, source, source)]
    while heap:
        node_dist, _, node = heappop(heap)
        if node in dist:
            continue
        dist[node] = node_dist
        order.append(node)
        for neighbor in adj[node]:
            if neighbor in blocked or neighbor in dist:
                continue
            edge = (node, neighbor) if node < neighbor else (neighbor, node)
            candidate = node_dist + weight.get(edge, 1.0)
            best = seen.get(neighbor)
            if best is None or candidate < best:
                seen[neighbor] = candidate
                preds[neighbor] = [node]
                heappush(heap, (candidate, neighbor, neighbor))
            elif candidate == best:
                preds[neighbor].append(node)
    return _PredecessorDAG(source, dist, preds, order)


def _bidirectional_bfs(
    adj: Adjacency, source: int, target: int, blocked: frozenset
) -> Optional[List[int]]:
    """One unweighted shortest path, or ``None`` when ``target`` is unreachable.

    Grows a fringe from each end, always expanding the smaller one (the
    forward one on a tie), and joins the halves at the first node both
    searches have reached — networkx's ``bidirectional_shortest_path``.
    """
    if source == target:
        return [source]
    parents: Tuple[Dict[int, int], Dict[int, int]] = ({source: -1}, {target: -1})
    fringes = [[source], [target]]
    while fringes[0] and fringes[1]:
        side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
        mine, other = parents[side], parents[1 - side]
        level, fringes[side] = fringes[side], []
        for node in level:
            for neighbor in adj[node]:
                if neighbor in blocked:
                    continue
                if neighbor not in mine:
                    fringes[side].append(neighbor)
                    mine[neighbor] = node
                if neighbor in other:
                    return _join(parents, neighbor)
    return None


def _bidirectional_dijkstra(
    adj: Adjacency,
    source: int,
    target: int,
    blocked: frozenset,
    weight: Mapping[Edge, float],
) -> Optional[List[int]]:
    """One weighted shortest path, or ``None`` when ``target`` is unreachable.

    The two searches pop alternately; heap ties break on one insertion
    counter shared by both, and the answer is the best meeting node seen
    when a node is settled from both sides — networkx's
    ``bidirectional_dijkstra``.
    """
    if source == target:
        return [source]
    settled: Tuple[Dict[int, float], Dict[int, float]] = ({}, {})
    seen: Tuple[Dict[int, float], Dict[int, float]] = ({source: 0}, {target: 0})
    parents: Tuple[Dict[int, int], Dict[int, int]] = ({source: -1}, {target: -1})
    ticket = count()
    heaps: Tuple[list, list] = ([(0, next(ticket), source)], [(0, next(ticket), target)])
    best: Optional[float] = None
    meet = -1
    side = 1
    while heaps[0] and heaps[1]:
        side = 1 - side
        node_dist, _, node = heappop(heaps[side])
        if node in settled[side]:
            continue
        settled[side][node] = node_dist
        if node in settled[1 - side]:
            return _join(parents, meet)
        mine, other = seen[side], seen[1 - side]
        for neighbor in adj[node]:
            if neighbor in blocked or neighbor in settled[side]:
                continue
            edge = (node, neighbor) if node < neighbor else (neighbor, node)
            candidate = node_dist + weight.get(edge, 1.0)
            known = mine.get(neighbor)
            if known is None or candidate < known:
                mine[neighbor] = candidate
                heappush(heaps[side], (candidate, next(ticket), neighbor))
                parents[side][neighbor] = node
                if neighbor in other:
                    total = candidate + other[neighbor]
                    if best is None or best > total:
                        best, meet = total, neighbor
    return None


def _join(parents: Tuple[Dict[int, int], Dict[int, int]], meet: int) -> List[int]:
    """The path through ``meet`` from the forward and backward parent links."""
    path: List[int] = []
    node = meet
    while node >= 0:
        path.append(node)
        node = parents[0][node]
    path.reverse()
    node = parents[1][meet]
    while node >= 0:
        path.append(node)
        node = parents[1][node]
    return path


class CouplingMap:
    """Connectivity graph of a quantum device."""

    def __init__(self, num_qubits: int, edges: Iterable[Edge], name: str = "device") -> None:
        if num_qubits < 1:
            raise HardwareError("a device needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._adj: Adjacency = [[] for _ in range(self.num_qubits)]
        self._adjacent: Dict[int, Set[int]] = {q: set() for q in range(self.num_qubits)}
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise HardwareError(f"self-loop edge ({a}, {b}) is not allowed")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise HardwareError(f"edge ({a}, {b}) out of range for {num_qubits} qubits")
            if b not in self._adjacent[a]:
                self._adj[a].append(b)
                self._adj[b].append(a)
                self._adjacent[a].add(b)
                self._adjacent[b].add(a)
        # Lazily-built caches; the graph is immutable after construction, so
        # they stay valid for the lifetime of the map.
        self._distance_matrix: Optional[np.ndarray] = None
        self._dag_cache: Dict[Tuple[int, object, Tuple[int, ...]], _PredecessorDAG] = {}
        self._path_cache: Dict[
            Tuple[int, int, object, Tuple[int, ...]], Tuple[int, ...]
        ] = {}
        self._weight_tokens: Dict[frozenset, frozenset] = {}

    def __getstate__(self) -> Dict[str, object]:
        # The caches are recomputable and grow with use, so pickles (jobs
        # shipped to pool workers) carry the graph only.
        state = dict(self.__dict__)
        state.update(
            _distance_matrix=None, _dag_cache={}, _path_cache={}, _weight_tokens={}
        )
        return state

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def edges(self) -> List[Edge]:
        """Sorted list of undirected edges (a < b)."""
        return [(a, b) for a in range(self.num_qubits) for b in self.neighbors(a) if a < b]

    def degree(self, qubit: int) -> int:
        """Number of neighbours of a physical qubit."""
        return len(self._adjacent[qubit])

    def neighbors(self, qubit: int) -> List[int]:
        """Physical qubits directly connected to ``qubit``."""
        return sorted(self._adjacent[qubit])

    def is_connected(self) -> bool:
        """Whether the device graph is a single connected component."""
        return len(self._predecessor_dag(0).dist) == self.num_qubits

    def are_adjacent(self, a: int, b: int) -> bool:
        """Whether a two-qubit gate can run directly between ``a`` and ``b``."""
        return b in self._adjacent.get(a, ())

    def has_triangle(self, a: int, b: int, c: int) -> bool:
        """Whether the three qubits are pairwise connected.

        The Trios second decomposition pass uses this to pick the 6-CNOT
        Toffoli (triangle present) versus the 8-CNOT linear one.
        """
        return (
            self.are_adjacent(a, b)
            and self.are_adjacent(b, c)
            and self.are_adjacent(a, c)
        )

    def linear_middle(self, a: int, b: int, c: int) -> Optional[int]:
        """If {a, b, c} are in a connected line, return the middle qubit.

        Returns ``None`` when the three qubits do not form a connected
        sub-line (i.e. no qubit is adjacent to both of the others).
        """
        for middle, (left, right) in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            if self.are_adjacent(middle, left) and self.are_adjacent(middle, right):
                return middle
        return None

    # ------------------------------------------------------------------
    # Distances and paths
    # ------------------------------------------------------------------
    def distance_matrix(self) -> np.ndarray:
        """Dense all-pairs unweighted distance matrix (``-1`` = disconnected).

        Computed once and cached; :meth:`distance` and the routers' distance
        queries are plain array reads afterwards.
        """
        if self._distance_matrix is None:
            matrix = np.full((self.num_qubits, self.num_qubits), -1, dtype=np.int32)
            for source in range(self.num_qubits):
                for target, length in self._predecessor_dag(source).dist.items():
                    matrix[source, target] = length
            matrix.setflags(write=False)
            self._distance_matrix = matrix
        return self._distance_matrix

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance (number of edges) between two physical qubits."""
        matrix = self.distance_matrix()
        if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
            raise HardwareError(f"qubits {a} and {b} out of range")
        value = int(matrix[a, b])
        if value < 0:
            raise HardwareError(f"qubits {a} and {b} are not connected")
        return value

    def _weight_token(self, weight: Optional[Mapping[Edge, float]]) -> object:
        """The cache key of an edge-weight variant (0 = unweighted).

        A weighted variant's token is the first frozenset of its items that
        reached the map.  ``setdefault`` is atomic, so threads routing on one
        shared map agree on it, and two different weight maps can never
        share a token.  Cached hits compare the token by identity.
        """
        if not weight:
            return 0
        key = frozenset(weight.items())
        token = self._weight_tokens.get(key)
        if token is None:
            token = self._weight_tokens.setdefault(key, key)
        return token

    def _predecessor_dag(
        self,
        source: int,
        weight: Optional[Mapping[Edge, float]] = None,
        avoid: Tuple[int, ...] = (),
    ) -> _PredecessorDAG:
        """The cached shortest-path DAG from ``source`` for a weight/avoid variant."""
        key = (source, self._weight_token(weight), avoid)
        dag = self._dag_cache.get(key)
        if dag is None:
            blocked = frozenset(avoid)
            if source in blocked:
                raise HardwareError(f"source qubit {source} is in the avoid set")
            if weight:
                dag = _dijkstra_dag(self._adj, source, blocked, weight)
            else:
                dag = _bfs_dag(self._adj, source, blocked)
            self._dag_cache[key] = dag
        return dag

    def shortest_path(
        self,
        a: int,
        b: int,
        weight: Optional[Mapping[Edge, float]] = None,
        avoid: Tuple[int, ...] = (),
    ) -> List[int]:
        """A shortest path from ``a`` to ``b`` inclusive of both endpoints.

        Deterministic: repeated queries return the same path, which is
        memoized per (source, target, weights, avoid) so the routers never
        recompute it.

        Args:
            a: Source physical qubit.
            b: Destination physical qubit.
            weight: Optional per-edge weights (e.g. ``-log`` CNOT success rate
                for noise-aware routing).  Unweighted BFS is used when omitted.
            avoid: Physical qubits the path must not pass through.
        """
        weight = weight or None  # an empty mapping is the unweighted variant
        key = (a, b, self._weight_token(weight), avoid)
        cached = self._path_cache.get(key)
        if cached is None:
            blocked = frozenset(avoid)
            path: Optional[List[int]] = None
            if all(0 <= q < self.num_qubits and q not in blocked for q in (a, b)):
                if weight is None:
                    path = _bidirectional_bfs(self._adj, a, b, blocked)
                else:
                    path = _bidirectional_dijkstra(self._adj, a, b, blocked, weight)
            if path is None:
                raise HardwareError(f"no path between qubits {a} and {b}")
            cached = tuple(path)
            self._path_cache[key] = cached
        return list(cached)

    def sample_shortest_path(
        self,
        a: int,
        b: int,
        rng: random.Random,
        weight: Optional[Mapping[Edge, float]] = None,
        avoid: Tuple[int, ...] = (),
    ) -> List[int]:
        """A uniformly random tied shortest path from ``a`` to ``b``.

        Equivalent in distribution to enumerating every shortest path and
        picking one uniformly (the stochastic baseline's policy), but runs in
        O(path length) by sampling through the cached predecessor DAG.
        """
        dag = self._predecessor_dag(a, weight or None, avoid)
        if b not in dag.dist:
            raise HardwareError(f"no path between qubits {a} and {b}")
        return dag.sample_path(b, rng)

    def tied_path_count(
        self,
        a: int,
        b: int,
        weight: Optional[Mapping[Edge, float]] = None,
        avoid: Tuple[int, ...] = (),
    ) -> int:
        """Number of distinct tied shortest paths from ``a`` to ``b``."""
        dag = self._predecessor_dag(a, weight, avoid)
        if b not in dag.dist:
            raise HardwareError(f"no path between qubits {a} and {b}")
        return dag.counts[b]

    def path_length(self, a: int, b: int, weight: Optional[Mapping[Edge, float]] = None) -> float:
        """Length of the shortest path under the optional edge weights."""
        if weight is None:
            return float(self.distance(a, b))
        path = self.shortest_path(a, b, weight)
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += weight.get((min(u, v), max(u, v)), 1.0)
        return total

    def total_distance(self, qubits: Sequence[int]) -> int:
        """Sum of pairwise distances over a group of qubits.

        This is the "total swap distance" label used on the x axis of the
        paper's Figures 6-8 for qubit triplets.
        """
        total = 0
        qubits = list(qubits)
        for i in range(len(qubits)):
            for j in range(i + 1, len(qubits)):
                total += self.distance(qubits[i], qubits[j])
        return total

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def subgraph_is_connected(self, qubits: Sequence[int]) -> bool:
        """Whether the induced subgraph on ``qubits`` is connected."""
        members = {q for q in qubits if 0 <= q < self.num_qubits}
        if not members:
            return False
        outside = frozenset(range(self.num_qubits)) - members
        return len(_bfs_dag(self._adj, min(members), outside).dist) == len(members)

    def triangles(self) -> List[Tuple[int, int, int]]:
        """All triangles (3-cliques) in the device graph."""
        found: Set[Tuple[int, int, int]] = set()
        for a, b in self.edges:
            for c in self._adjacent[a] & self._adjacent[b]:
                found.add(tuple(sorted((a, b, c))))  # type: ignore[arg-type]
        return sorted(found)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CouplingMap(name={self.name!r}, qubits={self.num_qubits}, "
            f"edges={len(self.edges)})"
        )
