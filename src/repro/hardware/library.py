"""The four 20-qubit device topologies evaluated in the paper (Figure 5).

* :func:`johannesburg` — IBM Johannesburg, four connected rings of qubits.
* :func:`grid` — a full 2D mesh.
* :func:`clusters` — fully-connected clusters joined in a ring, representative
  of a QCCD trapped-ion device.
* :func:`line` — linear nearest-neighbour connectivity.

All builders default to the 20-qubit sizes used in the paper's evaluation but
accept parameters so larger or smaller devices can be studied.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..exceptions import HardwareError
from .topology import CouplingMap

Edge = Tuple[int, int]


def johannesburg() -> CouplingMap:
    """IBM Johannesburg: a 4x5 lattice of qubits forming four connected rings.

    Row edges connect qubits left-to-right within each row of five; a sparse
    set of vertical couplers (columns 0/4 between rows 0-1 and 2-3, columns
    0/2/4 between rows 1-2) closes the four rings shown in Figure 5a.
    """
    edges: List[Edge] = []
    # Horizontal edges along each row of five qubits.
    for row_start in (0, 5, 10, 15):
        for offset in range(4):
            edges.append((row_start + offset, row_start + offset + 1))
    # Vertical couplers.
    edges += [(0, 5), (4, 9), (5, 10), (7, 12), (9, 14), (10, 15), (14, 19)]
    return CouplingMap(20, edges, name="ibmq-johannesburg")


def grid(rows: int = 4, cols: int = 5) -> CouplingMap:
    """A full 2D mesh (``rows`` x ``cols``), Figure 5b's ``full-grid-5x4``."""
    if rows < 1 or cols < 1:
        raise HardwareError("grid dimensions must be positive")
    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            qubit = r * cols + c
            if c + 1 < cols:
                edges.append((qubit, qubit + 1))
            if r + 1 < rows:
                edges.append((qubit, qubit + cols))
    return CouplingMap(rows * cols, edges, name=f"full-grid-{cols}x{rows}")


def line(num_qubits: int = 20) -> CouplingMap:
    """Linear nearest-neighbour connectivity (Figure 5d)."""
    if num_qubits < 2:
        raise HardwareError("a line needs at least two qubits")
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    return CouplingMap(num_qubits, edges, name=f"line-{num_qubits}")


def clusters(num_clusters: int = 4, cluster_size: int = 5) -> CouplingMap:
    """Fully-connected clusters joined in a ring (Figure 5c, ``clusters-5x4``).

    Each cluster is a complete graph on ``cluster_size`` qubits.  Neighbouring
    clusters are joined by a single link between their boundary qubits, which
    models the shuttling bottleneck of a QCCD trapped-ion machine.
    """
    if num_clusters < 1 or cluster_size < 2:
        raise HardwareError("need at least one cluster of two or more qubits")
    num_qubits = num_clusters * cluster_size
    edges: List[Edge] = []
    for cluster in range(num_clusters):
        base = cluster * cluster_size
        for i in range(cluster_size):
            for j in range(i + 1, cluster_size):
                edges.append((base + i, base + j))
    if num_clusters > 1:
        for cluster in range(num_clusters):
            this_last = cluster * cluster_size + (cluster_size - 1)
            next_first = ((cluster + 1) % num_clusters) * cluster_size
            if num_clusters == 2 and cluster == 1:
                break  # avoid a duplicate edge between the only two clusters
            edges.append((this_last, next_first))
    return CouplingMap(num_qubits, edges, name=f"clusters-{cluster_size}x{num_clusters}")


def fully_connected(num_qubits: int = 20) -> CouplingMap:
    """All-to-all connectivity; the limit where Trios provides no benefit (§6.1)."""
    edges = [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
    return CouplingMap(num_qubits, edges, name=f"all-to-all-{num_qubits}")


#: The four topologies compared throughout the evaluation, keyed by the labels
#: used in the paper's figures.
PAPER_TOPOLOGIES = {
    "ibmq-johannesburg": johannesburg,
    "full-grid-5x4": grid,
    "line-20": line,
    "clusters-5x4": clusters,
}


#: Each paper topology built by :func:`by_name`, shared for the process.
_SHARED: Dict[str, CouplingMap] = {}


def by_name(name: str) -> CouplingMap:
    """One of the paper's topologies by its figure label, built once per process.

    Every call with the same label returns the same map.  A map is immutable
    after construction, so sharing it is safe, and its distance matrix,
    predecessor DAGs and path memo stay warm across every compile that uses
    it (the compile service resolves each request's target here).
    """
    shared = _SHARED.get(name)
    if shared is None:
        try:
            builder = PAPER_TOPOLOGIES[name]
        except KeyError as exc:
            raise HardwareError(
                f"unknown topology {name!r}; expected one of {sorted(PAPER_TOPOLOGIES)}"
            ) from exc
        shared = _SHARED.setdefault(name, builder())
    return shared
