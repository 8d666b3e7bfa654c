"""The Table 1 benchmark suite.

:data:`PAPER_BENCHMARKS` maps the paper's benchmark labels to zero-argument
builders producing the same instances (qubit counts match Table 1 exactly;
Toffoli/CNOT counts can differ where a builder substitutes a construction,
see :data:`PAPER_TABLE1`).  :func:`benchmark_statistics` reproduces the
Table 1 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..circuits.circuit import QuantumCircuit
from ..exceptions import BenchmarkError
from ..passes.base import PropertySet
from ..passes.decompose import DecomposeToBasisPass
from .adders import cuccaro_adder, qft_adder, takahashi_adder
from .algorithms import bernstein_vazirani, grovers, incrementer_borrowedbit, qaoa_complete
from .cnx import cnx_dirty, cnx_halfborrowed, cnx_inplace, cnx_logancilla

#: Builders for every Table 1 benchmark, keyed by the paper's labels.
PAPER_BENCHMARKS: Dict[str, Callable[[], QuantumCircuit]] = {
    "cnx_dirty-11": lambda: cnx_dirty(6),
    "cnx_halfborrowed-19": lambda: cnx_halfborrowed(10),
    "cnx_logancilla-19": lambda: cnx_logancilla(10),
    "cnx_inplace-4": lambda: cnx_inplace(3),
    "cuccaro_adder-20": lambda: cuccaro_adder(9),
    "takahashi_adder-20": lambda: takahashi_adder(9),
    "incrementer_borrowedbit-5": lambda: incrementer_borrowedbit(4),
    "grovers-9": lambda: grovers(6),
    "qft_adder-16": lambda: qft_adder(8),
    "bv-20": lambda: bernstein_vazirani(20),
    "qaoa_complete-10": lambda: qaoa_complete(10),
}

#: Benchmarks that contain Toffoli gates (the ones where Trios helps).
TOFFOLI_BENCHMARKS = (
    "cnx_dirty-11",
    "cnx_halfborrowed-19",
    "cnx_logancilla-19",
    "cnx_inplace-4",
    "cuccaro_adder-20",
    "takahashi_adder-20",
    "incrementer_borrowedbit-5",
    "grovers-9",
)

#: Benchmarks without Toffolis (the paper's no-change controls).
TOFFOLI_FREE_BENCHMARKS = ("qft_adder-16", "bv-20", "qaoa_complete-10")

#: Qubit / Toffoli / CNOT numbers exactly as printed in Table 1 of the paper,
#: for side-by-side comparison with :func:`benchmark_statistics`.
PAPER_TABLE1 = {
    "cnx_dirty-11": {"qubits": 11, "toffolis": 16, "cnots": 128},
    "cnx_halfborrowed-19": {"qubits": 19, "toffolis": 32, "cnots": 256},
    "cnx_logancilla-19": {"qubits": 19, "toffolis": 17, "cnots": 136},
    "cnx_inplace-4": {"qubits": 4, "toffolis": 54, "cnots": 490},
    "cuccaro_adder-20": {"qubits": 20, "toffolis": 18, "cnots": 190},
    "takahashi_adder-20": {"qubits": 20, "toffolis": 18, "cnots": 188},
    "incrementer_borrowedbit-5": {"qubits": 5, "toffolis": 50, "cnots": 448},
    "grovers-9": {"qubits": 9, "toffolis": 84, "cnots": 672},
    "qft_adder-16": {"qubits": 16, "toffolis": 0, "cnots": 92},
    "bv-20": {"qubits": 20, "toffolis": 0, "cnots": 19},
    "qaoa_complete-10": {"qubits": 10, "toffolis": 0, "cnots": 90},
}


@dataclass(frozen=True)
class BenchmarkStats:
    """One row of Table 1 as measured from our generators."""

    name: str
    qubits: int
    toffolis: int
    cnots_after_8cnot_decomposition: int

    def as_row(self) -> Dict[str, int]:
        return {
            "qubits": self.qubits,
            "toffolis": self.toffolis,
            "cnots": self.cnots_after_8cnot_decomposition,
        }


def get_benchmark(name: str) -> QuantumCircuit:
    """Build one of the Table 1 benchmarks by its paper label."""
    try:
        return PAPER_BENCHMARKS[name]()
    except KeyError as exc:
        raise BenchmarkError(
            f"unknown benchmark {name!r}; expected one of {sorted(PAPER_BENCHMARKS)}"
        ) from exc


def benchmark_statistics(name: str) -> BenchmarkStats:
    """Reproduce the Table 1 columns for a benchmark.

    The CNOT column follows the paper's convention: the number of CNOT gates
    after decomposing with the 8-CNOT Toffoli, *before* any routing SWAPs.
    """
    circuit = get_benchmark(name)
    toffolis = circuit.count_ops().get("ccx", 0) + circuit.count_ops().get("ccz", 0)
    decomposed = DecomposeToBasisPass(toffoli_mode="8cnot").run(circuit, PropertySet())
    cnots = decomposed.two_qubit_gate_count(count_swap_as=3)
    return BenchmarkStats(
        name=name,
        qubits=circuit.num_qubits,
        toffolis=toffolis,
        cnots_after_8cnot_decomposition=cnots,
    )


def all_benchmark_statistics() -> List[BenchmarkStats]:
    """Table 1 statistics for every benchmark, in the paper's order."""
    return [benchmark_statistics(name) for name in PAPER_BENCHMARKS]
