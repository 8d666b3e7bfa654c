"""A compile leaves no cyclic garbage.

The compiler IR is a flat table of immutable instructions with index-based
wire links, so every table a pass drops is freed by reference counting
alone.  The cyclic collector finding anything after a compile means some
layer went back to object graphs with back-links, which makes peak memory
depend on when a generation-2 collection happens to run.
"""

import gc

import pytest

from repro import transpile
from repro.bench_circuits.suite import get_benchmark
from repro.hardware import johannesburg

METHODS = ("baseline", "trios", "greedy-depth")


@pytest.fixture(scope="module")
def compile_grovers():
    circuit = get_benchmark("grovers-9")
    device = johannesburg()

    def run(method, level):
        return transpile(circuit, device, method=method, seed=11, optimization_level=level)

    # Warm every path once: first calls fill process-wide memos and import
    # modules lazily, which is not per-compile garbage.
    for method in METHODS:
        for level in range(4):
            run(method, level)
    return run


@pytest.mark.parametrize("method", METHODS)
def test_compile_leaves_no_cyclic_garbage(compile_grovers, method):
    gc.collect()
    gc.disable()
    try:
        for level in range(4):
            result = compile_grovers(method, level)
            assert result.circuit.instructions
            del result
            assert gc.collect() == 0, f"{method} level {level} left cyclic garbage"
    finally:
        gc.enable()
