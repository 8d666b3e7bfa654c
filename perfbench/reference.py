"""The reference kernel: a fixed piece of pure-Python work that measures how
fast the machine is running right now.

On a shared machine the same code runs up to 1.7 times slower from one
second to the next, because other tenants load the same cores.  The
benchmark times this kernel right before every unit of work and reports
times at *reference speed*: each unit's time scaled by
``(NOMINAL_S / kernel time) ** ELASTICITY`` (see
:func:`measure.at_reference_speed`).  The kernel is the benchmark's own code
and never calls the program, so a change to the program cannot change it.
"""

from __future__ import annotations

import gc
import time
from typing import List

#: Kernel time that defines reference speed (about the median on a
#: 2-vCPU Intel Xeon virtual machine): a time measured while one kernel
#: call takes this long is reported unchanged.
NOMINAL_S = 0.002

#: How much of a change in the kernel's time the program's time follows.
#: Over the second-to-second swings the program tracked the kernel fully
#: (1.0 steadied windows of a run best).  But when the machine as a whole
#: ran fast for twenty minutes, the kernel took 1.1 ms instead of 2.2 ms while the
#: Toffoli and serve workloads ran only 1.5 times faster: full scaling
#: would have read them 23-25% slower there, and 0.6 would have matched.
#: 0.7 keeps that shift within 5% and most of the steadying.
ELASTICITY = 0.7

#: Records the kernel builds per call (about 2 ms of work).
RECORDS = 1200


class _Record:
    __slots__ = ("a", "b", "index")

    def __init__(self, a: int, b: int, index: int):
        self.a = a
        self.b = b
        self.index = index


def kernel(records: int = RECORDS) -> int:
    """Allocate objects, hash tuples into a dict and sort: the interpreter
    work compilers written in Python spend their time on."""
    x = 12345
    items = []
    counts = {}
    for index in range(records):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        record = _Record(x & 1023, (x >> 10) & 1023, index)
        items.append(record)
        key = (record.a, record.b & 7)
        counts[key] = counts.get(key, 0) + 1
    items.sort(key=lambda r: (r.a, r.b))
    return len(counts) + items[0].index


def seconds() -> float:
    """Time one kernel call.

    The garbage collector is off during the call: a collection it triggered
    would scan the program's objects, and then the kernel's time would
    depend on how much the program keeps alive, not only on the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def samples(count: int) -> List[float]:
    return [seconds() for _ in range(count)]
