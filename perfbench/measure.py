"""Statistics and machine helpers shared by the workloads and the runner."""

from __future__ import annotations

import os
import platform
import resource
import statistics
from typing import Dict, List, Sequence

from repro.obs.metrics import Histogram

import reference

#: Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def tail_percentile(sample_count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    ``sample_count * (1 - q/100)`` samples lie beyond percentile ``q``.  With
    fewer than twenty samples no ladder entry qualifies and the median is
    returned, so the tail never claims more than the data holds.
    """
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        # Rounded, so that 100 samples do have 10 beyond p90 in floating point.
        if round(sample_count * (100.0 - q) / 100.0, 9) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


#: Kernel times on each side of a unit that set its speed.
KERNEL_REACH = 2


def scale_to_reference(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured while the reference kernel took ``kernel_seconds``,
    put at reference speed."""
    return seconds * (reference.NOMINAL_S / kernel_seconds) ** reference.ELASTICITY


def at_reference_speed(times: Sequence[float], kernel_times: Sequence[float]) -> List[float]:
    """Each time scaled to what it would be at reference speed.

    ``kernel_times[i]`` is the reference kernel timed right before
    ``times[i]``, in the same order.  Time ``i`` is scaled by
    ``reference.NOMINAL_S`` over the median of kernel times ``i - 2`` to
    ``i + 2`` (the five nearest at either end of the epoch), raised to
    ``reference.ELASTICITY``: the kernel
    runs before and after the unit, and the median
    keeps one or two kernel calls that an interrupt slowed from shrinking
    the unit.  A narrower window tracks a long unit less well: on the
    Fig 9/10 sweep the p95 latency spread twice as much with ``i - 1`` to
    ``i + 1``.
    """
    if len(times) != len(kernel_times):
        raise ValueError(f"{len(times)} times but {len(kernel_times)} kernel times")
    width = 2 * KERNEL_REACH + 1
    scaled = []
    for index, value in enumerate(times):
        start = min(max(0, index - KERNEL_REACH), max(0, len(times) - width))
        speed = statistics.median(kernel_times[start:start + width])
        scaled.append(scale_to_reference(value, speed))
    return scaled


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(bench_metadata: Dict[str, object]) -> Dict[str, object]:
    """The repository's provenance block plus the machine's identity."""
    info = dict(bench_metadata)
    info["nproc"] = os.cpu_count()
    info["cpu_model"] = cpu_model()
    info["platform"] = platform.platform()
    return info


class LatencyLog:
    """Per-unit latencies pooled over epochs, with the tail rule applied.

    The tail percentile is fixed from ``reference_count`` (the units of the
    minimum number of epochs every run completes), not from the number of
    samples a run happened to collect, so a faster program cannot move the
    tail metric to a higher percentile just by finishing more epochs.
    """

    def __init__(self, reference_count: int):
        self.reference_count = reference_count
        self.samples = Histogram("latency_s")

    def extend(self, seconds: Sequence[float]) -> None:
        for value in seconds:
            self.samples.observe(value)

    @property
    def tail_q(self) -> float:
        return tail_percentile(self.reference_count)

    def p50_ms(self) -> float:
        return self.samples.percentile(50.0) * 1e3

    def tail_ms(self) -> float:
        return self.samples.percentile(self.tail_q) * 1e3
