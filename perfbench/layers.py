"""Per-layer self time for the traced run.

Every instant of a traced epoch is charged to exactly one layer, so the layer
self times and ``unattributed`` always add up to the epoch's wall time.  The
charge goes to the innermost span open at that instant:

* On one thread, spans nest, so the innermost open span is the one that
  started last.  This needs no parent ids.
* The ``serve_zipf`` workload has two threads: the asyncio loop (HTTP, QASM
  parse, key, cache) and the executor thread the service compiles on.  The
  tracer shares one span stack between them, so parent ids can point across
  threads and are not used.  Instead, every span is put in a thread group.
  While an executor span is open the instant is charged to the executor
  (compiler, passes, runtime, simulator); loop work that overlaps a compile
  is not charged separately.  Among loop spans, which interleave across
  coroutines, the most specific layer wins (parse/render, cache, key,
  service, HTTP, harness).

Spans come from two places: the program's own :mod:`repro.obs` spans
(transpile, passes, seed search, runtime cells, simulator runs, service
requests and batches) and spans this benchmark records around the public
functions it calls or that the service calls (:class:`Probe`).
"""

from __future__ import annotations

import threading
import types
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs

#: Thread groups; a higher group wins an instant.
LOOP, EXECUTOR = 0, 1

#: Loop-group specificity (higher wins) for spans that interleave.
_LOOP_PRIORITY = {
    "circuits.qasm.parse": 6,
    "circuits.qasm.render": 6,
    "service.cache": 5,
    "service.jobs.key": 4,
    "service": 3,
    "service.http": 2,
    "bench.harness": 1,
}


@dataclass
class Interval:
    start: float
    end: float
    layer: str
    group: int = EXECUTOR
    name: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)


def classify(span: obs.Span) -> Tuple[str, int]:
    """(layer, thread group) of one of the program's own spans."""
    category, name = span.category, span.name
    if category == "compiler.pass":
        return f"passes.{name}", EXECUTOR
    if category == "compiler":
        return "compiler", EXECUTOR
    if category == "compiler.seed_search":
        return "compiler.seed_search", EXECUTOR
    if category.startswith("runtime"):
        return "runtime", EXECUTOR
    if name == "estimate_success":
        return "sim.estimator", EXECUTOR
    if name == "ptm.run":
        return "sim.ptm", EXECUTOR
    if category == "sim":
        return "sim.other", EXECUTOR
    if name == "service.batch":
        # Recorded by the loop once the batch returns, but it covers the
        # executor's compile of the batch.
        return "service", EXECUTOR
    if name == "service.request":
        return "service", LOOP
    return "experiments", EXECUTOR


class Probe:
    """Spans the benchmark records itself, on the tracer's clock.

    ``loop_thread`` is the thread id of the asyncio loop on ``serve_zipf``;
    spans from any other thread then join the executor group.  ``None``
    (single-threaded workloads) puts every span in the executor group.
    """

    def __init__(self, loop_thread: Optional[int] = None):
        self.loop_thread = loop_thread
        self.records: List[Interval] = []
        self._undo: List[Callable[[], None]] = []

    def _group(self) -> int:
        if self.loop_thread is not None and threading.get_ident() == self.loop_thread:
            return LOOP
        return EXECUTOR

    def add(self, layer: str, start: float, end: float, name: str = "") -> None:
        # list.append is atomic under the GIL, so both threads may record.
        self.records.append(Interval(start, end, layer, self._group(), name or layer))

    def span(self, layer: str, name: str = ""):
        return _ProbeSpan(self, layer, name)

    def wrap(self, fn: Callable, layer: str, name: str = "", on_done=None) -> Callable:
        probe = self

        def wrapper(*args, **kwargs):
            start = obs.now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = obs.now()
                probe.add(layer, start, end, name)
                if on_done is not None:
                    on_done(args, start, end)

        return wrapper

    def patch(self, owner: object, attribute: str, layer: str, name: str = "", on_done=None) -> None:
        """Replace ``owner.attribute`` with a recording wrapper until :meth:`unpatch`.

        ``owner`` is a module, a class (the attribute may be a classmethod)
        or an instance, whose bound method is shadowed by an instance
        attribute.
        """
        if isinstance(owner, (type, types.ModuleType)):
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                replacement: object = classmethod(self.wrap(raw.__func__, layer, name, on_done))
            else:
                replacement = self.wrap(raw, layer, name, on_done)
            self._undo.append(lambda: setattr(owner, attribute, raw))
        else:
            replacement = self.wrap(getattr(owner, attribute), layer, name, on_done)
            self._undo.append(lambda: delattr(owner, attribute))
        setattr(owner, attribute, replacement)

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()


class _ProbeSpan:
    __slots__ = ("probe", "layer", "name", "start")

    def __init__(self, probe: Probe, layer: str, name: str):
        self.probe, self.layer, self.name = probe, layer, name
        self.start = 0.0

    def __enter__(self) -> "_ProbeSpan":
        self.start = obs.now()
        return self

    def __exit__(self, *exc: object) -> None:
        self.probe.add(self.layer, self.start, obs.now(), self.name)


def intervals_from_trace(spans: Iterable[obs.Span]) -> List[Interval]:
    out = []
    for span in spans:
        layer, group = classify(span)
        out.append(Interval(span.start, span.end, layer, group, span.name, span.attrs))
    return out


def paint(intervals: Sequence[Interval], window: Tuple[float, float]) -> Dict[str, float]:
    """Seconds of ``window`` charged to each layer (see the module docstring).

    The key ``"unattributed"`` holds the time no span covers.
    """
    lo, hi = window
    events: List[Tuple[float, int, int]] = []
    for index, interval in enumerate(intervals):
        start, end = max(interval.start, lo), min(interval.end, hi)
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    totals: Dict[str, float] = defaultdict(float)
    active: Dict[int, Interval] = {}
    cursor = lo
    for time, kind, index in events:
        if time > cursor:
            totals[_winner(active)] += time - cursor
            cursor = time
        if kind:
            active[index] = intervals[index]
        else:
            active.pop(index, None)
    if hi > cursor:
        totals[_winner(active)] += hi - cursor
    return dict(totals)


def _winner(active: Dict[int, Interval]) -> str:
    if not active:
        return "unattributed"
    best = max(
        active.items(),
        key=lambda item: (
            item[1].group,
            _LOOP_PRIORITY.get(item[1].layer, 0) if item[1].group == LOOP else 0,
            item[1].start,
            -item[1].end,
            item[0],
        ),
    )
    return best[1].layer
