"""Counted, optionally traced calls into the gatgmm library.

Every library call the benchmark makes goes through :meth:`Ops.call`, which
counts it as one attempted operation and, when tracing is on, records a span
(name, start, end, parent) around it.  Spans stay in memory; the benchmark
writes them out when it ends.  A span's name is ``<module>.<function>``, and
the module part is the layer the time is charged to.
"""

from __future__ import annotations

import bisect
import statistics
import time
import warnings
from contextlib import contextmanager


class OpFailed(Exception):
    """A library call failed; the pass that made it stops."""


class Ops:
    """Attempted/failed operation counts plus the span list of a run.

    A call fails when it raises one of ``error_types`` (the library's
    GatgmmError) or when it warns that an iterative solver hit its
    iteration cap.
    """

    def __init__(self, error_types: tuple[type[BaseException], ...]):
        self.error_types = error_types
        self.trace = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.cap_hits = 0
        self.problems: list[str] = []

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except self.error_types as exc:
                self._fail(f"{name}: {type(exc).__name__}: {exc}")
        caps = sum("iteration cap" in str(w.message) for w in caught)
        if caps:
            self.cap_hits += caps
            self._fail(f"{name}: {caps} iteration-cap warning(s)")
        return out

    def _fail(self, message: str):
        self.failed += 1
        self.problems.append(message)
        raise OpFailed(message)

    def check(self, ok: bool, message: str) -> None:
        """Record an output check; a failed check makes the run incorrect."""
        if not ok:
            self.problems.append(message)


class SpanIndex:
    """Spans grouped by the measurement unit (set-up, pass, probe) they fall in."""

    def __init__(self, spans: list[list]):
        # every span is closed by now; they are in start order
        self.spans = spans
        self.starts = [s[1] for s in spans]
        children: dict[int, float] = {}
        for s in spans:
            if s[3] >= 0:
                children[s[3]] = children.get(s[3], 0.0) + (s[2] - s[1])
        # self time = duration minus the part covered by child spans
        self.self_time = [s[2] - s[1] - children.get(i, 0.0) for i, s in enumerate(spans)]

    def within(self, lo: float, hi: float) -> range:
        return range(bisect.bisect_left(self.starts, lo), bisect.bisect_left(self.starts, hi))

    def total(self, window: tuple[float, float], name: str) -> float | None:
        """Summed duration of the spans called ``name`` in the window, or
        None when there is none."""
        durs = [self.spans[i][2] - self.spans[i][1] for i in self.within(*window)
                if self.spans[i][0] == name]
        return sum(durs) if durs else None

    def calls(self, windows, name: str) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for w in windows
                for i in self.within(*w) if self.spans[i][0] == name]

    def top_level(self, window: tuple[float, float]) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.within(*window)
                   if self.spans[i][3] < 0)

    def layer_self(self, window: tuple[float, float]) -> dict[str, float]:
        out: dict[str, float] = {}
        for i in self.within(*window):
            layer = self.spans[i][0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_time[i]
        return out


def median_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0
