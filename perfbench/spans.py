"""Calls into the library, with one in-memory span per call when tracing.

A span is ``(name, start, end, parent, case_id, returned_none)``.  ``name``
is ``<layer>.<function>`` for library calls and ``bench.case`` or
``bench.check`` for the harness; ``parent`` is the index of the enclosing
span, or -1.  Untraced, ``call`` adds one Python call and nothing else.
"""

from __future__ import annotations

from time import perf_counter


class Recorder:
    def __init__(self, traced: bool):
        self.spans: list[tuple] | None = [] if traced else None
        self._parent = -1
        self._case_id = -1

    def call(self, name: str, fn, *args):
        """``fn(*args)``, recorded as a span named ``name`` when tracing."""
        if self.spans is None:
            return fn(*args)
        t0 = perf_counter()
        out = fn(*args)
        t1 = perf_counter()
        self.spans.append((name, t0, t1, self._parent, self._case_id, out is None))
        return out

    def open(self, name: str, case_id: int) -> int:
        """Start a harness span that encloses later calls; returns its index."""
        if self.spans is None:
            return -1
        self.spans.append((name, perf_counter(), None, self._parent, case_id, False))
        self._parent = len(self.spans) - 1
        self._case_id = case_id
        return self._parent

    def close(self, index: int) -> None:
        if self.spans is None:
            return
        name, t0, _, parent, case_id, _ = self.spans[index]
        self.spans[index] = (name, t0, perf_counter(), parent, case_id, False)
        self._parent = parent


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover (children
    run one after another, so their durations add)."""
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [t1 - t0 - covered[i] for i, (_, t0, t1, _, _, _) in enumerate(spans)]


def write_spans(path, passes) -> None:
    """Tab-separated spans of each traced pass; ``parent`` indexes the spans
    of the same pass, times are seconds from the first span's start."""
    base = passes[0][0][1] if passes and passes[0] else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tname\tstart_s\tend_s\tparent\tcase\treturned_none\n")
        for i, spans in enumerate(passes):
            for name, t0, t1, parent, case_id, none in spans:
                fh.write(f"{i}\t{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\t"
                         f"{parent}\t{case_id}\t{int(none)}\n")
