"""In-memory spans for the traced run, and per-layer self-time accounting.

Spans come from three places, all outside the program's source:

1. the benchmark's own calls into each layer (:meth:`SpanRecorder.span`);
2. timing wrappers installed at run time on public functions the
   program calls internally (:func:`install_wrappers`), removed again
   when the run ends;
3. the program's own ``repro.obs`` phases, which carry request and job
   ids when its registry is enabled with tracing (:func:`obs_spans`).

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Per unit of work (an odometry frame, a
served request) the self times of the unit's span tree add up to the
unit's wall time when no two children overlap; the share by which they
do not is reported as ``trace.coverage_err``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int
    request_id: int = -1
    tid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span store with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, parent=parent, span_id=span_id)

    def add(self, name: str, start: float, end: float, *, parent: int = 0,
            request_id: int = -1, span_id: int | None = None,
            tid: int | None = None) -> Span:
        span_id = next(self._ids) if span_id is None else span_id
        span = Span(span_id, name, start, end, parent, request_id,
                    threading.get_native_id() if tid is None else tid)
        with self._lock:
            self.spans.append(span)
        return span

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in self.spans], fh)


class NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _timed(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def install_wrappers(recorder: SpanRecorder, targets):
    """Wrap ``(module, attribute, span name)`` targets; restore on exit."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _timed(recorder, name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def obs_spans(registry, t0: float, names: dict[str, str]) -> list[dict]:
    """The registry's complete-span events, on this process's clock.

    ``t0`` is the registry's own perf-counter origin; ``names`` maps
    program phase names to the layer names used in the report.  Events
    from other processes are skipped: their clocks are not this one.
    """
    out = []
    pid = os.getpid()
    for ev in registry.events:
        if ev.get("ph") != "X" or ev.get("pid") != pid:
            continue
        layer = names.get(ev["name"])
        if layer is None:
            continue
        start = t0 + ev["ts"] / 1e6
        out.append({
            "name": layer,
            "start": start,
            "end": start + ev["dur"] / 1e6,
            "tid": ev.get("tid", 0),
            "args": ev.get("args") or {},
        })
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], root: Span) -> tuple[dict[str, float], float]:
    """Per-layer self time inside ``root``'s tree, and the coverage error.

    Returns ``({layer: seconds}, err)`` where ``err`` is
    ``|sum of self times - root duration| / root duration``.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    totals: dict[str, float] = {}
    todo = [root]
    while todo:
        span = todo.pop()
        kids = children.get(span.span_id, [])
        own = span.duration - _covered(
            [(k.start, k.end) for k in kids], span.start, span.end
        )
        totals[span.name] = totals.get(span.name, 0.0) + own
        todo.extend(kids)
    wall = root.duration
    err = abs(sum(totals.values()) - wall) / wall if wall > 0 else 0.0
    return totals, err


def unit_self_times(spans: list[Span], root_ids) -> tuple[dict[str, float], list[float]]:
    """Self time per layer summed over the units rooted at ``root_ids``,
    and each unit's coverage error."""
    by_id = {s.span_id: s for s in spans}
    totals: dict[str, float] = {}
    errs = []
    for root_id in root_ids:
        per, err = self_times(spans, by_id[root_id])
        errs.append(err)
        for name, sec in per.items():
            totals[name] = totals.get(name, 0.0) + sec
    return totals, errs


def nest_by_containment(spans: list[Span]) -> None:
    """Give parentless spans the innermost span on their thread that
    contains them (wrapper spans inside program phases)."""
    by_tid: dict[int, list[Span]] = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s.start, -s.end))
        open_spans: list[Span] = []
        for s in group:
            while open_spans and open_spans[-1].end < s.end:
                open_spans.pop()
            if not s.parent and open_spans:
                s.parent = open_spans[-1].span_id
            open_spans.append(s)
