"""Outside-in tracing: spans recorded around module-level names.

A :class:`Probe` names one module attribute that a layer is called
through, the span its calls record, and optionally a counter hook and a
unit id (replicate or split) taken from the call's arguments.
:func:`installed` swaps each named attribute for a recording wrapper and
puts the original back on exit, also when the traced code raises.

Spans stay in memory as plain tuples and are written out by the caller
when the run ends. A span's self time is its duration minus the union
of its children's intervals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: object


@dataclass(frozen=True)
class Probe:
    """One wrapped name.

    span: span name recorded per call, or None for a counter-only probe.
    count: hook(add, arguments, result) run after each call; add(key, n)
        sums n into the tracer's counter key.
    unit: hook(bound_arguments) -> unit id set for the call and what it
        calls; with sticky=True the id also stays set after the call
        returns (a split's id is known only from its first call).
    """

    module: str
    attr: str
    span: str | None = None
    count: Callable | None = None
    unit: Callable | None = None
    sticky: bool = False


class Tracer:
    """Records spans with wall-clock bounds and the unit id current at
    their start, and sums counters reported by probe hooks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.hook_errors: list[str] = []
        self.unit = None
        self._stack: list[int] = []
        self._next_id = 0

    def open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, name, parent, self.unit, time.perf_counter()

    def close(self, token):
        end = time.perf_counter()
        sid, name, parent, unit, start = token
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, unit))

    @contextlib.contextmanager
    def span(self, name):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)

    def add(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value


class MemoryTracer(Tracer):
    """Records, per span, the peak ``tracemalloc`` allocation above the
    allocation level at span start (children included). Span times are
    kept but distorted by tracemalloc and must not be reported."""

    def __init__(self):
        super().__init__()
        self.peaks: dict[str, int] = {}
        self._frames: list[list[int]] = []

    def open(self, name):
        current, peak = tracemalloc.get_traced_memory()
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)
        tracemalloc.reset_peak()
        self._frames.append([current, current])
        return super().open(name)

    def close(self, token):
        super().close(token)
        base, seen = self._frames.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)
        name = token[1]
        self.peaks[name] = max(self.peaks.get(name, 0), peak - base)


def _resolve(probe):
    module = importlib.import_module(probe.module)
    return module, getattr(module, probe.attr, None)


def _wrap(tracer, probe, orig):
    needs_args = probe.count is not None or probe.unit is not None
    sig = inspect.signature(orig) if needs_args else None

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        bound = None
        if needs_args:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
        saved_unit = tracer.unit
        if probe.unit is not None:
            tracer.unit = probe.unit(bound.arguments)
        token = tracer.open(probe.span) if probe.span else None
        try:
            result = orig(*args, **kwargs)
        finally:
            if token is not None:
                tracer.close(token)
            if probe.unit is not None and not probe.sticky:
                tracer.unit = saved_unit
        if probe.count is not None:
            try:
                probe.count(tracer.add, bound.arguments, result)
            except Exception as exc:  # noqa: BLE001 - a stale hook must not fail the run
                tracer.hook_errors.append(f"{probe.module}.{probe.attr}: {type(exc).__name__}: {exc}")
        return result

    wrapper.bench_probe = probe
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, probes):
    """Wrap every probe's name for the duration of the block.

    Yields the list of names that do not exist in the program (a later
    version may have removed them); those are left alone. Every wrapped
    name is restored on exit.
    """
    saved = []
    missing = []
    try:
        for probe in probes:
            module, orig = _resolve(probe)
            if orig is None:
                missing.append(f"{probe.module}.{probe.attr}")
                continue
            saved.append((module, probe.attr, orig))
            setattr(module, probe.attr, _wrap(tracer, probe, orig))
        yield missing
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def unrestored(probes):
    """Names still bound to a tracing wrapper; empty after a clean exit."""
    left = []
    for probe in probes:
        _, obj = _resolve(probe)
        if getattr(obj, "bench_probe", None) is not None:
            left.append(f"{probe.module}.{probe.attr}")
    return left


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _union_length(children.get(s.id, ()))
            for s in spans}


def self_by_name(spans):
    """Total self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out
