"""Outside-in span tracer for splatmem episodes.

The tracer replaces a function in the namespace of the module that calls
it (for example ``memory.fuse``, which ``memory.update`` looks up in its
own globals) by a wrapper that records one span per call. It changes no
file of the package. Spans live in memory until the episode ends; per-layer
metrics are derived from them afterwards, so the timed region pays only
for two clock reads and a list append per call.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from pathlib import Path


class HookMissing(RuntimeError):
    """A function the benchmark measures no longer exists where it is called.

    Raised at install time, so that a refactor that moves or renames a
    layer boundary shows up as a named error, never as a metric of zero.
    """


class Span:
    __slots__ = ("name", "start", "end", "parent", "frame", "counts")

    def __init__(self, name: str, parent: int | None, frame: int):
        self.name = name
        self.parent = parent
        self.frame = frame
        self.start = self.end = 0.0
        self.counts: dict | None = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "frame": self.frame, "counts": self.counts}


class Tracer:
    """Records nested spans around hooked functions of one process.

    ``frame`` is the index of the current frame; the frame-start hook
    advances it, and every span stores the value it had when it began.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.frame = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def hook(self, module, attr: str, name: str, counts=None) -> None:
        """Wrap ``module.attr`` in a span called ``name``.

        ``counts(bound_args, result)`` may return a dict of counts that is
        stored on the span; it runs after the span has ended.
        """
        orig = _lookup(module, attr)
        sig = inspect.signature(orig) if counts else None
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, tracer.frame)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = tracer.clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if counts is not None:
                span.counts = counts(sig.bind(*args, **kwargs).arguments, result)
            return result

        self._replace(module, attr, orig, wrapper)

    def wrap(self, module, attr: str, make_wrapper) -> None:
        """Replace ``module.attr`` by ``make_wrapper(original)``, undone by
        ``uninstall`` like a span hook."""
        orig = _lookup(module, attr)
        self._replace(module, attr, orig, make_wrapper(orig))

    def _replace(self, module, attr, orig, new) -> None:
        setattr(module, attr, new)
        self._undo.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.as_dict()) + "\n")


def _lookup(module, attr: str):
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise HookMissing(
            f"{module.__name__}.{attr} no longer exists; the benchmark "
            f"measures the layer boundary there and must be updated"
        )
    return fn


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls in one thread nest, so the children of a span never overlap and
    their durations add up to the time they cover.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def summarize_spans(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Per span name: summed self time, call count, and summed counts."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        seconds[s.name] += own
        calls[s.name] += 1
        for k, v in (s.counts or {}).items():
            counts[k] += v
    return seconds, calls, counts


def covered_seconds(spans: list[Span], t0: float, t1: float) -> float:
    """Time in [t0, t1] covered by top-level spans (spans have no overlap
    at the top level, for the same reason as in ``self_times``)."""
    total = 0.0
    for s in spans:
        if s.parent is None:
            total += max(0.0, min(s.end, t1) - max(s.start, t0))
    return total
