"""Spans around the package's public functions, recorded from outside it.

A `Tracer` replaces a module attribute -- the binding a caller looks the name
up in -- with a wrapper that records one `Span` per call, and `restore()` puts
the original back.  `configeo.cli` and `configeo.expfit` import `generate`,
`run_query`, `run_scan`, ... by name, so those bindings are wrapped where they
are looked up, not in the module that defines them.

A layer's `busy_s` is the time inside its outermost spans; its `self_s` is
that minus the time of spans of other layers nested inside.  Self times of
all spans add up to the duration of the root spans (one per CLI call).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    layer: str
    parent: int | None  # index of the enclosing span; None for a root
    request: int  # index of the CLI invocation the span belongs to
    start: float = 0.0
    end: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, name: str, layer, count=None) -> None:
        """Trace calls through `module.<name>`.

        `layer` is a layer name, or a function of the call's bound arguments
        that returns one.  `count(arguments, result)` returns the counter
        increments the call adds to its layer.
        """
        original = getattr(module, name)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs)
            arguments.apply_defaults()
            span = Span(
                layer=layer(arguments.arguments) if callable(layer) else layer,
                parent=self._open[-1] if self._open else None,
                request=self.request,
            )
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = self.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if count is not None:
                span.counters = count(arguments.arguments, result)
            return result

        setattr(module, name, traced)
        self._patched.append((module, name, original))

    def restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def wall(self) -> float:
        """Total duration of the root spans."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def layer_metrics(self) -> dict[str, float]:
        """`<layer>.busy_s`, `<layer>.self_s` and counter totals per layer."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.parent is None or self.spans[s.parent].layer != s.layer:
                out[f"{s.layer}.busy_s"] += s.duration
            out[f"{s.layer}.self_s"] += s.duration - covered[i]
            for key, value in s.counters.items():
                out[f"{s.layer}.{key}"] += value
        return dict(out)

    def as_records(self) -> list[dict]:
        return [
            {
                "id": i,
                "parent": s.parent,
                "request": s.request,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "counters": s.counters,
            }
            for i, s in enumerate(self.spans)
        ]
