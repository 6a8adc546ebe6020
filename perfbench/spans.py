"""In-memory spans around the program's public functions.

A :class:`Tracer` makes wrappers that time each call with
``perf_counter_ns`` and keep one record per call: name, parent span,
duration, self time (duration minus the child spans it covers) and
optional counts. :class:`Patches` installs such wrappers in every module
namespace that bound the original object (``models/cnn.py`` imports
``adam_step`` by name, ``nn.train`` looks ``forward`` up in ``nn``'s
globals) and puts the originals back afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: str | None
    ns: int
    self_ns: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Builds timing wrappers; records stay in memory until read."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [name, child_ns] per open span

    def open_names(self) -> list[str]:
        return [frame[0] for frame in self._stack]

    def wrap(self, name, fn, count=None, wrap_args=None):
        """Time ``fn`` under ``name``.

        ``name`` may be a callable taking the open span names, for a
        function whose attribution depends on its caller. ``count(args,
        kwargs, result)`` returns a dict of counts for the span.
        ``wrap_args(args, kwargs)`` may replace the arguments, e.g. to
        trace a callback.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(self.open_names()) if callable(name) else name
            parent = self._stack[-1][0] if self._stack else None
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            frame = [span_name, 0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ns = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += ns
            counts = count(args, kwargs, result) if count is not None else {}
            self.spans.append(Span(span_name, parent, ns, ns - frame[1], counts))
            return result

        return traced


class Patches:
    """Replace objects in module namespaces and restore them."""

    def __init__(self, package: str):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def function(self, module, attr: str, make) -> None:
        """Wrap ``module.attr`` wherever the same object is bound."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def aggregate(spans: list[Span], key=lambda span: span.name) -> dict:
    """Per key (the span name by default): calls, total ms, self ms,
    summed counts, and the duration of each call in ms."""
    out: dict = {}
    for span in spans:
        agg = out.setdefault(
            key(span), {"calls": 0, "ms": 0.0, "self_ms": 0.0, "counts": {}, "each_ms": []}
        )
        agg["calls"] += 1
        agg["ms"] += span.ns / 1e6
        agg["self_ms"] += span.self_ns / 1e6
        agg["each_ms"].append(span.ns / 1e6)
        for name, value in span.counts.items():
            agg["counts"][name] = agg["counts"].get(name, 0) + value
    return out


def by_parent(spans: list[Span]) -> list[dict]:
    """Spans summed per (name, parent), the form written to disk."""
    return [
        {"name": name, "parent": parent, "calls": agg["calls"], "ms": agg["ms"],
         "self_ms": agg["self_ms"], "counts": agg["counts"]}
        for (name, parent), agg in aggregate(spans, key=lambda s: (s.name, s.parent)).items()
    ]
