"""Span tracing around gapindex entry points, installed from outside the package.

A ``Tracer`` replaces module attributes (functions and classes looked up at
call time by the calling module) and instance attributes (bound methods such
as a backend's ``exists``) with wrappers that record one span per call:
``(span_id, parent_id, query_id, name, start, end)``. Span names are
``<layer>.<entry point>``, where the layer is the gapindex module the entry
point belongs to. Every patch is undone by ``uninstall``, so the untraced
and traced passes run the same library code.

Spans are folded into per-name aggregates at the end of each query (or build
phase) and then dropped, so memory stays bounded by the spans of one query.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.query_id = None
        self._patches: list[tuple[object, str, object, bool]] = []
        # Aggregates over every folded span, keyed by span name.
        self.count: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        # Values accumulated by the result hooks, e.g. certificates returned.
        self.values: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.queries = 0  # counted by the caller
        self.example: list[tuple] = []  # the spans of the first folded query

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """A callable that runs ``fn`` inside a span; ``after(tracer, args, result)``
        runs once the span has closed."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, self.query_id, name, start, end))
                if after is not None:
                    after(self, args, result)

        traced.__wrapped__ = fn
        return traced

    def add(self, key: str, value: float) -> None:
        self.values[key] += value

    def high(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Route ``owner.attr`` through a span named ``name`` until uninstall."""
        instance_level = attr not in vars(owner) and not isinstance(owner, type)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, instance_level))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original, instance_level in reversed(self._patches):
            if instance_level:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- folding -----------------------------------------------------------

    def run(self, query_id, name: str, fn, *args):
        """Run ``fn`` under a root span of its own query id, then fold its spans."""
        self.query_id = query_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.fold()

    def fold(self) -> None:
        """Fold the recorded spans into per-name counts and self times.

        Spans close children-first, so a single pass can subtract each
        child's duration from its parent's. Every parent must belong to the
        same query as its child; a span whose parent is missing or belongs
        to another query means the wrappers were nested wrongly.
        """
        if self._stack:
            raise RuntimeError("fold called with spans still open")
        if not self.example:
            self.example = list(self.spans)
        by_id = {s[0]: s for s in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for span_id, parent, query_id, name, start, end in self.spans:
            duration = end - start
            self.count[name] += 1
            self.self_time[name] += duration - covered.pop(span_id, 0.0)
            if parent is not None:
                parent_span = by_id.get(parent)
                if parent_span is None or parent_span[2] != query_id:
                    raise RuntimeError(f"span {name} is not parented within query {query_id}")
                covered[parent] += duration
                self.child_calls[(parent_span[3], name)] += 1
        self.spans.clear()

    def layer_self_time(self, layer: str) -> float:
        """Self time summed over every span name of one layer."""
        return sum(t for n, t in self.self_time.items() if n.split(".", 1)[0] == layer)
