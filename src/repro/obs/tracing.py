"""Hierarchical tracing with a deterministic span tree.

A :class:`Tracer` produces one tree of :class:`Span` nodes per run:
``with tracer.span("fleet_replay.quarantine"):`` opens a child of the current
span, measures wall (``perf_counter``) and CPU (``process_time``) time,
and pops back on exit.  Stages whose time is *accumulated* across
interleaved micro-batch flushes (features / predict / alarms) are
attached after the fact with :meth:`Tracer.record`, so the tree SHAPE
is a deterministic function of the input — spans exist at stage
granularity, never per-flush — and tests can assert it exactly.

The disabled default is :data:`NULL_TRACER`, whose ``span()`` returns a
reusable no-op context manager: uninstrumented hot paths pay one
attribute lookup and nothing else.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]


class Span:
    """One node of the trace tree."""

    __slots__ = (
        "name", "span_id", "parent_id", "attributes",
        "wall_seconds", "cpu_seconds", "children",
    )

    def __init__(self, name, span_id, parent_id, attributes):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.children: list = []

    def to_dict(self) -> dict:
        """Nested deterministic form (no ids — shape + timings only)."""
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Builds the span tree; one instance per instrumented run."""

    def __init__(self):
        self.roots: list = []
        self._stack: list = []
        self._next_id = 0

    def _new_span(self, name, attributes) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            self._next_id,
            parent.span_id if parent is not None else None,
            dict(attributes),
        )
        self._next_id += 1
        (parent.children if parent is not None else self.roots).append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a timed child span of the current span."""
        span = self._new_span(name, attributes)
        self._stack.append(span)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            yield span
        finally:
            span.wall_seconds = time.perf_counter() - wall0
            span.cpu_seconds = time.process_time() - cpu0
            self._stack.pop()

    def record(
        self,
        name: str,
        wall_seconds: float = 0.0,
        cpu_seconds: float = 0.0,
        **attributes,
    ) -> Span:
        """Attach an already-measured span (accumulated stage time)."""
        span = self._new_span(name, attributes)
        span.wall_seconds = float(wall_seconds)
        span.cpu_seconds = float(cpu_seconds)
        return span

    def graft(self, spans) -> list:
        """Attach already-serialized span dicts under the current span.

        Used by the coordinator merge to mount each worker's span tree
        (its ``tracer.tree()`` payload) as children of the fanout span,
        so one scrape of the coordinator shows the whole distributed
        run.  Returns the grafted top-level :class:`Span` nodes.
        """
        grafted: list = []
        for spec in spans or ():
            span = self._new_span(spec["name"], spec.get("attributes", {}))
            span.wall_seconds = float(spec.get("wall_seconds", 0.0))
            span.cpu_seconds = float(spec.get("cpu_seconds", 0.0))
            self._stack.append(span)
            try:
                self.graft(spec.get("children", ()))
            finally:
                self._stack.pop()
            grafted.append(span)
        return grafted

    # -- export ------------------------------------------------------------

    def tree(self) -> list:
        """Nested deterministic dump (list of root span dicts)."""
        return [span.to_dict() for span in self.roots]

    def flat(self) -> list:
        """Depth-first flat dump with ids (for JSONL export)."""
        out: list = []

        def walk(span: Span) -> None:
            out.append({
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "attributes": dict(span.attributes),
                "wall_seconds": span.wall_seconds,
                "cpu_seconds": span.cpu_seconds,
            })
            for child in span.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return out


class _NullSpan:
    """Shared write-only sink; nothing ever reads it."""

    __slots__ = ("attributes",)

    def __init__(self):
        self.attributes: dict = {}

    def to_dict(self) -> dict:
        return {}


class _NullContext:
    __slots__ = ("_span",)

    def __init__(self, span):
        self._span = span

    def __enter__(self):
        return self._span

    def __exit__(self, *exc):
        return False


class NullTracer:
    """No-op tracer: the zero-cost disabled default."""

    __slots__ = ("_context",)

    def __init__(self):
        self._context = _NullContext(_NullSpan())

    def span(self, name: str, **attributes):
        return self._context

    def record(self, name, wall_seconds=0.0, cpu_seconds=0.0, **attributes):
        return self._context._span

    def graft(self, spans) -> list:
        return []

    def tree(self) -> list:
        return []

    def flat(self) -> list:
        return []


#: Module-level singleton — engines default to this when no obs is wired.
NULL_TRACER = NullTracer()
