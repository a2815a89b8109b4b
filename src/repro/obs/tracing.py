"""Hierarchical tracing spans with near-zero overhead when disabled.

A :class:`Span` is a named node in a tree with a wall-clock duration, a
call count and numeric attributes; the tree mirrors the engine's call
structure (query → extension build → arrangement DFS → LP solves …).
The process-wide :class:`Tracer` is *disabled* by default: every
instrumentation site then costs one attribute check, so the hot paths
(sign-vector DFS, feasibility solves, evaluator dispatch) stay at full
speed — the E2 scaling benchmark guards this.

Aggregate spans keep the tree small on hot paths: entering a span with
``aggregate=True`` under the same parent merges repeated visits into a
single child whose ``calls`` / ``wall_s`` accumulate, so ten thousand
LP solves become one line of profile instead of ten thousand nodes.

Spans are thread-aware: each thread keeps its own open-span stack, and
the outermost span of a secondary thread (a ``ThreadPoolExecutor``
worker, say) is adopted into the collection's root under a lock, so
concurrent spans never corrupt the tree.

When the structured event journal (:mod:`repro.obs.journal`) is
recording, every span open/close is mirrored as a typed event, which is
what lets ``replay()`` reconstruct the tree from a journal file.

Usage::

    from repro.obs import span, traced, TRACER

    with TRACER.start("profile"):
        with span("phase", items=3):
            ...
    root = TRACER.stop()
    print(json.dumps(root.to_dict()))

    @traced("arrangement.build")
    def build_arrangement(...): ...
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable

from repro.obs.journal import JOURNAL


class Span:
    """One node of the trace tree."""

    __slots__ = (
        "name", "calls", "wall_s", "attrs", "children", "_index", "_jid"
    )

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.calls = 1
        self.wall_s = 0.0
        self.attrs: dict[str, Any] = dict(attrs)
        self.children: list[Span] = []
        # Aggregate children by name for O(1) merging.
        self._index: dict[str, Span] = {}
        # Journal event id (0 = never journalled).
        self._jid = 0

    def add(self, key: str, amount: Any = 1) -> None:
        """Accumulate a numeric attribute on this span."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def adopt(self, child: "Span", aggregate: bool) -> None:
        """Attach a finished child, merging when it is an aggregate."""
        if aggregate:
            existing = self._index.get(child.name)
            if existing is not None:
                existing.merge(child)
                return
            self._index[child.name] = child
        self.children.append(child)

    def merge(self, other: "Span") -> None:
        """Fold another span of the same name into this one."""
        self.calls += other.calls
        self.wall_s += other.wall_s
        for key, value in other.attrs.items():
            if isinstance(value, (int, float)):
                self.attrs[key] = self.attrs.get(key, 0) + value
            else:
                self.attrs[key] = value
        for child in other.children:
            existing = self._index.get(child.name)
            if existing is not None:
                existing.merge(child)
            else:
                self._index[child.name] = child
                self.children.append(child)

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``repro profile`` output)."""
        node: dict[str, Any] = {
            "name": self.name,
            "calls": self.calls,
            "wall_ms": round(self.wall_s * 1000.0, 3),
        }
        if self.attrs:
            node["attrs"] = {
                key: value for key, value in sorted(self.attrs.items())
            }
        node["children"] = [child.to_dict() for child in self.children]
        return node

    def format(self, indent: int = 0) -> str:
        """Human-readable tree rendering (the ``--trace`` CLI output)."""
        pad = "  " * indent
        extras = ""
        if self.calls > 1:
            extras += f" ×{self.calls}"
        if self.attrs:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(self.attrs.items())
            )
            extras += f" [{rendered}]"
        lines = [f"{pad}{self.name}: {self.wall_s * 1000.0:.2f} ms{extras}"]
        lines.extend(
            child.format(indent + 1) for child in self.children
        )
        return "\n".join(lines)

    def find(self, name: str) -> "Span | None":
        """Depth-first lookup of a descendant span by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, calls={self.calls}, "
            f"wall_s={self.wall_s:.6f}, children={len(self.children)})"
        )


class _NullSpan:
    """Absorbs span mutations when tracing is disabled."""

    __slots__ = ()

    def add(self, key: str, amount: Any = 1) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullContext:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Context manager recording one span under the current parent.

    The parent is the innermost open span *of the current thread*; the
    outermost span of a secondary thread is adopted into the root span
    under the tracer's lock.  ``__exit__`` always closes the span and
    never swallows exceptions, so a raising body still produces a
    complete (and correctly timed) node.
    """

    __slots__ = ("_tracer", "_span", "_aggregate", "_start", "_stack")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        aggregate: bool,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._span = Span(name, **attrs)
        self._aggregate = aggregate
        self._start = 0.0
        self._stack: list[Span] | None = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._thread_stack()
        self._stack = stack
        span = self._span
        if JOURNAL.enabled:
            span._jid = next(tracer._ids)
            parent_id = tracer._root_id
            if stack and stack[-1]._jid:
                parent_id = stack[-1]._jid
            JOURNAL.emit(
                "span.open",
                id=span._jid,
                parent=parent_id,
                name=span.name,
                aggregate=self._aggregate,
                attrs=dict(span.attrs),
            )
        stack.append(span)
        self._start = time.perf_counter()
        return span

    def __exit__(self, *exc_info: object) -> bool:
        span = self._span
        span.wall_s += time.perf_counter() - self._start
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif stack is not None:  # pragma: no cover - defensive
            try:
                stack.remove(span)
            except ValueError:
                pass
        if JOURNAL.enabled and span._jid:
            JOURNAL.emit(
                "span.close",
                id=span._jid,
                wall_s=span.wall_s,
                calls=span.calls,
                attrs=dict(span.attrs),
            )
        tracer = self._tracer
        if stack:
            stack[-1].adopt(span, self._aggregate)
        else:
            root = tracer._root
            if root is not None:
                with tracer._lock:
                    root.adopt(span, self._aggregate)
        return False


class Tracer:
    """The process-wide span collector.

    ``enabled`` is a plain attribute so instrumentation sites can guard
    with a single check; :meth:`span` returns a shared no-op context
    while disabled, so un-guarded ``with`` sites cost one allocation-free
    call.  Open-span stacks are per thread (an ``_epoch`` token retires
    every thread's stack when a collection starts or stops).
    """

    __slots__ = (
        "enabled", "_root", "_root_id", "_local", "_lock", "_ids", "_epoch"
    )

    def __init__(self) -> None:
        self.enabled = False
        self._root: Span | None = None
        self._root_id: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._epoch: object = object()

    def _thread_stack(self) -> list[Span]:
        """This thread's open-span stack for the current collection."""
        local = self._local
        if getattr(local, "epoch", None) is not self._epoch:
            local.epoch = self._epoch
            local.stack = []
        return local.stack

    def start(self, name: str = "trace") -> "Tracer":
        """Begin collecting under a fresh root span.

        Returns the tracer itself so ``with TRACER.start("x"):`` scopes
        a collection; :meth:`stop` (or leaving the ``with``) ends it and
        the finished tree is at :attr:`root`.
        """
        root = Span(name)
        root.wall_s = -time.perf_counter()
        self._epoch = object()
        local = self._local
        local.epoch = self._epoch
        local.stack = [root]
        self._root = root
        self._root_id = next(self._ids)
        root._jid = self._root_id
        self.enabled = True
        if JOURNAL.enabled:
            JOURNAL.emit("trace.begin", id=self._root_id, name=name)
        return self

    def stop(self) -> Span:
        """End collection and return the finished root span."""
        if not self.enabled or self._root is None:
            raise RuntimeError("tracer is not started")
        root = self._root
        root.wall_s += time.perf_counter()
        self.enabled = False
        self._root = None
        root_id = self._root_id
        self._root_id = None
        self._epoch = object()
        if JOURNAL.enabled:
            JOURNAL.emit("trace.end", id=root_id, wall_s=root.wall_s)
        return root

    def hard_reset(self) -> None:
        """Discard any collection in progress (no tree is returned).

        Used by :func:`repro.obs.reset_all` so back-to-back CLI
        invocations in one process cannot leak an open trace into each
        other; a no-op when nothing is being collected.
        """
        self.enabled = False
        self._root = None
        self._root_id = None
        self._epoch = object()

    def __enter__(self) -> Span:
        if not self.enabled:
            self.start()
        assert self._root is not None
        return self._root

    def __exit__(self, *exc_info: object) -> bool:
        if self.enabled:
            self.stop()
        return False

    @property
    def root(self) -> Span | None:
        """The most recent root span (live while collecting)."""
        return self._root

    def current(self) -> Span | _NullSpan:
        """The innermost open span of this thread (no-op when disabled).

        A thread with no open span of its own reports the collection's
        root, so counters attached via ``current().add`` from worker
        threads still land in the tree.
        """
        if self.enabled:
            stack = self._thread_stack()
            if stack:
                return stack[-1]
            if self._root is not None:
                return self._root
        return NULL_SPAN

    def span(
        self, name: str, aggregate: bool = False, **attrs: Any
    ) -> "_SpanContext | _NullContext":
        """Open a child span under the current one (no-op when disabled)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, aggregate, attrs)


#: The process-wide tracer (disabled by default).
TRACER = Tracer()


def span(
    name: str, aggregate: bool = False, **attrs: Any
) -> "_SpanContext | _NullContext":
    """Module-level shortcut for ``TRACER.span``."""
    if not TRACER.enabled:
        return _NULL_CONTEXT
    return _SpanContext(TRACER, name, aggregate, attrs)


def tracing_enabled() -> bool:
    return TRACER.enabled


def traced(
    name: str | None = None, aggregate: bool = True
) -> Callable[[Callable], Callable]:
    """Decorator: record a span around every call of the function.

    When tracing is disabled the wrapper is a single flag check, so it
    is safe on warm paths; genuinely hot inner loops should guard on
    ``TRACER.enabled`` instead.
    """

    def decorate(function: Callable) -> Callable:
        label = name if name is not None else function.__qualname__

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not TRACER.enabled:
                return function(*args, **kwargs)
            with _SpanContext(TRACER, label, aggregate, {}):
                return function(*args, **kwargs)

        wrapper.__name__ = function.__name__
        wrapper.__qualname__ = function.__qualname__
        wrapper.__doc__ = function.__doc__
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    return decorate
