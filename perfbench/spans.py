"""In-memory spans around public functions of the ``repro`` package.

The traced run measures where each operation's wall time goes without
editing the program: :func:`install` replaces named functions and
methods with wrappers that record a span when they are called inside a
traced operation, and pass straight through otherwise.

A span is ``(op, span_id, parent_id, name, start_ns, end_ns)``.  The
current span travels in a :class:`contextvars.ContextVar`, so it follows
``asyncio`` tasks and ``asyncio.to_thread`` calls of one server request
and never mixes two concurrent requests.  Spans stay in memory; the
process writes them out once, when it ends.

A module-level function is often bound a second time by
``from module import name`` before :func:`install` runs.  The wrapper
therefore replaces every module attribute in :data:`sys.modules` that
is the original object, not only the one in the defining module.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import time
from collections import defaultdict

#: ``(op, span_id)`` of the innermost open span, or None outside ops.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Request header naming a traced server operation.
OP_HEADER = "x-perfbench-op"


class Recorder:
    """Collects spans of traced operations, plus per-call observations."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``(op, key, value)`` facts observed at a wrapper boundary.
        self.facts: list[tuple] = []
        self._ids = itertools.count(1)

    def _close(self, op, span, parent, name, start) -> None:
        self.spans.append(
            (op, span, parent, name, start, time.perf_counter_ns())
        )

    @contextlib.contextmanager
    def op(self, op_id: str, name: str = "other"):
        """A root span: the operation ``op_id`` is traced inside it."""
        span = next(self._ids)
        token = _CURRENT.set((op_id, span))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            _CURRENT.reset(token)
            self._close(op_id, span, 0, name, start)

    def fact(self, key: str, value: float) -> None:
        current = _CURRENT.get()
        if current is not None:
            self.facts.append((current[0], key, value))

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn, name, namer=None, observe=None):
        """A synchronous wrapper recording one child span per call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = _CURRENT.get()
            if current is None:
                return fn(*args, **kwargs)
            op, parent = current
            span = next(recorder._ids)
            token = _CURRENT.set((op, span))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                label = namer(args, kwargs) if namer else name
                recorder._close(op, span, parent, label, start)
            if observe is not None:
                observe(recorder, args, kwargs, result)
            return result

        return wrapper

    def wrap_root(self, fn, name):
        """Wrap ``ConstraintService.handle``: a request is a root span.

        Only requests carrying :data:`OP_HEADER` are traced; its value
        is the operation id, so the client can pair its own latency
        with the server-side spans.
        """
        recorder = self

        @functools.wraps(fn)
        async def wrapper(service, request, *args, **kwargs):
            op = request.header(OP_HEADER).strip()
            if not op:
                return await fn(service, request, *args, **kwargs)
            span = next(recorder._ids)
            token = _CURRENT.set((op, span))
            start = time.perf_counter_ns()
            try:
                return await fn(service, request, *args, **kwargs)
            finally:
                _CURRENT.reset(token)
                recorder._close(op, span, 0, name, start)

        return wrapper

    def wrap_async_enter(self, fn, name):
        """Wrap a method returning an async context manager.

        The span covers ``__aenter__`` only: for admission control that
        is the time a request waited for a slot.
        """
        recorder = self

        class Timed:
            def __init__(self, inner) -> None:
                self.inner = inner

            async def __aenter__(self):
                current = _CURRENT.get()
                if current is None:
                    return await self.inner.__aenter__()
                op, parent = current
                span = next(recorder._ids)
                start = time.perf_counter_ns()
                try:
                    return await self.inner.__aenter__()
                finally:
                    recorder._close(op, span, parent, name, start)

            async def __aexit__(self, *exc_info):
                return await self.inner.__aexit__(*exc_info)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return Timed(fn(*args, **kwargs))

        return wrapper


def import_all(package: str = "repro") -> None:
    """Import every submodule, so early bindings exist before patching."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _replace_function(home, attr: str, wrapper) -> None:
    """Point every module-level binding of ``home.attr`` at ``wrapper``."""
    original = getattr(home, attr)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, wrapper)


def install(recorder: Recorder, targets) -> None:
    """Wrap every target.

    ``targets`` holds objects with ``name``, ``module``, ``qualname``,
    ``kind`` (``"call"``, ``"root"`` or ``"enter"``) and optional
    ``namer``/``observe`` hooks (see :mod:`layers`).
    """
    import_all()
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, __, attr = target.qualname.rpartition(".")
        if target.kind == "root":
            factory = lambda fn: recorder.wrap_root(fn, target.name)
        elif target.kind == "enter":
            factory = lambda fn: recorder.wrap_async_enter(fn, target.name)
        else:
            factory = lambda fn: recorder.wrap(
                fn, target.name, target.namer, target.observe
            )
        if not owner_name:
            _replace_function(module, attr, factory(getattr(module, attr)))
            continue
        owner = getattr(module, owner_name)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(factory(raw.__func__)))
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(factory(raw.__func__)))
        else:
            setattr(owner, attr, factory(raw))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[str, dict]:
    """Per traced op: root wall, self ns and calls per span name.

    ``pairs`` counts calls by (parent span name, span name).
    A span's self time is its duration minus the part of it that its
    child spans cover.  ``exact`` says whether the self times of the
    op's spans sum to the root's duration exactly (in integer ns),
    which holds when children nest inside their parent and siblings
    do not overlap.
    """
    by_op: dict[str, list] = defaultdict(list)
    for record in spans:
        by_op[record[0]].append(record)
    result = {}
    for op, items in by_op.items():
        roots = [item for item in items if item[2] == 0]
        if len(roots) != 1:
            # A span outlived its op, or an op never closed: not exact.
            result[op] = {"root": None, "wall_ns": 0, "layers": {},
                          "pairs": {}, "exact": False}
            continue
        children: dict[int, list] = defaultdict(list)
        for item in items:
            children[item[2]].append((item[4], item[5]))
        names = {item[1]: item[3] for item in items}
        layers: dict[str, list] = defaultdict(lambda: [0, 0])
        pairs: dict[tuple, int] = defaultdict(int)
        total_self = 0
        for __, span, parent, name, start, end in items:
            own = (end - start) - _covered(start, end, children.get(span, []))
            total_self += own
            layers[name][0] += own
            layers[name][1] += 1
            if parent:
                pairs[(names.get(parent), name)] += 1
        root = roots[0]
        result[op] = {
            "root": root[3],
            "wall_ns": root[5] - root[4],
            "layers": dict(layers),
            "pairs": dict(pairs),
            "exact": total_self == root[5] - root[4],
        }
    return result
