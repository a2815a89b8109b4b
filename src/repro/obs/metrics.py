"""Process-wide metrics: counters, histograms and gauges in one registry.

* :class:`Counter` — a named monotone integer;
* :class:`Histogram` — thread-safe fixed log-spaced buckets plus an
  exact ``count``/``sum``, with bucket-interpolated p50/p90/p99;
* :class:`Gauge` — a thread-safe instantaneous value;
* :class:`MetricsRegistry` — all three, created on first use.  Series
  take an optional **low-cardinality** label set (keys from
  :data:`ALLOWED_LABELS`; a family folds into its unlabeled series once
  it holds :data:`MAX_SERIES_PER_NAME` label sets).  Counters of a
  registry with a *parent* also increment the parent's (prefixed)
  counter, so per-component registries roll up into the process one.

:meth:`MetricsRegistry.snapshot` is the flat ``{name: int}`` counter map
that ``repro profile``, ``/v1/stats`` and benchmarks read;
:meth:`~MetricsRegistry.state` / :meth:`~MetricsRegistry.merge` are the
one path that ships counters *and* histograms home from parallel
workers.  The process-wide registry is :func:`get_registry`.
"""

from __future__ import annotations

import math
import threading
import time as _time
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from typing import Iterator


class Counter:
    """A monotone integer counter (resettable for hermetic measurement)."""

    __slots__ = ("name", "value", "_parent")

    def __init__(self, name: str, parent: "Counter | None" = None) -> None:
        self.name = name
        self.value = 0
        self._parent = parent

    def inc(self, amount: int = 1) -> None:
        self.value += amount
        if self._parent is not None:
            self._parent.inc(amount)

    def reset(self) -> None:
        """Zero this counter (parents keep their accumulated totals)."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


#: Label keys a series may carry.  Everything here is low-cardinality by
#: construction (endpoints and modes are finite; tenants are admission-
#: controlled) — anything else is rejected at call time.
ALLOWED_LABELS = frozenset({"tenant", "endpoint", "executor", "lp_mode"})

#: Distinct label sets one family may hold before further label sets
#: fold into the family's unlabeled aggregate series.
MAX_SERIES_PER_NAME = 64

#: Default log-spaced latency buckets, in seconds: 100 µs doubling up to
#: ~14 minutes.  Fixed (not per-series) so states merge bucket-for-bucket.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(1e-4 * 2**i for i in range(24))


def _check_labels(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    """Validate and canonicalise a label mapping to a sorted tuple."""
    if not labels:
        return ()
    bad = set(labels) - ALLOWED_LABELS
    if bad:
        raise ValueError(
            f"disallowed metric label(s) {sorted(bad)}; "
            f"allowed: {sorted(ALLOWED_LABELS)}"
        )
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def bucket_quantile(
    uppers: Sequence[float], cumulative: Sequence[int], q: float
) -> float:
    """Estimate a quantile from cumulative bucket counts.

    ``uppers`` are the finite bucket upper bounds; ``cumulative`` has one
    extra final entry for the ``+Inf`` overflow bucket (exactly the
    shape of Prometheus ``_bucket{le=...}`` series).  Linear
    interpolation inside the winning bucket; the overflow bucket clamps
    to the largest finite bound.
    """
    if len(cumulative) != len(uppers) + 1:
        raise ValueError("cumulative must have one entry per bucket plus +Inf")
    total = cumulative[-1]
    if total <= 0:
        return 0.0
    rank = q * total
    lower = 0.0
    prev = 0
    for upper, cum in zip(uppers, cumulative):
        if cum >= rank and cum > prev:
            fraction = (rank - prev) / (cum - prev)
            return lower + (upper - lower) * max(0.0, min(1.0, fraction))
        lower, prev = upper, cum
    return uppers[-1]


class Histogram:
    """A thread-safe histogram: fixed buckets plus exact count and sum.

    ``observe`` is the hot-path operation: one lock, one linear bucket
    scan bounded by the fixed bucket count (the common sub-millisecond
    observations resolve in the first few comparisons).  ``count`` and
    ``sum`` are exact — only the quantiles are bucket estimates.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "count", "sum", "_lock")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        ordered = tuple(float(b) for b in buckets)
        if not ordered or any(
            b <= a for a, b in zip(ordered, ordered[1:])
        ) or any(not math.isfinite(b) or b <= 0 for b in ordered):
            raise ValueError("buckets must be finite, positive and increasing")
        self.name = name
        self.labels = labels
        self.buckets = ordered
        self._counts = [0] * (len(ordered) + 1)  # final slot = +Inf overflow
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # bisect_left finds the first bucket with upper >= value (C
        # speed); a value past the last bound lands on the overflow
        # slot.  This is the hot path — one bisect, one lock, three
        # increments — and the E2 overhead measurement in
        # docs/OBSERVABILITY.md holds it to the ≤2 % budget.
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.sum += value

    @contextmanager
    def time(self) -> Iterator[None]:
        """Observe the wall-clock duration of the ``with`` body, in seconds."""
        started = _time.perf_counter()
        try:
            yield
        finally:
            self.observe(_time.perf_counter() - started)

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts, one extra final entry for ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``q`` in ``[0, 1]``)."""
        return bucket_quantile(self.buckets, self.cumulative(), q)

    def percentiles(self) -> dict[str, float]:
        """The standard trio: estimated p50/p90/p99, in the observed unit."""
        cumulative = self.cumulative()
        return {
            "p50": bucket_quantile(self.buckets, cumulative, 0.50),
            "p90": bucket_quantile(self.buckets, cumulative, 0.90),
            "p99": bucket_quantile(self.buckets, cumulative, 0.99),
        }

    def state(self) -> dict:
        """A mergeable snapshot of this series."""
        with self._lock:
            return {
                "type": "histogram",
                "name": self.name,
                "labels": dict(self.labels),
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "count": self.count,
                "sum": self.sum,
            }

    def merge_state(self, state: Mapping) -> None:
        """Fold another histogram's state in, additively, exactly once."""
        if tuple(float(b) for b in state["buckets"]) != self.buckets:
            raise ValueError(f"bucket mismatch merging histogram {self.name!r}")
        counts = state["counts"]
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self.count += state["count"]
            self.sum += state["sum"]

    def reset(self) -> None:
        with self._lock:
            for i in range(len(self._counts)):
                self._counts[i] = 0
            self.count = 0
            self.sum = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name}{_label_suffix(self.labels)} "
            f"count={self.count} sum={self.sum:.6g})"
        )


class Gauge:
    """A thread-safe instantaneous value (set / inc / dec)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(
        self, name: str, labels: tuple[tuple[str, str], ...] = ()
    ) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @contextmanager
    def track(self) -> Iterator[None]:
        """Increment for the duration of the ``with`` body (in-flight counts)."""
        self.inc()
        try:
            yield
        finally:
            self.dec()

    def state(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }

    def reset(self) -> None:
        self.set(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{_label_suffix(self.labels)}={self.value})"


class MetricsRegistry:
    """Counters, histograms and gauges, created on first use.

    ``MetricsRegistry(parent=global_registry, prefix="evaluator.")``
    creates a scoped registry whose counter ``"evaluations"`` also
    increments ``"evaluator.evaluations"`` in the parent — local numbers
    for one component, aggregate numbers for the process.  Histograms
    and gauges live where they are created.
    """

    def __init__(
        self,
        parent: "MetricsRegistry | None" = None,
        prefix: str = "",
    ) -> None:
        self._counters: dict[str, Counter] = {}
        self._parent = parent
        self._prefix = prefix
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}
        self._family_sizes: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter with this name, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            parent_counter = (
                self._parent.counter(self._prefix + name)
                if self._parent is not None
                else None
            )
            counter = Counter(name, parent_counter)
            self._counters[name] = counter
        return counter

    def get(self, name: str) -> int:
        """Current value of a counter (0 if it was never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self, prefix: str | None = None) -> dict[str, int]:
        """The counters as a plain ``{name: value}`` dict (prefix-filtered)."""
        return {
            name: counter.value
            for name, counter in sorted(self._counters.items())
            if prefix is None or name.startswith(prefix)
        }

    def names(self) -> list[str]:
        return sorted(self._counters)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __len__(self) -> int:
        return len(self._counters)

    # ------------------------------------------------------------------
    # Histograms and gauges
    # ------------------------------------------------------------------
    def _series(self, table: dict, factory, name: str, labels) -> object:
        canonical = _check_labels(labels)
        with self._lock:
            key = name + _label_suffix(canonical)
            series = table.get(key)
            if series is None and canonical and (
                self._family_sizes.get(name, 0) >= MAX_SERIES_PER_NAME
            ):
                # A full family degrades precision, never memory.
                canonical, key = (), name
                series = table.get(key)
            if series is None:
                series = factory(name, canonical)
                table[key] = series
                self._family_sizes[name] = self._family_sizes.get(name, 0) + 1
            return series

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> "Histogram":
        """The histogram series for this name + label set."""
        return self._series(
            self._histograms,
            lambda n, c: Histogram(n, c, buckets),
            name,
            labels,
        )

    def gauge(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> "Gauge":
        """The gauge series for this name + label set."""
        return self._series(self._gauges, Gauge, name, labels)

    def histograms(self) -> list["Histogram"]:
        with self._lock:
            return [self._histograms[k] for k in sorted(self._histograms)]

    def gauges(self) -> list["Gauge"]:
        with self._lock:
            return [self._gauges[k] for k in sorted(self._gauges)]

    # ------------------------------------------------------------------
    # The one state / merge / reset path
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Every non-zero counter and histogram, and every gauge, as one
        mergeable dict."""
        return {
            "counters": {
                name: value for name, value in self.snapshot().items() if value
            },
            "histograms": [
                series.state() for series in self.histograms() if series.count
            ],
            "gauges": [series.state() for series in self.gauges()],
        }

    def merge(self, state: Mapping) -> None:
        """Fold a :meth:`state` in, exactly once.

        Counter values and histogram counts/sums add; gauge values are
        levels, so a shipped gauge replaces the local one.
        """
        for name, delta in state.get("counters", {}).items():
            if delta:
                self.counter(name).inc(delta)
        for series in state.get("histograms", ()):
            self.histogram(
                series["name"], series["labels"] or None, series["buckets"]
            ).merge_state(series)
        for series in state.get("gauges", ()):
            self.gauge(series["name"], series["labels"] or None).set(
                series["value"]
            )

    def reset(self, prefix: str | None = None) -> None:
        """Zero every counter and series (or those under a prefix).

        Identities survive: bound counters and series keep working.
        """
        for name, counter in self._counters.items():
            if prefix is None or name.startswith(prefix):
                counter.reset()
        for series in self.histograms() + self.gauges():
            if prefix is None or series.name.startswith(prefix):
                series.reset()


#: The process-wide default registry.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL


def reset_metrics(prefix: str | None = None) -> None:
    """Zero the process-wide registry (tests call this for isolation)."""
    _GLOBAL.reset(prefix)


def metrics_snapshot(prefix: str | None = None) -> dict[str, int]:
    """Counter snapshot of the process-wide registry."""
    return _GLOBAL.snapshot(prefix)
