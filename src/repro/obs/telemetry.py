"""Telemetry on top of the registry: exposition, SLOs, raw quantiles.

Histograms and gauges live in the one registry of
:mod:`repro.obs.metrics`; this module turns them into operator-facing
output:

* :func:`render_prometheus` — the text exposition format served by
  ``GET /metrics`` and printed by ``repro metrics``;
* :class:`SloTracker` — per-tenant rolling multi-window burn rates
  against a latency/error objective, surfaced in ``/v1/stats``;
* :func:`quantile` — the one nearest-rank quantile implementation
  shared by the load generator and the server benchmarks.
"""

from __future__ import annotations

import math
import threading
import time as _time
from collections import deque
from collections.abc import Sequence

from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    _escape_label,
    _label_suffix,
    get_registry,
)


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of raw samples (``q`` in ``[0, 1]``).

    The single implementation shared by the load generator and the
    server benchmark — replaces the private helper loadgen used to
    carry, so client- and server-side quantiles agree on the rule.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------

def _metric_name(name: str, prefix: str) -> str:
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return prefix + sanitized


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == math.floor(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".12g")


def render_prometheus(
    registry: MetricsRegistry | None = None,
    prefix: str = "repro_",
) -> str:
    """Render a registry (default process-wide) in Prometheus text format.

    Counter names gain the conventional ``_total`` suffix; histogram
    series emit cumulative ``_bucket{le=...}`` lines (ending in
    ``le="+Inf"``) plus ``_count`` and ``_sum``.  Output is sorted, so
    scrapes are diff-stable.
    """
    registry = registry if registry is not None else get_registry()
    counters = registry.snapshot()
    lines: list[str] = []

    for name in sorted(counters):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")

    by_family: dict[str, list[Gauge]] = {}
    for series in registry.gauges():
        by_family.setdefault(series.name, []).append(series)
    for name in sorted(by_family):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        for series in by_family[name]:
            lines.append(
                f"{metric}{_label_suffix(series.labels)} "
                f"{_format_value(series.value)}"
            )

    histo_families: dict[str, list[Histogram]] = {}
    for series in registry.histograms():
        histo_families.setdefault(series.name, []).append(series)
    for name in sorted(histo_families):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        for series in histo_families[name]:
            cumulative = series.cumulative()
            state = series.state()
            for upper, cum in zip(series.buckets, cumulative):
                labels = dict(series.labels)
                labels["le"] = _format_value(upper)
                suffix = "{" + ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in labels.items()
                ) + "}"
                lines.append(f"{metric}_bucket{suffix} {cum}")
            labels = dict(series.labels)
            labels["le"] = "+Inf"
            suffix = "{" + ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels.items()
            ) + "}"
            lines.append(f"{metric}_bucket{suffix} {cumulative[-1]}")
            base = _label_suffix(series.labels)
            lines.append(f"{metric}_count{base} {state['count']}")
            lines.append(f"{metric}_sum{base} {_format_value(state['sum'])}")

    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# SLO tracking
# --------------------------------------------------------------------------

class SloTracker:
    """Per-tenant rolling multi-window SLO burn rates.

    The objective is joint: a request is *good* when it succeeds (no
    server error) **and** finishes within ``latency_ms``.  ``target`` is
    the fraction of requests that must be good (0.99 → a 1% error
    budget).  The burn rate over a window is the observed bad fraction
    divided by the budget: 1.0 means the budget is being consumed
    exactly at the sustainable rate, >1.0 means faster (the multiwindow
    rule from the SRE workbook — a short window catches fast burns, a
    long one slow leaks).

    :meth:`observe` returns an alert dict exactly when the short-window
    burn rate crosses above 1.0 for a tenant (edge-triggered), which the
    server turns into an ``slo.burn`` journal event.
    """

    def __init__(
        self,
        latency_ms: float,
        target: float = 0.99,
        windows: Sequence[float] = (300.0, 3600.0),
        max_events: int = 4096,
        clock=_time.monotonic,
    ) -> None:
        if latency_ms <= 0:
            raise ValueError("latency_ms must be positive")
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        self.latency_ms = float(latency_ms)
        self.target = float(target)
        self.windows = tuple(sorted(float(w) for w in windows))
        self.max_events = max_events
        self._clock = clock
        self._events: dict[str, deque] = {}
        self._burning: dict[str, bool] = {}
        self._lock = threading.Lock()

    def observe(
        self, tenant: str, wall_ms: float, error: bool = False
    ) -> dict | None:
        """Record one request; returns an alert dict on a fresh fast burn."""
        bad = bool(error) or wall_ms > self.latency_ms
        now = self._clock()
        horizon = now - self.windows[-1]
        with self._lock:
            events = self._events.setdefault(
                tenant, deque(maxlen=self.max_events)
            )
            events.append((now, bad))
            while events and events[0][0] < horizon:
                events.popleft()
            burn = self._burn_rate(events, now, self.windows[0])
            was_burning = self._burning.get(tenant, False)
            burning = burn > 1.0
            self._burning[tenant] = burning
        if burning and not was_burning:
            return {
                "tenant": tenant,
                "window_s": self.windows[0],
                "burn_rate": round(burn, 3),
                "latency_ms": self.latency_ms,
                "target": self.target,
            }
        return None

    def _burn_rate(self, events, now: float, window: float) -> float:
        cutoff = now - window
        total = bad = 0
        for t, is_bad in reversed(events):
            if t < cutoff:
                break
            total += 1
            bad += is_bad
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - self.target)

    def stats(self) -> dict:
        """Per-tenant windowed totals and burn rates, for ``/v1/stats``."""
        now = self._clock()
        out: dict[str, dict] = {
            "objective": {"latency_ms": self.latency_ms, "target": self.target},
            "tenants": {},
        }
        with self._lock:
            items = [(t, list(ev)) for t, ev in self._events.items()]
        for tenant, events in sorted(items):
            windows = {}
            for window in self.windows:
                cutoff = now - window
                recent = [(t, b) for t, b in events if t >= cutoff]
                bad = sum(b for _, b in recent)
                windows[f"{int(window)}s"] = {
                    "total": len(recent),
                    "breaches": bad,
                    "burn_rate": round(
                        self._burn_rate(events, now, window), 3
                    ),
                }
            out["tenants"][tenant] = {"windows": windows}
        return out
