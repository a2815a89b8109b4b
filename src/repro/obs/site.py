"""Instrumentation sites: one call per event feeds every layer.

A :class:`Site` is bound once per module or instance with everything
constant about an event; then one call per event::

    _SOLVE = Site("lp.feasible", counters=("lp.solves",),
                  histogram="lp.solve_seconds")

    with _SOLVE.timed(rows=len(rows)):   # span + latency histogram
        _SOLVE()                          # counters, attrs, journal

increments the counters (of the call's ``outcome``, for sites with
several), adds the amount to the span attribute and any ``attrs`` to
the current span when tracing is on (inside :meth:`Site.timed`, the
site's own span), observes the latency histogram (``seconds=``, or the
timed block), and emits the journal record — the site's constant
fields, the call's keyword fields and the ``outcome`` — when the
journal is on.  Inside the call, tracing and the journal cost one
attribute check each while off; the call's keyword payload is built by
the caller, so a site whose payload costs more than the call guards it
with :attr:`Site.journaling`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.obs.journal import JOURNAL
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import _NULL_CONTEXT, TRACER, _NullContext


class Site:
    """One instrumentation site (see the module docstring)."""

    __slots__ = (
        "_registry", "_span", "_aggregate", "_events",
        "_histogram_name", "_labels", "_histogram", "_journal", "_fields",
    )

    def __init__(
        self,
        span: str | None = None,
        *,
        registry: MetricsRegistry | None = None,
        aggregate: bool = True,
        counters: Sequence[str] = (),
        attr: str | None = None,
        outcomes: Mapping[str, tuple[Sequence[str], str | None]] | None = None,
        histogram: str | None = None,
        labels: Mapping[str, str] | None = None,
        journal: str | None = None,
        **fields: Any,
    ) -> None:
        """Bind a site.

        ``span`` is the site's own span (opened by :meth:`timed`).  An
        event increments ``counters`` and adds its amount to the span
        attribute ``attr``; ``outcomes`` maps each outcome to its own
        ``(counter names, span attribute or None)`` instead.  The
        ``histogram`` series (with ``labels``) is created on its first
        observation.  ``journal`` is the event type and ``fields`` the
        constant fields of every record.
        """
        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._span = span
        self._aggregate = aggregate
        self._events = {
            outcome: (tuple(registry.counter(name) for name in names), key)
            for outcome, (names, key) in {
                None: (counters, attr), **(outcomes or {})
            }.items()
        }
        self._histogram_name = histogram
        self._labels = labels
        self._histogram = None
        self._journal = journal
        self._fields = fields

    def __call__(
        self,
        outcome: str | None = None,
        amount: int = 1,
        *,
        attrs: Mapping[str, Any] | None = None,
        seconds: float | None = None,
        labels: Mapping[str, str] | None = None,
        **fields: Any,
    ) -> None:
        """Record one event on every layer of this site."""
        counters, attr = self._events[outcome]
        for counter in counters:
            counter.inc(amount)
        if TRACER.enabled and (attr or attrs):
            span = TRACER.current()
            if attr:
                span.add(attr, amount)
            if attrs:
                for key, value in attrs.items():
                    span.add(key, value)
        if seconds is not None:
            self._observe(seconds, labels)
        if self._journal is not None and JOURNAL.enabled:
            if outcome is not None:
                fields["outcome"] = outcome
            JOURNAL.emit(self._journal, **self._fields, **fields)

    @property
    def journaling(self) -> bool:
        """Whether a call now emits a journal record."""
        return self._journal is not None and JOURNAL.enabled

    def timed(self, **attrs: Any) -> "_Timed | _NullContext":
        """Open the site's span (with ``attrs``) and time the block into
        the histogram when it exits, raising or not."""
        if self._histogram_name is None and not (
            self._span is not None and TRACER.enabled
        ):
            return _NULL_CONTEXT
        return _Timed(self, attrs)

    def _observe(
        self, seconds: float, labels: Mapping[str, str] | None = None
    ) -> None:
        if labels:
            histogram = self._registry.histogram(self._histogram_name, labels)
        else:
            histogram = self._histogram
            if histogram is None:
                histogram = self._histogram = self._registry.histogram(
                    self._histogram_name, self._labels
                )
        histogram.observe(seconds)


class _Timed:
    """The context manager behind :meth:`Site.timed`."""

    __slots__ = ("_site", "_attrs", "_span", "_start")

    def __init__(self, site: Site, attrs: dict[str, Any]) -> None:
        self._site = site
        self._attrs = attrs
        self._span = None
        self._start = 0.0

    def __enter__(self) -> "_Timed":
        site = self._site
        if site._span is not None and TRACER.enabled:
            self._span = TRACER.span(
                site._span, site._aggregate, **self._attrs
            )
            self._span.__enter__()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        elapsed = perf_counter() - self._start
        if self._span is not None:
            self._span.__exit__(*exc_info)
        if self._site._histogram_name is not None:
            self._site._observe(elapsed)
        return False
