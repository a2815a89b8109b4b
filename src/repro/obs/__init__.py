"""repro.obs — observability: metrics, spans and the event journal.

The subsystem has four layers, all with near-zero cost while idle:

* :mod:`repro.obs.metrics` — one registry of named counters, histograms
  (log-spaced buckets, exact count/sum, p50/p90/p99 estimates) and
  gauges with optional low-cardinality labels; the process-wide
  registry aggregates everything, and one state/merge path ships a
  worker's counters and histograms home;
* :mod:`repro.obs.tracing` — a span tree recorded by the process-wide
  :data:`TRACER`, disabled by default; ``repro profile`` and the
  ``--trace`` CLI flag turn it on around one command;
* :mod:`repro.obs.journal` — the flight recorder: a bounded ring buffer
  of typed events (span open/close, cache and store decisions, fixpoint
  stage summaries, worker lifecycle), optionally streamed to JSONL via
  ``--journal PATH`` / ``REPRO_JOURNAL``; :func:`~repro.obs.journal.\
  replay` folds a journal back into the exact span tree, which is what
  ``repro explain --analyze`` consumes;
* :mod:`repro.obs.telemetry` — what operators read off the registry:
  the Prometheus text renderer behind ``GET /metrics`` / ``repro
  metrics`` and per-tenant SLO burn-rate tracking;
  :mod:`repro.obs.slowlog` holds the bounded slow-query JSONL that
  auto-captures EXPLAIN ANALYZE.

Instrumented code reaches the layers through a
:class:`~repro.obs.site.Site`: one call per event feeds all of them.

:func:`reset_all` returns every layer to its pristine state; the CLI
entry point calls it so back-to-back ``repro.cli.main()`` invocations
in one process (the test suite, notebook sessions) cannot leak
counters, open traces or journal buffers into each other.
"""

from repro.obs.metrics import (
    ALLOWED_LABELS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    get_registry,
    metrics_snapshot,
    reset_metrics,
)
from repro.obs.telemetry import (
    SloTracker,
    quantile,
    render_prometheus,
)
from repro.obs.site import Site
from repro.obs.slowlog import (
    ENV_SLOW_LOG,
    SlowQueryLog,
    load_slow_log,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    TRACER,
    Tracer,
    span,
    traced,
    tracing_enabled,
)
from repro.obs.journal import (
    JOURNAL,
    Journal,
    ReplayResult,
    journal_context,
    journal_enabled,
    journal_scope,
    load_events,
    replay,
)


def reset_all() -> None:
    """Reset spans, metrics and the journal to their pristine state.

    Zeroes every process-wide counter, histogram and gauge, discards
    any trace collection in progress, and clears the journal ring
    (detaching its sink).  The engine caches (:mod:`repro.engine`,
    :mod:`repro.store`) are *not* touched — they are cross-invocation
    state by design.
    """
    reset_metrics()
    TRACER.hard_reset()
    JOURNAL.reset()


__all__ = [
    "ALLOWED_LABELS",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "get_registry",
    "metrics_snapshot",
    "reset_metrics",
    "SloTracker",
    "quantile",
    "render_prometheus",
    "Site",
    "ENV_SLOW_LOG",
    "SlowQueryLog",
    "load_slow_log",
    "NULL_SPAN",
    "Span",
    "TRACER",
    "Tracer",
    "span",
    "traced",
    "tracing_enabled",
    "JOURNAL",
    "Journal",
    "ReplayResult",
    "journal_context",
    "journal_enabled",
    "journal_scope",
    "load_events",
    "replay",
    "reset_all",
]
