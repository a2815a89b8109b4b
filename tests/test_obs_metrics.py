"""Tests for the observability subsystem (repro.obs).

Covers the metrics registry (counters, parent roll-up, reset
isolation) and the tracer (span trees, aggregation, the traced
decorator, and the disabled-is-free contract the hot paths rely on).
"""

import pytest

from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    get_registry,
    metrics_snapshot,
    reset_metrics,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    TRACER,
    span,
    traced,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _clean_slate():
    """Every test here starts from zeroed metrics and a stopped tracer."""
    reset_metrics()
    if TRACER.enabled:
        TRACER.stop()
    yield
    reset_metrics()
    if TRACER.enabled:
        TRACER.stop()


class TestCounter:
    def test_inc_and_reset(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_parent_propagation(self):
        parent = Counter("parent")
        child = Counter("child", parent)
        child.inc(3)
        assert child.value == 3
        assert parent.value == 3
        # Resetting the child keeps the parent's accumulated total.
        child.reset()
        assert child.value == 0
        assert parent.value == 3


class TestMetricsRegistry:
    def test_counter_is_created_once(self):
        registry = MetricsRegistry()
        first = registry.counter("a")
        second = registry.counter("a")
        assert first is second
        assert registry.get("a") == 0
        assert registry.get("never.touched") == 0

    def test_snapshot_and_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("lp.solves").inc(2)
        registry.counter("lp.cache_hits").inc(1)
        registry.counter("fm.eliminated").inc(7)
        assert registry.snapshot() == {
            "fm.eliminated": 7,
            "lp.cache_hits": 1,
            "lp.solves": 2,
        }
        assert registry.snapshot(prefix="lp.") == {
            "lp.cache_hits": 1,
            "lp.solves": 2,
        }

    def test_reset_prefix(self):
        registry = MetricsRegistry()
        registry.counter("lp.solves").inc(2)
        registry.counter("fm.eliminated").inc(7)
        registry.reset(prefix="lp.")
        assert registry.get("lp.solves") == 0
        assert registry.get("fm.eliminated") == 7
        registry.reset()
        assert registry.get("fm.eliminated") == 0

    def test_parent_rollup_with_prefix(self):
        parent = MetricsRegistry()
        scoped = MetricsRegistry(parent=parent, prefix="evaluator.")
        scoped.counter("evaluations").inc(5)
        assert scoped.get("evaluations") == 5
        assert parent.get("evaluator.evaluations") == 5
        # Two scoped registries share the parent's aggregate counter.
        other = MetricsRegistry(parent=parent, prefix="evaluator.")
        other.counter("evaluations").inc(2)
        assert other.get("evaluations") == 2
        assert parent.get("evaluator.evaluations") == 7

    def test_scoped_reset_keeps_parent(self):
        parent = MetricsRegistry()
        scoped = MetricsRegistry(parent=parent, prefix="evaluator.")
        scoped.counter("evaluations").inc(5)
        scoped.reset()
        assert scoped.get("evaluations") == 0
        assert parent.get("evaluator.evaluations") == 5

    def test_contains_len_names(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert "a" in registry and "c" not in registry
        assert len(registry) == 2
        assert registry.names() == ["a", "b"]


class TestGlobalRegistryIsolation:
    """reset_metrics gives tests a hermetic slate (satellite criterion)."""

    def test_global_registry_resets_between_tests_a(self):
        assert get_registry().get("isolation.probe") == 0
        get_registry().counter("isolation.probe").inc()
        assert metrics_snapshot(prefix="isolation.")["isolation.probe"] == 1

    def test_global_registry_resets_between_tests_b(self):
        # The autouse fixture zeroed whatever test A incremented.
        assert get_registry().get("isolation.probe") == 0

    def test_lp_counters_reset_and_read_through_the_registry(self):
        import repro.geometry.simplex  # noqa: F401  (registers lp.*)

        reset_metrics("lp.")
        stats = metrics_snapshot(prefix="lp.")
        assert stats["lp.solves"] == 0 and stats["lp.cache_hits"] == 0
        get_registry().counter("lp.solves").inc(2)
        assert metrics_snapshot(prefix="lp.")["lp.solves"] == 2

    def test_evaluator_metrics_are_warning_free(self):
        import warnings

        from repro.constraints.database import ConstraintDatabase
        from repro.constraints.parser import parse_formula
        from repro.logic.evaluator import Evaluator
        from repro.logic.parser import parse_query
        from repro.twosorted.structure import RegionExtension

        database = ConstraintDatabase.from_formula(
            parse_formula("0 < x0 & x0 < 1"), 1
        )
        evaluator = Evaluator(RegionExtension.build(database))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluator.truth(parse_query("exists x. S(x)"))
            assert evaluator.metrics.get("evaluations") > 0
            assert "evaluations" in evaluator.metrics.snapshot()


class TestTracer:
    def test_disabled_by_default(self):
        assert not tracing_enabled()
        assert TRACER.current() is NULL_SPAN
        context = TRACER.span("anything")
        assert context is span("anything")   # the shared no-op singleton
        with context as inert:
            inert.add("k")                   # absorbed, no error
            inert.set("k", 1)

    def test_start_stop_builds_a_tree(self):
        TRACER.start("root")
        assert tracing_enabled()
        with TRACER.span("outer") as outer:
            outer.set("label", "x")
            with TRACER.span("inner"):
                pass
        root = TRACER.stop()
        assert not tracing_enabled()
        assert root.name == "root"
        assert root.wall_s >= 0.0
        assert [c.name for c in root.children] == ["outer"]
        assert root.find("inner") is not None
        assert root.find("missing") is None

    def test_aggregate_spans_merge(self):
        TRACER.start("root")
        for __ in range(5):
            with TRACER.span("hot", aggregate=True) as hot:
                hot.add("items", 2)
        root = TRACER.stop()
        assert len(root.children) == 1
        hot = root.children[0]
        assert hot.calls == 5
        assert hot.attrs["items"] == 10

    def test_non_aggregate_spans_stay_separate(self):
        TRACER.start("root")
        with TRACER.span("step"):
            pass
        with TRACER.span("step"):
            pass
        root = TRACER.stop()
        assert len(root.children) == 2

    def test_current_targets_innermost(self):
        TRACER.start("root")
        with TRACER.span("outer"):
            TRACER.current().add("hits", 1)
        root = TRACER.stop()
        assert root.find("outer").attrs["hits"] == 1
        assert "hits" not in root.attrs

    def test_to_dict_shape(self):
        TRACER.start("root")
        with TRACER.span("child") as inner:
            inner.set("n", 3)
        tree = TRACER.stop().to_dict()
        assert set(tree) == {"name", "calls", "wall_ms", "children"}
        child = tree["children"][0]
        assert child["name"] == "child"
        assert child["calls"] == 1
        assert child["attrs"] == {"n": 3}
        assert isinstance(child["wall_ms"], float)

    def test_format_renders_every_span(self):
        TRACER.start("root")
        with TRACER.span("child"):
            pass
        text = TRACER.stop().format()
        assert "root:" in text and "child:" in text

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            TRACER.stop()

    def test_span_merge_combines_numeric_attrs(self):
        left = Span("s", items=2, label="a")
        right = Span("s", items=3, label="b")
        left.merge(right)
        assert left.calls == 2
        assert left.attrs["items"] == 5
        assert left.attrs["label"] == "b"


class TestTracedDecorator:
    def test_passthrough_when_disabled(self):
        @traced("decorated")
        def add(a, b):
            """docstring survives"""
            return a + b

        assert add(1, 2) == 3
        assert add.__name__ == "add"
        assert add.__doc__ == "docstring survives"

    def test_records_aggregate_span_when_enabled(self):
        @traced("decorated")
        def add(a, b):
            return a + b

        TRACER.start("root")
        assert add(1, 2) == 3
        assert add(3, 4) == 7
        root = TRACER.stop()
        node = root.find("decorated")
        assert node is not None and node.calls == 2

    def test_default_label_is_qualname(self):
        @traced()
        def helper():
            return 1

        TRACER.start("root")
        helper()
        root = TRACER.stop()
        found = [c.name for c in root.children]
        assert any("helper" in name for name in found)
