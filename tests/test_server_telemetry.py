"""Server-side telemetry: /metrics, SLO stats and the slow-query log.

Drives :meth:`ConstraintService.handle` directly (like
``test_server_service.py``) with a private metrics registry per
service, so assertions never race other tests' observations.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import ConstraintDatabase, parse_formula
from repro.config import EngineConfig
from repro.explain import plan_cost_totals
from repro.obs import reset_all
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import load_slow_log
from repro.server import ConstraintService
from repro.server.http import Request, encode


@pytest.fixture(autouse=True)
def _clean_slate():
    reset_all()
    yield
    reset_all()


def _db(text: str = "(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)"):
    return ConstraintDatabase.from_formula(parse_formula(text), arity=1)


def _request(method: str, path: str, body: bytes = b"",
             headers: dict | None = None) -> Request:
    return Request(method=method, path=path, query={},
                   headers=headers or {}, body=body)


def _call(service: ConstraintService, request: Request):
    return asyncio.run(service.handle(request))


def _service(**kwargs) -> ConstraintService:
    kwargs.setdefault("metrics", MetricsRegistry())
    return ConstraintService({"demo": _db()}, **kwargs)


class TestMetricsEndpoint:
    def test_scrape_is_prometheus_text(self):
        service = _service()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        response = _call(service, _request("GET", "/metrics"))
        assert response.status == 200
        assert response.text is not None
        assert response.headers["content-type"].startswith("text/plain")
        assert "# TYPE repro_server_requests_total counter" in response.text
        assert "# TYPE repro_server_request_seconds histogram" \
            in response.text

    def test_wire_body_is_the_raw_text(self):
        service = _service()
        response = _call(service, _request("GET", "/metrics"))
        wire = encode(response, keep_alive=False)
        assert b"content-type: text/plain" in wire
        body = wire.split(b"\r\n\r\n", 1)[1]
        assert body.decode("utf-8") == response.text

    def test_request_series_labeled_by_tenant_and_endpoint(self):
        service = _service()
        _call(service, _request(
            "POST", "/v1/query", b'{"query": "S(x0)"}',
            headers={"x-repro-tenant": "acme"},
        ))
        _call(service, _request(
            "POST", "/v1/query", b'{"query": "S(x0)"}',
            headers={"x-repro-tenant": "globex"},
        ))
        response = _call(service, _request("GET", "/metrics"))
        text = response.text
        assert 'tenant="acme"' in text
        assert 'tenant="globex"' in text
        assert 'endpoint="/v1/query"' in text

    def test_unmatched_path_folds_into_unknown_endpoint(self):
        service = _service()
        _call(service, _request("GET", "/totally/bogus/path"))
        text = _call(service, _request("GET", "/metrics")).text
        assert 'endpoint="unknown"' in text
        assert "bogus" not in text, "raw paths must never mint series"

    def test_labels_off_collapses_to_unlabeled_series(self):
        service = _service(config=EngineConfig(metrics_labels="off"))
        _call(service, _request(
            "POST", "/v1/query", b'{"query": "S(x0)"}',
            headers={"x-repro-tenant": "acme"},
        ))
        text = _call(service, _request("GET", "/metrics")).text
        assert 'tenant="acme"' not in text
        # The scrape renders before observing itself: one unlabeled
        # observation from the query request.
        assert "repro_server_request_seconds_count 1" in text

    def test_method_is_enforced(self):
        service = _service()
        response = _call(service, _request("POST", "/metrics"))
        assert response.status == 405


class TestSloStats:
    def test_stats_carry_slo_block(self):
        service = _service()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        response = _call(service, _request("GET", "/v1/stats"))
        slo = response.payload["slo"]
        assert slo["objective"]["latency_ms"] == service.slo.latency_ms
        tenants = slo["tenants"]
        assert "public" in tenants
        assert tenants["public"]["windows"]["300s"]["total"] >= 1

    def test_breaches_counted_for_slow_requests(self):
        service = _service(
            config=EngineConfig(slo_latency_ms=0.0001)
        )
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        response = _call(service, _request("GET", "/v1/stats"))
        windows = response.payload["slo"]["tenants"]["public"]["windows"]
        assert windows["300s"]["breaches"] >= 1
        assert windows["300s"]["burn_rate"] > 1.0

    def test_stats_slow_log_block_reflects_config(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        service = _service(config=EngineConfig(slow_log=str(path)))
        response = _call(service, _request("GET", "/v1/stats"))
        block = response.payload["slow_log"]
        assert block["path"] == str(path)
        assert block["threshold_ms"] == service.slo.latency_ms

    def test_stats_slow_log_disabled_by_default(self):
        service = _service()
        response = _call(service, _request("GET", "/v1/stats"))
        assert response.payload["slow_log"]["path"] is None


class TestSlowQueryCapture:
    def _slow_service(self, tmp_path, **kwargs) -> ConstraintService:
        # A microsecond objective makes every real query "slow".
        return _service(
            config=EngineConfig(
                slow_log=str(tmp_path / "slow.jsonl"),
                slo_latency_ms=0.0001,
            ),
            **kwargs,
        )

    def test_slow_query_captures_analyzed_plan(self, tmp_path):
        service = self._slow_service(tmp_path)
        response = _call(service, _request(
            "POST", "/v1/query", b'{"query": "S(x0)"}',
            headers={"x-repro-tenant": "acme"},
        ))
        assert response.status == 200
        records = load_slow_log(tmp_path / "slow.jsonl")
        assert len(records) == 1
        record = records[0]
        assert record["tenant"] == "acme"
        assert record["query"] == "S(x0)"
        assert record["wall_ms"] > record["threshold_ms"]
        assert record["request_id"] == response.payload["request_id"]
        explain = record["explain"]
        assert explain["analyzed"] is True
        assert explain["totals"]["wall_ms"] > 0

    def test_captured_plan_costs_sum_to_run_totals(self, tmp_path):
        """The EXPLAIN ANALYZE attribution contract holds in the log."""
        service = self._slow_service(tmp_path)
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "exists x. S(x) & x < 1"}'))
        record = load_slow_log(tmp_path / "slow.jsonl")[0]
        explain = record["explain"]
        sums = plan_cost_totals(explain["plan"])
        totals = explain["totals"]
        counters = {k: v for k, v in totals["counters"].items() if v}
        assert sums["self_counters"] == counters, (
            "per-node self counters must sum exactly to the run totals"
        )
        assert sums["self_wall_ms"] == pytest.approx(
            totals["wall_ms"], abs=0.5
        )

    def test_fast_requests_are_not_captured(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        service = _service(
            config=EngineConfig(slow_log=str(path),
                                slo_latency_ms=60000.0)
        )
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        assert load_slow_log(path) == []

    def test_capture_counter_and_journal_record(self, tmp_path):
        metrics = MetricsRegistry()
        service = self._slow_service(tmp_path, metrics=metrics)
        # The counter appears with the first capture, not before.
        assert "server.slow_queries" not in metrics.snapshot()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        assert metrics.counter("server.slow_queries").value == 1

    def test_records_are_valid_json_lines(self, tmp_path):
        service = self._slow_service(tmp_path)
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        raw = (tmp_path / "slow.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in raw)


class TestInflightGauge:
    def test_gauge_returns_to_zero(self):
        service = _service()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        gauge = service.metrics.gauge("server.inflight_requests")
        assert gauge.value == 0.0

    def test_admission_gauges_exist_and_settle(self):
        service = _service()
        _call(service, _request("POST", "/v1/query",
                                b'{"query": "S(x0)"}'))
        assert service.metrics.gauge(
            "server.admission.active"
        ).value == 0.0
        assert service.metrics.gauge(
            "server.admission.waiting"
        ).value == 0.0
