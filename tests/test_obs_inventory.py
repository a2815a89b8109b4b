"""Observational inventory: every name the instrumentation exposes.

One fixed workload runs with tracing and the journal on, ``jobs=1`` and
a temporary store: a cold query, a repeat that hits the engine cache, a
store miss/write/hit round trip, one ``apply_delta``, a RegLFP
connectivity fixpoint, a compiled E15 datalog run, and a ``/v1/query``
plus ``GET /metrics`` through :class:`repro.server.ConstraintService`.
The inventory it produces records

* counter names (non-zero after the workload) and values;
* histogram and gauge families (from the ``/metrics`` exposition) with
  their label sets, and histogram sample counts;
* span names with their call counts and attribute keys;
* journal event types with their key sets and counts, plus the
  per-layer/kind/outcome counts of ``cache`` events;
* the ``/metrics`` family names and types.

No timings are recorded.  The workload runs in a fresh interpreter
under ``PYTHONHASHSEED=0`` and ``1``; a count that differs between the
two is recorded as ``null``.  The result must equal
``tests/golden/obs_inventory.json`` exactly, so a refactor of the
instrumentation cannot rename, drop or re-count anything observable.

Rewrite the golden file with
``PYTHONPATH=src python -m pytest tests/test_obs_inventory.py
--update-golden``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "obs_inventory.json"

QUERY = "exists x1. S(x0, x1) & Zone(x0, x1)"
DELTA = [(
    "insert", "S", "x0 >= 7 & x0 <= 9 & x1 >= 1 & 2*x1 <= 3*x0 - 12",
)]
DATALOG = (
    "Reach(x) :- S(x), x = 0.\n"
    "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
)


def _workload(store_dir: str) -> dict:
    """Run the fixed workload in this process; return the raw inventory."""
    import asyncio

    from repro.config import EngineConfig
    from repro.constraints.io import load_database
    from repro.datalog import evaluate_program
    from repro.datalog.parser import parse_program
    from repro.engine import EngineCache, QueryEngine
    from repro.obs import JOURNAL, TRACER, get_registry, reset_all
    from repro.queries.connectivity import connectivity_query_lfp
    from repro.server import ConstraintService
    from repro.server.http import Request
    from repro.workloads.generators import interval_chain

    map_path = REPO / "examples" / "map.cdb"
    config = EngineConfig.resolve(
        jobs=1, cache_dir=store_dir, executor="compiled",
        optimizer="on", lp_mode="filtered", metrics_labels="on",
    )
    reset_all()
    JOURNAL.start()
    TRACER.start("inventory")

    # Cold query: engine-cache misses, store misses and writes.
    cold = QueryEngine(
        load_database(map_path), cache=EngineCache(), config=config
    )
    cold.evaluate(QUERY)
    # Repeat on a second engine over the same cache: the answer comes
    # back from the store, a new query hits the engine cache.
    repeat = QueryEngine(
        load_database(map_path), cache=cold.cache, config=config
    )
    repeat.evaluate(QUERY)
    repeat.truth("exists x0. exists x1. Zone(x0, x1)")
    # A fresh engine cache over the same store: arrangement store hit.
    QueryEngine(
        load_database(map_path), cache=EngineCache(), config=config
    ).truth("exists x0. exists x1. S(x0, x1)")
    # One write through the incremental path (lineage into the store).
    cold.apply_delta(DELTA)
    # RegLFP connectivity over a 1-D chain.
    QueryEngine(
        interval_chain(2), cache=EngineCache(), config=config
    ).truth(connectivity_query_lfp(1))
    # Compiled E15 datalog.
    evaluate_program(
        parse_program(DATALOG), interval_chain(4), max_stages=24,
        strategy="seminaive", executor="compiled",
    )
    # The service: one query, then the exposition of everything so far.
    service = ConstraintService(
        {"map": load_database(map_path)}, config=config
    )

    def call(method: str, path: str, body: dict | None = None):
        request = Request(
            method=method, path=path, query={}, headers={},
            body=json.dumps(body).encode() if body is not None else b"",
        )
        return asyncio.run(service.handle(request))

    assert call("POST", "/v1/query", {"query": QUERY}).status == 200
    exposition = call("GET", "/metrics").text

    root = TRACER.stop()
    events = JOURNAL.stop()
    counters = {
        name: value
        for name, value in get_registry().snapshot().items()
        if value
    }
    return {
        "counters": counters,
        "metrics": _parse_exposition(exposition),
        "spans": _span_inventory(root),
        "journal": _journal_inventory(events),
    }


def _parse_exposition(text: str) -> dict:
    """Families, label sets and histogram counts from Prometheus text."""
    families: dict[str, dict] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            __, __, name, kind = line.split()
            families[name] = {"type": kind, "series": {}}
            continue
        if not line or line.startswith("#"):
            continue
        sample, value = line.rsplit(" ", 1)
        metric, __, labels = sample.partition("{")
        labels = labels.rstrip("}")
        for family, entry in families.items():
            kind = entry["type"]
            if kind == "counter" and metric == family:
                entry["series"][labels] = None
            elif kind == "gauge" and metric == family:
                entry["series"][labels] = None
            elif kind == "histogram" and metric == family + "_count":
                entry["series"][labels] = int(value)
    return families


def _span_inventory(root) -> dict:
    spans: dict[str, dict] = {}

    def walk(span) -> None:
        entry = spans.setdefault(span.name, {"calls": 0, "attrs": set()})
        entry["calls"] += span.calls
        entry["attrs"].update(span.attrs)
        for child in span.children:
            walk(child)

    walk(root)
    return {
        name: {"calls": entry["calls"], "attrs": sorted(entry["attrs"])}
        for name, entry in sorted(spans.items())
    }


def _journal_inventory(events: list[dict]) -> dict:
    types: dict[str, dict] = {}
    cache: dict[str, int] = {}
    for event in events:
        entry = types.setdefault(event["type"], {"count": 0, "keys": set()})
        entry["count"] += 1
        entry["keys"].add(",".join(sorted(event)))
        if event["type"] == "cache":
            label = f"{event['layer']}/{event['kind']}/{event['outcome']}"
            cache[label] = cache.get(label, 0) + 1
    return {
        "types": {
            name: {"count": entry["count"], "keys": sorted(entry["keys"])}
            for name, entry in sorted(types.items())
        },
        "cache": dict(sorted(cache.items())),
    }


def _merge(a, b):
    """Keep what both seeds agree on; a differing count becomes None."""
    if isinstance(a, dict) and isinstance(b, dict):
        assert sorted(a) == sorted(b), (sorted(set(a) ^ set(b)))
        return {key: _merge(a[key], b[key]) for key in sorted(a)}
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool):
        return a if a == b else None
    assert a == b, (a, b)
    return a


def _run_seed(seed: str) -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(REPO / "src")
    with tempfile.TemporaryDirectory() as store_dir:
        done = subprocess.run(
            [sys.executable, __file__, store_dir],
            env=env, cwd=str(REPO), capture_output=True, text=True,
            timeout=600,
        )
    assert done.returncode == 0, done.stderr[-4000:]
    return json.loads(done.stdout)


def inventory() -> dict:
    return _merge(_run_seed("0"), _run_seed("1"))


def test_inventory_matches_golden(update_golden):
    current = inventory()
    if update_golden:
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    expected = json.loads(GOLDEN.read_text())
    for section in ("counters", "metrics", "spans", "journal"):
        assert current[section] == expected[section], section


if __name__ == "__main__":
    print(json.dumps(_workload(sys.argv[1]), sort_keys=True))
