"""Metamorphic identities of the incremental maintenance layer.

Three families of "nothing downstream can tell" properties:

* **write/undo** — applying a delta and its inverse restores the exact
  original fingerprint, the original answers byte for byte, and leaves
  every pre-existing disk-store entry byte-identical (content
  addressing plus the no-overwrite rule);
* **lineage replay** — every recorded version is reconstructible from
  its persisted delta chain, verified by fingerprint at each hop;
* **compaction** — folding a chain back into a snapshot changes how a
  version is stored, never what it answers;
* **isolation** — an engine's delta report counts its own planes, even
  while another engine writes at the same time.
"""

from __future__ import annotations

import pathlib
import threading

import pytest

from repro.config import EngineConfig
from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.engine import EngineCache, QueryEngine, database_fingerprint
from repro.incremental import (
    LineageLog,
    apply_delta,
    invert,
    make_delta,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.store import lineage_key, store_at
from repro.store.lineage import LineageRecord

QUERY = "S(x) & x < 4"


def _db(text="(0 <= x0 & x0 <= 1) | (2 <= x0 & x0 <= 3)"):
    return ConstraintDatabase.from_formula(parse_formula(text), 1)


def _engine(database, tmp_path):
    return QueryEngine(
        database,
        cache=EngineCache(metrics=MetricsRegistry()),
        config=EngineConfig(cache_dir=str(tmp_path), optimizer="off"),
    )


def _store_bytes(root) -> dict[pathlib.Path, bytes]:
    return {
        path: path.read_bytes()
        for path in pathlib.Path(root).rglob("*")
        if path.is_file()
    }


def test_write_undo_restores_fingerprint_and_store_bytes(tmp_path):
    """insert ∘ retract = identity: fingerprint, answers, store bytes."""
    engine = _engine(_db(), tmp_path)
    original_print = engine.fingerprint
    original_answer = str(engine.evaluate(QUERY).formula)
    before = _store_bytes(tmp_path)
    assert before, "the first evaluation persists store entries"

    delta = make_delta(("insert", "S", "(5 <= x0 & x0 <= 6)"))
    engine.apply_delta(delta)
    assert engine.fingerprint != original_print
    engine.evaluate(QUERY)
    engine.apply_delta(invert(delta))

    assert engine.fingerprint == original_print
    assert str(engine.evaluate(QUERY).formula) == original_answer
    after = _store_bytes(tmp_path)
    for path, payload in before.items():
        assert after.get(path) == payload, (
            f"store entry {path.name} changed across a write/undo pair"
        )

    # A cold engine over the same store answers identically too.
    cold = _engine(engine.database, tmp_path)
    assert str(cold.evaluate(QUERY).formula) == original_answer


def test_double_undo_round_trips_repeatedly(tmp_path):
    """The round trip composes: N write/undo pairs are still identity."""
    engine = _engine(_db(), tmp_path)
    original_print = engine.fingerprint
    delta = make_delta(
        ("insert", "S", "(5 <= x0 & x0 <= 6)"),
        ("insert", "S", "(8 <= x0 & x0 <= 9)"),
    )
    for _ in range(3):
        engine.apply_delta(delta)
        engine.apply_delta(invert(delta))
        assert engine.fingerprint == original_print


def test_undo_of_mixed_delta_restores_multiset_not_order(tmp_path):
    """Retracting a pre-existing disjunct loses its position.

    The write/undo pair around a mixed insert+retract delta restores
    the disjunct *multiset* — a logically equivalent relation — but
    the re-inserted disjunct lands at the end, so the fingerprint may
    legitimately differ (documented on
    :func:`repro.incremental.invert`)."""
    engine = _engine(_db(), tmp_path)
    original = engine.database.relation("S")
    delta = make_delta(
        ("insert", "S", "(5 <= x0 & x0 <= 6)"),
        ("retract", "S", "(0 <= x0 & x0 <= 1)"),
    )
    engine.apply_delta(delta)
    engine.apply_delta(invert(delta))
    from repro.incremental import disjunct_list

    restored = engine.database.relation("S")
    assert sorted(map(str, disjunct_list(restored.formula))) \
        == sorted(map(str, disjunct_list(original.formula)))
    assert restored.equivalent(original)


def test_lineage_replay_equals_live_database(tmp_path):
    """Every version an engine lived through replays to itself."""
    engine = _engine(_db(), tmp_path)
    fingerprints = [engine.fingerprint]
    for i in range(4):
        engine.apply_delta(make_delta((
            "insert", "S", f"({10 + 2 * i} <= x0 & x0 <= {11 + 2 * i})"
        )))
        fingerprints.append(engine.fingerprint)

    log = LineageLog(store_at(tmp_path))
    for fingerprint in fingerprints:
        replayed = log.replay(fingerprint)
        assert database_fingerprint(replayed) == fingerprint
    # The tip replay is structurally the live database, byte for byte.
    tip = log.replay(fingerprints[-1])
    for name, relation in engine.database:
        assert str(tip.relation(name).formula) == str(relation.formula)


def test_compaction_preserves_answers(tmp_path):
    """A compacted chain stores a snapshot but answers identically."""
    store = store_at(tmp_path)
    log = LineageLog(store, compact_every=3)
    registry = get_registry()
    compactions_before = registry.get("incremental.lineage_compactions")

    database = _db()
    databases = [database]
    for i in range(5):
        delta = make_delta((
            "insert", "S", f"({10 + 2 * i} <= x0 & x0 <= {11 + 2 * i})"
        ))
        child = apply_delta(database, delta)
        log.record(database, child, delta)
        database = child
        databases.append(database)

    assert registry.get("incremental.lineage_compactions") \
        > compactions_before
    tip_print = database_fingerprint(database)
    tip_record = log.load(tip_print)
    assert tip_record is not None
    replayed = log.replay(tip_print)
    assert database_fingerprint(replayed) == tip_print

    live = QueryEngine(
        database, cache=EngineCache(metrics=MetricsRegistry()),
        config=EngineConfig(optimizer="off"),
    ).evaluate(QUERY)
    from_chain = QueryEngine(
        replayed, cache=EngineCache(metrics=MetricsRegistry()),
        config=EngineConfig(optimizer="off"),
    ).evaluate(QUERY)
    assert str(live.formula) == str(from_chain.formula)

    # Intermediate (pre-compaction) versions stay replayable as well.
    for version in databases:
        fingerprint = database_fingerprint(version)
        assert database_fingerprint(log.replay(fingerprint)) \
            == fingerprint


def test_lineage_records_are_never_overwritten(tmp_path):
    """Recording an edge onto an already-recorded child is a no-op.

    Content addressing makes the existing record authoritative; in
    particular an undo back to the root must not replace the root
    snapshot with a delta edge (which would make the chain cyclic).
    """
    store = store_at(tmp_path)
    log = LineageLog(store)
    database = _db()
    delta = make_delta(("insert", "S", "(5 <= x0 & x0 <= 6)"))
    child = apply_delta(database, delta)
    log.record(database, child, delta)

    root_print = database_fingerprint(database)
    root_record = log.load(root_print)
    assert root_record is not None and root_record.is_snapshot

    # Undo: child -> original.  The root snapshot must survive.
    returned = log.record(child, database, invert(delta))
    assert returned.record.is_snapshot
    assert not returned.compacted
    assert log.load(root_print).is_snapshot
    # And both versions still replay.
    assert database_fingerprint(log.replay(root_print)) == root_print
    child_print = database_fingerprint(child)
    assert database_fingerprint(log.replay(child_print)) == child_print


def test_lineage_codec_round_trip(tmp_path):
    """Lineage records survive the store's encode/decode round trip."""
    store = store_at(tmp_path)
    database = _db()
    delta = make_delta(("insert", "S", "(5 <= x0 & x0 <= 6)"))
    child = apply_delta(database, delta)
    record = LineageRecord(
        parent=database_fingerprint(database),
        child=database_fingerprint(child),
        seq=1,
        ops=tuple(
            (op.action, op.relation, op.formula) for op in delta.ops
        ),
        snapshot=None,
    )
    key = lineage_key(record.child)
    store.save("lineage", key, record)
    loaded = store.load("lineage", key)
    assert isinstance(loaded, LineageRecord)
    assert loaded.parent == record.parent
    assert loaded.child == record.child
    assert loaded.seq == record.seq
    assert loaded.ops == record.ops
    assert loaded.snapshot is None

    snapshot = LineageRecord(
        parent="",
        child=database_fingerprint(database),
        seq=0,
        ops=(),
        snapshot=tuple(database.relations),
    )
    store.save("lineage", lineage_key(snapshot.child), snapshot)
    loaded = store.load("lineage", lineage_key(snapshot.child))
    assert loaded.is_snapshot
    rebuilt = loaded.snapshot_database()
    assert database_fingerprint(rebuilt) == snapshot.child


def test_replay_unknown_fingerprint_raises(tmp_path):
    from repro.errors import DeltaError

    log = LineageLog(store_at(tmp_path))
    with pytest.raises(DeltaError):
        log.replay("0" * 64)


def test_concurrent_engines_report_their_own_planes():
    """Two engines writing at once each report only their own planes."""
    from repro.constraints.io import load_database

    MAP = pathlib.Path(__file__).resolve().parent.parent / "examples/map.cdb"
    op = (
        "insert", "S", "x0 >= 7 & x0 <= 9 & x1 >= 1 & 2*x1 <= 3*x0 - 12"
    )

    def engine():
        return QueryEngine(
            load_database(MAP),
            cache=EngineCache(metrics=MetricsRegistry()),
            config=EngineConfig(jobs=1, optimizer="off"),
        )

    solo = engine().apply_delta([op])
    assert solo.planes_inserted == 4
    for _trial in range(5):
        engines = [engine(), engine()]
        barrier = threading.Barrier(len(engines))
        reports: list = [None] * len(engines)

        def write(index: int) -> None:
            barrier.wait()
            reports[index] = engines[index].apply_delta([op])

        threads = [
            threading.Thread(target=write, args=(i,))
            for i in range(len(engines))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for report in reports:
            assert report.planes_inserted == solo.planes_inserted
            assert report.planes_retracted == solo.planes_retracted
