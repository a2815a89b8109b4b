"""Versioned lineage: persisted delta chains with snapshot compaction.

Every applied write records a :class:`~repro.store.lineage.
LineageRecord` in the :class:`~repro.store.disk.DiskStore`, keyed by
the resulting (child) database fingerprint: parent fingerprint plus the
delta ops.  The chain is always rooted — recording a delta for a
version with no record first writes a **snapshot** record for the
parent — and after :attr:`LineageLog.compact_every` chained deltas the
child is compacted back to a full snapshot, so :meth:`replay` never
walks more than ``compact_every`` records.

Replay reconstructs a version's exact formula structure (deltas are
disjunct-granular and structural, see :mod:`repro.incremental.delta`),
so the replayed database's fingerprint *is* the record key; replay
verifies that and raises on any mismatch — a corrupted or hand-edited
chain surfaces as :class:`~repro.errors.DeltaError`, never as a wrong
database.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import DeltaError
from repro.constraints.database import ConstraintDatabase
from repro.obs.metrics import get_registry
from repro.obs.site import Site
from repro.store import lineage_key
from repro.store.disk import DiskStore
from repro.store.lineage import LineageRecord

from repro.incremental.delta import Delta, DeltaOp, apply_delta

#: One saved record: ``incremental.lineage_records`` plus a
#: ``lineage.record`` journal event.
_RECORD = Site(
    counters=("incremental.lineage_records",), journal="lineage.record"
)
_COMPACTIONS = get_registry().counter("incremental.lineage_compactions")

#: Default chain length before compacting back to a snapshot.
DEFAULT_COMPACT_EVERY = 8


class Recorded(NamedTuple):
    """What :meth:`LineageLog.record` did: the child's record, and
    whether this call compacted the chain back to a snapshot."""

    record: LineageRecord
    compacted: bool


def _fingerprint(database: ConstraintDatabase) -> str:
    from repro.engine import database_fingerprint

    return database_fingerprint(database)


class LineageLog:
    """Reads and writes one store's lineage records."""

    def __init__(
        self,
        store: DiskStore,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be positive")
        self.store = store
        self.compact_every = compact_every

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _save(self, record: LineageRecord) -> None:
        self.store.save("lineage", lineage_key(record.child), record)
        _RECORD(
            child=record.child[:12],
            parent=record.parent[:12],
            seq=record.seq,
            snapshot=record.is_snapshot,
        )

    def _snapshot(self, database: ConstraintDatabase) -> LineageRecord:
        return LineageRecord(
            parent="",
            child=_fingerprint(database),
            seq=0,
            ops=(),
            snapshot=tuple(database.relations),
        )

    def record(
        self,
        parent: ConstraintDatabase,
        child: ConstraintDatabase,
        delta: Delta,
    ) -> Recorded:
        """Persist the edge ``parent → child``; returns the record.

        Roots the chain (snapshotting an unrecorded parent) and
        compacts the child to a snapshot once the chain since the last
        snapshot reaches :attr:`compact_every`.
        """
        child_print = _fingerprint(child)
        existing = self.load(child_print)
        if existing is not None:
            # Records are content-addressed by the child fingerprint: an
            # existing record already reconstructs this exact database.
            # Keeping it preserves root snapshots across write/undo
            # round trips and keeps the chain acyclic — recording a
            # delta edge back to an ancestor would otherwise make
            # replay loop.
            return Recorded(existing, False)
        parent_print = _fingerprint(parent)
        parent_record = self.load(parent_print)
        if parent_record is None:
            self._save(self._snapshot(parent))
            parent_seq = 0
        else:
            parent_seq = parent_record.seq
        seq = parent_seq + 1
        compacted = seq >= self.compact_every
        if compacted:
            record = self._snapshot(child)
            _COMPACTIONS.inc()
        else:
            record = LineageRecord(
                parent=parent_print,
                child=child_print,
                seq=seq,
                ops=tuple(
                    (op.action, op.relation, op.formula)
                    for op in delta.ops
                ),
            )
        self._save(record)
        return Recorded(record, compacted)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self, fingerprint: str) -> "LineageRecord | None":
        loaded = self.store.load("lineage", lineage_key(fingerprint))
        return loaded if isinstance(loaded, LineageRecord) else None

    def replay(self, fingerprint: str) -> ConstraintDatabase:
        """Reconstruct a version from its chain; verified by fingerprint."""
        chain: list[LineageRecord] = []
        seen: set[str] = set()
        cursor = fingerprint
        while True:
            if cursor in seen:
                raise DeltaError(
                    f"lineage chain cycles at {cursor[:12]}… "
                    "(chain corrupted?)"
                )
            seen.add(cursor)
            record = self.load(cursor)
            if record is None:
                raise DeltaError(
                    f"no lineage record for fingerprint {cursor[:12]}…"
                )
            chain.append(record)
            if record.is_snapshot:
                break
            cursor = record.parent
        database = chain[-1].snapshot_database()
        for record in reversed(chain[:-1]):
            delta = Delta(tuple(
                DeltaOp(action, relation, formula)
                for action, relation, formula in record.ops
            ))
            database = apply_delta(database, delta)
            if _fingerprint(database) != record.child:
                raise DeltaError(
                    "lineage replay diverged at "
                    f"{record.child[:12]}… (chain corrupted?)"
                )
        if _fingerprint(database) != fingerprint:
            raise DeltaError(
                f"lineage replay of {fingerprint[:12]}… produced "
                f"{_fingerprint(database)[:12]}…"
            )
        return database
