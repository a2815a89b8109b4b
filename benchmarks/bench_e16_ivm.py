"""E16 — incremental view maintenance under writes.

The paper's queries are defined over a static database; the
maintenance layer (:mod:`repro.incremental`) serves *writes* without
giving up the static story's guarantees.  This experiment holds the
maintenance path to the honest oracle — a full interpreted rebuild —
in both directions: the answers must be byte-identical, and the
update-time speedup must be real (≥5× on single-segment writes
against a standing k=32 reachability database).
"""

from fractions import Fraction

from repro.arrangement.builder import build_arrangement
from repro.datalog import evaluate_program
from repro.datalog.parser import parse_program
from repro.incremental import (
    MaintainedArrangements,
    MaintainedProgram,
    apply_delta,
    invert,
    make_delta,
)
from repro.workloads.generators import interval_chain

F = Fraction

REACH = parse_program(
    """
    Reach(x) :- S(x), x = 0.
    Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.
    """
)


def _signature(arrangement):
    return sorted(
        (face.signs, face.dimension, face.in_relation)
        for face in arrangement.faces
    )


def test_e16_maintained_fixpoint_is_byte_identical(report):
    """The maintained program's answers equal the interpreted oracle's
    byte for byte across a chain of writes."""
    base = interval_chain(3)
    maintained = MaintainedProgram(REACH, base, max_stages=40)
    rows = []
    database = base
    for step in range(3):
        segment = 3 + step
        database = apply_delta(database, make_delta((
            "insert", "S",
            f"({segment} <= x0 & x0 <= {segment + 1})",
        )))
        outcome = maintained.apply(database)
        oracle = evaluate_program(
            REACH, database, max_stages=40,
            strategy="seminaive", executor="interpreted",
        )
        assert outcome.stages == oracle.stages
        assert outcome.stage_sizes == oracle.stage_sizes
        for predicate in outcome.relations:
            assert str(outcome[predicate].formula) == str(
                oracle[predicate].formula
            )
        rows.append(
            (f"after write {step + 1}:",
             f"{outcome.stages} stages,",
             "byte-identical to the interpreted rebuild")
        )
    report("E16: maintained fixpoint ≡ interpreted rebuild", rows)


def test_e16_maintained_arrangement_matches_batch():
    """Plane-delta maintenance (insert, retract, reorder) lands on the
    batch arrangement's combinatorics at every version."""
    base = interval_chain(4)
    arrangements = MaintainedArrangements()
    old = base.relation("S")
    arrangements.adopt(old, build_arrangement(old))
    delta = make_delta(("insert", "S", "(6 <= x0 & x0 <= 7)"))
    for step_delta in (delta, invert(delta)):
        new_db = apply_delta(base, step_delta)
        new = new_db.relation("S")
        maintained = arrangements.update(
            old, new, build_old=lambda: build_arrangement(old)
        ).arrangement
        batch = build_arrangement(new)
        assert maintained.hyperplanes == batch.hyperplanes
        assert _signature(maintained) == _signature(batch)
        base, old = new_db, new


def test_e16_update_vs_rebuild(report):
    """Before/after mode: maintenance vs full-rebuild oracle.

    The default run uses a small check-only configuration to guard
    byte-identity without timing noise.  Set ``REPRO_BENCH_RECORD=1``
    to sweep update sizes {1, 4, 16} against the standing k=32 chain,
    assert the ≥5× single-fact target and write ``BENCH_E16.json``
    (this is how the committed record is produced)."""
    import os

    from repro.bench import run_bench_e16, write_record

    record_mode = bool(os.environ.get("REPRO_BENCH_RECORD"))
    if record_mode:
        record = run_bench_e16(sizes=(1, 4, 16))
    else:
        record = run_bench_e16(sizes=(1, 2), check_only=True)
    assert record["all_match"], record
    if record_mode:
        for row in record["results"]:
            if row["update"] == 1:
                assert row["meets_target"], row
        write_record(record, "BENCH_E16.json")
    report("E16: incremental maintenance vs full rebuild", [
        (f"update={row['update']} (k={row['k']}):",
         f"rebuild {row['baseline_s'] * 1000:.0f} ms,",
         f"maintained {row['fast_s'] * 1000:.0f} ms,",
         f"speedup {row['speedup']}x")
        for row in record["results"]
    ])
