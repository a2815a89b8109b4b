"""Semi-naive (delta-driven) evaluation of spatial datalog.

The naive immediate-consequence iteration re-derives the entire IDB at
every stage: each rule re-joins the *full* accumulated relations, and
the convergence check re-simplifies and compares relations that did not
change — the classic waste that semi-naive evaluation removes.

Here every stratum keeps, per predicate, the accumulated relation and
the last stage's **delta** (the genuinely new part).  After the first
stage a rule only fires once per recursive body occurrence, with that
occurrence bound to the delta and the remaining occurrences bound to
the accumulator — any fact derivable from at least one new fact is
found, and facts derivable from old facts alone were found in an
earlier stage (the operator is monotone within a stratum because
negated atoms live in strictly lower, already-fixed strata).  The new
stage's delta is the derived relation minus the accumulator; the
stratum has converged exactly when every delta is empty, so no
relation-equivalence checks — and no re-simplification of unchanged
relations — happen at all.

Telemetry: ``datalog.delta_disjuncts`` counts the DNF disjuncts flowing
through deltas (the semi-naive analogue of "tuples inserted"), and
``datalog.seminaive_runs`` counts evaluations; both appear in ``repro
profile`` output next to the shared ``datalog.runs`` / ``datalog.stages``
counters.
"""

from __future__ import annotations

from repro.constraints.database import ConstraintDatabase
from repro.constraints.relation import (
    ConstraintRelation,
    union_relations,
)
from repro.obs.metrics import get_registry
from repro.obs.site import Site
from repro.obs.tracing import TRACER

from repro.datalog.engine import (
    EvaluationOutcome,
    Program,
    Rule,
    _DATALOG_RUNS,
    _rule_once,
)

_SEMINAIVE_RUNS = get_registry().counter("datalog.seminaive_runs")
_DELTA_DISJUNCTS = get_registry().counter("datalog.delta_disjuncts")
#: One semi-naive stage (either executor): ``datalog.stages`` counts the
#: stages that changed something — the converging stage adds 0 — and the
#: journal records the per-predicate delta disjunct counts.
_STAGE = Site(
    counters=("datalog.stages",), journal="datalog.stage",
    strategy="seminaive",
)


def _record_stage(
    executor: str,
    stage: int,
    new_delta: dict[str, ConstraintRelation],
    stratum: tuple[str, ...],
    converged: bool,
) -> None:
    """One ``_STAGE`` event; the per-predicate delta sizes are only
    counted while the journal is on."""
    deltas = None
    if _STAGE.journaling:
        deltas = {
            predicate: len(new_delta[predicate].disjuncts())
            for predicate in stratum
        }
    _STAGE(
        amount=0 if converged else 1,
        executor=executor, stage=stage, deltas=deltas,
    )


def _recursive_positions(rule: Rule, members: set[str]) -> list[int]:
    """Body positions whose predicate belongs to the current stratum."""
    return [
        position
        for position, atom in enumerate(rule.body)
        if atom.predicate in members
    ]


def evaluate_program_seminaive(
    program: Program,
    database: ConstraintDatabase,
    max_stages: int = 25,
) -> EvaluationOutcome:
    """Stratified semi-naive iteration; same answers as the naive engine.

    Outcome shape matches :func:`repro.datalog.engine.evaluate_program`
    with ``strategy="naive"``: ``stages`` counts the stages that changed
    something, ``stage_sizes`` records the accumulated representation
    size per stage, and hitting ``max_stages`` with a non-empty delta
    reports divergence.
    """
    program.validate(database)
    _DATALOG_RUNS.inc()
    _SEMINAIVE_RUNS.inc()
    idb: dict[str, ConstraintRelation] = {}
    for predicate in program.idb_predicates():
        arity = program.arity_of(predicate)
        schema = tuple(f"v{i}" for i in range(arity))
        idb[predicate] = ConstraintRelation.empty(schema)

    sizes: list[int] = []
    total_stages = 0
    with TRACER.span("datalog.run") as run_span:
        run_span.set("strategy", "seminaive")
        run_span.set("executor", "interpreted")
        for stratum in program.strata():
            members = set(stratum)
            rules_of = {
                predicate: [
                    rule
                    for rule in program.rules
                    if rule.head.predicate == predicate
                ]
                for predicate in stratum
            }
            delta: dict[str, ConstraintRelation] | None = None
            for stage in range(1, max_stages + 1):
                with TRACER.span("datalog.stage", aggregate=True):
                    new_delta: dict[str, ConstraintRelation] = {}
                    for predicate in stratum:
                        current = idb[predicate]
                        derived: list[ConstraintRelation] = []
                        for rule in rules_of[predicate]:
                            recursive = _recursive_positions(rule, members)
                            if delta is None:
                                # First stage: every rule fires in full.
                                derived.append(
                                    _rule_once(
                                        rule, database, idb
                                    ).rename_to(current.variables)
                                )
                                continue
                            # Later stages: one firing per recursive
                            # occurrence, that occurrence bound to the
                            # last delta.  Rules without recursive
                            # occurrences can derive nothing new.
                            for position in recursive:
                                body_delta = delta[
                                    rule.body[position].predicate
                                ]
                                if body_delta.is_empty():
                                    continue
                                sources: list[ConstraintRelation | None]
                                sources = [None] * len(rule.body)
                                sources[position] = body_delta
                                derived.append(
                                    _rule_once(
                                        rule,
                                        database,
                                        idb,
                                        body_sources=sources,
                                    ).rename_to(current.variables)
                                )
                        if derived:
                            fresh = (
                                union_relations(derived)
                                .difference(current)
                                .simplify()
                            )
                        else:
                            fresh = ConstraintRelation.empty(
                                current.variables
                            )
                        new_delta[predicate] = fresh
                        _DELTA_DISJUNCTS.inc(len(fresh.disjuncts()))
                    # Apply all deltas after the derivation sweep, so
                    # every rule in a stage reads the previous stage
                    # (matching the naive engine's synchronous update);
                    # empty deltas leave the accumulator object — and
                    # its cached canonical form — untouched.
                    for predicate in stratum:
                        fresh = new_delta[predicate]
                        if not fresh.is_empty():
                            idb[predicate] = union_relations(
                                [idb[predicate], fresh]
                            ).simplify()
                    sizes.append(
                        sum(
                            idb[p].representation_size()
                            for p in stratum
                        )
                    )
                    delta = new_delta
                    converged_now = all(
                        fresh.is_empty() for fresh in new_delta.values()
                    )
                    _record_stage(
                        "interpreted", stage, new_delta, stratum, converged_now
                    )
                if converged_now:
                    break
                total_stages += 1
            else:
                run_span.set("stages", total_stages)
                return EvaluationOutcome(idb, total_stages, False, sizes)
        run_span.set("stages", total_stages)
    return EvaluationOutcome(idb, total_stages, True, sizes)
