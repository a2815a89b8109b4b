"""Ground fixpoint compilation.

Two executor paths exist for a RegLFP induction — the interpreted
per-candidate loop and the compiled boolean-skeleton closures of
:mod:`repro.ir.ground`.  Both share the same fixpoint driver, journal
wrapper and stage counter, so they must agree not just on truth values
but on the exact stage-set sequence.  These tests pin that down
directly at the :meth:`Evaluator.fixpoint_run` level.
"""

import dataclasses

from repro.constraints.database import ConstraintDatabase
from repro.constraints.parser import parse_formula
from repro.ir.ground import compile_fixpoint_step
from repro.logic import ast
from repro.logic.evaluator import Evaluator
from repro.logic.parser import parse_query
from repro.obs.journal import JOURNAL
from repro.twosorted.structure import RegionExtension


def db(text: str, arity: int = 1) -> ConstraintDatabase:
    return ConstraintDatabase.from_formula(parse_formula(text), arity)


INTERVAL = db("0 < x0 & x0 < 1")
TWO_INTERVALS = db("(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)")
TOUCHING = db("(0 < x0 & x0 < 1) | (1 <= x0 & x0 < 2)")

CONN_1D = (
    "forall x1, x2. (S(x1) & S(x2)) -> "
    "(exists RX, RY. (x1) in RX & (x2) in RY & "
    "[lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
    "(exists Z. M(R, Z) & adj(Z, Rp) & sub(Rp, S)))](RX, RY))"
)


def find_fixpoint(node):
    """The first :class:`ast.Fixpoint` in a parsed query, depth-first."""
    if isinstance(node, ast.Fixpoint):
        return node
    if not dataclasses.is_dataclass(node):
        return None
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if isinstance(item, ast.RegFormula):
                found = find_fixpoint(item)
                if found is not None:
                    return found
    return None


def evaluators(database):
    """(interpreted, compiled) over one extension."""
    extension = RegionExtension.build(database)
    return (
        Evaluator(extension, executor="interpreted"),
        Evaluator(extension, executor="compiled"),
    )


class TestExecutorEquivalence:
    def test_conn1d_truth_and_stages_agree(self):
        expected = {
            "INTERVAL": True,
            "TWO_INTERVALS": False,
            "TOUCHING": True,
        }
        for name, database in (
            ("INTERVAL", INTERVAL),
            ("TWO_INTERVALS", TWO_INTERVALS),
            ("TOUCHING", TOUCHING),
        ):
            query = parse_query(CONN_1D)
            interpreted, compiled = evaluators(database)
            truths = [ev.truth(query) for ev in (interpreted, compiled)]
            assert truths == [expected[name]] * 2, name
            stages = [
                ev.metrics.get("fixpoint_stages")
                for ev in (interpreted, compiled)
            ]
            assert stages[1] == stages[0], name

    def test_fixpoint_run_sets_identical(self):
        formula = find_fixpoint(parse_query(CONN_1D))
        for database in (INTERVAL, TWO_INTERVALS, TOUCHING):
            runs = [
                ev.fixpoint_run(formula) for ev in evaluators(database)
            ]
            assert runs[1].result == runs[0].result
            assert runs[1].stages == runs[0].stages

    def test_fixpoint_journal_events_identical(self):
        formula = find_fixpoint(parse_query(CONN_1D))
        events = []
        for evaluator in evaluators(TOUCHING):
            JOURNAL.start()
            try:
                evaluator.fixpoint_run(formula)
            finally:
                recorded = JOURNAL.stop()
            events.append([
                {
                    key: value
                    for key, value in event.items()
                    if key in ("operator", "stage", "size", "delta")
                }
                for event in recorded
                if event["type"] == "fixpoint.stage"
            ])
        assert events[0], "expected fixpoint.stage events"
        assert events[1] == events[0]

    def test_out_of_fragment_body_falls_back_silently(self):
        # An element quantifier over the set variable is outside the
        # ground compilation fragment: compile_fixpoint_step must decline
        # and the compiled evaluator must still agree with the oracle.
        query = (
            "exists X. [lfp M(R). sub(R, S) | "
            "(exists x. (x) in R & M(R))](X)"
        )
        formula = find_fixpoint(parse_query(query))
        for database in (INTERVAL, TWO_INTERVALS):
            interpreted, compiled = evaluators(database)
            assert compile_fixpoint_step(formula, compiled, {}) is None
            parsed = parse_query(query)
            assert compiled.truth(parsed) == interpreted.truth(parsed)
