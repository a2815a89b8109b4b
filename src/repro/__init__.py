"""repro — fixed-point query languages for linear constraint databases.

A faithful, executable reproduction of S. Kreutzer, *Fixed-Point Query
Languages for Linear Constraint Databases* (PODS 2000): linear
constraint databases over (R, <, +), hyperplane arrangements, two-sorted
region extensions, and the query languages RegFO, RegLFP, RegIFP,
RegPFP, RegTC and RegDTC, evaluated exactly over the rationals.

Quickstart::

    from repro import ConstraintDatabase, QueryEngine, parse_formula

    db = ConstraintDatabase.from_formula(
        parse_formula("(0 < x0 & x0 < 1) | (2 < x0 & x0 < 3)"), arity=1
    )
    connected = QueryEngine(db).truth(
        "forall a, b. (S(a) & S(b)) -> (exists RX, RY. (a) in RX & "
        "(b) in RY & [lfp M(R, Rp). ((R = Rp & sub(R, S)) | (exists Z. "
        "M(R, Z) & adj(Z, Rp) & sub(Rp, S)))](RX, RY))"
    )
    assert not connected  # two separated intervals

See DESIGN.md for the architecture and EXPERIMENTS.md for the
reproduction of every construction and theorem in the paper.
"""

from repro.constraints.database import ConstraintDatabase, default_schema
from repro.constraints.parser import parse_formula, parse_term
from repro.constraints.relation import ConstraintRelation
from repro.constraints.terms import LinearTerm
from repro.arrangement.builder import Arrangement, build_arrangement
from repro.arrangement.incidence import IncidenceGraph
from repro.config import EngineConfig
from repro.engine import (
    EngineCache,
    QueryEngine,
    database_fingerprint,
    default_cache,
)
from repro.explain import (
    ExplainResult,
    PlanNode,
    explain_datalog,
    explain_query,
)
from repro.obs import (
    JOURNAL,
    MetricsRegistry,
    Span,
    TRACER,
    get_registry,
    journal_scope,
    replay,
    reset_all,
)
from repro.regions.arrangement_regions import ArrangementDecomposition
from repro.regions.nc1 import NC1Decomposition
from repro.twosorted.structure import RegionExtension
from repro.logic.evaluator import Evaluator
from repro.logic.parser import parse_query
from repro.logic.properties import has_small_coordinate_property

__version__ = "1.1.0"

__all__ = [
    "ConstraintDatabase",
    "default_schema",
    "parse_formula",
    "parse_term",
    "ConstraintRelation",
    "LinearTerm",
    "Arrangement",
    "build_arrangement",
    "IncidenceGraph",
    "ArrangementDecomposition",
    "NC1Decomposition",
    "RegionExtension",
    "Evaluator",
    "QueryEngine",
    "EngineCache",
    "EngineConfig",
    "database_fingerprint",
    "default_cache",
    "MetricsRegistry",
    "Span",
    "TRACER",
    "JOURNAL",
    "get_registry",
    "journal_scope",
    "replay",
    "reset_all",
    "ExplainResult",
    "PlanNode",
    "explain_query",
    "explain_datalog",
    "parse_query",
    "has_small_coordinate_property",
    "__version__",
]
