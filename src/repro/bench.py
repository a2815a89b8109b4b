"""Named before/after benchmarks with JSON records (``repro bench``).

Each runner measures a *baseline* path and the *fast* path of one
subsystem on a ladder of sizes, verifies that both paths produce
identical results (face sign vectors for E2, equivalent IDB relations
for E15 — the speedups must be free), and returns a JSON-ready record.
The CLI writes the record to ``BENCH_E2.json`` / ``BENCH_E15.json`` at
the repository root so the performance trajectory is versioned next to
the code; CI re-runs small sizes with ``--check-only`` to guard the
equivalences without timing noise.

* **E2 (arrangement scaling)** — the naive sign-vector DFS (no witness
  reuse, no system dedup) against the fast path of
  :func:`repro.arrangement.builder.build_arrangement`; with ``jobs > 1``
  the fast path also fans subtrees out to worker processes.
* **E3 (LP filter microbench)** — exact rational feasibility against the
  certified float filter of :mod:`repro.geometry.fastlp` on batches of
  seeded random strict/non-strict systems; both tiers must agree on
  every status and every returned witness must satisfy its system
  exactly.
* **E15 (spatial datalog)** — the interpreted rule-at-a-time semi-naive
  engine against the compiled relational-algebra executor
  (:mod:`repro.ir`) on the unit-step reachability program over growing
  interval chains; equivalence is byte-identity of every stage relation.

Every record carries a ``metadata`` block with the active LP mode, the
resolved worker count, the disk store in effect (directory plus
``store.*`` counter values) and the run's provenance — the repository's
``git_sha`` (``None`` outside a git checkout), the UTC timestamp and
the Python version — so before/after records are self-describing: a
warm-start E2 run shows ``store.hits > 0`` and the CI store job
compares cold/warm records on exactly that.  ``repro bench
--append-history PATH`` additionally appends a one-line JSON summary of
the run to PATH (see :func:`append_history`), building a queryable
performance history across commits.

Only the *fast* paths consult the disk store (the naive baselines exist
to measure construction), so cold-run baseline timings are unaffected
by ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from datetime import datetime, timezone
from typing import Sequence

from repro.geometry import fastlp
from repro.obs.metrics import get_registry
from repro.store import pin_store


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def _git_sha() -> str | None:
    """The checkout's HEAD commit, or ``None`` outside a git repository."""
    import subprocess

    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


#: Metadata keys every BENCH_*.json record must carry (and, except for
#: ``git_sha``, carry with a non-``None`` value).  ``write_record``
#: refuses records that miss any of them, so a record without its
#: executor provenance can never be committed silently.
REQUIRED_METADATA = (
    "lp_mode",
    "jobs",
    "executor",
    "git_sha",
    "timestamp_utc",
    "python_version",
)


def _metadata(jobs: int) -> dict:
    """The self-description block shared by every BENCH_*.json record.

    Computed after the measurements, so the ``store`` block reflects the
    hits/misses/writes this run performed against the active cache
    directory (``None`` when persistence is off).  Every knob comes from
    one resolved config, so the top-level ``lp_mode``/``jobs``/
    ``executor`` always agree with the ``config`` block.
    """
    from repro.config import EngineConfig

    config = EngineConfig.resolve(jobs=jobs)
    store = config.store()
    return {
        "lp_mode": config.lp_mode,
        "jobs": config.jobs,
        "executor": config.executor,
        "optimizer": config.optimizer,
        "config": config.describe(),
        "cache_dir": str(store.root) if store is not None else None,
        "store": store.stats() if store is not None else None,
        "git_sha": _git_sha(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python_version": platform.python_version(),
    }


def run_bench_e2(
    sizes: Sequence[int] = (4, 6, 8, 10),
    jobs: int | None = None,
    check_only: bool = False,
) -> dict:
    """Arrangement construction: naive DFS vs witness-reuse fast path.

    ``check_only`` skips nothing but timing *assertions* are left to the
    caller either way; every run verifies that both paths enumerate the
    identical face list.  The feasibility memo is cleared before each
    measurement so timings are hermetic.
    """
    from repro.arrangement.builder import build_arrangement
    from repro.arrangement.parallel import resolve_jobs
    from repro.geometry.hyperplane import Hyperplane
    from repro.geometry.simplex import clear_feasibility_cache

    registry = get_registry()
    effective_jobs = resolve_jobs(jobs)
    results = []
    for n in sizes:
        planes = [
            Hyperplane.make([2 * i, -1], i * i) for i in range(1, n + 1)
        ]
        clear_feasibility_cache()
        baseline, baseline_s = _timed(
            build_arrangement,
            hyperplanes=planes,
            dimension=2,
            witness_reuse=False,
            dedup=False,
            parallel=1,
        )
        clear_feasibility_cache()
        skipped_before = registry.get("arrangement.lp_skipped")
        fast, fast_s = _timed(
            build_arrangement,
            hyperplanes=planes,
            dimension=2,
            parallel=effective_jobs,
        )
        lp_skipped = registry.get("arrangement.lp_skipped") - skipped_before
        match = [f.signs for f in baseline.faces] == [
            f.signs for f in fast.faces
        ]
        results.append(
            {
                "n": n,
                "faces": len(fast),
                "baseline_s": round(baseline_s, 4),
                "fast_s": round(fast_s, 4),
                "speedup": round(baseline_s / fast_s, 2)
                if fast_s > 0
                else None,
                "lp_skipped": lp_skipped,
                "match": match,
            }
        )
    largest = results[-1] if results else None
    return {
        "benchmark": "E2",
        "subject": "arrangement construction (Theorem 3.1 DFS)",
        "baseline": "sign-vector DFS, LP solve per child branch",
        "fast": "witness-reuse pruning + derived witnesses + system dedup"
        + (f" + {effective_jobs} worker processes"
           if effective_jobs > 1 else ""),
        "jobs": effective_jobs,
        "metadata": _metadata(effective_jobs),
        "check_only": check_only,
        "sizes": list(sizes),
        "results": results,
        "all_match": all(row["match"] for row in results),
        "largest_speedup": largest["speedup"] if largest else None,
    }


def run_bench_e3(
    sizes: Sequence[int] = (100, 200, 400),
    seed: int = 20260806,
    check_only: bool = False,
) -> dict:
    """LP feasibility: exact rational simplex vs the certified filter.

    Each size is a batch of seeded random mixed strict/non-strict
    systems in two and three variables (equality rows, duplicated and
    near-parallel rows included), solved once per tier with a cold
    feasibility memo.  Equivalence is exact: identical feasibility
    statuses, and each filtered witness substituted into its system with
    rational arithmetic.
    """
    import random

    from repro.geometry.simplex import (
        clear_feasibility_cache,
        strict_feasible_point,
    )

    registry = get_registry()
    results = []
    for count in sizes:
        rng = random.Random(seed + count)
        systems = [
            _random_lp_system(rng, rng.choice((2, 2, 3)))
            for __ in range(count)
        ]
        with fastlp.lp_mode("exact"):
            clear_feasibility_cache()
            exact_points, exact_s = _timed(
                lambda: [
                    strict_feasible_point(rows, dim) for rows, dim in systems
                ]
            )
        hits_before = registry.get("lp.filter_hits")
        fallbacks_before = registry.get("lp.filter_fallbacks")
        failures_before = registry.get("lp.certify_failures")
        with fastlp.lp_mode("filtered"):
            clear_feasibility_cache()
            filtered_points, filtered_s = _timed(
                lambda: [
                    strict_feasible_point(rows, dim) for rows, dim in systems
                ]
            )
        match = all(
            (exact is None) == (filtered is None)
            and (
                filtered is None
                or all(row.satisfied_by(filtered) for row in rows)
            )
            for (rows, __), exact, filtered in zip(
                systems, exact_points, filtered_points
            )
        )
        results.append(
            {
                "systems": count,
                "baseline_s": round(exact_s, 4),
                "fast_s": round(filtered_s, 4),
                "speedup": round(exact_s / filtered_s, 2)
                if filtered_s > 0
                else None,
                "solves_per_s": round(count / filtered_s, 1)
                if filtered_s > 0
                else None,
                "filter_hits": registry.get("lp.filter_hits") - hits_before,
                "filter_fallbacks": registry.get("lp.filter_fallbacks")
                - fallbacks_before,
                "certify_failures": registry.get("lp.certify_failures")
                - failures_before,
                "match": match,
            }
        )
    largest = results[-1] if results else None
    return {
        "benchmark": "E3",
        "subject": "LP feasibility (strict_feasible_point microbench)",
        "baseline": "exact rational ε-simplex (lp_mode=exact)",
        "fast": "certified float filter with exact fallback "
        "(lp_mode=filtered)",
        "seed": seed,
        "metadata": _metadata(1),
        "check_only": check_only,
        "sizes": list(sizes),
        "results": results,
        "all_match": all(row["match"] for row in results),
        "largest_speedup": largest["speedup"] if largest else None,
    }


def _random_lp_system(rng, dim: int):
    """One seeded random constraint system ``(rows, dim)`` for E3.

    Mirrors the property suite's stress shapes: mixed relations, small
    integer data with occasional fractional right-hand sides, duplicate
    rows and near-parallel perturbations that land inside the filter's
    epsilon band.
    """
    from fractions import Fraction

    from repro.geometry.fourier_motzkin import LinearConstraint, Rel

    n_rows = rng.randint(2, dim + 5)
    rows = []
    for __ in range(n_rows):
        coeffs = tuple(
            Fraction(rng.randint(-5, 5)) for __ in range(dim)
        )
        roll = rng.random()
        if roll < 0.15:
            rel = Rel.EQ
        elif roll < 0.6:
            rel = Rel.LT
        else:
            rel = Rel.LE
        rhs = Fraction(rng.randint(-10, 10), rng.choice((1, 1, 1, 2, 3)))
        rows.append(LinearConstraint(coeffs, rel, rhs))
    if rng.random() < 0.3:
        base = rows[rng.randrange(len(rows))]
        rows.append(base)
    if rng.random() < 0.3:
        base = rows[rng.randrange(len(rows))]
        nudged = tuple(
            c + Fraction(1, 10**9) if index == 0 else c
            for index, c in enumerate(base.coeffs)
        )
        rows.append(LinearConstraint(nudged, base.rel, base.rhs))
    return rows, dim


#: The compiled executor must beat the interpreted semi-naive engine by
#: at least this factor on E15 chains of k >= _E15_TARGET_K.
_E15_TARGET_SPEEDUP = 5.0
_E15_TARGET_K = 32


def run_bench_e15(
    sizes: Sequence[int] = (16, 32, 64),
    check_only: bool = False,
    executor: str | None = None,
) -> dict:
    """Spatial datalog: interpreted vs compiled semi-naive executors.

    Both sides run the same semi-naive delta iteration on the unit-step
    reachability program over growing interval chains; the fast side
    routes every stage through the compiled relational-algebra IR and
    its memoised kernels (:mod:`repro.ir`).  ``match`` demands
    *byte-identical* output — equal stage counts, equal per-stage
    accumulated sizes and structurally identical result formulas — so
    the speedup is certified free.  The process-wide feasibility memo is
    cleared before every measurement to keep timings hermetic (the
    compiled executor's own memos live in its per-run
    :class:`~repro.ir.kernels.KernelCache`, so the interpreted baseline
    never borrows them).

    ``executor`` overrides the fast side's executor (debugging aid; the
    default compares ``interpreted`` against ``compiled``).  Rows at
    ``k >= 32`` also record whether the >=5x target of the compiled
    executor holds (``meets_target``; ignored under ``check_only``).
    """
    from repro.config import resolve_executor
    from repro.datalog import evaluate_program
    from repro.datalog.parser import parse_program
    from repro.geometry.simplex import clear_feasibility_cache
    from repro.workloads.generators import interval_chain

    registry = get_registry()
    fast_executor = resolve_executor(executor)
    program = parse_program(
        "Reach(x) :- S(x), x = 0.\n"
        "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
    )
    results = []
    for k in sizes:
        database = interval_chain(k)
        clear_feasibility_cache()
        base_delta_before = registry.get("datalog.delta_disjuncts")
        baseline, baseline_s = _timed(
            evaluate_program,
            program,
            database,
            max_stages=4 * k + 8,
            strategy="seminaive",
            executor="interpreted",
        )
        baseline_deltas = (
            registry.get("datalog.delta_disjuncts") - base_delta_before
        )
        clear_feasibility_cache()
        delta_before = registry.get("datalog.delta_disjuncts")
        fast, fast_s = _timed(
            evaluate_program,
            program,
            database,
            max_stages=4 * k + 8,
            strategy="seminaive",
            executor=fast_executor,
        )
        delta_disjuncts = (
            registry.get("datalog.delta_disjuncts") - delta_before
        )
        identical = (
            fast.stages == baseline.stages
            and fast.converged == baseline.converged
            and fast.stage_sizes == baseline.stage_sizes
            and set(fast.relations) == set(baseline.relations)
            and all(
                fast[p].variables == baseline[p].variables
                and str(fast[p].formula) == str(baseline[p].formula)
                for p in fast.relations
            )
            and delta_disjuncts == baseline_deltas
        )
        speedup = round(baseline_s / fast_s, 2) if fast_s > 0 else None
        row = {
            "k": k,
            "stages": fast.stages,
            "converged": fast.converged and baseline.converged,
            "baseline_s": round(baseline_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": speedup,
            "delta_disjuncts": delta_disjuncts,
            "match": identical,
        }
        if k >= _E15_TARGET_K and not check_only:
            row["meets_target"] = (
                speedup is not None and speedup >= _E15_TARGET_SPEEDUP
            )
        results.append(row)
    largest = results[-1] if results else None
    metadata = _metadata(1)
    metadata["executor_baseline"] = "interpreted"
    metadata["executor_fast"] = fast_executor
    return {
        "benchmark": "E15",
        "subject": "spatial datalog evaluation (unit-step reachability)",
        "baseline": "semi-naive delta iteration, interpreted "
        "rule-at-a-time executor",
        "fast": "semi-naive delta iteration, compiled relational-"
        "algebra IR over memoised kernels",
        "target": {
            "speedup": _E15_TARGET_SPEEDUP,
            "at_k": _E15_TARGET_K,
        },
        "metadata": metadata,
        "check_only": check_only,
        "sizes": list(sizes),
        "results": results,
        "all_match": all(row["match"] for row in results),
        "largest_speedup": largest["speedup"] if largest else None,
    }


#: The cost-based optimizer must win at least this geomean speedup on
#: the E14 suite (the individual wide-scope rows win far more).
_E14_TARGET_GEOMEAN = 1.5

#: The E14 query suite: wide-scope quantifier prefixes that miniscoping
#: collapses, conjunctions/disjunctions where the decisive operand is
#: written last (cost ordering moves it first so the lazy boolean
#:  connective short-circuits), and the E4 connectivity sentence in its
#: "textbook" body order (``adj`` and ``sub`` before the recursive
#: ``M(R, Z)`` guard, which the optimizer moves first).
_E14_QUERIES = (
    (
        "wide-pair",
        "exists x. exists y. (S(x) & S(y) & x < 1)",
    ),
    (
        "wide-triple",
        "exists x. exists y. exists z. (S(x) & S(y) & S(z) & x < 1)",
    ),
    (
        "guarded-and",
        "(forall R. forall Rp. (adj(R, Rp) -> "
        "(exists x. exists y. ((x) in R & (y) in Rp & x <= y)))) "
        "& (exists w. (S(w) & w + 2 < 0))",
    ),
    (
        "guarded-or",
        "(forall R. forall Rp. (adj(R, Rp) -> "
        "(exists x. exists y. ((x) in R & (y) in Rp & x <= y)))) "
        "| (exists w. (S(w) & w >= 0))",
    ),
    (
        "e4-connectivity",
        "forall X. forall Y. ((sub(X, S) & sub(Y, S)) -> "
        "(exists RX. exists RY. (sub(RX, S) & sub(RY, S) & "
        "[lfp M(R, Rp). ((R = Rp & sub(R, S)) | "
        "(exists Z. adj(Z, Rp) & sub(Rp, S) & M(R, Z)))](RX, RY))))",
    ),
)


def run_bench_e14(
    sizes: Sequence[int] = (6, 10),
    check_only: bool = False,
) -> dict:
    """Cost-based optimizer: ablated plans vs cost-ordered plans (E14).

    Every row evaluates one sentence of the :data:`_E14_QUERIES` suite
    on ``interval_chain(k)`` twice with fresh engines — once with
    ``optimizer="off"`` (the ablated oracle) and once with
    ``optimizer="on"`` — and demands the identical truth value
    (``match``); the speedups must be free.  The timed rows run with
    the disk store suppressed so they measure the pure plan-rewrite
    benefit, never result-cache hits.

    A separate *statistics phase* then runs one query twice against a
    temporary store and records that the warm engine's planner consumed
    the statistics the cold engine persisted
    (``optimizer_stats.stats_hits > 0``) — the closed loop of the
    optimizer, demonstrated across engine instances.
    """
    import math
    import tempfile

    from repro.config import EngineConfig
    from repro.engine import QueryEngine
    from repro.geometry.simplex import clear_feasibility_cache
    from repro.logic.parser import parse_query
    from repro.workloads.generators import interval_chain

    registry = get_registry()
    results = []
    # No store for the timed rows: the optimizer-on and -off result keys
    # differ, so a warm store would time cache states, not plans.
    with pin_store(None):
        for k in sizes:
            database = interval_chain(k)
            for name, text in _E14_QUERIES:
                formula = parse_query(text)
                clear_feasibility_cache()
                baseline_engine = QueryEngine(
                    database, config=EngineConfig(optimizer="off")
                )
                baseline, baseline_s = _timed(
                    baseline_engine.evaluate, formula
                )
                clear_feasibility_cache()
                fast_engine = QueryEngine(
                    database, config=EngineConfig(optimizer="on")
                )
                fast, fast_s = _timed(fast_engine.evaluate, formula)
                # Every suite query is a sentence: equivalence is the
                # truth value (the rewritten plan may print differently).
                match = (
                    baseline.arity == 0
                    and fast.arity == 0
                    and baseline.is_empty() == fast.is_empty()
                )
                results.append(
                    {
                        "k": k,
                        "query": name,
                        "answer": not fast.is_empty(),
                        "baseline_s": round(baseline_s, 4),
                        "fast_s": round(fast_s, 4),
                        "speedup": round(baseline_s / fast_s, 2)
                        if fast_s > 0
                        else None,
                        "match": match,
                    }
                )
    speedups = [
        row["speedup"] for row in results if row["speedup"] is not None
    ]
    geomean = (
        round(
            math.exp(
                sum(math.log(s) for s in speedups) / len(speedups)
            ),
            2,
        )
        if speedups
        else None
    )

    # Statistics phase: cold engine persists measurements, warm engine
    # plans from them.  Uses its own temporary store so the phase is
    # hermetic and never pollutes (or borrows from) the user's cache.
    with tempfile.TemporaryDirectory() as tmp:
        stats_db = interval_chain(min(sizes) if sizes else 6)
        stats_formula = parse_query(_E14_QUERIES[0][1])
        cold = QueryEngine(
            stats_db,
            config=EngineConfig.resolve(cache_dir=tmp, optimizer="on"),
        )
        cold.evaluate(stats_formula)
        hits_before = registry.get("optimizer.stats_hits")
        warm = QueryEngine(
            stats_db,
            config=EngineConfig.resolve(cache_dir=tmp, optimizer="on"),
        )
        warm.evaluate(stats_formula)
        warm_hits = registry.get("optimizer.stats_hits") - hits_before
        optimizer_stats = {
            "stats_hits": warm_hits,
            "persisted_nodes": (warm.stats().get("optimizer") or {}).get(
                "persisted_nodes"
            ),
        }

    metadata = _metadata(1)
    metadata["optimizer_stats"] = optimizer_stats
    record = {
        "benchmark": "E14",
        "subject": "cost-based optimizer (plan rewrites + statistics)",
        "baseline": "ablated plans (optimizer=off), source operand order",
        "fast": "NNF + miniscoping, cost-ordered conjuncts/disjuncts, "
        "min-degree quantifier chains (optimizer=on)",
        "target": {"geomean_speedup": _E14_TARGET_GEOMEAN},
        "metadata": metadata,
        "check_only": check_only,
        "sizes": list(sizes),
        "results": results,
        "all_match": all(row["match"] for row in results)
        and optimizer_stats["stats_hits"] > 0,
        "geomean_speedup": geomean,
        "largest_speedup": max(speedups) if speedups else None,
    }
    if not check_only:
        record["meets_target"] = (
            geomean is not None and geomean >= _E14_TARGET_GEOMEAN
        )
    return record


#: Incremental maintenance must beat the full rebuild by at least this
#: factor on single-disjunct updates (the paper-story write: one new
#: fact against a large standing database).
_E16_TARGET_SPEEDUP = 5.0

#: Update size the target applies at.
_E16_TARGET_UPDATE = 1


def _combinatorial_signature(arrangement) -> list:
    """Order-free face identity: (signs, dimension, in_relation) rows.

    Witness points are deliberately excluded — they are path-dependent
    between the batch DFS and the incremental insert/retract walk (see
    :mod:`repro.arrangement.incremental`); every certified field must
    agree exactly.
    """
    return sorted(
        (face.signs, face.dimension, face.in_relation)
        for face in arrangement.faces
    )


def run_bench_e16(
    sizes: Sequence[int] = (1, 4, 16),
    check_only: bool = False,
    k: int | None = None,
) -> dict:
    """Incremental view maintenance vs full rebuild under writes (E16).

    Each row extends an ``interval_chain(k)`` database by ``update``
    new unit segments and answers the E15 unit-step reachability
    program against the post-write version twice:

    * **fast** — the maintenance path: the standing arrangement is
      updated by plane delta
      (:class:`~repro.incremental.MaintainedArrangements`, O(|F|) LP
      calls per inserted plane) and the materialised fixpoint re-runs
      the compiled semi-naive delta plans over warm, interned kernels
      (:class:`~repro.incremental.MaintainedProgram`);
    * **baseline** — the honest oracle: a batch arrangement rebuild
      plus the interpreted full fixpoint evaluation from scratch.

    ``match`` demands byte-identity: equal combinatorial face
    signatures (signs, dimensions, in/out classification — witnesses
    are path-dependent and excluded) and byte-identical fixpoint
    output (stage counts, per-stage sizes, structurally identical
    result formulas).  The warm-up that seeds the maintained state on
    the *pre*-write version is untimed — it models the standing server
    the write arrives at.  ``k`` sizes the standing database (default
    32, or 12 under ``check_only``); the ≥5× target applies to the
    single-segment update rows.
    """
    from repro.arrangement.builder import build_arrangement
    from repro.datalog import evaluate_program
    from repro.datalog.parser import parse_program
    from repro.geometry.simplex import clear_feasibility_cache
    from repro.incremental import (
        MaintainedArrangements,
        MaintainedProgram,
        apply_delta,
        make_delta,
    )
    from repro.workloads.generators import interval_chain

    chain_k = k if k is not None else (12 if check_only else 32)
    program = parse_program(
        "Reach(x) :- S(x), x = 0.\n"
        "Reach(y) :- Reach(x), S(y), y - x <= 1, x - y <= 1.\n"
    )
    results = []
    with pin_store(None):
        for update in sizes:
            base = interval_chain(chain_k)
            max_stages = 4 * (chain_k + update) + 8
            # Untimed warm-up: the standing engine state the write
            # arrives at (base arrangement adopted, base fixpoint
            # materialised with its kernels interned).
            maintained = MaintainedProgram(
                program, base, max_stages=max_stages
            )
            arrangements = MaintainedArrangements()
            old_spatial = base.relation("S")
            arrangements.adopt(
                old_spatial, build_arrangement(old_spatial)
            )
            delta = make_delta(*(
                (
                    "insert",
                    "S",
                    f"({chain_k + i} <= x0 & x0 <= {chain_k + i + 1})",
                )
                for i in range(update)
            ))
            new_db = apply_delta(base, delta)
            new_spatial = new_db.relation("S")

            clear_feasibility_cache()

            def maintain():
                planes = arrangements.update(
                    old_spatial,
                    new_spatial,
                    build_old=lambda: build_arrangement(old_spatial),
                )
                return planes, maintained.apply(new_db)

            (planes, fast_outcome), fast_s = _timed(maintain)
            fast_arr = planes.arrangement
            planes_inserted = planes.inserted

            clear_feasibility_cache()

            def rebuild():
                arrangement = build_arrangement(new_spatial)
                outcome = evaluate_program(
                    program,
                    new_db,
                    max_stages=max_stages,
                    strategy="seminaive",
                    executor="interpreted",
                )
                return arrangement, outcome

            (base_arr, base_outcome), baseline_s = _timed(rebuild)

            identical = (
                fast_arr.hyperplanes == base_arr.hyperplanes
                and _combinatorial_signature(fast_arr)
                == _combinatorial_signature(base_arr)
                and fast_outcome.stages == base_outcome.stages
                and fast_outcome.converged == base_outcome.converged
                and fast_outcome.stage_sizes == base_outcome.stage_sizes
                and set(fast_outcome.relations)
                == set(base_outcome.relations)
                and all(
                    fast_outcome[p].variables
                    == base_outcome[p].variables
                    and str(fast_outcome[p].formula)
                    == str(base_outcome[p].formula)
                    for p in fast_outcome.relations
                )
            )
            speedup = (
                round(baseline_s / fast_s, 2) if fast_s > 0 else None
            )
            row = {
                "update": update,
                "k": chain_k,
                "stages": fast_outcome.stages,
                "converged": (
                    fast_outcome.converged and base_outcome.converged
                ),
                "faces": len(fast_arr.faces),
                "planes_inserted": planes_inserted,
                "baseline_s": round(baseline_s, 4),
                "fast_s": round(fast_s, 4),
                "speedup": speedup,
                "match": identical,
            }
            if update == _E16_TARGET_UPDATE and not check_only:
                row["meets_target"] = (
                    speedup is not None
                    and speedup >= _E16_TARGET_SPEEDUP
                )
            results.append(row)
    speedups = [
        row["speedup"] for row in results if row["speedup"] is not None
    ]
    metadata = _metadata(1)
    metadata["executor_baseline"] = "interpreted"
    metadata["executor_fast"] = "compiled"
    return {
        "benchmark": "E16",
        "subject": "incremental view maintenance under writes "
        "(unit-step reachability)",
        "baseline": "full rebuild: batch arrangement construction + "
        "interpreted semi-naive fixpoint from scratch",
        "fast": "maintenance: plane-delta arrangement update + "
        "compiled semi-naive re-run over warm interned kernels",
        "target": {
            "speedup": _E16_TARGET_SPEEDUP,
            "at_update": _E16_TARGET_UPDATE,
        },
        "metadata": metadata,
        "check_only": check_only,
        "sizes": list(sizes),
        "k": chain_k,
        "results": results,
        "all_match": all(row["match"] for row in results),
        "largest_speedup": max(speedups) if speedups else None,
    }


BENCHMARKS = {
    "e2": (run_bench_e2, "BENCH_E2.json"),
    "e3": (run_bench_e3, "BENCH_E3.json"),
    "e14": (run_bench_e14, "BENCH_E14.json"),
    "e15": (run_bench_e15, "BENCH_E15.json"),
    "e16": (run_bench_e16, "BENCH_E16.json"),
}


def write_record(record: dict, path: str) -> None:
    """Write a benchmark record, refusing under-described metadata.

    Every record must carry the :data:`REQUIRED_METADATA` keys (with a
    value, except ``git_sha`` which is legitimately ``None`` outside a
    git checkout) so committed BENCH_*.json files always state the
    lp_mode/jobs/executor provenance of their numbers.
    """
    metadata = record.get("metadata")
    if not isinstance(metadata, dict):
        raise ValueError("benchmark record has no metadata block")
    missing = [key for key in REQUIRED_METADATA if key not in metadata]
    unset = [
        key
        for key in REQUIRED_METADATA
        if key != "git_sha" and metadata.get(key, None) is None
    ]
    if missing or unset:
        raise ValueError(
            "refusing to write benchmark record: missing metadata keys "
            f"{sorted(set(missing + unset))}"
        )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def history_line(record: dict) -> dict:
    """The one-line summary of a benchmark record for the history log."""
    metadata = record.get("metadata") or {}
    return {
        "benchmark": record.get("benchmark"),
        "timestamp_utc": metadata.get("timestamp_utc"),
        "git_sha": metadata.get("git_sha"),
        "python_version": metadata.get("python_version"),
        "lp_mode": metadata.get("lp_mode"),
        "jobs": metadata.get("jobs"),
        "executor": metadata.get("executor"),
        "sizes": record.get("sizes"),
        "all_match": record.get("all_match"),
        "largest_speedup": record.get("largest_speedup"),
        "fast_total_s": _timing_signal(record),
    }


def _timing_signal(record: dict) -> float | None:
    """Total fast-path seconds across a record's result rows.

    The regression sentry's comparison scalar: the sum of ``fast_s``
    over every size, which every benchmark family reports.  ``None``
    when the record carries no timed rows (nothing to compare).
    """
    rows = record.get("results") or []
    timings = [
        row["fast_s"]
        for row in rows
        if isinstance(row, dict) and isinstance(row.get("fast_s"), (int, float))
    ]
    if not timings:
        return None
    return round(sum(timings), 4)


def append_history(record: dict, path: str) -> None:
    """Append a record's :func:`history_line` to a JSON Lines file.

    One compact line per run (``repro bench --append-history``), so the
    performance trajectory across commits stays greppable and
    machine-readable without storing every full record.
    """
    with open(path, "a") as handle:
        handle.write(
            json.dumps(history_line(record), separators=(",", ":"))
        )
        handle.write("\n")


#: Defaults of the regression sentry (``repro bench --check-regression``).
REGRESSION_WINDOW = 5
REGRESSION_TOLERANCE = 0.25


def load_history(path: str) -> list[dict]:
    """Parse a history JSONL file; unparseable lines are skipped."""
    lines: list[dict] = []
    try:
        with open(path) as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    lines.append(json.loads(raw))
                except json.JSONDecodeError:
                    continue
    except FileNotFoundError:
        return []
    return lines


def check_regression(
    record: dict,
    history_path: str,
    window: int = REGRESSION_WINDOW,
    tolerance: float = REGRESSION_TOLERANCE,
) -> dict:
    """Compare a fresh record's timing against its recent history.

    The comparison scalar is :func:`_timing_signal` (total fast-path
    seconds).  History lines count only when they describe the *same*
    experiment — benchmark, sizes, lp_mode, jobs and executor all equal
    — so a knob change never masquerades as a slowdown.  The verdict is
    the ratio of the fresh timing to the **median of the last
    ``window`` matching lines**: medians shrug off one noisy CI run
    where a mean would not.

    Returns a verdict dict whose ``status`` is ``"regression"`` (ratio
    above ``1 + tolerance``), ``"ok"``, ``"no-history"`` (nothing
    comparable recorded yet) or ``"no-signal"`` (the record has no
    timed rows).  The CLI exits nonzero only on ``"regression"``.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    current = _timing_signal(record)
    metadata = record.get("metadata") or {}
    verdict: dict = {
        "benchmark": record.get("benchmark"),
        "history": str(history_path),
        "window": window,
        "tolerance": tolerance,
        "current_s": current,
    }
    if current is None:
        verdict["status"] = "no-signal"
        return verdict
    key = {
        "benchmark": record.get("benchmark"),
        "sizes": record.get("sizes"),
        "lp_mode": metadata.get("lp_mode"),
        "jobs": metadata.get("jobs"),
        "executor": metadata.get("executor"),
    }
    matching = [
        line
        for line in load_history(history_path)
        if isinstance(line.get("fast_total_s"), (int, float))
        and all(line.get(field) == value for field, value in key.items())
    ]
    if not matching:
        verdict["status"] = "no-history"
        verdict["samples"] = 0
        return verdict
    recent = matching[-window:]
    timings = sorted(line["fast_total_s"] for line in recent)
    middle = len(timings) // 2
    if len(timings) % 2:
        median = timings[middle]
    else:
        median = (timings[middle - 1] + timings[middle]) / 2
    ratio = current / median if median > 0 else float("inf")
    verdict.update(
        samples=len(recent),
        median_s=round(median, 4),
        ratio=round(ratio, 3),
        status="regression" if ratio > 1 + tolerance else "ok",
    )
    return verdict
