"""Parallel builds report the same counters as sequential builds.

Workers measure the registry delta of their subtree enumeration —
counters and histograms — and ship it home with the face batch; the
parent merges every delta into its registry.  With the seeded enumerator no longer re-counting its
seed node, a parallel build's ``lp.solves`` / ``arrangement.dfs_nodes``
totals equal the sequential build's exactly — the satellite contract of
``repro query --jobs N``.

The hyperplanes used here have nonzero coefficients on every variable,
so each candidate LP system is variable-connected (a single component):
the per-component feasibility memo then never shares work across DFS
subtrees, which makes the sequential and parallel solve counts exactly
comparable.
"""

import pytest

from repro.arrangement.builder import build_arrangement
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.simplex import clear_feasibility_cache
from repro.obs import reset_all
from repro.obs.journal import JOURNAL
from repro.obs.metrics import get_registry, metrics_snapshot

PLANES = [
    Hyperplane.make([2 * i + 1, -1], i * i) for i in range(6)
]

WATCHED = (
    "lp.solves",
    "arrangement.dfs_nodes",
    "arrangement.faces",
)


@pytest.fixture(autouse=True)
def _clean_slate():
    reset_all()
    clear_feasibility_cache()
    yield
    reset_all()
    clear_feasibility_cache()


def build(jobs: int):
    clear_feasibility_cache()
    reset_all()
    arrangement = build_arrangement(
        hyperplanes=PLANES, dimension=2, parallel=jobs
    )
    snapshot = metrics_snapshot()
    return arrangement, snapshot


def histogram_counts() -> dict:
    return {
        (series.name, series.labels): series.count
        for series in get_registry().histograms()
        if series.count
    }


class TestParallelCounterMerge:
    def test_sequential_equals_parallel(self):
        sequential, seq_counts = build(1)
        seq_histograms = histogram_counts()
        parallel, par_counts = build(4)
        par_histograms = histogram_counts()
        assert parallel.faces == sequential.faces
        if par_counts.get("arrangement.parallel_fallbacks"):
            pytest.skip("no worker processes available in this sandbox")
        for name in WATCHED:
            assert par_counts.get(name, 0) == seq_counts.get(name, 0), name
        # Histograms travel home with the counters: every family counts
        # the same observations at jobs 1 and 4.
        assert seq_histograms[("lp.solve_seconds", ())] \
            == seq_counts["lp.solves"]
        assert par_histograms == seq_histograms

    def test_fallback_also_matches_sequential(self, monkeypatch):
        """Pool creation failing must not skew the counters either."""
        import concurrent.futures

        __, seq_counts = build(1)

        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", broken_pool
        )
        fallback, fb_counts = build(4)
        assert fb_counts["arrangement.parallel_fallbacks"] == 1
        for name in WATCHED:
            assert fb_counts.get(name, 0) == seq_counts.get(name, 0), name

    def test_worker_journal_events(self):
        clear_feasibility_cache()
        reset_all()
        JOURNAL.start()
        build_arrangement(hyperplanes=PLANES, dimension=2, parallel=4)
        events = JOURNAL.stop()
        snapshot = metrics_snapshot()
        if snapshot.get("arrangement.parallel_fallbacks"):
            pytest.skip("no worker processes available in this sandbox")
        spawns = [e for e in events if e["type"] == "worker.spawn"]
        merges = [e for e in events if e["type"] == "worker.merge"]
        assert len(spawns) == 1
        assert spawns[0]["jobs"] == 4
        assert spawns[0]["subtrees"] == len(merges)
        # The merged deltas cover the workers' share of the DFS.
        merged_nodes = sum(
            e["counters"].get("arrangement.dfs_nodes", 0) for e in merges
        )
        assert 0 < merged_nodes <= snapshot["arrangement.dfs_nodes"]


class TestEngineJobsParity:
    def test_query_jobs_reports_sequential_counters(self, tmp_path):
        """`repro query --jobs 4` == `--jobs 1` on the watched counters."""
        from repro.constraints.database import ConstraintDatabase
        from repro.constraints.parser import parse_formula
        from repro.constraints.relation import ConstraintRelation
        from repro.config import EngineConfig
        from repro.engine import QueryEngine, default_cache

        def fresh_db():
            # Full-support coefficients keep every LP system connected.
            return ConstraintDatabase.make({
                "S": ConstraintRelation.make(
                    ("x0", "x1"),
                    parse_formula(
                        "(x0 + x1 > 0 & x0 - x1 < 2) | "
                        "(2 * x0 + x1 < -1 & x0 - 3 * x1 > 1)"
                    ),
                )
            })

        def run(jobs):
            default_cache().invalidate()
            clear_feasibility_cache()
            reset_all()
            engine = QueryEngine(
                fresh_db(), config=EngineConfig.resolve(jobs=jobs)
            )
            engine.evaluate("exists x0. exists x1. S(x0, x1)")
            return metrics_snapshot()

        seq = run(1)
        par = run(4)
        if par.get("arrangement.parallel_fallbacks"):
            pytest.skip("no worker processes available in this sandbox")
        assert par["lp.solves"] == seq["lp.solves"]
        assert par["arrangement.dfs_nodes"] == seq["arrangement.dfs_nodes"]
