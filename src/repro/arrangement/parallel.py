"""Process-parallel sign-vector enumeration.

The DFS of :func:`repro.arrangement.builder.enumerate_sign_vectors` is
embarrassingly parallel below any fixed depth: the subtrees rooted at
the feasible sign prefixes of the first few hyperplanes are independent.
This module enumerates those prefixes sequentially (cheap — there are at
most ``3^depth``), fans each subtree out to a
:class:`~concurrent.futures.ProcessPoolExecutor` worker, and
concatenates the results in prefix order, which is exactly the order
the sequential DFS would have produced — parallelism never changes the
face list, only who computes it.

Knobs:

* ``parallel=`` on :func:`~repro.arrangement.builder.build_arrangement`
  (and ``jobs=`` on :class:`~repro.engine.QueryEngine`, ``--jobs`` on
  the CLI) selects the worker count explicitly;
* the ``REPRO_JOBS`` environment variable supplies a process-wide
  default when the knob is not given (``1`` = sequential).

When worker processes cannot be created (restricted sandboxes, missing
semaphores) the build falls back to enumerating the same subtree tasks
sequentially in the parent and counts the event in
``arrangement.parallel_fallbacks``.  Workers zero their copy of the
metrics registry before each subtree (fork-started workers inherit the
parent's values, so absolute numbers would double-count), ship its
:meth:`~repro.obs.metrics.MetricsRegistry.state` — counters *and*
histograms such as ``lp.solve_seconds`` — home with the face batch,
and the parent folds every state in through
:meth:`~repro.obs.metrics.MetricsRegistry.merge`.  Workers likewise
export the feasibility-memo entries their subtree added and the parent
folds them into its memo, so the process ends in the same cache state a
sequential build would have produced.  A parallel build therefore
reports the same ``lp.solves`` / ``arrangement.dfs_nodes`` totals and
histogram counts as the sequential build of the same arrangement — and
downstream evaluation keeps matching too, because it warm-starts from
the identical memo.  The
journal records one ``worker.spawn`` event per build plus one
``worker.merge`` event per subtree batch.

Disk warm-start (:mod:`repro.store`) composes with parallelism in the
parent: :func:`~repro.arrangement.builder.build_arrangement` consults
the store *before* any pool is created, so a disk hit skips worker
startup entirely, and a miss persists the (order-identical) parallel
result for the next process.  Workers inherit ``REPRO_CACHE_DIR``
through the environment like every subprocess, but they only enumerate
sign vectors — they never read or write the store themselves.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.geometry import fastlp
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.linalg import Vector
from repro.obs.metrics import get_registry
from repro.obs.site import Site

from repro.arrangement.faces import SignVector

_PARALLEL_BUILDS = get_registry().counter("arrangement.parallel_builds")
_PARALLEL_SUBTREES = get_registry().counter("arrangement.parallel_subtrees")
_PARALLEL_FALLBACKS = get_registry().counter(
    "arrangement.parallel_fallbacks"
)
#: Journal records of a build's fan-out and of each batch folded home.
_SPAWN = Site(journal="worker.spawn")
_MERGE = Site(journal="worker.merge")


def resolve_jobs(parallel: int | None) -> int:
    """The effective worker count: explicit knob, else ``REPRO_JOBS``.

    Values below 1 (and unparsable environment values) mean sequential.
    """
    if parallel is not None:
        return max(1, int(parallel))
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _subtree_worker(
    args: tuple[
        tuple[Hyperplane, ...], SignVector, Vector, int, bool, bool, str
    ],
) -> tuple[
    list[tuple[SignVector, Vector]], dict, dict
]:
    """Enumerate one sign-vector subtree (runs in a worker process).

    Returns the subtree's faces, the counters and histograms the
    enumeration recorded in this process, and the feasibility-memo
    entries it added.  The registry is zeroed first: fork-started
    workers inherit the parent's values, so only what accrues after the
    reset is the subtree's own work — and likewise only memo entries
    beyond the inherited key set are the subtree's own solves.  Gauges
    are this process's levels, not work, so they stay home.
    """
    (
        hyperplanes,
        prefix,
        witness,
        dimension,
        witness_reuse,
        dedup,
        lp_mode,
    ) = args
    from repro.arrangement.builder import enumerate_sign_vectors
    from repro.geometry.simplex import (
        export_feasibility_entries,
        snapshot_feasibility_keys,
    )

    # The parent resolved its LP mode (knob, context manager or
    # environment) at submit time; pin the worker to the same tier so
    # spawn-based pools behave like fork-based ones.
    fastlp.set_lp_mode(lp_mode)
    registry = get_registry()
    registry.reset()
    inherited = snapshot_feasibility_keys()
    pairs = list(
        enumerate_sign_vectors(
            hyperplanes,
            dimension,
            witness_reuse=witness_reuse,
            dedup=dedup,
            prefix=prefix,
            prefix_witness=witness,
        )
    )
    work = registry.state()
    del work["gauges"]
    return pairs, work, export_feasibility_entries(inherited)


def _split_depth(n_planes: int, jobs: int) -> int:
    """DFS depth below which subtrees are distributed to workers."""
    depth = 1
    while 3 ** depth < 2 * jobs and depth < n_planes - 1:
        depth += 1
    return min(depth, n_planes - 1)


def enumerate_parallel(
    hyperplanes: Sequence[Hyperplane],
    dimension: int,
    jobs: int,
    witness_reuse: bool = True,
    dedup: bool = True,
) -> list[tuple[SignVector, Vector]]:
    """All feasible sign vectors, computed by a process pool.

    Deterministic: the concatenation over subtree prefixes in DFS order
    reproduces the sequential enumeration order exactly.  Falls back to
    the sequential enumerator when the pool cannot be created.
    """
    from repro.arrangement.builder import enumerate_sign_vectors

    planes = tuple(hyperplanes)
    depth = _split_depth(len(planes), jobs)
    prefixes = list(
        enumerate_sign_vectors(
            planes[:depth],
            dimension,
            witness_reuse=witness_reuse,
            dedup=dedup,
        )
    )
    active_mode = fastlp.get_lp_mode()
    tasks = [
        (planes, signs, witness, dimension, witness_reuse, dedup, active_mode)
        for signs, witness in prefixes
    ]
    _SPAWN(jobs=jobs, subtrees=len(tasks))
    try:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, max(1, len(tasks)))
        ) as pool:
            chunks = list(pool.map(_subtree_worker, tasks))
    except Exception:
        _PARALLEL_FALLBACKS.inc()
        # Enumerate the same subtree tasks in-process: with seeded
        # enumeration not re-counting its seed node, the fallback
        # reports the same totals a sequential build would.
        results = []
        for signs, witness in prefixes:
            results.extend(
                enumerate_sign_vectors(
                    planes,
                    dimension,
                    witness_reuse=witness_reuse,
                    dedup=dedup,
                    prefix=signs,
                    prefix_witness=witness,
                )
            )
        return results
    from repro.geometry.simplex import merge_feasibility_entries

    _PARALLEL_BUILDS.inc()
    _PARALLEL_SUBTREES.inc(len(tasks))
    results = []
    registry = get_registry()
    for index, (pairs, work, memo_entries) in enumerate(chunks):
        registry.merge(work)
        merge_feasibility_entries(memo_entries)
        _MERGE(worker=index, faces=len(pairs), counters=work["counters"])
        results.extend(pairs)
    return results
