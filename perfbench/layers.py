"""The layers the traced run measures, and how they become metrics.

:data:`TARGETS` names each wrapped public function, the span name its
self time is booked under, and the workload it dominates: a traced run
of that workload fails when the function records no calls (a wrapper
that missed a binding, or a code path that moved).

:data:`MOVES` is the layer → end-to-end mapping: which end-to-end
metric each layer should move, and on which workload.  It is printed
with every traced run.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from typing import Callable

SERVE, COLD, FIXPOINT = "serve-mixed", "cold-2d", "fixpoint-1d"


def _save_name(args, kwargs) -> str:
    kind = args[1] if len(args) > 1 else kwargs.get("kind", "other")
    return f"store.save.{kind}"


def _observe_save(recorder, args, kwargs, path) -> None:
    try:
        recorder.fact("store.bytes_written", path.stat().st_size)
    except OSError:
        pass


def _observe_dnf(recorder, args, kwargs, result) -> None:
    factors = args[0] if args else kwargs["factors"]
    product = 1
    for factor in factors:
        product *= len(factor)
    recorder.fact("dnf.kept", len(result))
    recorder.fact("dnf.product", product)


@dataclass(frozen=True)
class Target:
    name: str
    module: str
    qualname: str
    home: str
    kind: str = "call"
    namer: Callable | None = None
    observe: Callable | None = None
    #: The timed metric the spans are booked under, when not ``name``.
    metric: str | None = None


TARGETS = (
    Target("server.handle", "repro.server.service",
           "ConstraintService.handle", SERVE, kind="root"),
    Target("server.admission_wait", "repro.server.quota",
           "AdmissionController.admit", SERVE, kind="enter"),
    Target("engine.evaluate", "repro.engine", "QueryEngine.evaluate", SERVE),
    Target("engine.apply_delta", "repro.engine",
           "QueryEngine.apply_delta", SERVE),
    Target("optimizer.rewrite", "repro.optimizer.rewrite",
           "rewrite_query", SERVE),
    Target("store.load", "repro.store.disk", "DiskStore.load", SERVE),
    Target("store.save", "repro.store.disk", "DiskStore.save", SERVE,
           namer=_save_name, observe=_observe_save),
    Target("incremental.maintain", "repro.incremental.arrangements",
           "MaintainedArrangements.update", SERVE),
    Target("incremental.lineage", "repro.incremental.lineage",
           "LineageLog.record", SERVE),
    Target("regions.extension_build", "repro.twosorted.structure",
           "RegionExtension.build", COLD),
    Target("regions.sort", "repro.regions.ordering", "sort_regions", COLD),
    Target("regions.is_bounded", "repro.geometry.polyhedron",
           "Polyhedron.is_bounded", COLD),
    Target("arrangement.build", "repro.arrangement.builder",
           "build_arrangement", COLD),
    Target("geometry.solve_lp", "repro.geometry.simplex", "solve_lp", COLD),
    Target("geometry.feasible.strict", "repro.geometry.simplex",
           "strict_feasible_point", COLD, metric="geometry.feasible"),
    Target("geometry.feasible.check", "repro.geometry.simplex", "feasible",
           FIXPOINT, metric="geometry.feasible"),
    Target("geometry.fm", "repro.geometry.fourier_motzkin",
           "eliminate_variable", FIXPOINT),
    Target("constraints.complement", "repro.constraints.relation",
           "ConstraintRelation.complement", FIXPOINT),
    Target("constraints.dnf_product", "repro.constraints.simplify",
           "dnf_product", FIXPOINT, observe=_observe_dnf),
    Target("logic.evaluate", "repro.logic.evaluator", "Evaluator.evaluate",
           FIXPOINT),
    Target("ir.execute", "repro.ir.executor", "execute", FIXPOINT),
    Target("datalog.evaluate", "repro.datalog.engine", "evaluate_program",
           FIXPOINT),
)

#: Counter metrics: registry counter deltas per completed operation.
COUNTS = {
    "server.refused": ("server.rejected.quota", "server.rejected.overload"),
    "incremental.planes_inserted": ("incremental.planes_inserted",),
    "incremental.planes_retracted": ("incremental.planes_retracted",),
    "arrangement.faces": ("arrangement.faces",),
    "arrangement.dfs_nodes": ("arrangement.dfs_nodes",),
    "lp.certify_failures": ("lp.certify_failures",),
    "logic.fixpoint_stages": ("evaluator.fixpoint_stages",),
    "datalog.stages": ("datalog.stages",),
    "datalog.delta_disjuncts": ("datalog.delta_disjuncts",),
}

#: Ratio metrics over the run's counter deltas: hits / (hits + misses).
RATIOS = {
    "engine.extension_hit_ratio": (
        "engine.cache.extension.hits", "engine.cache.extension.misses"),
    "store.hit_ratio": ("store.hits", "store.misses"),
    "lp.filter_hit_ratio": ("lp.filter_hits", "lp.filter_fallbacks"),
}

#: Ratio metrics whose second counter already counts every attempt:
#: hits / attempts.
SHARES = {
    "logic.memo_hit_ratio": ("evaluator.memo_hits", "evaluator.evaluations"),
    "ir.feasibility_memo_hit_ratio": (
        "ir.feasibility_memo_hits", "ir.feasibility_calls"),
}

#: Layer metric -> (end-to-end metrics it should move, workload).  The
#: gated one is ``cpu_per_op_refs``; the wall-clock metrics are printed
#: beside it but not gated (see README.md).
MOVES = {
    "server.*": ("cpu_per_op_refs; op_p50_ms, op_tail_ms", SERVE),
    "engine.*": ("cpu_per_op_refs; op_p50_ms, visible_p50_ms", SERVE),
    "optimizer.*": ("cpu_per_op_refs; op_p50_ms", SERVE),
    "store.*": ("cpu_per_op_refs; op_p50_ms, op_tail_ms, visible_p50_ms",
                SERVE),
    "incremental.*": ("cpu_per_op_refs; visible_p50_ms", SERVE),
    "regions.*": ("cpu_per_op_refs and op_p50_ms on cold-2d; "
                  "visible_p50_ms on serve-mixed; little on fixpoint-1d",
                  COLD),
    "arrangement.*": ("cpu_per_op_refs; op_p50_ms", COLD),
    "geometry.*, lp.*": ("cpu_per_op_refs and op_p50_ms on cold-2d and "
                         "fixpoint-1d; visible_p50_ms on serve-mixed", COLD),
    "constraints.*": ("cpu_per_op_refs; op_p50_ms", FIXPOINT),
    "logic.*": ("cpu_per_op_refs; op_p50_ms", FIXPOINT),
    "ir.*, datalog.*": ("cpu_per_op_refs; op_p50_ms", FIXPOINT),
}

SERVER_MEDIANS = ("server.handle_ms", "server.outside_ms",
                  "server.admission_wait_ms")


@functools.cache
def timed() -> tuple[str, ...]:
    """Names reported as ``<name>_s`` and ``<name>_calls``.

    One per ``call`` target, under its ``metric``; ``store.save`` is
    split by the store's kinds.  Each name also takes the spans named
    ``<name>.<anything>``.
    """
    from repro.store.codec import KINDS

    names: list[str] = []
    for target in TARGETS:
        if target.kind != "call":
            continue
        metric = target.metric or target.name
        if target.namer is _save_name:
            expanded = [f"{metric}.{kind}" for kind in KINDS]
        else:
            expanded = [metric]
        names += [name for name in expanded if name not in names]
    return tuple(names)


def _timed_name(span_name: str) -> str | None:
    """The timed metric a span's self time is booked under."""
    for name in timed():
        if span_name == name or span_name.startswith(name + "."):
            return name
    return None


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = list(SERVER_MEDIANS)
    for name in timed():
        names += [f"{name}_s", f"{name}_calls"]
    names += list(COUNTS) + list(RATIOS) + list(SHARES)
    names += ["store.bytes_written", "arrangement.lp_skipped_ratio",
              "constraints.dnf_kept_ratio", "other_s", "traced_op_s",
              "traced_ops", "trace_overhead_frac"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name == "store.bytes_written":
        return "B/op"
    if name == "traced_ops":
        return "count"
    return "count/op"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    traced: dict,
    facts: list,
    counters: dict[str, int],
    completed_ops: int,
    overhead: float,
    server_samples: dict[str, list[float]] | None = None,
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``traced`` is :func:`spans.self_times` over the traced ops;
    ``counters`` holds registry deltas over the measured window, which
    cover ``completed_ops`` operations; ``overhead``
    comes from :func:`trace_overhead`.  Time metrics are self seconds
    per traced op; the self times, ``other_s`` and (on the server)
    ``server.outside`` sum to ``traced_op_s``.
    """
    ops = max(len(traced), 1)
    totals: dict[str, list] = {}
    other_ns = 0
    wall_ns = 0
    for record in traced.values():
        wall_ns += record["wall_ns"]
        for name, (self_ns, calls) in record["layers"].items():
            if name == record["root"]:
                other_ns += self_ns
                continue
            slot = totals.setdefault(name, [0, 0])
            slot[0] += self_ns
            slot[1] += calls
    metrics: dict[str, float] = {}
    samples = server_samples or {}
    for name in SERVER_MEDIANS:
        values = samples.get(name) or [0.0]
        metrics[name] = statistics.median(values)
    outside_ns = sum(samples.get("server.outside_ns", []))
    booked = {name: [0, 0] for name in timed()}
    for span_name, (span_ns, span_calls) in totals.items():
        name = _timed_name(span_name)
        if name is None:
            # server.admission_wait: reported as a per-request median.
            continue
        slot = booked[name]
        slot[0] += span_ns
        slot[1] += span_calls
    for name, (self_ns, calls) in booked.items():
        metrics[f"{name}_s"] = self_ns / 1e9 / ops
        metrics[f"{name}_calls"] = calls / ops
    per_op = max(completed_ops, 1)
    for name, keys in COUNTS.items():
        metrics[name] = sum(counters.get(key, 0) for key in keys) / per_op
    for name, (hits, misses) in RATIOS.items():
        hit = counters.get(hits, 0)
        metrics[name] = _share(hit, hit + counters.get(misses, 0))
    for name, (hits, attempts) in SHARES.items():
        metrics[name] = _share(counters.get(hits, 0), counters.get(attempts, 0))
    fact_sums: dict[str, float] = {}
    for __, key, value in facts:
        fact_sums[key] = fact_sums.get(key, 0) + value
    metrics["store.bytes_written"] = (
        fact_sums.get("store.bytes_written", 0) / ops
    )
    # Children of a DFS node decided without an LP, against those an
    # LP decided (feasibility LPs whose parent span is the build).
    skipped = counters.get("arrangement.lp_skipped", 0) / per_op
    dfs_lps = sum(
        record["pairs"].get(
            ("arrangement.build", "geometry.feasible.strict"), 0
        )
        for record in traced.values()
    ) / ops
    metrics["arrangement.lp_skipped_ratio"] = _share(
        skipped, skipped + dfs_lps
    )
    metrics["constraints.dnf_kept_ratio"] = _share(
        fact_sums.get("dnf.kept", 0), fact_sums.get("dnf.product", 0)
    )
    metrics["other_s"] = other_ns / 1e9 / ops
    metrics["traced_op_s"] = (wall_ns + outside_ns) / 1e9 / ops
    metrics["traced_ops"] = len(traced)
    metrics["trace_overhead_frac"] = overhead
    return metrics


def trace_overhead(samples: list[tuple[str, float, bool]]) -> float:
    """Tracing overhead from ``(kind, cost, traced)`` op samples.

    The untraced samples come from a run without any wrapper installed,
    the traced ones from a run with the same workload and seed under
    span recording.  A cost is CPU time over the reference piece timed
    beside the same run, so a change in the host's speed between the
    two runs does not show as overhead.  Per kind of op seen in both,
    the median costs are summed on each side, so a mix of cheap and
    dear kinds compares like with like.
    """
    sides: dict[str, list[list[float]]] = {}
    for kind, cost, traced in samples:
        sides.setdefault(kind, [[], []])[traced].append(cost)
    both = [pair for pair in sides.values() if pair[0] and pair[1]]
    if not both:
        return 0.0
    untraced = sum(statistics.median(pair[0]) for pair in both)
    traced = sum(statistics.median(pair[1]) for pair in both)
    return traced / untraced - 1.0


def trace_problems(traced: dict, workload: str) -> list[str]:
    """Why a traced run cannot be trusted; empty when it can.

    * a wrapped function records no call on the workload it dominates
      (a wrapper that missed a binding, or a code path that moved);
    * an op's layer self times plus ``other_s`` miss its wall time;
    * a span is booked under no reported metric.
    """
    seen: set[str] = set()
    for record in traced.values():
        seen.update(record["layers"])
    problems = []
    for target in TARGETS:
        if target.home != workload:
            continue
        if not any(name == target.name or name.startswith(target.name + ".")
                   for name in seen):
            problems.append(
                f"no calls: {target.module}.{target.qualname}"
            )
    problems += [
        f"layers do not sum to wall time in op {op}"
        for op, record in traced.items() if not record["exact"]
    ]
    reported = {target.name for target in TARGETS if target.kind != "call"}
    reported.update(record["root"] for record in traced.values())
    problems += [
        f"span {name} is booked under no metric"
        for name in sorted(seen)
        if name not in reported and _timed_name(name) is None
    ]
    return problems
