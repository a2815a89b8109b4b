"""Persisted execution statistics keyed by plan-node fingerprint.

The optimizer's memory.  Every profiled run of the engine harvests the
:class:`~repro.explain.NodeProfiler` measurements (per-node self wall,
LP solves, faces, fixpoint deltas) and the observed cardinalities
(relation representation sizes, disjunct counts, fastlp filter-hit
rates) into a :class:`Statistics` object, which is merged into the
persisted copy in the :class:`~repro.store.disk.DiskStore` with
exponential decay and written back.  The next run — possibly in a
different process — loads it to order conjuncts and pick elimination
orders.

Numbers are exact :class:`~fractions.Fraction` values so the store
codec round-trips them bit-identically (floats from ``perf_counter``
become exact binary rationals); the decay factor is rational too, so
repeated merges stay exact and deterministic.

Node fingerprints are structural: a SHA-256 over the node's type name
and its printed form.  They are stable across processes and
``PYTHONHASHSEED`` values, and identical sub-formulas share statistics
— which is exactly what a cost model wants.

This module deliberately imports nothing from the rest of the package
(the store codec imports it, and everything else imports the store).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

#: Bump on any change to the statistics payload structure; persisted
#: entries with another version are rejected by the codec (and then
#: quarantined by the disk store) instead of feeding a wrong plan.
STATS_VERSION = 1

#: Exponential decay applied to the persisted numbers on every merge:
#: a node's history is worth 3/4 of its previous weight each run, so
#: stale measurements fade while repeated behaviour dominates.
DECAY = Fraction(3, 4)

#: Persisted statistics keep only the hottest nodes (by total wall) so
#: the store entry stays small no matter how many queries run.
MAX_NODES = 512

def node_fingerprint(node: object) -> str:
    """The stable structural fingerprint of one plan node.

    A pure function of the node's type and printed form — identical on
    every process, interpreter and ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256()
    digest.update(b"stats-node\x00")
    digest.update(type(node).__name__.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(node).encode("utf-8"))
    return digest.hexdigest()


def _fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a statistic")
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact statistic")


@dataclass(frozen=True)
class NodeStats:
    """Accumulated measurements for one plan node.

    ``calls``/``wall`` come from the profiler (self time, children
    excluded); ``size``/``observations`` accumulate observed result
    cardinalities (``representation_size`` and disjunct counts live in
    ``counters``); ``counters`` holds the profiler's counter deltas
    (``lp.solves``, ``arrangement.faces``,
    ``evaluator.fixpoint_stages``, ``lp.filter_hits``, …).
    """

    calls: Fraction = Fraction(0)
    wall: Fraction = Fraction(0)
    size: Fraction = Fraction(0)
    observations: Fraction = Fraction(0)
    counters: Mapping[str, Fraction] = field(default_factory=dict)

    def counter(self, name: str) -> Fraction:
        return self.counters.get(name, Fraction(0))

    def mean_wall(self) -> Fraction:
        """Decayed-average self seconds per call (0 with no calls)."""
        if self.calls == 0:
            return Fraction(0)
        return self.wall / self.calls

    def mean_size(self) -> Fraction:
        """Decayed-average observed representation size per result."""
        if self.observations == 0:
            return Fraction(0)
        return self.size / self.observations

    def decayed(self, factor: Fraction = DECAY) -> "NodeStats":
        return NodeStats(
            calls=self.calls * factor,
            wall=self.wall * factor,
            size=self.size * factor,
            observations=self.observations * factor,
            counters={
                name: value * factor
                for name, value in self.counters.items()
            },
        )

    def plus(self, other: "NodeStats") -> "NodeStats":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, Fraction(0)) + value
        return NodeStats(
            calls=self.calls + other.calls,
            wall=self.wall + other.wall,
            size=self.size + other.size,
            observations=self.observations + other.observations,
            counters=counters,
        )


def make_node_stats(
    calls: object = 0,
    wall: object = 0,
    size: object = 0,
    observations: object = 0,
    counters: Mapping[str, object] | None = None,
) -> NodeStats:
    """A :class:`NodeStats` with every number coerced to ``Fraction``."""
    return NodeStats(
        calls=_fraction(calls),
        wall=_fraction(wall),
        size=_fraction(size),
        observations=_fraction(observations),
        counters={
            name: _fraction(value)
            for name, value in (counters or {}).items()
            if _fraction(value) != 0
        },
    )


@dataclass(frozen=True)
class Statistics:
    """The versioned, persisted statistics object.

    ``nodes`` maps plan-node fingerprints to their accumulated
    measurements; ``runs`` counts (decayed) contributing runs.
    """

    nodes: Mapping[str, NodeStats] = field(default_factory=dict)
    runs: Fraction = Fraction(0)
    version: int = STATS_VERSION

    def get(self, fingerprint: str) -> NodeStats | None:
        return self.nodes.get(fingerprint)

    def merge(
        self,
        run_nodes: Mapping[str, NodeStats],
        decay: Fraction = DECAY,
    ) -> "Statistics":
        """Fold one run's measurements in, decaying the history.

        Every persisted node is decayed (so untouched nodes fade out
        too), the run's numbers are added at full weight, and the
        result is pruned to the :data:`MAX_NODES` hottest nodes by
        accumulated wall so the store entry stays bounded.
        """
        merged: dict[str, NodeStats] = {
            fingerprint: stats.decayed(decay)
            for fingerprint, stats in self.nodes.items()
        }
        for fingerprint, stats in run_nodes.items():
            base = merged.get(fingerprint, NodeStats())
            merged[fingerprint] = base.plus(stats)
        if len(merged) > MAX_NODES:
            hottest = sorted(
                merged.items(),
                key=lambda item: (-item[1].wall, item[0]),
            )[:MAX_NODES]
            merged = dict(hottest)
        return Statistics(
            nodes=merged,
            runs=self.runs * decay + 1,
            version=self.version,
        )

    def hottest(self, limit: int = 10) -> list[tuple[str, NodeStats]]:
        """The ``limit`` nodes with the largest accumulated wall."""
        ranked = sorted(
            self.nodes.items(),
            key=lambda item: (-item[1].wall, item[0]),
        )
        return ranked[:limit]


def harvest_profile(
    profile: Mapping[int, Mapping[str, object]],
    counter_names: tuple[str, ...],
    nodes_by_id: Mapping[int, object],
) -> dict[str, NodeStats]:
    """Turn one run's profiler measurements into fingerprinted stats.

    ``profile`` is ``NodeProfiler.stats`` (``id(node)`` → measurement
    dict with ``calls``/``wall_s``/``self_counters`` and, when the
    evaluator reported result cardinalities, ``sizes`` /
    ``observations``); ``counter_names`` names the profiler's counter
    columns; ``nodes_by_id`` maps the same ids back to the plan nodes.
    Nodes that never ran are skipped; identical sub-formulas merge.

    The harvested ``wall`` is the *inclusive* per-node time: the cost
    model asks "what does evaluating this subtree cost", and that is
    what a conjunct-ordering decision pays or saves.
    """
    harvested: dict[str, NodeStats] = {}
    for node_id, node in nodes_by_id.items():
        measured = profile.get(node_id)
        if not measured:
            continue
        counters = dict(
            zip(counter_names, measured.get("self_counters") or ())
        )
        stats = make_node_stats(
            calls=measured.get("calls", 0),
            wall=measured.get("wall_s", 0.0),
            size=measured.get("sizes", 0),
            observations=measured.get("observations", 0),
            counters=counters,
        )
        if stats.calls == 0 and stats.wall == 0:
            continue
        fingerprint = node_fingerprint(node)
        base = harvested.get(fingerprint, NodeStats())
        harvested[fingerprint] = base.plus(stats)
    return harvested
