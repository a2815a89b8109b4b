"""Cost-based optimizer: persisted statistics and plan rewrites.

The closed loop over the engine's measured costs:

* :mod:`repro.optimizer.statistics` — the versioned, Fraction-exact
  :class:`Statistics` object persisted in the disk store and merged
  across runs with decay;
* :mod:`repro.optimizer.cost` — the calibrated cost model over plan
  nodes (static priors overridden by observed per-node measurements);
* :mod:`repro.optimizer.rewrite` — answer-preserving plan rewrites:
  NNF + miniscoping, cheapest/most-selective-first conjunct order,
  quantifier-chain elimination order, datalog rule-body atom order.

Only the statistics layer is imported eagerly (the store codec depends
on it); the heavier submodules are imported by their consumers.
"""

from repro.optimizer.statistics import (
    DECAY,
    MAX_NODES,
    STATS_VERSION,
    NodeStats,
    Statistics,
    harvest_profile,
    make_node_stats,
    node_fingerprint,
)

__all__ = [
    "DECAY",
    "MAX_NODES",
    "STATS_VERSION",
    "NodeStats",
    "Statistics",
    "harvest_profile",
    "make_node_stats",
    "node_fingerprint",
]
