"""`EngineConfig` — one object for every engine knob.

The engine's whole tuning surface lives in a single frozen dataclass,
resolved once, at construction, in one documented order:

    **explicit argument > process setting > built-in default**

=================  =====================  ===========================
field              process setting        default
=================  =====================  ===========================
``lp_mode``        ``--lp-mode`` scope /  ``"filtered"``
                   ``REPRO_LP_MODE``
``jobs``           ``REPRO_JOBS``         ``1`` (sequential)
``executor``       ``REPRO_EXECUTOR``     ``"compiled"``
``cache_dir``      ``--cache-dir`` scope  ``None`` (no persistence)
                   / ``REPRO_CACHE_DIR``
``cache_budget``   ``REPRO_CACHE_BUDGET``  ``None`` (unbounded)
``journal``        ``REPRO_JOURNAL``      ``None`` (no journal sink)
``optimizer``      ``REPRO_OPTIMIZER``    ``"on"`` (cost-based rewrites)
``slow_log``       ``REPRO_SLOW_LOG``     ``None`` (no slow-query log)
``slo_latency_ms``  ``REPRO_SLO_LATENCY_MS``  ``250.0`` ms objective
``metrics_labels``  ``REPRO_METRICS_LABELS``  ``"on"`` (labeled series)
``cache_capacity``  —                     ``64`` entries
=================  =====================  ===========================

A field passed as ``None`` (or left out) is filled from its process
setting by ``__post_init__`` — the only code that reads process
settings for a config field.  ``lp_mode`` comes from
:func:`repro.geometry.fastlp.get_lp_mode` and ``cache_dir`` from
:func:`repro.store.active_store`, so the CLI's ``--lp-mode`` and
``--cache-dir`` scopes govern engines built inside them.  After
construction every field is final: ``cache_dir`` is the pinned
:class:`~repro.store.disk.DiskStore` (or ``None`` for no persistence),
and moving an environment variable never changes a live engine.
:meth:`EngineConfig.resolve` is the same constructor spelled for call
sites that want to say so::

    from repro.config import EngineConfig

    config = EngineConfig.resolve(jobs=4)        # the rest from the process
    engine = QueryEngine(db, config=config)
    store = config.store()                        # the pinned DiskStore
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.geometry import fastlp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.disk import DiskStore

#: Environment variable names, in one place.
ENV_LP_MODE = "REPRO_LP_MODE"
ENV_JOBS = "REPRO_JOBS"
ENV_EXECUTOR = "REPRO_EXECUTOR"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_BUDGET = "REPRO_CACHE_BUDGET"
ENV_JOURNAL = "REPRO_JOURNAL"
ENV_OPTIMIZER = "REPRO_OPTIMIZER"
ENV_SLOW_LOG = "REPRO_SLOW_LOG"
ENV_SLO_LATENCY_MS = "REPRO_SLO_LATENCY_MS"
ENV_METRICS_LABELS = "REPRO_METRICS_LABELS"

#: Default in-memory LRU capacity of an :class:`~repro.engine.EngineCache`.
DEFAULT_CACHE_CAPACITY = 64

#: Fixpoint executor tiers.  ``"compiled"`` lowers datalog rule bodies
#: and ground RegLFP stage formulas to the relational-algebra IR of
#: :mod:`repro.ir` (set-at-a-time evaluation, memoised decision kernels);
#: ``"interpreted"`` keeps the per-stage AST walk and is the oracle the
#: equivalence suite checks the compiled tier against.  Both produce
#: byte-identical stage relations.
EXECUTORS = ("compiled", "interpreted")

#: Cost-based optimizer switch.  ``"on"`` applies the answer-preserving
#: plan rewrites of :mod:`repro.optimizer` (NNF + miniscoping,
#: cost-ordered conjuncts) inside :class:`~repro.engine.QueryEngine`;
#: ``"off"`` is the ablated oracle path the equivalence suite compares
#: against.
OPTIMIZERS = ("on", "off")

#: Labeled-telemetry switch.  ``"on"`` lets the engine and server attach
#: low-cardinality labels (``tenant``, ``endpoint``, ``executor``,
#: ``lp_mode``) to histogram/gauge series; ``"off"`` keeps every series
#: unlabeled (one aggregate per family) for minimal scrape size.
METRICS_LABELS = ("on", "off")

#: Default per-request latency objective, milliseconds.  Feeds both the
#: per-tenant SLO burn-rate tracker and the slow-query capture threshold.
DEFAULT_SLO_LATENCY_MS = 250.0


def _choice(name: str, value: "str | None", env: str, default: str,
            allowed: tuple[str, ...]) -> str:
    """An enumerated knob: explicit > environment > default, validated."""
    if value is None:
        value = os.environ.get(env, "").strip().lower() or default
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def resolve_optimizer(optimizer: "str | None" = None) -> str:
    """The effective optimizer mode: explicit > ``REPRO_OPTIMIZER`` > on.

    For free functions that run without an :class:`EngineConfig`
    (:func:`repro.datalog.engine.evaluate_program`,
    :func:`repro.explain.explain_datalog`).
    """
    return _choice("optimizer", optimizer, ENV_OPTIMIZER, "on", OPTIMIZERS)


def resolve_executor(executor: "str | None" = None) -> str:
    """The effective executor: explicit arg > ``REPRO_EXECUTOR`` > default.

    For code that runs without an :class:`EngineConfig` (a bare
    :class:`~repro.logic.evaluator.Evaluator`, ``evaluate_program``,
    ``explain_datalog``).
    """
    return _choice(
        "executor", executor, ENV_EXECUTOR, "compiled", EXECUTORS
    )


@dataclass(frozen=True)
class EngineConfig:
    """Frozen bundle of every engine/runtime knob, resolved at construction.

    A field given as ``None`` is filled from its process setting (see
    the module docstring); afterwards only ``cache_dir``,
    ``cache_budget``, ``journal`` and ``slow_log`` can be ``None``, and
    for them ``None`` simply means "none".
    """

    #: LP tier: ``"filtered"`` or ``"exact"``.
    lp_mode: str | None = None
    #: Worker processes for arrangement construction (``1`` =
    #: sequential).
    jobs: int | None = None
    #: Fixpoint executor: ``"compiled"`` (relational-algebra IR,
    #: set-at-a-time) or ``"interpreted"`` (per-stage AST walk, the
    #: oracle).
    executor: str | None = None
    #: Disk warm-start store.  A path or :class:`DiskStore` on input;
    #: always the resolved :class:`DiskStore` (or ``None``: no
    #: persistence) after construction.
    cache_dir: "DiskStore | str | os.PathLike[str] | None" = None
    #: Byte budget for the disk store's LRU eviction (``None`` =
    #: unbounded).
    cache_budget: int | None = None
    #: JSONL journal sink path (``None`` = no sink).
    journal: str | None = None
    #: Cost-based optimizer: ``"on"`` or ``"off"``.
    optimizer: str | None = None
    #: Slow-query log JSONL path (``None`` = no slow-query capture).
    slow_log: str | None = None
    #: Per-request latency objective in milliseconds; feeds the SLO
    #: burn-rate tracker and the slow-query capture threshold.
    slo_latency_ms: float | None = None
    #: Labeled telemetry series: ``"on"`` or ``"off"``.
    metrics_labels: str | None = None
    #: In-memory LRU capacity of the engine cache.
    cache_capacity: int = DEFAULT_CACHE_CAPACITY

    def __post_init__(self) -> None:
        from repro import store as store_pkg
        from repro.arrangement.parallel import resolve_jobs

        def pin(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        lp_mode = self.lp_mode or fastlp.get_lp_mode()
        if lp_mode not in fastlp.LP_MODES:
            raise ValueError(
                f"lp_mode must be one of {fastlp.LP_MODES}, got {lp_mode!r}"
            )
        pin("lp_mode", lp_mode)
        if self.jobs is None:
            pin("jobs", resolve_jobs(None))
        elif int(self.jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")
        pin("executor", resolve_executor(self.executor))
        pin("optimizer", resolve_optimizer(self.optimizer))
        pin("metrics_labels", _choice(
            "metrics_labels", self.metrics_labels, ENV_METRICS_LABELS,
            "on", METRICS_LABELS,
        ))
        if self.slo_latency_ms is None:
            pin("slo_latency_ms", _env_slo_latency_ms())
        elif float(self.slo_latency_ms) > 0:
            pin("slo_latency_ms", float(self.slo_latency_ms))
        else:
            raise ValueError(
                f"slo_latency_ms must be positive milliseconds, "
                f"got {self.slo_latency_ms!r}"
            )
        if self.slow_log is None:
            pin("slow_log", _env_path(ENV_SLOW_LOG))
        if self.journal is None:
            pin("journal", _env_path(ENV_JOURNAL))
        if self.cache_budget is None:
            pin("cache_budget", _env_cache_budget())
        elif self.cache_budget <= 0:
            raise ValueError(
                f"cache_budget must be positive bytes, "
                f"got {self.cache_budget!r}"
            )
        if self.cache_dir is None:
            pin("cache_dir", store_pkg.active_store())
        else:
            pin("cache_dir", store_pkg.resolve_store(
                self.cache_dir, size_budget=self.cache_budget
            ))
        if self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {self.cache_capacity!r}"
            )

    @classmethod
    def resolve(cls, **overrides: Any) -> "EngineConfig":
        """The constructor, with a clearer error for unknown names.

        ``EngineConfig.resolve(jobs=4)`` and ``EngineConfig(jobs=4)``
        build the same value.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown EngineConfig field(s): {sorted(unknown)}"
            )
        return cls(**overrides)

    def with_overrides(self, **changes: Any) -> "EngineConfig":
        """A copy with some fields replaced (the config itself is frozen)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Derived resources
    # ------------------------------------------------------------------
    def store(self) -> "DiskStore | None":
        """The disk store this config pins (``None``: no persistence)."""
        return self.cache_dir

    def make_cache(self, metrics=None) -> "Any":
        """A fresh :class:`~repro.engine.EngineCache` honouring this
        config's capacity and store pinning."""
        from repro.engine import EngineCache

        return EngineCache(
            capacity=self.cache_capacity,
            metrics=metrics,
            store=self.store(),
        )

    def describe(self) -> dict[str, Any]:
        """A JSON-ready rendering (for ``/v1/stats`` and bench records)."""
        store = self.store()
        return {
            "lp_mode": self.lp_mode,
            "jobs": self.jobs,
            "executor": self.executor,
            "cache_dir": str(store.root) if store is not None else None,
            "cache_budget": self.cache_budget,
            "journal": self.journal,
            "optimizer": self.optimizer,
            "slow_log": self.slow_log,
            "slo_latency_ms": self.slo_latency_ms,
            "metrics_labels": self.metrics_labels,
            "cache_capacity": self.cache_capacity,
        }


def _env_path(name: str) -> str | None:
    """A path-valued environment variable, or ``None`` when unset."""
    return os.environ.get(name, "").strip() or None


def _env_cache_budget() -> int | None:
    """``REPRO_CACHE_BUDGET`` as a positive int, or ``None``."""
    raw = os.environ.get(ENV_CACHE_BUDGET, "").strip()
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_CACHE_BUDGET} must be an integer byte count, got {raw!r}"
        ) from None
    return budget if budget > 0 else None


def _env_slo_latency_ms() -> float:
    """``REPRO_SLO_LATENCY_MS`` as a positive float, else the default."""
    raw = os.environ.get(ENV_SLO_LATENCY_MS, "").strip()
    if not raw:
        return DEFAULT_SLO_LATENCY_MS
    try:
        latency = float(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_SLO_LATENCY_MS} must be a millisecond count, got {raw!r}"
        ) from None
    return latency if latency > 0 else DEFAULT_SLO_LATENCY_MS
