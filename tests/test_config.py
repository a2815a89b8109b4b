"""EngineConfig: the one documented resolution order for every knob.

Every ``EngineConfig`` — built directly or via ``EngineConfig.resolve``
— pins **explicit argument > process setting > default** once, at
construction, and an engine never re-reads the environment afterwards.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

from repro import ConstraintDatabase, QueryEngine, parse_formula
from repro.config import (
    ENV_CACHE_BUDGET,
    ENV_CACHE_DIR,
    ENV_EXECUTOR,
    ENV_JOBS,
    ENV_JOURNAL,
    ENV_LP_MODE,
    ENV_METRICS_LABELS,
    ENV_OPTIMIZER,
    DEFAULT_CACHE_CAPACITY,
    EngineConfig,
)


@pytest.fixture
def clean_env(monkeypatch):
    for name in (ENV_LP_MODE, ENV_JOBS, ENV_CACHE_DIR, ENV_CACHE_BUDGET,
                 ENV_JOURNAL, ENV_EXECUTOR, ENV_OPTIMIZER,
                 ENV_METRICS_LABELS):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_resolve_defaults(clean_env):
    config = EngineConfig.resolve()
    assert config.lp_mode == "filtered"
    assert config.jobs == 1
    assert config.cache_dir is None
    assert config.cache_budget is None
    assert config.journal is None
    assert config.cache_capacity == DEFAULT_CACHE_CAPACITY


def test_resolve_reads_environment(clean_env, tmp_path):
    clean_env.setenv(ENV_LP_MODE, "exact")
    clean_env.setenv(ENV_JOBS, "3")
    clean_env.setenv(ENV_CACHE_DIR, str(tmp_path))
    clean_env.setenv(ENV_CACHE_BUDGET, "4096")
    clean_env.setenv(ENV_JOURNAL, "events.jsonl")
    config = EngineConfig.resolve()
    assert config.lp_mode == "exact"
    assert config.jobs == 3
    assert str(config.cache_dir.root) == str(tmp_path)
    assert config.cache_dir.size_budget == 4096
    assert config.cache_budget == 4096
    assert config.journal == "events.jsonl"


def test_explicit_argument_beats_environment(clean_env, tmp_path):
    clean_env.setenv(ENV_LP_MODE, "exact")
    clean_env.setenv(ENV_JOBS, "7")
    config = EngineConfig.resolve(lp_mode="filtered", jobs=2)
    assert config.lp_mode == "filtered"
    assert config.jobs == 2


def test_resolve_pins_once(clean_env):
    """A resolved config never re-reads the environment."""
    config = EngineConfig.resolve()
    clean_env.setenv(ENV_LP_MODE, "exact")
    assert config.lp_mode == "filtered"


def test_frozen_and_with_overrides(clean_env):
    config = EngineConfig.resolve()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 4  # type: ignore[misc]
    changed = config.with_overrides(jobs=4)
    assert changed.jobs == 4 and config.jobs == 1


def test_unknown_field_rejected(clean_env):
    with pytest.raises(TypeError, match="unknown EngineConfig field"):
        EngineConfig.resolve(worker_count=4)


def test_validation_matches_engine_contract(clean_env):
    with pytest.raises(ValueError, match="lp_mode must be one of"):
        EngineConfig(lp_mode="approximate")
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        EngineConfig(jobs=0)
    with pytest.raises(ValueError, match="cache_budget must be positive"):
        EngineConfig(cache_budget=-1)
    with pytest.raises(ValueError, match="cache_capacity must be >= 1"):
        EngineConfig(cache_capacity=0)


def _interval_db() -> ConstraintDatabase:
    return ConstraintDatabase.from_formula(
        parse_formula("0 < x0 & x0 < 1"), arity=1
    )


def test_engine_accepts_config(clean_env):
    config = EngineConfig.resolve(jobs=2, lp_mode="exact")
    engine = QueryEngine(_interval_db(), config=config)
    assert engine.config is config
    assert engine.config.jobs == 2
    assert engine.config.lp_mode == "exact"
    assert not engine.evaluate("S(x0)").is_empty()


def test_engine_rejects_config_plus_legacy_kwargs(clean_env):
    # The per-knob kwargs are gone: knobs travel only in the config.
    for legacy in ({"jobs": 2}, {"lp_mode": "exact"}, {"cache_dir": None}):
        with pytest.raises(TypeError):
            QueryEngine(
                _interval_db(), config=EngineConfig.resolve(), **legacy
            )


def test_plain_constructor_resolves_like_resolve(clean_env, tmp_path):
    clean_env.setenv(ENV_EXECUTOR, "interpreted")
    clean_env.setenv(ENV_CACHE_DIR, str(tmp_path))
    config = EngineConfig(optimizer="off")
    assert config == EngineConfig.resolve(optimizer="off")
    assert config.executor == "interpreted"
    assert config.store() is not None


def test_lp_mode_comes_from_the_active_scope(clean_env):
    from repro.geometry import fastlp

    with fastlp.lp_mode("exact"):
        assert EngineConfig.resolve().lp_mode == "exact"
    assert EngineConfig.resolve().lp_mode == "filtered"


def test_cache_dir_comes_from_the_active_store(clean_env, tmp_path):
    from repro.store import store_scope

    with store_scope(str(tmp_path)) as active:
        config = EngineConfig.resolve()
    assert config.store() is active
    assert EngineConfig.resolve().store() is None


def test_explicit_zero_jobs_raises(clean_env):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        EngineConfig.resolve(jobs=0)


def test_unparsable_jobs_environment_is_sequential(clean_env):
    clean_env.setenv(ENV_JOBS, "not-a-number")
    assert EngineConfig.resolve().jobs == 1


def test_engine_pins_config_at_construction(clean_env):
    """Moving the environment after construction changes nothing."""
    from repro.obs.metrics import get_registry, reset_metrics

    engine = QueryEngine(_interval_db())
    clean_env.setenv(ENV_EXECUTOR, "interpreted")
    clean_env.setenv(ENV_OPTIMIZER, "off")
    clean_env.setenv(ENV_LP_MODE, "exact")
    reset_metrics()
    assert engine.truth("exists x0. S(x0)")
    stats = engine.stats()
    assert stats["executor"] == "compiled"
    assert stats["optimizer"]["enabled"] is True
    labels = {
        tuple(series.labels)
        for series in get_registry().histograms()
        if series.name == "engine.evaluate_seconds" and series.count
    }
    assert labels == {(("executor", "compiled"), ("lp_mode", "filtered"))}
    root = engine.explain("exists x0. S(x0) & x0 < 1").plan.detail
    assert root["executor"] == "compiled"
    assert root["optimizer"] == "on"
    assert root["lp_mode"] == "filtered"
    assert root["jobs"] == 1


def test_store_pins_explicit_budget(clean_env, tmp_path):
    config = EngineConfig.resolve(
        cache_dir=str(tmp_path / "store"), cache_budget=1 << 20
    )
    store = config.store()
    assert store is not None
    assert store.size_budget == 1 << 20


def test_make_cache_honours_capacity(clean_env):
    config = EngineConfig.resolve(cache_capacity=3)
    cache = config.make_cache()
    assert cache.capacity == 3


def test_describe_is_json_ready(clean_env, tmp_path):
    import json

    config = EngineConfig.resolve(cache_dir=str(tmp_path))
    described = config.describe()
    assert json.loads(json.dumps(described)) == described
    assert described["cache_dir"] == str(tmp_path)


def test_resolve_executor_precedence(clean_env):
    from repro.config import EXECUTORS, resolve_executor

    assert EXECUTORS == ("compiled", "interpreted")
    # Defaults.
    assert resolve_executor() == "compiled"
    # Environment beats the default (case/whitespace normalised).
    clean_env.setenv(ENV_EXECUTOR, " Interpreted ")
    assert resolve_executor() == "interpreted"
    # Explicit argument beats the environment.
    assert resolve_executor("compiled") == "compiled"
    # Invalid values are rejected from every source.
    with pytest.raises(ValueError, match="executor must be one of"):
        resolve_executor("jitted")
    clean_env.setenv(ENV_EXECUTOR, "jitted")
    with pytest.raises(ValueError, match="executor must be one of"):
        resolve_executor()


def test_config_resolves_and_describes_executor(clean_env):
    config = EngineConfig.resolve()
    assert config.executor == "compiled"
    pinned = EngineConfig.resolve(executor="interpreted")
    assert pinned.executor == "interpreted"
    described = pinned.describe()
    assert described["executor"] == "interpreted"
    assert "backend" not in described
    # A resolved config never re-reads the environment.
    clean_env.setenv(ENV_EXECUTOR, "interpreted")
    assert config.executor == "compiled"
    with pytest.raises(ValueError, match="executor must be one of"):
        EngineConfig(executor="jitted")
    with pytest.raises(TypeError):
        EngineConfig(backend="sqlite")


def test_engine_stats_report_executor(clean_env):
    engine = QueryEngine(
        _interval_db(),
        config=EngineConfig.resolve(executor="interpreted"),
    )
    stats = engine.stats()
    assert stats["executor"] == "interpreted"
    assert "backend" not in stats
    assert engine.evaluator.executor == "interpreted"


def test_unpinned_store_stays_unpinned(clean_env, tmp_path):
    """A config resolved without a store never writes one later.

    Setting ``REPRO_CACHE_DIR`` after construction must not give the
    engine's nested arrangement builds a store to write into.
    """
    from repro.constraints.io import load_database
    from repro.engine import EngineCache
    from repro.obs.metrics import MetricsRegistry

    MAP = pathlib.Path(__file__).resolve().parent.parent / "examples/map.cdb"

    config = EngineConfig.resolve(jobs=1)
    assert config.cache_dir is None
    engine = QueryEngine(
        load_database(MAP),
        cache=EngineCache(metrics=MetricsRegistry()),
        config=config,
    )
    late = tmp_path / "late"
    clean_env.setenv(ENV_CACHE_DIR, str(late))
    assert engine.truth("exists x0. exists x1. S(x0, x1)")
    written = [p for p in late.rglob("*") if p.is_file()] \
        if late.exists() else []
    assert written == []
