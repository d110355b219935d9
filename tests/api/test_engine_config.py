""":class:`EngineConfig` contract tests: validation, immutability, round-trips.

The Issue 5 satellite: ``from_dict(to_dict(c)) == c`` across the full
default fuzz-engine grid (16 engines), invalid values raise
:class:`~repro.errors.ConfigError`, and :meth:`with_` never mutates the
original.
"""

from __future__ import annotations

import json

import pytest

from repro.api import EngineConfig
from repro.core.optimize import baseline_options, push_selection_options
from repro.core.xpath_to_expath import DescendantStrategy
from repro.errors import ConfigError, ReproError
from repro.fuzz.oracle import default_engines, engine_name


class TestValidationAndCoercion:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.strategy is DescendantStrategy.CYCLEEX
        assert config.optimize_level is None
        assert config.backend == "memory"
        assert config.plan_cache_size == 128

    def test_strategy_accepts_names(self):
        for name in ("cycleex", "cyclee", "recursive-union", "interval", "auto"):
            assert EngineConfig(strategy=name).strategy is DescendantStrategy(name)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "no-such-strategy"},
            {"strategy": 3},
            {"backend": "duckdb"},
            {"optimize_level": 5},
            {"optimize_level": True},
            {"use_small_seed": "yes"},
            {"push_selections": 1},
            {"plan_cache_size": -1},
            {"plan_cache_size": True},
            {"result_cache_size": -7},
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_invalid_values_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)

    def test_config_error_is_repro_and_value_error(self):
        with pytest.raises(ReproError):
            EngineConfig(backend="nope")
        with pytest.raises(ValueError):
            EngineConfig(backend="nope")

    @pytest.mark.parametrize("field", ["emission", "dialect"])
    def test_removed_rendering_fields_are_rejected(self, field):
        # The statement shape is fixed and the dialect is an argument of
        # rendering, so neither is an engine setting any more.
        with pytest.raises(TypeError):
            EngineConfig(**{field: "sqlite"})
        with pytest.raises(ConfigError, match="unknown EngineConfig field"):
            EngineConfig().with_(**{field: "sqlite"})

    def test_translation_options_round_trip(self):
        config = EngineConfig(use_small_seed=False, push_selections=False)
        assert config.translation_options() == baseline_options()
        config = EngineConfig(use_small_seed=True, push_selections=True)
        assert config.translation_options() == push_selection_options()


class TestWithImmutability:
    def test_with_returns_modified_copy(self):
        base = EngineConfig()
        changed = base.with_(optimize_level=0, backend="sqlite")
        assert changed.optimize_level == 0
        assert changed.backend == "sqlite"
        # The original is untouched.
        assert base.optimize_level is None
        assert base.backend == "memory"
        assert changed != base

    def test_with_validates(self):
        with pytest.raises(ConfigError):
            EngineConfig().with_(optimize_level=9)

    def test_with_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown EngineConfig field"):
            EngineConfig().with_(opt_level=1)

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.backend = "sqlite"  # type: ignore[misc]

    def test_hashable_and_equal_by_value(self):
        assert EngineConfig(strategy="auto") == EngineConfig(strategy="auto")
        assert hash(EngineConfig()) == hash(EngineConfig())
        assert EngineConfig() != EngineConfig(optimize_level=0)


class TestSerializationRoundTrips:
    def test_round_trip_default(self):
        config = EngineConfig()
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_round_trip_through_json(self):
        config = EngineConfig(
            strategy="recursive-union",
            optimize_level=1,
            backend="sqlite",
            use_small_seed=False,
            plan_cache_size=7,
            result_cache_size=0,
        )
        wire = json.dumps(config.to_dict())
        assert EngineConfig.from_dict(json.loads(wire)) == config

    def test_round_trip_full_fuzz_grid(self):
        """Every engine of the default 16-engine grid round-trips exactly."""
        engines = default_engines()
        assert len(engines) == 16
        for config in engines:
            rebuilt = EngineConfig.from_dict(config.to_dict())
            assert rebuilt == config, engine_name(config)
            assert engine_name(rebuilt) == engine_name(config)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown EngineConfig key"):
            EngineConfig.from_dict({"strategy": "cycleex", "shards": 4})

    @pytest.mark.parametrize("key", ["executor", "emission", "dialect", "select_root"])
    def test_from_dict_rejects_a_removed_key(self, key):
        # A config serialized while `key` was a field fails loudly instead
        # of silently running on another executor, statement shape,
        # dialect or root filter.
        old_value = {
            "executor": "tuple", "emission": "single", "dialect": "sqlite", "select_root": False
        }[key]
        data = dict(EngineConfig().to_dict(), **{key: old_value})
        with pytest.raises(ConfigError, match=f"'{key}'"):
            EngineConfig.from_dict(data)

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict(["cycleex"])  # type: ignore[arg-type]

    def test_missing_keys_take_defaults(self):
        assert EngineConfig.from_dict({}) == EngineConfig()
        assert EngineConfig.from_dict({"backend": "sqlite"}).backend == "sqlite"
