""":class:`EngineConfig` — the single frozen configuration object of the engine.

Every layer (translator, optimizer, backends, plan-cached service, fuzz
oracle, experiment harness, CLI) takes its knobs from this one object:
constructors accept ``config=`` and no per-knob keyword arguments, so a
knob is added in exactly one place.  The fields:

* **translation knobs** — ``strategy`` (descendant-axis expansion),
  ``use_small_seed``/``push_selections`` (the Sect. 5.2 lowering options)
  and ``optimize_level`` (the program-optimizer level);
* **execution knob** — ``backend`` (execution engine name; the SQL
  dialect follows from it, see :func:`repro.backends.backend_dialect`);
* **serving knobs** — ``plan_cache_size`` and ``result_cache_size`` (LRU
  capacities of the service layer; ``0`` disables a cache) and
  ``observability`` (per-answer span trees).

The dataclass is frozen and validating: every field is checked in
``__post_init__`` (strategy names are coerced from strings, so JSON and
CLI input round-trips), :meth:`with_` produces modified copies
without mutating the original, and :meth:`to_dict`/:meth:`from_dict` give
an exact JSON round-trip — the serialization the fuzz grid, saved corpora
and the CLI all share.  Invalid values raise
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Union

from repro.core.expath_to_sql import TranslationOptions
from repro.core.optimize import OPTIMIZE_LEVELS
from repro.core.xpath_to_expath import DescendantStrategy
from repro.errors import ConfigError
from repro.relational.sqlgen import SQLDialect

__all__ = [
    "EngineConfig",
    "strategy_names",
    "dialect_names",
]


def strategy_names() -> List[str]:
    """CLI names of all descendant strategies (sorted)."""
    return sorted(strategy.value for strategy in DescendantStrategy)


def dialect_names() -> List[str]:
    """CLI names of all SQL dialects (sorted)."""
    return sorted(dialect.value for dialect in SQLDialect)


def _coerce_strategy(value: Union[str, DescendantStrategy]) -> DescendantStrategy:
    if isinstance(value, DescendantStrategy):
        return value
    if isinstance(value, str):
        try:
            return DescendantStrategy(value)
        except ValueError:
            pass
    raise ConfigError(
        f"invalid strategy {value!r} (known: {', '.join(strategy_names())})"
    )


@dataclass(frozen=True)
class EngineConfig:
    """The complete, immutable knob set of one engine configuration.

    Attributes
    ----------
    strategy:
        Descendant-axis expansion: ``cycleex`` (paper, default), ``cyclee``,
        ``recursive-union`` (SQLGen-R) or ``auto`` (per-query selection).
        String names are accepted and coerced to
        :class:`~repro.core.xpath_to_expath.DescendantStrategy`.
    optimize_level:
        Program-optimizer level (0/1/2); ``None`` means the pipeline
        default.
    backend:
        Execution-backend name (``memory`` or ``sqlite`` today; any name in
        :func:`repro.backends.backend_names`).  ``memory`` runs every plan
        on the columnar executor (:mod:`repro.relational.columnar`);
        ``sqlite`` runs one statement per program assignment plus the
        result SELECT.
    use_small_seed / push_selections:
        The Sect. 5.2 lowering options, flattened from
        :class:`~repro.core.expath_to_sql.TranslationOptions` so one object
        serializes the whole configuration (see
        :meth:`translation_options`).
    plan_cache_size:
        LRU capacity of the translation-plan (and prepared-program) cache
        in the serving layer; ``0`` disables plan caching.
    result_cache_size:
        LRU capacity of the per-document result cache; ``0`` disables
        result caching.
    observability:
        When true, :meth:`repro.api.Session.answer` records a span tree
        for every query (exposed as :attr:`repro.api.QueryResult.trace`).
        Off by default: the un-traced instrumentation cost is a no-op
        check per span site.  Does not affect translation output
        (excluded from :meth:`translation_signature`).

    Example
    -------
    >>> config = EngineConfig(strategy="auto", backend="sqlite")
    >>> config.describe()
    'sqlite/auto/default'
    >>> config.with_(optimize_level=0).optimize_level
    0
    >>> EngineConfig.from_dict(config.to_dict()) == config
    True
    """

    strategy: DescendantStrategy = DescendantStrategy.CYCLEEX
    optimize_level: Optional[int] = None
    backend: str = "memory"
    use_small_seed: bool = True
    push_selections: bool = False
    plan_cache_size: int = 128
    result_cache_size: int = 128
    observability: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", _coerce_strategy(self.strategy))
        if self.optimize_level is not None and (
            isinstance(self.optimize_level, bool)
            or self.optimize_level not in OPTIMIZE_LEVELS
        ):
            raise ConfigError(
                f"optimize_level must be one of {OPTIMIZE_LEVELS} or None, "
                f"got {self.optimize_level!r}"
            )
        from repro.backends import backend_names

        if self.backend not in backend_names():
            raise ConfigError(
                f"unknown backend {self.backend!r} "
                f"(known: {', '.join(backend_names())})"
            )
        for flag in ("use_small_seed", "push_selections", "observability"):
            if not isinstance(getattr(self, flag), bool):
                raise ConfigError(
                    f"{flag} must be a bool, got {getattr(self, flag)!r}"
                )
        for size in ("plan_cache_size", "result_cache_size"):
            value = getattr(self, size)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(
                    f"{size} must be an int >= 0, got {value!r}"
                )

    # -- derived views ----------------------------------------------------------

    def translation_options(self) -> TranslationOptions:
        """The lowering options as the translator's option object."""
        return TranslationOptions(
            use_small_seed=self.use_small_seed,
            push_selections=self.push_selections,
        )

    def translation_signature(self) -> Tuple[object, ...]:
        """Identity of the *translated program* this config produces.

        Two configs with equal signatures translate any query to the very
        same program (backend and cache sizing do not affect translation)
        — the deduplication key the fuzz oracle shares programs under.
        """
        return (
            self.strategy,
            self.optimize_level,
            self.use_small_seed,
            self.push_selections,
        )

    # -- copy-update ------------------------------------------------------------

    def with_(self, **changes: object) -> "EngineConfig":
        """A copy with ``changes`` applied; the original is untouched.

        Unknown field names raise :class:`~repro.errors.ConfigError`; the
        new values go through the same validation as the constructor.
        """
        known = {field.name for field in fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ConfigError(
                f"unknown EngineConfig field(s) {unknown} "
                f"(known: {', '.join(sorted(known))})"
            )
        return dataclasses.replace(self, **changes)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict (JSON-safe) form; inverse of :meth:`from_dict`."""
        return {
            "strategy": self.strategy.value,
            "optimize_level": self.optimize_level,
            "backend": self.backend,
            "use_small_seed": self.use_small_seed,
            "push_selections": self.push_selections,
            "plan_cache_size": self.plan_cache_size,
            "result_cache_size": self.result_cache_size,
            "observability": self.observability,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output (or CLI/JSON input).

        Missing keys take their defaults; unknown keys raise
        :class:`~repro.errors.ConfigError` (a silently ignored typo in a
        serialized grid would otherwise fuzz the wrong engine).
        """
        if not isinstance(data, dict):
            raise ConfigError(f"EngineConfig.from_dict expects a dict, got {data!r}")
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown EngineConfig key(s) {unknown} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)  # type: ignore[arg-type]

    def describe(self) -> str:
        """Compact one-line rendering (CLI/benchmark labels)."""
        level = "default" if self.optimize_level is None else f"O{self.optimize_level}"
        return f"{self.backend}/{self.strategy.value}/{level}"

