"""Scenario configuration: typed, validated, JSON round-trippable.

A scenario pins everything a simulation run depends on except the seed, so a
(scenario, seed) pair is fully reproducible. Unknown keys are rejected
rather than ignored — silent typos in experiment configs are worse than a
loud failure. The ``rebate`` section is the engine's ``RebateSchedule``
itself, which checks its fields when it is built.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .errors import ConfigError, DomainError
from .rebate import RebateSchedule

SCHEMA_VERSION = 1

UPDATE_POLICIES = ("always", "never", "best_response", "threshold")

#: Where scenario JSON nests ``ScenarioConfig`` fields: section -> {field: key}.
#: Every other field, the rebate, price, flow and producer models included, is
#: a top-level key of its own name.
_LAYOUT = {
    "pool": {"pool_x": "x", "pool_y": "y"},
    "bounds": {"max_x": "max_x", "max_y": "max_y"},
    "users": {"user_budget_x": "budget_x", "user_budget_y": "budget_y"},
}
_JSON_PATH = {name: f"{s}.{key}" for s, keys in _LAYOUT.items() for name, key in keys.items()}

#: The types each annotation accepts; annotations are strings (postponed evaluation).
_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_types(obj, section: str = ""):
    """Type-check each field (a bool is no number); ``section`` is a model's JSON key."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type not in _TYPES:  # a nested model, which checks its own fields
            _require(isinstance(value, f.default_factory),
                     f"{f.name} must be a {f.type}, got {value!r}")
            continue
        ok = isinstance(value, _TYPES[f.type]) and isinstance(value, bool) == (f.type == "bool")
        if ok and f.type == "float":
            ok = abs(value) <= sys.float_info.max  # exact for ints; NaN and inf fail
        if not ok:
            where = f"{section}.{f.name}" if section else _JSON_PATH.get(f.name, f.name)
            what = "a finite number" if f.type == "float" else f"of type {f.type}"
            raise ConfigError(f"{where} must be {what}, got {value!r}")


@dataclass(frozen=True, slots=True)
class PriceModel:
    """Multiplicative log-normal walk for the external market price.

    The walk is a martingale: each step multiplies by
    ``exp(sigma * Z - sigma^2 / 2)``. ``drift`` stays in the schema pinned
    to 0.0; any other value is refused.
    """

    initial: float = 100.0
    sigma: float = 0.02
    drift: float = 0.0

    def validate(self):
        _check_types(self, "price")
        _require(self.initial > 0, "price.initial must be > 0")
        _require(self.sigma >= 0, "price.sigma must be >= 0")
        _require(self.drift == 0, "price.drift must be 0.0")


@dataclass(frozen=True, slots=True)
class FlowModel:
    """User order flow: Poisson arrivals with value-symmetric sides.

    Each order draws a value uniform on ``(0, value_frac * cap]`` where
    ``cap = min(max_x, max_y * eps)``, then sells x or y with equal
    probability — so the expected signed value imbalance is zero at any
    external price. ``limit_prob`` of orders carry a limit within
    ``limit_width`` (relative) of the external price; ``no_reveal_prob`` of
    committed orders are never revealed and burn their collateral.
    """

    arrival: float = 0.0
    limit_prob: float = 0.0
    limit_width: float = 0.01
    value_frac: float = 1.0
    no_reveal_prob: float = 0.0

    def validate(self):
        _check_types(self, "flow")
        # Orders per block: numpy's Poisson draw fails near 1e19, memory far sooner.
        _require(0 <= self.arrival <= 1e5, "flow.arrival must lie in [0, 1e5]")
        _require(0 <= self.limit_prob <= 1, "flow.limit_prob must lie in [0, 1]")
        # A width of 1 or more can draw a limit price at or below zero.
        _require(0 <= self.limit_width < 1, "flow.limit_width must lie in [0, 1)")
        _require(0 < self.value_frac <= 1, "flow.value_frac must lie in (0, 1]")
        _require(0 <= self.no_reveal_prob <= 1, "flow.no_reveal_prob must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class ProducerModel:
    """Block producer behavior.

    ``update_policy`` decides when an update transaction is sent and which
    allocation height it carries, ``update_cost`` is the fixed cost of
    sending an update, and ``min_keep`` is the threshold policy's minimum
    acceptable kept fraction ``1 - beta``. The producer is honest: it inserts
    every pending commitment, trades no order of its own and moves the pool
    to the external price. ``price_policy``, ``price_offset``,
    ``self_trade_alpha`` and ``censor_rate`` stay in the schema pinned to
    these defaults; any other value is refused.
    """

    update_policy: str = "always"
    price_policy: str = "external"
    price_offset: float = 1.0
    self_trade_alpha: float = 0.0
    censor_rate: float = 0.0
    update_cost: float = 0.0
    min_keep: float = 1.0
    budget_x: float = 100_000.0
    budget_y: float = 1_000.0

    def validate(self):
        _check_types(self, "producer")
        _require(self.update_policy in UPDATE_POLICIES,
                 f"producer.update_policy must be one of {UPDATE_POLICIES}")
        _require(self.price_policy == "external", 'producer.price_policy must be "external"')
        _require(self.price_offset == 1, "producer.price_offset must be 1.0")
        _require(self.self_trade_alpha == 0, "producer.self_trade_alpha must be 0.0")
        _require(self.censor_rate == 0, "producer.censor_rate must be 0.0")
        _require(self.update_cost >= 0, "producer.update_cost must be >= 0")
        _require(0 <= self.min_keep <= 1, "producer.min_keep must lie in [0, 1]")
        _require(self.budget_x >= 0 and self.budget_y >= 0,
                 "producer.budget_x and producer.budget_y must be >= 0")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    name: str = "default"
    blocks: int = 200
    pool_x: float = 10_000.0
    pool_y: float = 100.0
    curve: str = "constant_product"
    rebate: RebateSchedule = field(default_factory=RebateSchedule)
    max_x: float = 10.0
    max_y: float = 0.1
    reveal_window: int = 2
    conversion_frequency: int = 5
    record_events: bool = False
    user_budget_x: float = 100_000.0
    user_budget_y: float = 1_000.0
    price: PriceModel = field(default_factory=PriceModel)
    flow: FlowModel = field(default_factory=FlowModel)
    producer: ProducerModel = field(default_factory=ProducerModel)

    def validate(self) -> "ScenarioConfig":
        _check_types(self)
        _require(bool(self.name), "name must be non-empty")
        _require(self.blocks > 0, "blocks must be > 0")
        _require(self.pool_x > 0 and self.pool_y > 0, "pool.x and pool.y must be > 0")
        _require(sys.float_info.min <= self.pool_x * self.pool_y <= sys.float_info.max,
                 "pool.x * pool.y must lie in the normal float range (2.2e-308 to 1.8e308)")
        _require(0 < self.pool_x / self.pool_y <= sys.float_info.max,
                 "pool.x / pool.y (the pool's price) must be finite and > 0")
        _require(self.curve == "constant_product", 'curve must be "constant_product"')
        _require(self.max_x > 0 and self.max_y > 0, "bounds.max_x and bounds.max_y must be > 0")
        _require(self.reveal_window >= 0, "reveal_window must be >= 0")
        _require(self.conversion_frequency >= 0, "conversion_frequency must be >= 0")
        _require(self.user_budget_x >= 0 and self.user_budget_y >= 0,
                 "users.budget_x and users.budget_y must be >= 0")
        self.price.validate()
        self.flow.validate()
        self.producer.validate()
        return self


def check_scenario(cfg) -> ScenarioConfig:
    """``cfg`` validated; ConfigError unless it is a valid ``ScenarioConfig``."""
    if not isinstance(cfg, ScenarioConfig):
        raise ConfigError(f"cfg must be a ScenarioConfig, got {cfg!r}")
    return cfg.validate()


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    check_scenario(cfg)
    out = {"version": SCHEMA_VERSION}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = asdict(value) if is_dataclass(value) else value
    for section, keys in _LAYOUT.items():
        out[section] = {key: out.pop(name) for name, key in keys.items()}
    return out


def _pop_object(raw: dict, key: str, known) -> dict:
    sub = raw.pop(key, {})
    _require(isinstance(sub, dict), f"{key} must be an object")
    unknown = set(sub) - set(known)
    _require(not unknown, f"unknown keys in {key}: {sorted(unknown)}")
    return sub


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Read scenario JSON; a key left out takes the dataclass default."""
    _require(isinstance(raw, dict), "scenario must be a JSON object")
    raw = dict(raw)
    version = raw.pop("version", SCHEMA_VERSION)
    _require(type(version) is int and version == SCHEMA_VERSION,
             f"version must be the integer {SCHEMA_VERSION}, got {version!r}")
    given = {}
    for section, keys in _LAYOUT.items():
        sub = _pop_object(raw, section, keys.values())
        given.update((name, sub[key]) for name, key in keys.items() if key in sub)
    for f in fields(ScenarioConfig):
        model = f.default_factory
        if is_dataclass(model):
            sub = _pop_object(raw, f.name, [g.name for g in fields(model)])
            try:
                given[f.name] = model(**sub)
            except DomainError as e:  # the rebate schedule checks itself when built
                raise ConfigError(f"{f.name}.{e}") from None
        elif f.name not in _JSON_PATH and f.name in raw:
            given[f.name] = raw.pop(f.name)
    _require(not raw, f"unknown scenario keys: {sorted(raw)}")
    return ScenarioConfig(**given).validate()


def scenario_to_json(cfg: ScenarioConfig) -> str:
    return json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def load_scenario(path: str | os.PathLike) -> ScenarioConfig:
    # open() would take an int as a file descriptor, read it and close it.
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"path must be a str or os.PathLike, got {path!r}")
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read scenario path {path!r}: {e}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"scenario {path!r} is not valid UTF-8 JSON: {e}") from None
    return scenario_from_dict(raw)


def builtin_scenarios() -> dict[str, ScenarioConfig]:
    """Named scenario presets usable anywhere a scenario file is."""
    scenarios = [
        ScenarioConfig(
            name="default",
            flow=FlowModel(arrival=2.0, limit_prob=0.3, limit_width=0.02,
                           no_reveal_prob=0.02),
        ),
        # Rebate capture with no user flow: every block is a pure
        # arbitrage update, so the kept fraction is cleanly measurable.
        # Short conversion windows keep the vault's mark-to-market noise
        # from drowning the ratio statistic.
        ScenarioConfig(name="lvr", blocks=500, conversion_frequency=2),
        # Zero-rebate schedule: the protocol degenerates to a plain CFMM.
        ScenarioConfig(
            name="fallback",
            rebate=RebateSchedule(z_max=0, beta0=0.0),
            flow=FlowModel(arrival=2.0, limit_prob=0.3, limit_width=0.02,
                           no_reveal_prob=0.02),
        ),
        # Heavy market-order flow for execution-price statistics.
        ScenarioConfig(
            name="neutrality",
            blocks=3000,
            flow=FlowModel(arrival=4.0),
        ),
        # Competitive producer deciding each block whether updating pays.
        ScenarioConfig(
            name="equilibrium",
            flow=FlowModel(arrival=1.0),
            producer=ProducerModel(update_policy="best_response", update_cost=2e-6),
        ),
        # Grid parameters for the strategy sweep; blocks unused there.
        ScenarioConfig(
            name="dominance",
            blocks=100,
            rebate=RebateSchedule(beta0=0.5),
            flow=FlowModel(arrival=4.0),
        ),
        # A producer that refuses to share: waits out the schedule and
        # updates only when the rebate has decayed to zero.
        ScenarioConfig(
            name="monopolist",
            blocks=300,
            flow=FlowModel(arrival=1.0),
            producer=ProducerModel(update_policy="threshold", min_keep=1.0),
        ),
    ]
    return {cfg.name: cfg.validate() for cfg in scenarios}
