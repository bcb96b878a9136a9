import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from v0lver.cli import main
from v0lver.config import (
    FlowModel,
    PriceModel,
    ProducerModel,
    builtin_scenarios,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
)
from v0lver.errors import ConfigError
from v0lver.rebate import RebateSchedule

VALID_Z_MAX = st.integers(min_value=1, max_value=2**63)
VALID_BETA0 = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
#: Valid ``rebate`` sections, a partial one taking the defaults for what it leaves out.
REBATE_SECTIONS = st.one_of(
    st.fixed_dictionaries({}, optional={"z_max": VALID_Z_MAX, "beta0": VALID_BETA0}),
    st.just({"z_max": 0, "beta0": 0.0}),
)


class TestRoundTrip:
    def test_every_builtin_survives_a_round_trip(self):
        for name, cfg in builtin_scenarios().items():
            again = scenario_from_dict(scenario_to_dict(cfg))
            assert again == cfg, name

    def test_json_round_trip_is_stable(self):
        cfg = builtin_scenarios()["default"]
        text = scenario_to_json(cfg)
        assert scenario_to_json(scenario_from_dict(json.loads(text))) == text

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(scenario_to_json(builtin_scenarios()["lvr"]))
        assert load_scenario(str(path)) == builtin_scenarios()["lvr"]

    @given(section=REBATE_SECTIONS)
    def test_a_valid_rebate_section_round_trips(self, section):
        cfg = scenario_from_dict({"rebate": section})
        assert cfg.rebate == RebateSchedule(**section)
        assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
        text = scenario_to_json(cfg)
        assert json.loads(text)["rebate"] == {"z_max": cfg.rebate.z_max,
                                              "beta0": cfg.rebate.beta0}
        assert scenario_to_json(scenario_from_dict(json.loads(text))) == text


class TestValidation:
    def test_builtins_validate(self):
        for cfg in builtin_scenarios().values():
            cfg.validate()

    def test_rejects_unknown_keys(self):
        raw = scenario_to_dict(builtin_scenarios()["default"])
        raw["extra"] = 1
        with pytest.raises(ConfigError):
            scenario_from_dict(raw)
        raw = scenario_to_dict(builtin_scenarios()["default"])
        raw["flow"]["bonus"] = 1
        with pytest.raises(ConfigError):
            scenario_from_dict(raw)

    def test_rejects_unsupported_version(self):
        raw = scenario_to_dict(builtin_scenarios()["default"])
        for version in (99, True, 1.0, "1"):
            raw["version"] = version
            with pytest.raises(ConfigError, match="version"):
                scenario_from_dict(raw)

    def test_rebate_switch_must_be_consistent(self):
        with pytest.raises(ConfigError, match="^rebate.beta0 must be 0 when z_max is 0$"):
            scenario_from_dict({"rebate": {"z_max": 0}})
        with pytest.raises(ConfigError, match="^rebate.beta0 must be > 0 when z_max > 0"):
            scenario_from_dict({"rebate": {"beta0": 0.0}})
        cfg = scenario_from_dict({"rebate": {"z_max": 0, "beta0": 0.0}})
        assert cfg.rebate == builtin_scenarios()["fallback"].rebate

    @pytest.mark.parametrize("section, named", [
        ({"z_max": 4.0}, "z_max"),
        ({"z_max": True}, "z_max"),
        ({"z_max": "4"}, "z_max"),
        ({"z_max": -1}, "z_max"),
        ({"beta0": 1.0}, "beta0"),
        ({"beta0": math.nan}, "beta0"),
        ({"beta0": True}, "beta0"),
        ({"beta0": "0.5"}, "beta0"),
        ({"z_max": 0, "beta0": 0.8}, "beta0"),
        ({"z_max": 4, "beta0": 0}, "beta0"),
    ])
    def test_a_bad_rebate_section_names_its_field(self, section, named, tmp_path, capsys):
        with pytest.raises(ConfigError, match=rf"^rebate\.{named} "):
            scenario_from_dict({"rebate": section})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rebate": section}))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: rebate.{named} ")

    def test_rejects_bad_field_values(self):
        cfg = builtin_scenarios()["default"]
        for change in (
            {"blocks": 0},
            {"pool_x": -1.0},
            {"max_x": 0.0},
            {"reveal_window": -1},
            {"conversion_frequency": -2},
            {"curve": "hyperbolic"},
            {"blocks": "10"},
            {"blocks": 10.5},
            {"blocks": True},
            {"name": 5},
            {"reveal_window": 1.5},
            {"record_events": "yes"},
            {"curve": ["x"]},
            {"pool_x": math.inf},
            {"max_y": 10**400},
            {"price": PriceModel(sigma=math.inf)},
            {"flow": FlowModel(arrival="4")},
            {"flow": FlowModel(limit_width=1.0)},
            {"flow": FlowModel(limit_width=5)},
            {"flow": FlowModel(arrival=1e6)},
            {"producer": ProducerModel(self_trade_alpha=2.0)},
            {"producer": ProducerModel(self_trade_alpha=1.5)},
            {"rebate": None},
            {"rebate": (4, 0.8)},
            {"price": None},
            {"flow": {"arrival": 2.0}},
        ):
            with pytest.raises(ConfigError):
                dataclasses.replace(cfg, **change).validate()

    @pytest.mark.parametrize("raw, path", [
        ({"blocks": "10"}, "blocks"),
        ({"blocks": True}, "blocks"),
        ({"pool": {"x": "1"}}, "pool.x"),
        ({"rebate": {"z_max": 4.0}}, "rebate.z_max"),
        ({"rebate": {"beta0": 2.0}}, "rebate.beta0"),
        ({"users": {"budget_y": math.nan}}, "users.budget_y"),
        ({"flow": {"arrival": "4"}}, "flow.arrival"),
        ({"flow": {"limit_width": 5}}, "flow.limit_width"),
        ({"price": {"sigma": math.inf}}, "price.sigma"),
        ({"producer": {"censor_rate": False}}, "producer.censor_rate"),
        ({"pool": {"x": 1e300, "y": 1e300}}, "pool.x * pool.y"),
        ({"pool": {"y": 5e-324}}, "pool.x * pool.y"),
        ({"pool": {"x": 1e250, "y": 1e-60}}, "pool.x / pool.y"),
        ({"pool": {"x": 1e-200, "y": 1e200}}, "pool.x / pool.y"),
        ({"price": {"drift": 0.01}}, "price.drift"),
    ])
    def test_errors_name_the_json_path(self, raw, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)} "):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("pool", [{"x": 1e250, "y": 1e-60}, {"x": 1e-200, "y": 1e200}])
    @pytest.mark.parametrize("command", ["validate", "run", "lvr", "sweep"])
    def test_a_pool_priced_out_of_range_exits_one_naming_both_fields(self, pool, command,
                                                                     tmp_path, capsys):
        # pool.x * pool.y lies in the float range; pool.x / pool.y does not
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"pool": pool}))
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert main([command, "--scenario", str(path), *out]) == 1
        assert capsys.readouterr() == ("", "error: pool.x / pool.y (the pool's price) "
                                           "must be finite and > 0\n")
        assert not (tmp_path / "out").exists()

    def test_sections_must_be_objects(self):
        for key in ("pool", "rebate", "price", "producer"):
            with pytest.raises(ConfigError, match=f"^{key} must be an object"):
                scenario_from_dict({key: [1]})

    def test_rejects_bad_policies(self):
        cfg = builtin_scenarios()["default"]
        with pytest.raises(ConfigError):
            dataclasses.replace(
                cfg, producer=dataclasses.replace(cfg.producer, update_policy="greedy")
            ).validate()
        with pytest.raises(ConfigError):
            dataclasses.replace(
                cfg, producer=dataclasses.replace(cfg.producer, price_policy="oracle")
            ).validate()

    @pytest.mark.parametrize("key, value", [
        ("price_policy", "offset"), ("price_policy", "stale"), ("price_offset", 1.01),
        ("self_trade_alpha", 0.5), ("censor_rate", 0.5),
    ])
    def test_pinned_producer_keys_take_only_their_default(self, key, value):
        with pytest.raises(ConfigError, match=rf"^producer\.{key} must be "):
            scenario_from_dict({"producer": {key: value}})
        default = getattr(ProducerModel(), key)
        assert getattr(scenario_from_dict({"producer": {key: default}}).producer, key) == default

    def test_schedule_construction(self):
        assert builtin_scenarios()["default"].rebate == RebateSchedule(z_max=4, beta0=0.8)
        assert builtin_scenarios()["dominance"].rebate == RebateSchedule(z_max=4, beta0=0.5)
        assert builtin_scenarios()["fallback"].rebate.value_at(0) == 0.0


class TestScenarioFiles:
    def test_files_are_the_builtins_written_out(self):
        scenarios = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
        builtins = builtin_scenarios()
        assert sorted(p.stem for p in scenarios.glob("*.json")) == sorted(builtins)
        for name, cfg in builtins.items():
            assert (scenarios / f"{name}.json").read_bytes() == scenario_to_json(cfg).encode(), name
