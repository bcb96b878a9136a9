import csv
import dataclasses
import json
import math
import os

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from v0lver import cli, sim
from v0lver.allocation import Order, OrderSide, Settlement
from v0lver.cfmm import Reserves
from v0lver.cli import main
from v0lver.config import builtin_scenarios, scenario_to_dict, scenario_to_json
from v0lver.engine import BlockReceipt, ExecutionReceipt, Oct, ReentryReceipt, UpdateReceipt
from v0lver.errors import InvariantViolation

from oracles import reference_events, reference_ndjson, strict_records

DEFAULT_FLOW = scenario_to_dict(builtin_scenarios()["default"])["flow"]
LVR = scenario_to_dict(builtin_scenarios()["lvr"])
FALLBACK = scenario_to_dict(builtin_scenarios()["fallback"])

# The keys of each events.ndjson record besides "height" and "kind".
EVENT_KEYS = {
    "oct_submitted": {"id", "owner", "token", "collateral"},
    "octs_inserted": {"ids", "producer"},
    "update_applied": {"label", "gap", "beta", "price", "producer_flow", "vault_deposit",
                       "count", "escrow", "producer"},
    "oct_revealed": {"id"},
    "oct_burned": {"id", "owner", "amount"},
    "batch_executed": {"label", "price", "pool_delta", "n_allocated", "n_revealed",
                       "n_burned", "to_pool", "to_producer"},
    "vault_reentered": {"eps", "added", "converter_flow", "converter"},
    "block_end": {"pool", "vault"},
}


@pytest.fixture
def tiny_scenario(tmp_path):
    """A cut-down copy of the default scenario, written as a file."""
    raw = scenario_to_dict(builtin_scenarios()["default"])
    raw["blocks"] = 25
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    return str(path)


def read_json(path):
    with open(path) as f:
        return json.load(f)


class TestRun:
    def test_produces_summary_and_blocks(self, tiny_scenario, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", "--scenario", tiny_scenario, "--seed", "5", "--out", out])
        assert code == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["command"] == "run"
        assert summary["seed"] == 5
        assert summary["metrics"]["blocks"] == 25
        with open(os.path.join(out, "blocks.csv")) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 25
        assert rows[0]["height"] == "0"
        assert float(rows[0]["pool_x"]) > 0
        assert not os.path.exists(os.path.join(out, "events.ndjson"))

    def test_json_table_format(self, tiny_scenario, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", tiny_scenario, "--out", out,
                     "--format", "json"]) == 0
        blocks = read_json(os.path.join(out, "blocks.json"))
        assert len(blocks) == 25
        assert blocks[3]["height"] == 3

    def test_event_stream(self, tmp_path):
        raw = scenario_to_dict(builtin_scenarios()["default"])
        raw["blocks"] = 10
        raw["record_events"] = True
        scn = tmp_path / "ev.json"
        scn.write_text(json.dumps(raw))
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", str(scn), "--out", out]) == 0
        with open(os.path.join(out, "events.ndjson")) as f:
            events = [json.loads(line) for line in f]
        assert events
        kinds = {e["kind"] for e in events}
        assert "update_applied" in kinds and "block_end" in kinds

    def test_event_schema(self, tmp_path):
        raw = scenario_to_dict(builtin_scenarios()["default"])
        raw["blocks"] = 40
        raw["record_events"] = True
        scn = tmp_path / "ev.json"
        scn.write_text(json.dumps(raw))
        out = str(tmp_path / "out")
        # seed 1 burns four unrevealed orders within 40 blocks
        assert main(["run", "--scenario", str(scn), "--seed", "1", "--out", out]) == 0
        with open(os.path.join(out, "events.ndjson")) as f:
            events = [json.loads(line) for line in f]
        assert {e["kind"] for e in events} == set(EVENT_KEYS)
        for e in events:
            assert set(e) == {"height", "kind"} | EVENT_KEYS[e["kind"]], e["kind"]
        # block_end closes every height, and the next height follows it
        assert events[0]["height"] == 0
        assert sum(e["kind"] == "block_end" for e in events) == 40
        for e, after in zip(events, events[1:] + [None]):
            if e["kind"] == "block_end":
                assert after is None or after["height"] == e["height"] + 1
            else:
                assert after is not None and after["height"] == e["height"]
        # a batch's burns come right before its batch_executed
        burned = 0
        for e in events:
            if e["kind"] == "oct_burned":
                burned += 1
            elif e["kind"] == "batch_executed":
                assert e["n_burned"] == burned
                burned = 0
        assert burned == 0

    def test_builtin_scenario_by_name(self, tmp_path):
        out = str(tmp_path / "out")
        raw = scenario_to_dict(builtin_scenarios()["fallback"])
        raw["blocks"] = 8
        scn = tmp_path / "f.json"
        scn.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(scn), "--out", out]) == 0

    def test_refuses_overwrite_without_force(self, tiny_scenario, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", tiny_scenario, "--out", out]) == 0
        assert main(["run", "--scenario", tiny_scenario, "--out", out]) == 1
        assert main(["run", "--scenario", tiny_scenario, "--out", out, "--force"]) == 0

    def test_reruns_are_byte_identical(self, tiny_scenario, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", "--scenario", tiny_scenario, "--seed", "3", "--out", out1])
        main(["run", "--scenario", tiny_scenario, "--seed", "3", "--out", out2])
        for name in ("summary.json", "blocks.csv"):
            with open(os.path.join(out1, name), "rb") as f1, open(
                os.path.join(out2, name), "rb"
            ) as f2:
                assert f1.read() == f2.read()


# Every float slot of a hand-built receipt: signed zeros, subnormals, the top of the
# range and the non-finite values, which events.ndjson writes as null.
FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308, math.nan, math.inf,
                          -math.inf]) | st.floats()
# Every str slot: quotes, backslashes, control characters, non-ASCII and lone surrogates.
TEXT = (st.sampled_from(['"', "\\", "\x00\n\x1f\x7f", "caf\xe9 \u20ac \U0001f600", "\ud800"])
        | st.text(st.characters(exclude_categories=())))
PAIRS = st.tuples(FLOATS, FLOATS)
IDS = st.lists(st.integers(), max_size=3).map(tuple)
OCTS = st.builds(Oct, st.integers(), TEXT, st.just("c"), TEXT, FLOATS)
UPDATES = st.builds(UpdateReceipt, st.integers(), st.integers(), FLOATS, FLOATS,
                    st.just(Reserves(1.0, 1.0)), PAIRS, PAIRS, PAIRS, st.just(Reserves(1.0, 1.0)),
                    TEXT, IDS)
EXECUTIONS = st.builds(
    ExecutionReceipt, UPDATES, st.builds(Settlement, FLOATS, PAIRS, st.just(()), FLOATS),
    st.lists(st.just(Order(OrderSide.BUY_Y, 1.0)), max_size=3).map(tuple), st.just(()),
    st.lists(OCTS, max_size=2).map(tuple), PAIRS, PAIRS)
BLOCKS = st.builds(
    BlockReceipt, st.integers(), FLOATS, st.lists(OCTS, max_size=3).map(tuple),
    st.lists(st.tuples(TEXT, IDS), max_size=2).map(tuple), st.none() | UPDATES, IDS,
    st.lists(EXECUTIONS, max_size=2).map(tuple),
    st.none() | st.builds(ReentryReceipt, PAIRS, PAIRS, TEXT), PAIRS, PAIRS)


class TestEventRenderer:
    @given(BLOCKS)
    def test_matches_the_reference_on_hand_built_receipts(self, block):
        for e in reference_events(block):
            event(e["kind"])
        text = block.ndjson()
        assert text == reference_ndjson(reference_events(block))
        strict_records(text)

    def test_nan_and_inf_read_back_as_null(self):
        block = BlockReceipt(7, math.nan, (), (), None, (), (), None, (1.5, math.inf),
                             (-math.inf, -0.0))
        assert strict_records(block.ndjson()) == [
            {"height": 7, "kind": "block_end", "pool": [1.5, None], "vault": [None, -0.0]}]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_a_builtin_log_is_the_reference_byte_for_byte(self, name, seed, tmp_path):
        cfg = dataclasses.replace(builtin_scenarios()[name], blocks=40, record_events=True)
        scn = tmp_path / "s.json"
        scn.write_text(scenario_to_json(cfg))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scn), "--seed", str(seed), "--out", str(out)]) == 0
        receipts = sim.run_scenario(cfg, seed).receipts
        expected = reference_ndjson(e for block in receipts for e in reference_events(block))
        assert (out / "events.ndjson").read_bytes() == expected.encode()


def _poisoned(experiment, poison):
    """``experiment`` with ``poison`` applied to its result before the CLI writes it."""
    def run(*args, **kwargs):
        result = experiment(*args, **kwargs)
        poison(result)
        return result
    return run


def _poison_lvr(result):
    result["ratios"][:2] = [math.nan, -math.inf]


def _poison_gaps(result):
    result["updates_by_gap"]["7"] = math.nan


def _poison_sweep(result):
    result["rows"][0]["utility"], result["rows"][1]["alpha"] = math.nan, math.inf


# Each command's JSON table, written from a result with NaN or infinite values in it: the
# monopolist's blocks without an update have a NaN update price, and the experiments'
# results are poisoned.
JSON_TABLES = [
    ("run", "monopolist", "run_scenario", lambda result: None, [], "blocks.json"),
    ("lvr", "lvr", "lvr_experiment", _poison_lvr, ["--runs", "3"], "ratios.json"),
    ("equilibrium", "equilibrium", "equilibrium_experiment", _poison_gaps, ["--runs", "2"],
     "gaps.json"),
    ("sweep", "dominance", "dominance_sweep", _poison_sweep, ["--trials", "50"], "sweep.json"),
]


class TestJsonTables:
    @pytest.mark.parametrize("command, name, experiment, poison, flags, table", JSON_TABLES)
    def test_a_json_table_is_the_indented_sorted_dump(self, command, name, experiment, poison,
                                                      flags, table, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, experiment, _poisoned(getattr(sim, experiment), poison))
        raw = scenario_to_dict(builtin_scenarios()[name])
        raw["blocks"] = 30
        scenario = tmp_path / "short.json"
        scenario.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(scenario), "--out", str(out), "--format", "json",
                     *flags]) == 0
        written = (out / table).read_bytes()
        rows = json.loads(written)
        assert any(None in row.values() for row in rows)  # NaN and inf read back as null
        assert written == (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode()

    @given(st.lists(st.dictionaries(TEXT, FLOATS | st.integers() | TEXT | st.none()
                                    | st.booleans(), min_size=1, max_size=4), max_size=4))
    def test_any_rows_of_scalars_write_as_the_indented_sorted_dump(self, rows):
        assert cli._table_json(rows) == json.dumps(cli._clean(rows), indent=2, sort_keys=True)


class TestExperimentCommands:
    def test_lvr_outputs_ratio_table(self, tmp_path):
        raw = scenario_to_dict(builtin_scenarios()["lvr"])
        raw["blocks"] = 60
        scn = tmp_path / "l.json"
        scn.write_text(json.dumps(raw))
        out = str(tmp_path / "out")
        assert main(["lvr", "--scenario", str(scn), "--out", out, "--runs", "4"]) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["result"]["runs"] == 4
        assert len(summary["result"]["ci95"]) == 2
        with open(os.path.join(out, "ratios.csv")) as f:
            assert len(list(csv.DictReader(f))) == 4

    def test_lvr_with_one_ratio_writes_no_interval(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["lvr", "--scenario", "lvr", "--out", out, "--runs", "1"]) == 0
        result = read_json(os.path.join(out, "summary.json"))["result"]
        assert result["runs"] == 1 and math.isfinite(result["mean_ratio"])
        assert (result["se"], result["ci95"]) == (None, [None, None])

    def test_lvr_jobs_do_not_change_results(self, tmp_path):
        raw = scenario_to_dict(builtin_scenarios()["lvr"])
        raw["blocks"] = 40
        scn = tmp_path / "l.json"
        scn.write_text(json.dumps(raw))
        outs = []
        for jobs, tag in (("1", "a"), ("2", "b")):
            out = str(tmp_path / tag)
            assert main(["lvr", "--scenario", str(scn), "--out", out,
                         "--runs", "4", "--jobs", jobs]) == 0
            with open(os.path.join(out, "ratios.csv"), "rb") as f:
                outs.append(f.read())
        assert outs[0] == outs[1]

    def test_equilibrium_outputs_gap_table(self, tmp_path):
        raw = scenario_to_dict(builtin_scenarios()["equilibrium"])
        raw["blocks"] = 40
        scn = tmp_path / "e.json"
        scn.write_text(json.dumps(raw))
        out = str(tmp_path / "out")
        assert main(["equilibrium", "--scenario", str(scn), "--out", out,
                     "--runs", "3"]) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["result"]["frac_gap0"] == pytest.approx(1.0)
        with open(os.path.join(out, "gaps.csv")) as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["gap"] == "0"

    def test_sweep_reports_best_point(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["sweep", "--scenario", "dominance", "--out", out,
                     "--trials", "500"]) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["result"]["best"]["multiplier"] == 1.0
        assert summary["result"]["best"]["alpha"] == 0.0
        with open(os.path.join(out, "sweep.csv")) as f:
            assert len(list(csv.DictReader(f))) == 21 * 3


class TestValidate:
    def test_normal_form_to_stdout(self, capsys):
        assert main(["validate", "--scenario", "default"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["name"] == "default"
        assert parsed["version"] == 1

    def test_normal_form_roundtrip(self, tmp_path):
        path = str(tmp_path / "norm.json")
        assert main(["validate", "--scenario", "lvr", "--out", path]) == 0
        assert main(["validate", "--scenario", path]) == 0
        assert main(["validate", "--scenario", "lvr", "--out", path]) == 1  # no --force
        assert main(["validate", "--scenario", "lvr", "--out", path, "--force"]) == 0

    def test_rejects_bad_scenarios(self, tmp_path):
        bad = tmp_path / "bad.json"
        raw = scenario_to_dict(builtin_scenarios()["default"])
        raw["rebate"]["beta0"] = 2.0
        bad.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(bad)]) == 1
        unknown = tmp_path / "unk.json"
        raw = scenario_to_dict(builtin_scenarios()["default"])
        raw["surprise"] = 1
        unknown.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(unknown)]) == 1

    @pytest.mark.parametrize("key, value", [
        ("price_policy", "stale"), ("price_offset", 0.99), ("self_trade_alpha", 0.25),
        ("censor_rate", 0.5),
    ])
    def test_pinned_producer_key_exits_one_naming_it(self, key, value, tmp_path, capsys):
        scn = tmp_path / "pinned.json"
        scn.write_text(json.dumps({"producer": {key: value}}))
        assert main(["validate", "--scenario", str(scn)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"producer.{key} must be " in err

    def test_unknown_scenario_name(self):
        assert main(["validate", "--scenario", "no-such-scenario"]) == 1


class TestExitCodes:
    def test_usage_errors_exit_one(self):
        assert main([]) == 1
        assert main(["run"]) == 1  # missing required flags
        assert main(["run", "--scenario", "default", "--out", "/tmp/x",
                     "--format", "xml"]) == 1

    @pytest.mark.parametrize("command, flag", [
        ("lvr", "--runs"), ("lvr", "--jobs"), ("equilibrium", "--runs"),
        ("equilibrium", "--jobs"), ("sweep", "--trials"),
    ])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_below_one_exit_one(self, command, flag, value, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main([command, "--scenario", "lvr", "--out", out, flag, value]) == 1
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("error, message", [
        (InvariantViolation("x"), "invariant violation: x\n"),
        (RuntimeError("boom"), "internal error: RuntimeError: boom\n"),
    ])
    def test_engine_breaks_and_bugs_exit_two(self, error, message, tiny_scenario, tmp_path,
                                             capsys, monkeypatch):
        def run_scenario(cfg, seed):
            raise error

        monkeypatch.setattr(sim, "run_scenario", run_scenario)
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", tiny_scenario, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("command, raw, message", [
        ("run", {"blocks": 20, "producer": {"budget_x": 0.0, "budget_y": 0.0}},
         "funded by producer.budget_x/producer.budget_y"),
        ("sweep", {"blocks": 20, "flow": {"limit_prob": 0.3}}, "flow.limit_prob must be 0"),
    ])
    def test_a_refused_run_leaves_no_out_directory(self, command, raw, message, tmp_path,
                                                   capsys):
        # lvr and equilibrium: the two tests below
        scn = tmp_path / "refused.json"
        scn.write_text(json.dumps(raw))
        out = str(tmp_path / "out")
        assert main([command, "--scenario", str(scn), "--out", out]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, name, flags, later", [
        ("run", "default", [], "events.ndjson"),
        ("lvr", "lvr", ["--runs", "2"], "ratios.csv"),
        ("equilibrium", "equilibrium", ["--runs", "2", "--format", "json"], "gaps.json"),
        ("sweep", "dominance", ["--trials", "20"], "sweep.csv"),
    ])
    @pytest.mark.parametrize("directory", [False, True])
    def test_a_refused_later_target_writes_nothing(self, command, name, flags, later, directory,
                                                   tmp_path, capsys):
        # The target written last exists: as a file without --force, or as a directory.
        cfg = dataclasses.replace(builtin_scenarios()[name], blocks=60, record_events=True)
        scn = tmp_path / "s.json"
        scn.write_text(scenario_to_json(cfg))
        out = tmp_path / "out"
        out.mkdir()
        if directory:
            (out / later).mkdir()
            flags = flags + ["--force"]
        else:
            (out / later).write_bytes(b"stale\n")
        assert main([command, "--scenario", str(scn), "--out", str(out), *flags]) == 1
        assert later in capsys.readouterr().err
        assert os.listdir(out) == [later]
        if directory:
            assert os.listdir(out / later) == []
        else:
            assert (out / later).read_bytes() == b"stale\n"

    @pytest.mark.parametrize("command, experiment", [
        ("run", "run_scenario"), ("lvr", "lvr_experiment"),
        ("equilibrium", "equilibrium_experiment"), ("sweep", "dominance_sweep"),
    ])
    def test_an_out_that_can_never_be_a_directory_is_refused_before_the_run(
            self, command, experiment, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, experiment, lambda *a, **kw: calls.append(a))
        afile, dangling = tmp_path / "afile", tmp_path / "dangling"
        afile.write_text("kept\n")
        dangling.symlink_to(tmp_path / "missing")
        monkeypatch.chdir(tmp_path)
        for out in (afile, afile / "out", afile / "a" / "b", dangling, dangling / "out", ""):
            assert main([command, "--scenario", "lvr", "--out", str(out)]) == 1
            assert f"--out {str(out)!r} is not a usable directory" in capsys.readouterr().err
        assert calls == []
        assert afile.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["afile", "dangling"]

    def test_an_out_several_levels_deep_is_created_after_the_run(self, tmp_path):
        out = tmp_path / "a" / "b" / "out"
        assert main(["sweep", "--scenario", "dominance", "--out", str(out),
                     "--trials", "20"]) == 0
        assert sorted(os.listdir(out)) == ["summary.json", "sweep.csv"]

    def test_lvr_without_extraction_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "flat.json"
        scn.write_text(json.dumps({"blocks": 20, "price": {"sigma": 0.0}}))
        out = str(tmp_path / "out")
        assert main(["lvr", "--scenario", str(scn), "--out", out, "--runs", "2"]) == 1
        assert "no run produced an LVR ratio" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_equilibrium_without_update_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "idle.json"
        scn.write_text(json.dumps({"blocks": 20, "producer": {"update_policy": "never"}}))
        out = str(tmp_path / "out")
        assert main(["equilibrium", "--scenario", str(scn), "--out", out, "--runs", "2"]) == 1
        assert "no run made an update" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("raw, path", [
        ({"blocks": "10"}, "blocks"),
        ({"blocks": 10.5}, "blocks"),
        ({"blocks": True}, "blocks"),
        ({"name": 5}, "name"),
        ({"reveal_window": 1.5}, "reveal_window"),
        ({"record_events": "yes"}, "record_events"),
        ({"curve": ["x"]}, "curve"),
        ({"flow": {"arrival": "4"}}, "flow.arrival"),
        ({"flow": {"limit_width": 5}}, "flow.limit_width"),
        # valid, but a drawn y size underflows to 0.0
        ({"flow": {**DEFAULT_FLOW, "value_frac": 5e-324}}, "flow.value_frac"),
        ({"price": {"sigma": math.inf}}, "price.sigma"),
        ({"price": {"sigma": 1e200}}, "price.sigma"),
        ({"price": {"drift": 800}}, "price.drift"),
        ({"rebate": {"z_max": 4.0}}, "rebate.z_max"),
        ({"producer": {"self_trade_alpha": 2}}, "producer.self_trade_alpha"),
        ({"version": True}, "version"),
        ({"version": 1.0}, "version"),
        ({"flow": DEFAULT_FLOW, "producer": {"budget_x": 0}}, "producer.budget_x"),
        ({"flow": DEFAULT_FLOW, "bounds": {"max_x": 1e10}}, "users.budget_x"),
        ({"flow": DEFAULT_FLOW, "price": {"initial": 1e10}, "producer": {"budget_x": 1e9}},
         "pool.x"),
        # the producer cannot pay the ~2e7 x of the first update's move
        ({"flow": DEFAULT_FLOW, "price": {"initial": 1e10}}, "producer.budget_x"),
        ({**LVR, "producer": {**LVR["producer"], "budget_x": 0, "budget_y": 0}},
         "producer.budget_x"),
        # the first move asks the producer for ~1e18 x: its ~1e30 y leg must
        # not widen the x overdraft tolerance
        ({**FALLBACK, "pool": {**FALLBACK["pool"], "y": 1e30}}, "producer.budget_x"),
    ])
    def test_bad_field_exits_one_naming_it(self, raw, path, tmp_path, capsys):
        scn = tmp_path / "bad.json"
        scn.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and path in err

    def test_an_overflowing_limit_exits_one_naming_the_width_and_the_price(self, tmp_path,
                                                                          capsys):
        scn = tmp_path / "overflow.json"
        scn.write_text(json.dumps({"blocks": 3, "price": {"initial": 1.7e308, "sigma": 0.0},
                                   "flow": {"arrival": 50.0, "limit_prob": 1.0,
                                            "limit_width": 0.5}}))
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "flow.limit_width 0.5" in err and "1.7e+308" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "lvr", "equilibrium", "sweep"])
    def test_negative_seed_exits_one(self, command, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main([command, "--scenario", "lvr", "--out", out, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "argument --seed: must be >= 0" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("under", [False, True])
    def test_run_out_that_is_no_directory_exits_one(self, under, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        assert main(["run", "--scenario", "lvr", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err

    def test_run_artifact_that_is_a_directory_exits_one(self, tiny_scenario, tmp_path, capsys):
        (tmp_path / "out" / "summary.json").mkdir(parents=True)
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", tiny_scenario, "--out", out, "--force"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out file" in err and "summary.json" in err

    @pytest.mark.parametrize("missing_parent", [False, True])
    def test_validate_out_that_cannot_be_written_exits_one(self, missing_parent, tmp_path,
                                                           capsys):
        out = tmp_path / "nope" / "lvr.json" if missing_parent else tmp_path
        assert main(["validate", "--scenario", "lvr", "--out", str(out), "--force"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err

    def test_scenario_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "latin1.json"
        scn.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(scn) in err

    @pytest.mark.parametrize("name", ["lvr", "default"])
    @pytest.mark.parametrize("section, key", [("pool", "x"), ("pool", "y"), ("price", "initial")])
    @pytest.mark.parametrize("value", [1e-300, 5e-324, 1e154, 1e300, 1.7e308])
    def test_extreme_pool_and_price_values_exit_zero_or_one(self, name, section, key, value,
                                                            tmp_path, capsys):
        raw = scenario_to_dict(builtin_scenarios()[name])
        raw["blocks"] = 5
        raw[section][key] = value
        scn = tmp_path / "extreme.json"
        scn.write_text(json.dumps(raw))
        code = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        assert err == "" if code == 0 else err.count("\n") == 1, err

    @pytest.mark.parametrize("name", ["lvr", "equilibrium", "monopolist"])
    def test_update_target_out_of_float_range_exits_one(self, name, tmp_path, capsys):
        # at a subnormal price the target's reserves overflow: producers of
        # every update policy fail instead of never updating
        raw = scenario_to_dict(builtin_scenarios()[name])
        raw["blocks"] = 5
        raw["price"]["initial"] = 5e-324
        scn = tmp_path / "subnormal.json"
        scn.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "pool reserves must be live Reserves" in err

    def test_missing_scenario_file(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--out", out]) == 1
