"""The package's public boundary, one row per export.

The boundary is the set of names ``v0lver/__init__.py`` imports; there is no
second list. Every public callable among them, and every public method of an
exported class that takes arguments, has a ``Row``: a valid call, and for
each argument what the call does when that argument alone is hostile. Each
argument is tried with every value of ``HOSTILE`` plus the values its
``Arg`` adds. A call either raises a ``V0lverError`` whose message starts by
naming the argument (``<argument> must`` unless the ``Arg`` says how), or
returns, and it returns only for the values its ``Arg`` accepts, for the
reason the ``Arg`` gives. ``MORE_ROWS`` tries an export again where one
argument's rule turns on another's value. The names that are no call
(records the package builds, its errors and its constants) have a ``Kept``
row saying so. ``test_every_export_has_a_row`` fails for a name or an
argument with no row.
"""
import dataclasses
import enum
import inspect
import json
import math
import os
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import v0lver
from v0lver import (
    CONSTANT_PRODUCT,
    ChainState,
    FlowModel,
    Order,
    OrderSide,
    PriceModel,
    ProducerModel,
    RebateSchedule,
    Reserves,
    ScenarioConfig,
    V0lverError,
    builtin_scenarios,
    clearing_price_with_limits,
    dominance_sweep,
    equilibrium_experiment,
    load_scenario,
    lvr_experiment,
    run_many,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    user_price_experiment,
    verify_clearing_price,
)
from v0lver.config import _JSON_PATH, scenario_to_json

#: Tried on every argument of every row.
HOSTILE = ("2", None, True, np.True_, math.nan, math.inf, -1.0, 3.5, ())


class Arg(NamedTuple):
    """What one argument does with hostile values: it refuses every value of
    ``HOSTILE`` and of ``refuses``, and takes those of ``accepts``, for ``why``.
    A refusal names the argument: the message starts with a match of ``named``,
    ``<argument> must`` when empty."""

    accepts: tuple = ()
    refuses: tuple = ()
    named: str = ""
    why: str = ""


class Row(NamedTuple):
    """An export called with keyword arguments: ``call(**valid)`` returns, and
    ``args`` has one ``Arg`` per argument of the export."""

    call: Callable
    valid: dict
    args: dict


class Kept(NamedTuple):
    """An export that is no checked call: a ``record`` (built by the package,
    every field taken as given, and checked where it is read), an ``error``
    (raised, not called with input) or a ``constant``."""

    kind: str
    why: str


# --- values the rows share ----------------------------------------------------

PRICE = Arg(accepts=(3.5, np.float32(2.5), np.int64(2), Fraction(5, 2)),
            refuses=(b"2", 0.0, -0.0, -2.0, -math.inf, 10**400),
            why="a real number, no bool and no text, finite and > 0, is a price")
COUNT = Arg(accepts=(np.int64(2), np.uint8(2)),
            refuses=(1.7, 2.0, np.float64(2.0), Fraction(2), b"2", -1),
            why="an integral number >= 0, numpy's too, is a count")
SEED = Arg(refuses=(-1, 2.5, "3", b"3"))
AT_LEAST_ONE = Arg(refuses=(0, -1, 2.5, "2"))
LIVE = Arg(accepts=(Reserves(3.5, 1.0), Reserves(100, 1), Reserves(np.float64(3.5), 1.0)),
           refuses=tuple(Reserves(v, 1.0) for v in HOSTILE if v != 3.5)
           + ((100.0, 1.0), Reserves(0.0, 1.0), Reserves(1e308, 1e-308), Reserves(1e-300, 1e300),
              Reserves(10**400, 1.0), Reserves("1", 1.0), Reserves(1.0, "1")),
           why="live Reserves: two prices whose ratio is a price")
ENGINE_ACCOUNTS = ("pool", "vault", "collateral", "burned", "alloc:0")
AGENT = Arg(accepts=("2",), refuses=ENGINE_ACCOUNTS,
            why="any str but the engine's own accounts names an agent ('2' is funded here)")

TINY = dataclasses.replace(builtin_scenarios()["lvr"], blocks=3)
#: Scenarios that are ScenarioConfigs, refused for a field they name.
BAD_SCENARIOS = (dataclasses.replace(TINY, blocks=0),
                 dataclasses.replace(TINY, flow=FlowModel(arrival=2.0, value_frac=5e-324)))
NOT_SCENARIOS = ({}, "lvr", scenario_to_dict(TINY))
SCENARIO = Arg(refuses=NOT_SCENARIOS + BAD_SCENARIOS,
               named=r"(cfg|blocks) must|flow\.value_frac \S+ is too small")
BUY = Order(OrderSide.BUY_Y, 5.0)
SNAP = Reserves(100.0, 100.0)
ORDERS = r"orders(\[\d+\])? must"


def chain():
    """A chain at height 0 whose agents ``u``, ``p`` and ``2`` are funded."""
    return ChainState(Reserves(10_000.0, 100.0), RebateSchedule(), max_x=10.0, max_y=0.1,
                      balances={"u": (1_000.0, 10.0), "p": (1e6, 1e4), "2": (1_000.0, 10.0)})


def pending():
    """``chain()`` with ``u``'s order ``BUY`` pending as OCT 0."""
    c = chain()
    c.submit_oct("u", BUY)
    return c


def allocated():
    """``pending()`` with OCT 0 inserted and allocated to batch 0 by ``p``."""
    c = pending()
    c.insert_octs("p", [0])
    c.apply_update_tx("p", 0, 100.0)
    return c


def revealed():
    """``allocated()`` with OCT 0 revealed, so batch 0 is due."""
    c = allocated()
    c.reveal_order(0, BUY)
    return c


def verified(**kw):
    """``verify_clearing_price``, raising where it refuses a proposal by returning None."""
    settled = verify_clearing_price(**kw)
    if settled is None:
        raise V0lverError(f"proposed must clear the batch, got {kw['proposed']!r}")
    return settled


def model_row(model, section, accepts=None, refuses=None):
    """The row of a scenario model, built unchecked and checked by its ``validate``:
    every field takes ``accepts[field]``, refuses the hostile values and
    ``refuses[field]``, and a refusal names the field by its JSON path."""
    def call(**fields):
        model(**fields).validate()

    accepts, refuses, defaults, args = accepts or {}, refuses or {}, model(), {}
    for f in dataclasses.fields(model):
        path = f"{section}.{f.name}" if section else _JSON_PATH.get(f.name, f.name)
        taken = accepts.get(f.name, ())
        named = rf"(\S+ and )?{re.escape(path)}( and \S+)? must"  # or both of a pair
        args[f.name] = Arg(accepts=taken, refuses=refuses.get(f.name, ()), named=named,
                           why="a value of the field's type inside its range" if taken else "")
    return Row(call, {f.name: getattr(defaults, f.name) for f in dataclasses.fields(model)}, args)


def experiment_row(fn, **valid):
    return Row(fn, {"cfg": TINY, "seed": 0, **valid},
               {"cfg": SCENARIO, "seed": SEED, **{name: AT_LEAST_ONE for name in valid}})


RECORD = "built by the package as it runs; every field is taken as given"

ROWS = {
    # --- cfmm
    "CONSTANT_PRODUCT": Kept("constant", "the one curve; its methods are unchecked formulas "
                                         "that the checked functions call with live values"),
    "Reserves": Kept("record", "a plain (x, y) pair; what reads one checks it live "
                               "(the ChainState reserves and snapshot rows)"),
    # --- rebate
    "RebateSchedule": Row(RebateSchedule, {"z_max": 4, "beta0": 0.8}, {
        "z_max": COUNT._replace(refuses=COUNT.refuses + (False, np.False_)),
        "beta0": Arg(accepts=(np.float32(0.5), np.float64(0.5), Fraction(1, 2)),
                     refuses=(0.0, 1.0, False, "0.5", b"0.5"),
                     why="a real number in (0, 1) when z_max > 0"),
    }),
    "RebateSchedule.value_at": Row(lambda **kw: RebateSchedule().value_at(**kw), {"gap": 0}, {
        "gap": COUNT._replace(accepts=COUNT.accepts + (7,), refuses=COUNT.refuses + (2.5,)),
    }),
    # --- allocation
    "Order": Row(Order, {"side": OrderSide.BUY_Y, "size": 5.0, "limit": None}, {
        "side": Arg(accepts=("buy_y", "sell_y", OrderSide.SELL_Y), refuses=("buy", "BUY_Y"),
                    named="order side must", why="an OrderSide or its value"),
        "size": PRICE._replace(named="order size must"),
        "limit": PRICE._replace(accepts=PRICE.accepts + (None,), named="order limit must",
                                why=PRICE.why + "; None makes a market order"),
    }),
    "OrderSide": Kept("constant", "the two sides; Order reads a side through it (the Order row)"),
    "Fill": Kept("record", RECORD),
    "Settlement": Kept("record", RECORD),
    "clearing_price_with_limits": Row(
        clearing_price_with_limits,
        {"curve": CONSTANT_PRODUCT, "snapshot": SNAP, "orders": [BUY]}, {
            "curve": Arg(refuses=(type(CONSTANT_PRODUCT)(), "constant_product")),
            "snapshot": LIVE,
            "orders": Arg(accepts=((), []), refuses=([None], [(OrderSide.BUY_Y, 1.0, None)],
                                                     [BUY, "buy"], 5),
                          named=ORDERS, why="an empty batch clears at the snapshot price"),
        }),
    "verify_clearing_price": Row(
        verified,
        {"curve": CONSTANT_PRODUCT, "snapshot": SNAP, "orders": [], "proposed": 1.0}, {
            "curve": Arg(refuses=(type(CONSTANT_PRODUCT)(), "constant_product")),
            "snapshot": LIVE._replace(
                accepts=(Reserves(100, 100), Reserves(np.float64(3.5), 3.5)),
                why="live Reserves priced at 1.0, where the empty batch clears"),
            "orders": Arg(accepts=((), [BUY, Order(OrderSide.SELL_Y, 5.0)]),
                          refuses=([None], [(OrderSide.BUY_Y, 1.0, None)], 5), named=ORDERS,
                          why="a batch of Orders that clears at the pool price, empty included"),
            "proposed": PRICE._replace(
                accepts=(1, np.float64(1.0), np.int64(1), Fraction(1)),
                refuses=PRICE.refuses + ("1.0", b"1", "1", 2.0),
                why="a real number, no bool and no text, equal to the clearing price 1.0"),
        }),
    # --- config
    "PriceModel": model_row(PriceModel, "price",
                            {"initial": (3.5,), "sigma": (3.5, 0.0)},
                            {"initial": (0.0,), "sigma": (-0.5, "0.02"), "drift": (0.01,)}),
    "FlowModel": model_row(FlowModel, "flow", {"arrival": (3.5,)}),
    "ProducerModel": model_row(ProducerModel, "producer", {
        "update_cost": (3.5,), "budget_x": (3.5,), "budget_y": (3.5,)}),
    "ScenarioConfig": model_row(ScenarioConfig, "", {
        "name": ("2",), "pool_x": (3.5,), "pool_y": (3.5,), "max_x": (3.5,), "max_y": (3.5,),
        "record_events": (True,), "user_budget_x": (3.5,), "user_budget_y": (3.5,)}),
    "builtin_scenarios": Row(builtin_scenarios, {}, {}),
    "load_scenario": Row(load_scenario, {"path": "tiny.json"}, {
        "path": Arg(accepts=(Path("tiny.json"),),
                    refuses=(False, 0, b"tiny.json", "missing.json", "."),
                    named="path must|cannot read scenario path",
                    why="a str or os.PathLike names a file (a tiny.json sits in the cwd)"),
    }),
    "scenario_from_dict": Row(scenario_from_dict, {"raw": {}}, {
        "raw": Arg(accepts=({"blocks": 3},), refuses=({"blocks": "2"}, {"version": True},
                                                    {"pool": {"x": None}}),
                   named=r"(scenario|blocks|version|pool\.x) must",
                   why="a JSON object; a key left out takes its default"),
    }),
    "scenario_to_dict": Row(scenario_to_dict, {"cfg": TINY}, {
        "cfg": Arg(refuses=NOT_SCENARIOS + (BAD_SCENARIOS[0], ScenarioConfig(rebate="x")),
                   named="(cfg|blocks|rebate) must"),
    }),
    # --- engine
    "ChainState": Row(ChainState, {
        "reserves": Reserves(10_000.0, 100.0), "schedule": RebateSchedule(), "max_x": 10.0,
        "max_y": 0.1, "reveal_window": 2, "conversion_frequency": 1, "balances": None}, {
        "reserves": Arg(accepts=((3.5, 1.0), [3.5, 1.0], (100, 1), Reserves(3.5, 1.0)),
                        refuses=tuple((v, 1.0) for v in HOSTILE if v != 3.5)
                        + ((1.0, 0.0), (1.0, math.inf), (1.0, False), (b"2", 1.0), (1.0,),
                           (1e-300, 1e300), (1.0, 2.0, 3.0), ("100", "1"), 100.0),
                        why="any pair of two prices whose ratio is a price"),
        "schedule": Arg(refuses=({"z_max": 4, "beta0": 0.8}, 0.8)),
        "max_x": PRICE,
        "max_y": PRICE,
        "reveal_window": COUNT._replace(accepts=COUNT.accepts + (0,)),
        "conversion_frequency": COUNT._replace(accepts=COUNT.accepts + (0,)),
        "balances": Arg(
            accepts=(None, {}, {"2": (1.0, 1.0)}, {"u": (3.5, 0.0)}, {"vault": (5.0, 0.0)}),
            refuses=tuple({v: (1.0, 1.0)} for v in HOSTILE if v != "2")
            + tuple({"u": (v, 0.0)} for v in HOSTILE if v != 3.5)
            + tuple({name: (1.0, 1.0)} for name in ENGINE_ACCOUNTS if name != "vault")
            + ({"u": (1.0, 2.0, 3.0)}, {"u": (b"2", 0.0)}, {"u": (0.0, False)},
               [("u", (1.0, 1.0))], (("u", (1.0, 1.0)),)),
            named="(opening )?balances?( of '[^']*')? must",
            why="a dict of agent -> pair of real numbers >= 0; the vault may open funded"),
    }),
    "ChainState.submit_oct": Row(lambda **kw: chain().submit_oct(**kw),
                                 {"owner": "u", "order": BUY}, {
        "owner": AGENT,
        "order": Arg(refuses=((OrderSide.BUY_Y, 5.0, None), Order(OrderSide.BUY_Y, 10.5)),
                     named=r"order (must|size \S+ exceeds)"),
    }),
    "ChainState.insert_octs": Row(lambda **kw: pending().insert_octs(**kw),
                                  {"producer": "p", "oct_ids": [0]}, {
        "producer": AGENT,
        "oct_ids": Arg(accepts=((), [], (0,), range(1)),
                       refuses=([np.int64(0)], [True], [0.0], ["0"], [0, 0], [1], 0),
                       named=r"oct_ids must|oct \S+ is not in the mempool",
                       why="an iterable of pending OCT ids, empty included"),
    }),
    "ChainState.apply_update_tx": Row(lambda **kw: pending().apply_update_tx(**kw),
                                      {"producer": "p", "alloc_label": 0, "price": 100.0}, {
        "producer": AGENT,
        "alloc_label": Arg(refuses=(np.int64(0), 0.0, False, "0")),
        "price": PRICE,
    }),
    "ChainState.reveal_order": Row(lambda **kw: allocated().reveal_order(**kw),
                                   {"oct_id": 0, "order": BUY}, {
        "oct_id": Arg(refuses=(np.int64(0), 0.0, False, "0", 1), named=r"oct \S+ is not allocated"),
        "order": Arg(refuses=((OrderSide.BUY_Y, 5.0, None), Order(OrderSide.BUY_Y, 5.5),
                              Order(OrderSide.SELL_Y, 0.05)),
                     named="order (must|does not match the commitment)"),
    }),
    "ChainState.execute_batch": Row(lambda **kw: revealed().execute_batch(**kw),
                                    {"label": 0, "proposed_price": None}, {
        "label": Arg(refuses=(np.int64(0), 0.0, False, "0", 1),
                     named="label must|no open allocation with label"),
        "proposed_price": Arg(accepts=(None,), refuses=(100.0, b"2"),
                              named=r"proposed clearing price \S+ failed verification",
                              why="None settles at the solver's price"),
    }),
    "ChainState.advance_block": Row(lambda **kw: chain().advance_block(**kw),
                                    {"eps": 100.0, "converter": None}, {
        "eps": PRICE,
        "converter": AGENT._replace(accepts=("2", None),
                                    why=AGENT.why + "; None is the default 'converter'"),
    }),
    "BlockReceipt": Kept("record", RECORD),
    "ExecutionReceipt": Kept("record", RECORD),
    "Oct": Kept("record", RECORD),
    "UpdateReceipt": Kept("record", RECORD),
    # --- sim
    "RunMetrics": Kept("record", RECORD),
    "RunResult": Kept("record", RECORD),
    "run_scenario": Row(run_scenario, {"cfg": TINY, "seed": 0}, {
        "cfg": SCENARIO,
        "seed": SEED._replace(accepts=(np.int64(3), np.uint64(2**63)),
                              why="an integral number >= 0, numpy's too, seeds the run"),
    }),
    "run_many": experiment_row(run_many, runs=1, jobs=1),
    "lvr_experiment": experiment_row(lvr_experiment, runs=1, jobs=1),
    "user_price_experiment": experiment_row(user_price_experiment, runs=1, jobs=1),
    "equilibrium_experiment": experiment_row(equilibrium_experiment, runs=1, jobs=1),
    "dominance_sweep": experiment_row(dominance_sweep, trials=2),
}
#: Rows beyond ``ROWS``' one per export, keyed ``export: valid call``.
MORE_ROWS = {
    "RebateSchedule: no horizon": Row(RebateSchedule, {"z_max": 0, "beta0": 0.0}, {
        "z_max": Arg(accepts=(np.int64(0), np.uint8(0)),
                     refuses=(False, np.False_, 0.0, np.float64(0.0), Fraction(0), "0"),
                     why="an integral number 0, numpy's too, is no horizon"),
        "beta0": Arg(accepts=(0, -0.0, np.float64(0.0), Fraction(0)),
                     refuses=(False, np.False_, 0.5, "0", b"0"),
                     why="a real number equal to 0 is no rebate"),
    }),
}
ROWS["dominance_sweep"].args["cfg"] = SCENARIO._replace(
    refuses=SCENARIO.refuses + (dataclasses.replace(TINY, flow=FlowModel(limit_prob=0.5)),),
    named=SCENARIO.named + r"|flow\.limit_prob must")
for _error in ("V0lverError", "ConfigError", "DomainError", "FundingError", "InvalidTransition",
               "InvariantViolation", "VerificationError"):
    ROWS[_error] = Kept("error", "raised by the package, not called with input")


def exported_names():
    """Every public non-module name of the package: the boundary's names."""
    return {n for n, obj in vars(v0lver).items()
            if not n.startswith("_") and not inspect.ismodule(obj)}


def exports():
    """``exported_names()``, and ``Class.method`` for each public method of an
    exported class that takes arguments."""
    names = exported_names()
    for n in list(names):
        obj = getattr(v0lver, n)
        if inspect.isclass(obj):
            names.update(f"{n}.{m}" for m, fn in vars(obj).items()
                         if not m.startswith("_") and inspect.isfunction(fn)
                         and len(inspect.signature(fn).parameters) > 1)
    return names


def parameters(name):
    """The names of the arguments the export ``name`` takes (``self`` left out)."""
    obj = v0lver
    for part in name.split("."):
        obj = getattr(obj, part)
    params = list(inspect.signature(obj).parameters)
    return set(params[1:] if "." in name else params)


def same(a, b):
    """``a`` and ``b`` are of one type and one repr (so NaN is NaN, and True no 1.0)."""
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.fixture(autouse=True)
def scenario_file(tmp_path, monkeypatch):
    """Run in an empty directory that holds ``tiny.json``, the scenario ``TINY``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.json").write_text(scenario_to_json(TINY))


def test_every_export_has_a_row():
    assert set(ROWS) == exports()
    for name, row in [*ROWS.items(), *MORE_ROWS.items()]:
        if isinstance(row, Row):
            assert set(row.valid) == set(row.args) == parameters(name.split(":")[0]), name
            for arg, spec in row.args.items():
                assert bool(spec.accepts) == bool(spec.why), f"{name}({arg}): accepts need a why"
        else:
            assert row.kind in ("record", "error", "constant") and row.why, name


ALL_ROWS = {**ROWS, **MORE_ROWS}
ARGS = [(name, arg) for name, row in ALL_ROWS.items() if isinstance(row, Row) for arg in row.args]


@pytest.mark.parametrize("name, arg", ARGS, ids=[f"{n}({a})" for n, a in ARGS])
def test_each_argument_refuses_what_its_row_does_not_accept(name, arg):
    row = ALL_ROWS[name]
    spec = row.args[arg]
    row.call(**row.valid)  # the valid call returns, so each refusal below is this argument's
    named = re.compile(spec.named or f"{re.escape(arg)} must")
    wrong = []
    for value in HOSTILE + spec.refuses + spec.accepts:
        taken = any(same(value, a) for a in spec.accepts)
        try:
            row.call(**{**row.valid, arg: value})
        except V0lverError as e:
            if taken or not named.match(str(e)):
                wrong.append(f"{value!r}: {type(e).__name__}: {e}")
        except Exception as e:  # noqa: BLE001 — a bare error is what the table exists to catch
            wrong.append(f"{value!r}: bare {type(e).__name__}: {e}")
        else:
            if not taken:
                wrong.append(f"{value!r}: accepted")
    assert not wrong, f"{name}({arg}):\n" + "\n".join(wrong)


KEPT = sorted(name for name, row in ROWS.items() if isinstance(row, Kept))


@pytest.mark.parametrize("name", KEPT)
def test_what_is_no_checked_call_is_kept_as_its_row_says(name):
    obj, kind = getattr(v0lver, name), ROWS[name].kind
    if kind == "record":
        fields = len(inspect.signature(obj).parameters)
        for value in HOSTILE:
            obj(*[value] * fields)  # every field taken as given
    elif kind == "error":
        assert issubclass(obj, V0lverError) and str(obj("message")) == "message"
    else:
        assert not callable(obj) or issubclass(obj, enum.Enum)


def test_load_scenario_leaves_a_pipe_open():
    """An int names a file descriptor to ``open``, which would read it and close it."""
    read, write = os.pipe()
    try:
        os.write(write, scenario_to_json(TINY).encode())
        os.close(write)
        with pytest.raises(v0lver.ConfigError, match="^path must be"):
            load_scenario(read)
        with os.fdopen(read, encoding="utf-8", closefd=False) as f:  # still open, unread
            assert scenario_from_dict(json.loads(f.read())) == TINY
    finally:
        os.close(read)
