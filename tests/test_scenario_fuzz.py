"""Boundary fuzz: a scenario file with one bad leaf never crashes the CLI.

Each example takes a builtin's JSON form and replaces one leaf with a value of
the wrong type, a bool, a non-finite or extreme number, zero or a negative.
``validate`` and a short ``run`` must then exit 0 or 1 (never 2, which is kept
for internal faults), with a one-line message on failure and none on success.
"""
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v0lver.cli import main
from v0lver.config import builtin_scenarios, scenario_to_dict

BUILTINS = {name: scenario_to_dict(cfg) for name, cfg in builtin_scenarios().items()}
RUN_BLOCKS = 5


def _leaves(raw, path=()):
    for key, value in raw.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = [(name, leaf) for name, raw in BUILTINS.items() for leaf in _leaves(raw)]

BAD_VALUES = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300, allow_infinity=False),
    st.sampled_from([1e-300, 5e-324, 1e154, 1e200, 1e300, 800, 10**19, 2**63, 10**30, 10**400]),
)


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean(code, err):
    assert code in (0, 1), err
    assert err == "" if code == 0 else (err.endswith("\n") and err.count("\n") == 1), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=None)
@given(target=st.sampled_from(LEAVES), value=BAD_VALUES)
def test_one_bad_leaf_exits_zero_or_one(workdir, target, value):
    name, leaf = target
    raw = json.loads(json.dumps(BUILTINS[name]))
    parent = raw
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = value
    path = workdir / "scenario.json"
    path.write_text(json.dumps(raw))
    _assert_clean(*_cli(["validate", "--scenario", str(path)]))

    blocks = raw["blocks"]
    if isinstance(blocks, int) and not isinstance(blocks, bool) and blocks > RUN_BLOCKS:
        raw["blocks"] = RUN_BLOCKS
    path.write_text(json.dumps(raw))
    _assert_clean(*_cli(["run", "--scenario", str(path), "--out", str(workdir / "out"),
                         "--force"]))
