"""Flag fuzz: malformed or out-of-range command-line flags never crash the CLI.

Each example runs one command on a 5-block scenario file with at most one
flag bad. ``--seed`` is any int or malformed text; ``--runs``, ``--jobs`` and
``--trials`` are malformed text or ints in [-2, 3]; ``--format`` is any text;
``--out`` is a fresh path, a path whose parent is missing, an existing file or
a path under a file. With every flag good the command exits 0 with nothing on
stderr; with one bad it exits 1 with one stderr line naming that flag (never
2, which is kept for internal faults). Process pools run inline, so no
example starts a process.
"""
import concurrent.futures
import contextlib
import io
import itertools
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from v0lver import sim
from v0lver.cli import main
from v0lver.config import builtin_scenarios, scenario_to_dict

from oracles import InlineExecutor


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


MALFORMED = st.text(max_size=4).filter(_not_an_int)
COUNT = (st.integers(1, 3), st.one_of(st.integers(-2, 0), MALFORMED))
#: flag -> (good values, bad values)
FLAGS = {
    "--seed": (st.integers(min_value=0), st.one_of(st.integers(max_value=-1), MALFORMED)),
    "--format": (st.sampled_from(["csv", "json"]),
                 st.text(max_size=5).filter(lambda t: t not in ("csv", "json"))),
    "--runs": COUNT,
    "--jobs": COUNT,
    "--trials": COUNT,
    "--out": (st.sampled_from(["fresh", "missing_parent"]), st.sampled_from(["file", "under_file"])),
}
#: ``validate`` writes one file, so a missing parent is bad there.
VALIDATE_OUT = (st.just("fresh"), st.sampled_from(["missing_parent", "file", "under_file"]))
COMMANDS = {
    "run": ("--seed", "--format", "--out"),
    "lvr": ("--seed", "--format", "--runs", "--jobs", "--out"),
    "equilibrium": ("--seed", "--format", "--runs", "--jobs", "--out"),
    "sweep": ("--seed", "--format", "--trials", "--out"),
    "validate": ("--out",),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    raw = scenario_to_dict(builtin_scenarios()["lvr"])
    raw["blocks"] = 5
    (root / "scenario.json").write_text(json.dumps(raw))
    return root


_cases = itertools.count()


def _out_path(root, kind):
    base = root / f"case{next(_cases)}"
    base.mkdir()
    if kind == "fresh":
        return base / "out"
    if kind == "missing_parent":
        return base / "missing" / "out"
    blocker = base / "file"
    blocker.write_text("")
    return blocker if kind == "file" else blocker / "out"


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_one_bad_flag_exits_one_naming_it(workdir, command, data):
    flags = COMMANDS[command]
    bad = data.draw(st.sampled_from((None,) + flags), label="bad flag")
    argv = [command, "--scenario", str(workdir / "scenario.json")]
    for flag in flags:
        good, wrong = VALIDATE_OUT if command == "validate" else FLAGS[flag]
        value = data.draw(wrong if flag == bad else good, label=flag)
        if flag == "--out":
            value = _out_path(workdir, value)
        argv.append(f"{flag}={value}")  # "=" keeps a value like "-1" from reading as a flag

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    err = err.getvalue()
    event(f"{command} exits {code}")  # shown by --hypothesis-show-statistics
    if bad is None:
        assert code == 0 and err == "", err
    else:
        assert code == 1, err
        assert err.endswith("\n") and err.count("\n") == 1 and bad in err, err
