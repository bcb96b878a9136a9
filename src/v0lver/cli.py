"""Command-line front end.

Subcommands map onto the simulation API: ``run`` (one scenario run),
``lvr`` (rebate-capture experiment), ``equilibrium`` (update-gap
distribution), ``sweep`` (producer strategy grid), and ``validate``
(normalize and check a scenario). Outputs are deterministic in
(scenario, seed) — no timestamps, stable key order — so reruns are
byte-identical and diffable. Every JSON file, a ``--format json`` table too, is
one ``json.dump`` at indent 2 with sorted keys, NaN and infinities as null.

Exit codes: 0 success, 1 bad input or infeasible scenario, 2 internal
invariant violation (a bug, not a user error).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import sim
from .config import builtin_scenarios, load_scenario, scenario_to_dict, scenario_to_json
from .errors import ConfigError, InvariantViolation, V0lverError

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line on stderr (argparse's 2 means an internal bug here)."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message} (see {self.prog} -h)\n")
        raise SystemExit(1)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _clean(obj):
    """Make a structure strictly JSON-safe (NaN/inf become null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _resolve_scenario(spec: str):
    builtins = builtin_scenarios()
    if spec in builtins:
        return builtins[spec]
    return load_scenario(spec)


def _check_target(path: str, force: bool):
    """Refuse an ``--out`` file that is a directory, or that exists without ``force``."""
    if os.path.isdir(path):
        raise ConfigError(f"--out file {path!r} is a directory")
    if os.path.lexists(path) and not force:
        raise V0lverError(f"refusing to overwrite --out file {path!r} (use --force)")


def _create(path: str, newline=None):
    try:
        return open(path, "w", newline=newline)
    except OSError as e:
        raise ConfigError(f"cannot write --out file {path!r}: {e.strerror}") from None


class _OutDir:
    """An ``--out`` directory and the files a command writes there: ``summary.json``, its
    ``table`` in ``--format`` and, with ``events``, ``events.ndjson``. Refused when built,
    so before any run, if it can never be a directory or if any of those files may not be
    written; created only with its first file, so after the run succeeds."""

    def __init__(self, args, table: str, events: bool = False):
        path = self.path = args.out
        self.format, self.table = args.format, f"{table}.{args.format}"
        # The nearest path on the way that exists (a dangling link too) must be a directory.
        probe = os.path.abspath(path)
        while not os.path.lexists(probe):
            probe = os.path.dirname(probe)
        if not path or not os.path.isdir(probe):
            why = f"{probe!r} is not a directory" if path else "the path is empty"
            raise ConfigError(f"--out {path!r} is not a usable directory: {why}")
        for name in ("summary.json", self.table) + ("events.ndjson",) * events:
            _check_target(os.path.join(path, name), args.force)

    def open(self, name: str, newline=None):
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"--out {self.path!r} is not a usable directory: "
                              f"{e.strerror}") from None
        return _create(os.path.join(self.path, name), newline)

    def write_json(self, name: str, payload):
        with self.open(name) as f:
            json.dump(_clean(payload), f, indent=2, sort_keys=True)
            f.write("\n")

    def write_table(self, columns: list, rows: list):
        if self.format == "json":
            return self.write_json(self.table, rows)
        with self.open(self.table, newline="") as f:
            w = csv.writer(f)
            w.writerow(columns)
            w.writerows([row.get(k) for k in columns] for row in rows)


def _summary(command: str, cfg, seed: int, body: dict) -> dict:
    return {"command": command, "scenario": scenario_to_dict(cfg), "seed": seed, **body}


def cmd_run(args) -> int:
    cfg = _resolve_scenario(args.scenario)
    out = _OutDir(args, "blocks", events=cfg.record_events)
    result = sim.run_scenario(cfg, args.seed)
    out.write_json("summary.json", _summary("run", cfg, args.seed,
                                            {"metrics": result.metrics.to_dict()}))
    rows = result.blocks
    out.write_table(list(rows[0]), rows)
    if cfg.record_events:
        with out.open("events.ndjson") as f:  # one block's lines at a time
            f.writelines(block.ndjson() for block in result.receipts)
    return 0


def cmd_lvr(args) -> int:
    cfg = _resolve_scenario(args.scenario)
    out = _OutDir(args, "ratios")
    res = sim.lvr_experiment(cfg, args.seed, runs=args.runs, jobs=args.jobs)
    ratios = res.pop("ratios")
    out.write_json("summary.json", _summary("lvr", cfg, args.seed, {"result": res}))
    out.write_table(["run", "ratio"], [{"run": i, "ratio": r} for i, r in enumerate(ratios)])
    return 0


def cmd_equilibrium(args) -> int:
    cfg = _resolve_scenario(args.scenario)
    out = _OutDir(args, "gaps")
    res = sim.equilibrium_experiment(cfg, args.seed, runs=args.runs, jobs=args.jobs)
    out.write_json("summary.json", _summary("equilibrium", cfg, args.seed, {"result": res}))
    rows = [{"gap": g, "count": c} for g, c in sorted(
        (int(g), c) for g, c in res["updates_by_gap"].items())]
    out.write_table(["gap", "count"], rows)
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_scenario(args.scenario)
    out = _OutDir(args, "sweep")
    res = sim.dominance_sweep(cfg, args.seed, trials=args.trials)
    rows = res.pop("rows")
    out.write_json("summary.json", _summary("sweep", cfg, args.seed, {"result": res}))
    out.write_table(["multiplier", "alpha", "utility"], rows)
    return 0


def cmd_validate(args) -> int:
    cfg = _resolve_scenario(args.scenario)
    text = scenario_to_json(cfg)
    if args.out:
        _check_target(args.out, args.force)
        with _create(args.out) as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="v0lver", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, jobs=False):
        p.add_argument("--scenario", required=True,
                       help="scenario file path or builtin name "
                            f"({', '.join(sorted(builtin_scenarios()))})")
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        if jobs:
            p.add_argument("--jobs", type=_int_at_least(1), default=1)

    p = sub.add_parser("run", help="simulate one scenario run")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("lvr", help="rebate-capture experiment across runs")
    common(p, jobs=True)
    p.add_argument("--runs", type=_int_at_least(1), default=200)
    p.set_defaults(func=cmd_lvr)

    p = sub.add_parser("equilibrium", help="update-gap distribution across runs")
    common(p, jobs=True)
    p.add_argument("--runs", type=_int_at_least(1), default=100)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("sweep", help="producer strategy grid payoffs")
    common(p)
    p.add_argument("--trials", type=_int_at_least(1), default=10_000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a scenario and print its normal form")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help="write the normalized scenario here instead of stdout")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except InvariantViolation as e:
        sys.stderr.write(f"invariant violation: {e}\n")
        return 2
    except V0lverError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except Exception as e:  # noqa: BLE001 — anything unexpected is a bug
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
