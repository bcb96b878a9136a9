"""Byte-identity check of the CLI's deterministic artifacts.

Runs ``v0lver run`` with events recorded for every builtin scenario at seeds
0-4 and hashes ``summary.json``, ``blocks.csv`` and ``events.ndjson``. The
digests are compared with those stored in ``digests.json``, so a change that
claims to keep behaviour can show that every artifact is byte-identical. A
changed digest is reported, not counted as a failure. Nothing here is timed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from v0lver import cli
from v0lver.config import builtin_scenarios, scenario_to_json

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
ARTIFACTS = ("summary.json", "blocks.csv", "events.ndjson")
SEEDS = tuple(range(5))


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def compute_digests(workdir: str, scenarios=None, seeds=SEEDS) -> dict[str, dict[str, str]]:
    """``{"<scenario>/<seed>": {artifact: sha256}}`` for the given builtins."""
    builtins = builtin_scenarios()
    digests = {}
    for name in scenarios or sorted(builtins):
        cfg = dataclasses.replace(builtins[name], record_events=True)
        os.makedirs(workdir, exist_ok=True)
        scenario_path = os.path.join(workdir, f"{name}.json")
        with open(scenario_path, "w") as f:
            f.write(scenario_to_json(cfg))
        for seed in seeds:
            out_dir = os.path.join(workdir, f"{name}-{seed}")
            code = cli.main(["run", "--scenario", scenario_path, "--seed", str(seed),
                             "--out", out_dir, "--force"])
            if code != 0:
                raise RuntimeError(f"v0lver run on {name} seed {seed} exited {code}")
            digests[f"{name}/{seed}"] = {a: _sha256(os.path.join(out_dir, a)) for a in ARTIFACTS}
    return digests


def load_digests() -> dict:
    with open(DIGESTS_PATH) as f:
        return json.load(f)


def compare(digests: dict, stored: dict) -> dict:
    """Per artifact ``identical``, ``changed`` or ``unrecorded``, with totals."""
    verdicts = {}
    for run, files in digests.items():
        want = stored.get(run, {})
        verdicts[run] = {
            a: "unrecorded" if a not in want else "identical" if want[a] == h else "changed"
            for a, h in files.items()
        }
    totals = {"identical": 0, "changed": 0, "unrecorded": 0}
    for files in verdicts.values():
        for verdict in files.values():
            totals[verdict] += 1
    return {"runs": verdicts, **totals}
