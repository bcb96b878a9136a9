"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload untraced and traced, the digest mode on one scenario, and
the harness's failure paths. Not part of the package's test suite:

    python3 -m pytest -q bench/test_smoke.py
"""
import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import digest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def tiny(name, tmp_path):
    # arb_sweep keeps the 500-block runs its gate's band was measured on.
    return {
        "arb_sweep": workloads.ArbSweep(runs=4),
        "limit_book": workloads.LimitBook(blocks=4, arrival=40.0),
        "market_flow": workloads.MarketFlow(blocks=60, workdir=str(tmp_path)),
    }[name]


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_gate_and_reports_every_metric(name, trace, tmp_path):
    result, report = run.measure(tiny(name, tmp_path), seed=3, seconds=0.0, trace=trace,
                                 setup_repeats=1)
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] >= 0


def test_gate_rejects_outputs_off_the_reference():
    outcome = workloads.Outcome(blocks=1, orders=1, conservation=[0.0],
                                outputs={"volume_y": 2.0, "ci95": [0.1, 0.3]})
    assert workloads.gate(outcome, {"volume_y": 2.0, "ci95": [0.1, 0.3]}) == []
    assert workloads.gate(outcome, {"volume_y": 2.0 * (1 + 1e-8), "ci95": [0.1, 0.3]})
    assert workloads.gate(outcome, {"ci95": [0.1, 0.31]})
    outcome.conservation = [1e-5]
    assert workloads.gate(outcome, None)


def test_tracer_names_a_missing_target_and_restores_what_it_wrapped():
    modules = tracing.package_modules()
    sim = modules["sim"]
    original = sim.max_lvr
    with tracing.Tracer():
        assert sim.max_lvr is not original
    assert sim.max_lvr is original

    broken = dict(modules, sim=types.SimpleNamespace(
        **{k: v for k, v in vars(sim).items() if k != "decide_update"}))
    with pytest.raises(tracing.TraceTargetError, match="agents.decide_update"):
        tracing.Tracer(broken).install()
    assert sim.max_lvr is original


def test_digest_mode_matches_the_stored_digests(tmp_path):
    report = digest.compare(digest.compute_digests(str(tmp_path), ["lvr"], [0]),
                            digest.load_digests())
    assert report["identical"] == len(digest.ARTIFACTS)
    assert report["changed"] == report["unrecorded"] == 0


def test_exits_1_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "arb_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "not found" in done.stderr
