"""The narrated demos run end to end. They call the exports, and demos 01 and 02
also the internal steps ``v0lver.cfmm.max_lvr``, ``v0lver.rebate.apply_rebated_move``
and ``v0lver.rebate.vault_reenter``, which check nothing, with values they chose."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_pool_mechanics.py", "02_rebated_arbitrage.py",
         "03_batch_settlement.py", "04_protocol_walkthrough.py",
         "05_experiments.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, pytestconfig):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # Both ``python -W`` and ``pytest -W`` options reach the demo, so a run
    # under ``-W error`` also fails on a warning a demo emits.
    warn = [*sys.warnoptions, *(pytestconfig.getoption("pythonwarnings") or [])]
    proc = subprocess.run(
        [sys.executable, *(f"-W{w}" for w in warn), os.path.join(ROOT, "demos", demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
