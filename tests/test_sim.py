import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from v0lver import agents, engine, sim
from v0lver.agents import producer_utility
from v0lver.allocation import OrderSide
from v0lver.cfmm import CONSTANT_PRODUCT, Reserves, check_live, check_pair, check_price
from v0lver.cli import main
from v0lver.config import (ScenarioConfig, builtin_scenarios, scenario_from_dict,
                           scenario_to_dict)
from v0lver.engine import BlockReceipt, ExecutionReceipt, ReentryReceipt, UpdateReceipt
from v0lver.errors import ConfigError, DomainError
from v0lver.rebate import apply_rebated_move, vault_reenter
from v0lver.sim import (
    SWEEP_ALPHAS,
    SWEEP_MULTIPLIERS,
    RunMetrics,
    dominance_sweep,
    equilibrium_experiment,
    lvr_experiment,
    run_many,
    run_scenario,
    user_price_experiment,
)

from oracles import (
    InlineExecutor,
    baseline_cfmm_replay,
    plain_sum,
    reference_clearing_price,
    reference_verify_clearing_price,
    settlement_bits,
)

SCN = builtin_scenarios()


def shrink(cfg, blocks):
    return dataclasses.replace(cfg, blocks=blocks)


class TestDeterminism:
    def test_identical_seeds_are_byte_identical(self):
        cfg = shrink(SCN["default"], 40)
        a = run_scenario(cfg, 123)
        b = run_scenario(cfg, 123)
        assert json.dumps(a.metrics.to_dict(), sort_keys=True) == json.dumps(
            b.metrics.to_dict(), sort_keys=True
        )
        assert json.dumps(a.blocks, sort_keys=True) == json.dumps(b.blocks, sort_keys=True)

    def test_different_seeds_differ(self):
        cfg = shrink(SCN["default"], 40)
        a = run_scenario(cfg, 1)
        b = run_scenario(cfg, 2)
        assert a.metrics.final_eps != b.metrics.final_eps

    def test_run_many_is_jobs_invariant(self):
        cfg = shrink(SCN["default"], 25)
        seq = [m.to_dict() for m in run_many(cfg, 9, 4, jobs=1)]
        par = [m.to_dict() for m in run_many(cfg, 9, 4, jobs=2)]
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_run_many_starts_no_more_workers_than_runs(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(InlineExecutor, "workers", [])
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        cfg = shrink(SCN["lvr"], 5)
        pooled = run_many(cfg, 3, 2, jobs=100_000)  # runs inline: no process is started
        assert InlineExecutor.workers == [2]
        assert pooled == run_many(cfg, 3, 2, jobs=1)

    @pytest.mark.parametrize("cpus, runs, jobs, workers, chunksizes", [
        (None, 4, 4, [], []),  # an unknown CPU count is one CPU: the runs go inline
        (1, 4, 4, [], []),
        (8, 1, 4, [], []),  # one run goes inline, however many jobs it may use
        (8, 4, 3, [3], [1]),
        (8, 64, 100_000, [8], [2]),  # the chunks are sized from the 8 workers started
    ])
    def test_run_many_starts_at_most_one_worker_per_cpu(self, cpus, runs, jobs, workers,
                                                         chunksizes, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(InlineExecutor, "workers", [])
        monkeypatch.setattr(InlineExecutor, "chunksizes", [])
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = shrink(SCN["lvr"], 2)
        spread = run_many(cfg, 3, runs, jobs=jobs)
        assert (InlineExecutor.workers, InlineExecutor.chunksizes) == (workers, chunksizes)
        assert spread == run_many(cfg, 3, runs, jobs=1)

    @pytest.mark.parametrize("value", [2.5, "2", True, 0, -1])
    @pytest.mark.parametrize("name", ["runs", "jobs"])
    def test_run_many_refuses_a_bad_count_before_any_work(self, name, value, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("run_many did work before checking its arguments")

        # Neither seeds nor runs nor a process pool may come before the check.
        monkeypatch.setattr(sim.np.random, "SeedSequence", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(sim, "_metrics_worker", no_work)
        counts = {"runs": 2, "jobs": 1, name: value}
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer >= 1, got "):
            run_many(shrink(SCN["lvr"], 5), 0, **counts)


    @pytest.mark.parametrize("seed", [None, True, -1, 2.5, "3"], ids=repr)
    @pytest.mark.parametrize("entry", ["run_scenario", "run_many", "lvr_experiment",
                                       "dominance_sweep"])
    def test_a_seed_must_be_an_integer_at_least_zero(self, entry, seed, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a seed was used before it was checked")

        monkeypatch.setattr(sim.np.random, "SeedSequence", no_work)
        call = {"run_scenario": lambda cfg: run_scenario(cfg, seed),
                "run_many": lambda cfg: run_many(cfg, seed, 2),
                "lvr_experiment": lambda cfg: lvr_experiment(cfg, seed, runs=2),
                "dominance_sweep": lambda cfg: dominance_sweep(cfg, seed, trials=10)}[entry]
        with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0, got "):
            call(shrink(SCN["dominance"], 5))

    @pytest.mark.parametrize("cfg", [{}, None, "lvr"], ids=repr)
    @pytest.mark.parametrize("entry", ["run_scenario", "run_many", "lvr_experiment",
                                       "dominance_sweep"])
    def test_a_scenario_must_be_a_scenario_config(self, entry, cfg, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work began before the scenario was checked")

        monkeypatch.setattr(sim.np.random, "SeedSequence", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        call = {"run_scenario": lambda: run_scenario(cfg, 1),
                "run_many": lambda: run_many(cfg, 1, 2, jobs=2),
                "lvr_experiment": lambda: lvr_experiment(cfg, 1, runs=2),
                "dominance_sweep": lambda: dominance_sweep(cfg, 1)}[entry]
        with pytest.raises(ConfigError) as e:
            call()
        assert str(e.value) == f"cfg must be a ScenarioConfig, got {cfg!r}"

    def test_a_built_scenario_is_not_checked_again(self, monkeypatch):
        # It checked itself when built; a check on every entry would make 401 here.
        checks = []
        cfg = shrink(SCN["lvr"], 2)
        monkeypatch.setattr(ScenarioConfig, "validate", lambda self: checks.append(self) or self)
        monkeypatch.setattr(ScenarioConfig, "__post_init__", lambda self: checks.append(self))
        assert lvr_experiment(cfg, 0, runs=400)["runs"] == 400
        assert checks == []

    def test_a_run_in_one_process_loads_no_process_pool(self):
        code = ("import dataclasses, sys, v0lver\n"
                "cfg = dataclasses.replace(v0lver.builtin_scenarios()['lvr'], blocks=5)\n"
                "v0lver.run_scenario(cfg, 0)\n"
                "v0lver.run_many(cfg, 0, 1, jobs=4)\n"
                "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_a_uint64_seed_runs(self):
        cfg = shrink(SCN["lvr"], 5)
        seed = np.random.SeedSequence(0).generate_state(1, dtype=np.uint64)[0]
        assert seed >= 2**63  # past the int64 range, as run_many's per-run seeds may be
        runs = [run_scenario(cfg, s).metrics.to_dict() for s in (seed, int(seed))]
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)
        run_scenario(cfg, 2**64 - 1)


class TestScenarioRuns:
    def test_default_scenario_full_machinery(self):
        cfg = shrink(SCN["default"], 60)
        m = run_scenario(cfg, 0).metrics
        assert m.n_updates == 60  # always-policy updates every block
        assert m.n_octs > 0
        assert m.n_executed + m.n_burned <= m.n_octs
        assert m.conservation_error < 1e-9
        assert m.final_k > 0
        # realized extraction strictly below the no-rebate counterfactual
        assert 0.0 < m.realized_lvr < m.full_lvr

    def test_underflowing_order_size_names_the_flow_field(self):
        # 5e-324 is a valid value_frac, but a drawn y size value / eps rounds to 0.0
        cfg = dataclasses.replace(SCN["default"], flow=dataclasses.replace(
            SCN["default"].flow, value_frac=5e-324))
        with pytest.raises(DomainError, match=r"flow\.value_frac 5e-324 is too small"):
            run_scenario(cfg, seed=0)

    def test_quiet_scenario_never_moves(self):
        cfg = dataclasses.replace(
            SCN["fallback"],
            blocks=30,
            flow=dataclasses.replace(SCN["fallback"].flow, arrival=0.0),
            producer=dataclasses.replace(SCN["fallback"].producer, update_policy="never"),
        )
        m = run_scenario(cfg, 3).metrics
        assert m.n_updates == 0 and m.n_octs == 0
        assert m.final_pool_x == cfg.pool_x and m.final_pool_y == cfg.pool_y
        assert math.isnan(m.lvr_ratio)
        assert m.conservation_error == 0.0

    def test_fallback_extraction_ratio_is_exactly_one(self):
        m = run_scenario(shrink(SCN["fallback"], 80), 7).metrics
        assert m.realized_lvr == pytest.approx(m.full_lvr, rel=1e-12)
        assert m.final_vault_value == 0.0

    def test_monopolist_waits_out_the_whole_schedule(self):
        cfg = shrink(SCN["monopolist"], 60)
        m = run_scenario(cfg, 4).metrics
        assert m.n_updates > 0
        assert set(m.updates_by_gap) == {cfg.rebate.z_max}

    def test_converter_breaks_even_at_conversion_prices(self):
        m = run_scenario(shrink(SCN["default"], 60), 5).metrics
        # each conversion is value-neutral at its own block's price
        assert abs(m.converter_value) < 1e-6 * max(1.0, m.full_lvr)

    @pytest.mark.parametrize("scale", [0.99, 1.01])
    def test_producer_metrics_add_up_to_its_ledger(self, scale, monkeypatch):
        # with sigma 0 every block marks at one eps, so the producer's ledger change
        # valued there is the sum of the metrics that value each of its flows;
        # update_costs is notional and never touches the ledger. The pool starts
        # off the external price, so the first update moves it and pays a rebate.
        base = SCN["default"]
        cfg = dataclasses.replace(
            base, blocks=200, pool_x=base.pool_x * scale,
            price=dataclasses.replace(base.price, sigma=0.0))
        chains = []

        def chain_state(*args, **kwargs):
            chains.append(engine.ChainState(*args, **kwargs))
            return chains[-1]

        monkeypatch.setattr(sim, "ChainState", chain_state)
        run = run_scenario(cfg, 3)
        (chain,), m = chains, run.metrics
        eps = m.final_eps
        assert {row["eps"] for row in run.blocks} == {eps}
        x, y = chain.balances[sim.PRODUCER]
        ledger = (x - cfg.producer.budget_x) + (y - cfg.producer.budget_y) * eps
        assert m.producer_flow_value != 0.0 and m.producer_escrow_net != 0.0
        assert ledger == pytest.approx(m.producer_flow_value + m.producer_escrow_net
                                       + m.converter_value, abs=1e-8)
        # the producer places no orders of its own
        assert m.producer_order_pnl == 0.0


class TestReceipts:
    def test_block_rows_rebuild_from_the_receipts_alone(self):
        res = run_scenario(shrink(SCN["default"], 60), 5)
        rows = []
        for b in res.receipts:
            u, pool = b.update, Reserves(*b.pool)
            executions = b.executions
            rows.append({
                "height": b.height, "eps": b.eps, "pool_x": pool.x, "pool_y": pool.y,
                "pool_price": CONSTANT_PRODUCT.price(pool),
                "pool_k": CONSTANT_PRODUCT.invariant(pool),
                "vault_x": b.vault[0], "vault_y": b.vault[1], "update": int(u is not None),
                "gap": -1 if u is None else u.gap, "beta": 0.0 if u is None else u.beta,
                "update_price": math.nan if u is None else u.price,
                "n_submitted": len(b.submitted),
                "n_inserted": sum(len(ids) for _, ids in b.inserts),
                "n_revealed": len(b.revealed),
                "n_executed": sum(len(er.orders) for er in executions),
                "n_burned": sum(len(er.burned) for er in executions),
                "volume_y": sum((er.settlement.volume_y for er in executions), 0.0),
            })
        # json.dumps keeps column order and spells NaN, so equal text is equal rows.
        assert json.dumps(rows) == json.dumps(res.blocks)
        # Each re-entry converts at its own block's price.
        reentries = [(b, e) for b in res.receipts for e in map(json.loads, b.ndjson().splitlines())
                     if e["kind"] == "vault_reentered"]
        assert len(reentries) == sum(b.reentry is not None for b in res.receipts) > 0
        assert all(e["eps"] == b.eps for b, e in reentries)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(SCN))
    def test_positional_records_hold_what_their_fields_name(self, name, seed):
        # The engine builds its per-block records with ``tuple.__new__``, past their
        # field names; each field must still hold what its name says.
        cfg = shrink(SCN[name], 60)
        pool, vault = (cfg.pool_x, cfg.pool_y), (0.0, 0.0)  # the opening balances
        for height, block in enumerate(run_scenario(cfg, seed).receipts):
            assert type(block) is BlockReceipt and block.height == height
            assert all(type(o) is engine.Oct for o in block.submitted)
            assert all(type(e) is ExecutionReceipt for e in block.executions)
            for er in block.executions:  # revealed[i] is the OCT that committed to orders[i]
                assert len(er.revealed) == len(er.orders)
                for order, oct in zip(er.orders, er.revealed):
                    assert type(oct) is engine.Oct and oct.id in er.update.oct_ids
                    assert engine.commit_order(order, str(oct.id)) == oct.commitment
            u = block.update
            if u is not None:
                assert (type(u), type(u.before), type(u.vault_deposit), type(u.producer_flow),
                        type(u.snapshot)) == (UpdateReceipt, Reserves, tuple, tuple, Reserves)
                move = apply_rebated_move(u.before, u.price, u.beta)
                assert (u.vault_deposit, u.producer_flow) == move
                assert u.height == block.height and 0 <= u.label <= u.height
                assert (u.beta, u.price, u.producer) == (cfg.rebate.value_at(u.gap), block.eps,
                                                         sim.PRODUCER)
                assert u.before == pool  # the previous block's closing pool
                (fx, fy), (vx, vy) = u.producer_flow, u.vault_deposit
                assert u.snapshot == (u.before.x - fx - vx, u.before.y - fy - vy)
                assert u.escrow == (u.count * cfg.max_y * u.price, u.count * cfg.max_x / u.price)
                assert type(u.oct_ids) is tuple and all(type(i) is int for i in u.oct_ids)
                vault = (vault[0] + vx, vault[1] + vy)
            r = block.reentry
            if r is not None:
                assert type(r) is ReentryReceipt and r.converter == sim.PRODUCER
                assert (r.added, r.converter_flow) == vault_reenter(vault, block.eps)
            pool, vault = block.pool, block.vault

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(SCN))
    def test_the_unchecked_moves_get_values_their_callers_checked(self, name, seed, monkeypatch):
        # max_lvr, apply_rebated_move and vault_reenter check nothing on entry; every
        # value a run hands them must pass the rules they once applied, already as floats.
        def price(v):
            assert type(v) is float and check_price(v) == v

        def live(r):
            assert check_live(r, "pool") is r  # ``r`` itself: live, with float parts

        def lvr(r, eps):
            live(r)
            price(eps)

        def move(reserves, target, rebate):
            lvr(reserves, target)
            assert type(rebate) is float and 0.0 <= rebate < 1.0

        def reenter(vault, eps):
            assert type(vault) is tuple and all(type(v) is float for v in vault)
            check_pair(vault, "vault", or_zero=True)
            price(eps)

        calls = {}
        for module, fn, check in ((engine, "apply_rebated_move", move),
                                  (engine, "vault_reenter", reenter),
                                  (sim, "max_lvr", lvr),
                                  (agents, "max_lvr", lvr),
                                  (agents, "apply_rebated_move", move)):
            def wrapped(*args, _fn=getattr(module, fn), _check=check, _key=(module, fn)):
                _check(*args)
                calls[_key] = calls.get(_key, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(module, fn, wrapped)
        cfg = SCN[name]
        receipts = run_scenario(cfg, seed).receipts
        updates = sum(b.update is not None for b in receipts)
        assert calls.get((engine, "apply_rebated_move")) == calls.get((sim, "max_lvr")) == updates
        assert calls.get((engine, "vault_reenter"), 0) == sum(b.reentry is not None
                                                                for b in receipts)
        if cfg.flow.limit_prob == 0:  # the sweep clears market flow only
            dominance_sweep(cfg, seed, trials=5)
            assert calls[agents, "apply_rebated_move"] == len(SWEEP_MULTIPLIERS) * len(SWEEP_ALPHAS)

    def test_a_run_without_user_flow_inserts_nothing(self):
        # The premise of the driver's skip of an empty insertion, on the criterion-3 scenario.
        receipts = run_scenario(shrink(SCN["lvr"], 60), 0).receipts
        assert all(b.update is not None and b.inserts == () for b in receipts)

    def test_integer_initial_price_reads_as_a_float(self):
        cfg = scenario_from_dict({"blocks": 3, "price": {"initial": 100}})
        row = run_scenario(cfg, 0).blocks[0]
        assert type(row["eps"]) is float
        assert repr(row["eps"]) == repr(row["update_price"]) == "100.0"


class TestRowsAndMetrics:
    """Metrics reduce straight from the receipts and rows build from them on
    access; the two reports of one record must tie."""

    def test_experiments_build_no_rows(self, monkeypatch):
        def no_rows(block):
            raise AssertionError("an experiment built a block row")

        monkeypatch.setattr(sim, "_block_row", no_rows)
        out = lvr_experiment(shrink(SCN["lvr"], 50), 0, runs=3)
        assert out["runs"] == 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(SCN))
    def test_metrics_tie_to_the_block_rows(self, name, seed):
        res = run_scenario(shrink(SCN[name], 60), seed)
        m, rows = res.metrics, res.blocks
        assert len(rows) == len(res.receipts) == 60
        assert m.n_octs == sum(row["n_submitted"] for row in rows)
        assert m.n_executed == sum(row["n_executed"] for row in rows)
        assert m.n_burned == sum(row["n_burned"] for row in rows)
        assert m.ops == sum(
            row["n_submitted"] + row["n_inserted"] + row["update"] + row["n_revealed"]
            + 1 + len(b.executions) + (b.reentry is not None)
            for row, b in zip(rows, res.receipts)
        )
        last = rows[-1]
        assert (m.final_eps, m.final_pool_x, m.final_pool_y, m.final_k) == (
            last["eps"], last["pool_x"], last["pool_y"], last["pool_k"])


class TestSortedBookAtBatchScale:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_settlements_match_the_reference_clearing(self, seed, monkeypatch):
        # Builtin scenarios batch a handful of orders; at arrival 400 each
        # batch holds hundreds, 30% of them limits within 2%.
        cfg = SCN["default"]
        cfg = dataclasses.replace(cfg, blocks=8, flow=dataclasses.replace(cfg.flow, arrival=400.0))

        def settlements():
            run = run_scenario(cfg, seed)
            return [settlement_bits(e.settlement) for b in run.receipts for e in b.executions]

        shipped = settlements()
        monkeypatch.setattr(engine, "clearing_price_with_limits", reference_clearing_price)
        monkeypatch.setattr(engine, "verify_clearing_price", reference_verify_clearing_price)
        assert len(shipped) >= 5 and shipped == settlements()


class TestBaselineReplay:
    def test_zero_rebate_protocol_shadows_plain_cfmm(self):
        cfg = shrink(SCN["fallback"], 50)
        res = run_scenario(cfg, 11)
        replay = baseline_cfmm_replay(
            Reserves(cfg.pool_x, cfg.pool_y), res.receipts
        )
        assert len(replay) == cfg.blocks
        by_height = {row["height"]: row for row in res.blocks}
        for h, x, y in replay:
            assert by_height[h]["pool_x"] == pytest.approx(x, rel=1e-9, abs=1e-9)
            assert by_height[h]["pool_y"] == pytest.approx(y, rel=1e-9, abs=1e-9)

    def test_rebates_make_the_protocol_diverge(self):
        cfg = shrink(SCN["default"], 30)
        res = run_scenario(cfg, 11)
        replay = baseline_cfmm_replay(
            Reserves(cfg.pool_x, cfg.pool_y), res.receipts
        )
        final = res.blocks[-1]
        assert final["pool_x"] != pytest.approx(replay[-1][1], rel=1e-9)


class TestExperiments:
    def test_lvr_experiment_tracks_expected_keep(self):
        cfg = shrink(SCN["lvr"], 120)
        out = lvr_experiment(cfg, 21, runs=12)
        assert out["runs"] == 12 and out["dropped_runs"] == 0
        assert out["expected_keep"] == pytest.approx(0.2)
        lo, hi = out["ci95"]
        assert lo < out["mean_ratio"] < hi
        # crude sanity: nowhere near the no-rebate ratio of 1
        assert out["mean_ratio"] < 0.6

    def test_lvr_experiment_with_one_ratio_has_no_interval(self):
        out = lvr_experiment(shrink(SCN["lvr"], 60), 0, runs=1)
        assert out["runs"] == 1 and math.isfinite(out["mean_ratio"])
        assert math.isnan(out["se"]) and all(map(math.isnan, out["ci95"]))

    def test_lvr_experiment_counts_the_runs_it_dropped(self, monkeypatch):
        # One shared scenario cannot give a ratio in some runs and not others,
        # so the runs come from a stub: a run with no full LVR gives no ratio.
        full = (1.0, 0.0, 2.0, 0.0, 0.0)
        metrics = [RunMetrics(blocks=1, realized_lvr=0.5 * f, full_lvr=f) for f in full]
        monkeypatch.setattr(sim, "run_many", lambda cfg, seed, runs, jobs: metrics[:runs])
        out = lvr_experiment(SCN["lvr"], 0, runs=5)
        assert (out["runs"], out["dropped_runs"], out["ratios"]) == (2, 3, [0.5, 0.5])

    def test_user_price_experiment_pools_runs(self):
        cfg = shrink(SCN["neutrality"], 150)
        out = user_price_experiment(cfg, 2, runs=2)
        assert out["orders"] > 200
        assert math.isfinite(out["z"])

    def test_equilibrium_experiment_counts_gaps(self):
        cfg = shrink(SCN["equilibrium"], 80)
        out = equilibrium_experiment(cfg, 1, runs=4)
        assert out["updates"] == sum(out["updates_by_gap"].values())
        assert out["frac_gap0"] == pytest.approx(1.0)

    def test_dominance_prefers_honesty_on_a_coarse_grid(self):
        out = dominance_sweep(SCN["dominance"], 3, trials=4_000)
        assert out["best"]["multiplier"] == 1.0
        assert out["best"]["alpha"] == 0.0
        # at (1, 0) the move is empty and the escrow share earns the batch's price impact
        assert out["best"]["utility"] > 0.0
        assert len(out["rows"]) == 63
        assert [(r["multiplier"], r["alpha"]) for r in out["rows"]] == [
            (m, a) for m in sim.SWEEP_MULTIPLIERS for a in sim.SWEEP_ALPHAS]

    @pytest.mark.parametrize("multiplier, alpha", [(1.0, 0.0), (1.03, 0.25)])
    def test_each_sweep_trial_is_one_block_of_the_run_user_flow(self, multiplier, alpha):
        flow = dataclasses.replace(SCN["dominance"].flow, no_reveal_prob=0.25)
        cfg, seed, trials = dataclasses.replace(SCN["dominance"], flow=flow), 7, 300
        eps = cfg.price.initial
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        dx, dy = np.zeros(trials), np.zeros(trials)
        for i in range(trials):
            orders, hidden = sim._user_flow(rng, cfg.flow, eps, cfg.max_x, cfg.max_y)
            for o, hide in zip(orders, hidden):
                if not hide:  # an unrevealed order never trades
                    if o.side is OrderSide.BUY_Y:
                        dx[i] += o.size
                    else:
                        dy[i] += o.size
        want = producer_utility(Reserves(cfg.pool_x, cfg.pool_y), eps, cfg.rebate, cfg.max_x,
                                cfg.max_y, multiplier, alpha, dx, dy)
        rows = dominance_sweep(cfg, seed, trials=trials)["rows"]
        got = next(r["utility"] for r in rows if (r["multiplier"], r["alpha"]) == (multiplier,
                                                                                   alpha))
        assert got.hex() == want.hex()

    def test_flow_that_never_reveals_earns_the_no_flow_utility(self):
        flow = dataclasses.replace(SCN["dominance"].flow, no_reveal_prob=1.0)
        cfg, trials = dataclasses.replace(SCN["dominance"], flow=flow), 200
        none = np.zeros(trials)
        rows = dominance_sweep(cfg, 5, trials=trials)["rows"]
        for r in rows:
            assert r["utility"] == producer_utility(
                Reserves(cfg.pool_x, cfg.pool_y), cfg.price.initial, cfg.rebate, cfg.max_x,
                cfg.max_y, r["multiplier"], r["alpha"], none, none)
        assert rows[sim.SWEEP_MULTIPLIERS.index(1.0) * len(sim.SWEEP_ALPHAS)]["utility"] == 0.0

    def test_limit_flow_is_refused_before_any_draw(self, monkeypatch, tmp_path, capsys):
        cfg = SCN["default"]
        assert cfg.flow.limit_prob > 0
        with pytest.raises(ConfigError, match="^trials "):  # the count is checked first
            dominance_sweep(cfg, 3, trials=0)

        def no_draw(*args, **kwargs):
            raise AssertionError("the flow was drawn before limit_prob was checked")

        monkeypatch.setattr(sim, "_user_flow", no_draw)
        with pytest.raises(ConfigError, match=r"^flow\.limit_prob must be 0 .*got 0\.3$"):
            dominance_sweep(cfg, 3, trials=10)
        assert main(["sweep", "--scenario", "default", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "flow.limit_prob" in err

    def test_dominance_sweep_rejects_no_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            dominance_sweep(SCN["dominance"], 3, trials=0)

    @pytest.mark.parametrize("grid, named", [
        ({"trials": 2.5}, "^trials .*2.5"),
        ({"trials": True}, "^trials .*True"),
        ({"trials": "10"}, "^trials .*'10'"),
    ])
    def test_dominance_sweep_checks_its_grid_where_it_enters(self, grid, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any numpy warning
            with pytest.raises(ConfigError, match=named):
                dominance_sweep(SCN["dominance"], 3, **{"trials": 10, **grid})

    @pytest.mark.parametrize("change", [
        {"price": {"initial": v}} for v in (1e308, 1.7e308, 5e-324, 1e-300, 1e300)
    ] + [{"pool": {"x": 1e-300, "y": 1e-5}}, {"pool": {"x": 1e154, "y": 1e154}}])
    def test_an_unreachable_grid_target_names_the_scenario(self, change, tmp_path, capsys):
        # valid scenarios, but a grid target's moved pool overflows or underflows
        raw = {**scenario_to_dict(SCN["dominance"]), **change}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any numpy warning
            with pytest.raises(ConfigError, match=r"^price\.initial .* pool "):
                dominance_sweep(scenario_from_dict(raw), 3, trials=10)
            path = tmp_path / "far.json"
            path.write_text(json.dumps(raw))
            assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                         "--trials", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: price.initial ")


class TestPlainReductions:
    """Every float reduction adds left to right. The tests put a compensated
    ``sum`` (``math.fsum``, as ``sum()`` of floats is from Python 3.12 on) in
    ``sim``'s namespace, on values the two summations tell apart."""

    VALUES = (1e16, 1.0, 1.0)  # left to right 1e16; compensated 1e16 + 2

    @pytest.fixture(autouse=True)
    def compensated_sum(self, monkeypatch):
        monkeypatch.setattr(sim, "sum", math.fsum, raising=False)

    def runs(self, monkeypatch, **fields):
        metrics = [RunMetrics(blocks=1, **dict(zip(fields, values)))
                   for values in zip(*fields.values())]
        monkeypatch.setattr(sim, "run_many", lambda cfg, seed, runs, jobs: metrics)

    def test_block_volume(self):
        executions = [SimpleNamespace(orders=[], burned=[], settlement=SimpleNamespace(volume_y=v))
                      for v in self.VALUES]
        block = SimpleNamespace(height=0, eps=1.0, pool=(1.0, 1.0), vault=(0.0, 0.0),
                                update=None, submitted=[], inserts=[], revealed=[],
                                executions=executions)
        assert sim._block_row(block)["volume_y"] == plain_sum(self.VALUES) != math.fsum(self.VALUES)

    def test_lvr_mean(self, monkeypatch):
        self.runs(monkeypatch, realized_lvr=self.VALUES, full_lvr=(1.0,) * 3)
        mean = plain_sum(self.VALUES) / 3
        assert mean != math.fsum(self.VALUES) / 3
        assert lvr_experiment(SCN["lvr"], 0)["mean_ratio"] == mean

    def test_lvr_variance(self, monkeypatch):
        ratios = self.VALUES + (1.0,)  # three values' standard errors round alike
        self.runs(monkeypatch, realized_lvr=ratios, full_lvr=(1.0,) * 4)
        mean = plain_sum(ratios) / 4
        squares = [(r - mean) ** 2 for r in ratios]
        se = math.sqrt(plain_sum(squares) / 3 / 4)
        assert se != math.sqrt(math.fsum(squares) / 3 / 4)
        assert lvr_experiment(SCN["lvr"], 0)["se"] == se

    def test_user_deviation_sum(self, monkeypatch):
        self.runs(monkeypatch, n_user_fills=(1,) * 3, user_dev_sum=self.VALUES,
                  user_dev_sq=(0.0,) * 3)
        mean = plain_sum(self.VALUES) / 3
        assert mean != math.fsum(self.VALUES) / 3
        assert user_price_experiment(SCN["neutrality"], 0)["mean_deviation"] == mean

    def test_user_deviation_squares(self, monkeypatch):
        self.runs(monkeypatch, n_user_fills=(1,) * 3, user_dev_sum=(0.0,) * 3,
                  user_dev_sq=self.VALUES)
        se = math.sqrt(plain_sum(self.VALUES) / 2 / 3)
        assert se != math.sqrt(math.fsum(self.VALUES) / 2 / 3)
        assert user_price_experiment(SCN["neutrality"], 0)["se"] == se
