"""End-to-end acceptance checks, one test per headline criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion; each test also prints the measured numbers (visible with ``-s``).
The tolerances and workloads here are fixed — loosening them is not a fix.
"""
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from v0lver.allocation import Order, OrderSide, clearing_price_with_limits
from v0lver.cfmm import CONSTANT_PRODUCT, Reserves, max_lvr
from v0lver.config import builtin_scenarios
from v0lver.engine import ChainState
from v0lver.errors import (
    DomainError,
    FundingError,
    InvalidTransition,
    InvariantViolation,
    VerificationError,
)
from v0lver.rebate import RebateSchedule, apply_rebated_move
from v0lver.sim import (
    dominance_sweep,
    equilibrium_experiment,
    lvr_experiment,
    run_many,
    run_scenario,
    user_price_experiment,
)

from oracles import (baseline_cfmm_replay, bisect_market_clearing, market_orders, pool_price,
                     producer_payoff)

C = CONSTANT_PRODUCT
SCN = builtin_scenarios()


def report(n, text):
    print(f"\n[criterion {n}] {text} -> PASS")


class TestCriterion1Settlement:
    def test_criterion_1_uniform_settlement_matches_bisection_oracle(self):
        t0 = time.perf_counter()
        # the worked instance: snapshot (100, 100), 10 x and 5 y sold
        s = clearing_price_with_limits(C, Reserves(100.0, 100.0), market_orders(10.0, 5.0))
        assert s.price == pytest.approx(110.0 / 105.0, rel=1e-12)
        assert abs(s.pool_delta[1]) == pytest.approx(50.0 / 11.0, rel=1e-9)

        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            sx = float(rng.uniform(1.0, 1e6))
            sy = float(rng.uniform(1.0, 1e6))
            dx = float(rng.uniform(0.0, 0.5 * sx))
            dy = float(rng.uniform(0.0, 0.5 * sy))
            got = clearing_price_with_limits(C, Reserves(sx, sy), market_orders(dx, dy)).price
            ref = bisect_market_clearing(sx, sy, dx, dy)
            worst = max(worst, abs(got - ref) / ref)
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9
        assert elapsed < 5.0
        report(1, f"settlement price max rel err {worst:.2e} over 1000 instances "
                  f"+ worked instance ({elapsed:.2f}s)")


class TestCriterion2UpdateOptimality:
    def test_criterion_2_rebated_update_payoff_equality_and_dominance(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        worst_eq = 0.0
        for _ in range(1000):
            x = float(rng.uniform(1.0, 1e5))
            y = float(rng.uniform(1.0, 1e5))
            r = Reserves(x, y)
            eps = float(C.price(r)) * float(rng.uniform(0.25, 4.0))
            beta = float(rng.uniform(0.0, 0.95))
            scale = x + y * eps
            _, lvr = max_lvr(r, eps)
            best = producer_payoff(apply_rebated_move(r, eps, beta), eps)
            err = abs(best - (1.0 - beta) * lvr) / max(scale, 1.0)
            worst_eq = max(worst_eq, err)
            # every other target price does weakly worse
            for mult in rng.uniform(0.2, 5.0, size=100):
                if mult == 1.0:
                    continue
                other = apply_rebated_move(r, eps * float(mult), beta)
                assert producer_payoff(other, eps) <= best + 1e-9 * scale
        elapsed = time.perf_counter() - t0
        assert worst_eq <= 1e-9
        assert elapsed < 10.0
        report(2, f"payoff equality max err {worst_eq:.2e}, dominated by the "
                  f"external-price target on 1000x100 instances ({elapsed:.2f}s)")


class TestCriterion3RebateCapture:
    def test_criterion_3_realized_extraction_drops_to_the_kept_fraction(self):
        cfg = SCN["lvr"]
        # the stated workload: schedule (4, 0.8), sigma 0.02, >= 200 runs of
        # >= 500 blocks
        assert cfg.rebate.z_max == 4 and cfg.rebate.beta0 == 0.8
        assert cfg.price.sigma == 0.02
        assert cfg.blocks >= 500
        out = lvr_experiment(cfg, seed=11, runs=400)
        assert out["runs"] >= 200
        lo, hi = out["ci95"]
        assert lo <= 0.2 <= hi, f"95% CI [{lo:.4f}, {hi:.4f}] misses 0.2"
        assert not (lo <= 1.0 <= hi), "CI fails to exclude the no-rebate ratio"
        report(3, f"mean extraction ratio {out['mean_ratio']:.4f}, 95% CI "
                  f"[{lo:.4f}, {hi:.4f}] contains 0.2 and excludes 1.0")


class TestCriterion4HonestDominance:
    def test_criterion_4_honest_update_dominates_the_strategy_grid(self):
        out = dominance_sweep(SCN["dominance"], seed=5, trials=10_000)
        assert out["trials"] >= 10_000
        mults = sorted({row["multiplier"] for row in out["rows"]})
        alphas = sorted({row["alpha"] for row in out["rows"]})
        assert mults == pytest.approx([(90 + i) / 100 for i in range(21)])
        assert alphas == pytest.approx([0.0, 0.25, 0.5])
        assert out["best"]["multiplier"] == pytest.approx(1.0)
        assert out["best"]["alpha"] == 0.0
        report(4, f"argmax at multiplier 1.00, alpha 0 over {len(out['rows'])} "
                  f"grid points x {out['trials']} trials")


class TestCriterion5UserPrices:
    def test_criterion_5_user_fills_are_unbiased_against_block_prices(self):
        out = user_price_experiment(SCN["neutrality"], seed=17, runs=1)
        assert out["orders"] >= 10_000
        assert abs(out["mean_deviation"]) <= 3 * out["se"]
        report(5, f"{out['orders']} fills, mean relative deviation "
                  f"{out['mean_deviation']:.2e} (z = {out['z']:.2f}, within 3 SE)")


class TestCriterion6Equilibrium:
    def test_criterion_6_competition_pins_updates_at_gap_zero(self):
        out = equilibrium_experiment(SCN["equilibrium"], seed=3, runs=100)
        assert out["runs"] == 100
        assert out["frac_gap0"] >= 0.99
        report(6, f"{out['frac_gap0']:.4f} of {out['updates']} updates at gap 0 "
                  f"across {out['runs']} runs")


class TestCriterion7Fallback:
    def test_criterion_7_zero_rebate_reduces_to_a_plain_cfmm(self):
        cfg = SCN["fallback"]
        assert cfg.rebate.z_max == 0 and cfg.rebate.beta0 == 0.0
        res = run_scenario(cfg, 7)
        replay = baseline_cfmm_replay(Reserves(cfg.pool_x, cfg.pool_y), res.receipts)
        assert len(replay) == cfg.blocks
        worst = 0.0
        by_height = {row["height"]: row for row in res.blocks}
        for h, x, y in replay:
            row = by_height[h]
            worst = max(
                worst,
                abs(row["pool_x"] - x) / max(abs(x), 1.0),
                abs(row["pool_y"] - y) / max(abs(y), 1.0),
            )
        assert worst <= 1e-9
        m = res.metrics
        assert m.realized_lvr == pytest.approx(m.full_lvr, rel=1e-9)
        assert m.final_vault_value == 0.0
        report(7, f"pool reserves track the plain CFMM replay to {worst:.2e} "
                  f"over {cfg.blocks} blocks; extraction ratio exactly 1")


class TestCriterion8Properties:
    def test_criterion_8a_batch_settlement_solvency(self):
        rng = np.random.default_rng(31)
        sides = (OrderSide.BUY_Y, OrderSide.SELL_Y)
        for i in range(10_000):
            sx = float(rng.uniform(10.0, 1e4))
            sy = float(rng.uniform(10.0, 1e4))
            snap = Reserves(sx, sy)
            p0 = sx / sy
            orders = []
            for _ in range(int(rng.integers(0, 7))):
                side = sides[int(rng.integers(0, 2))]
                size = float(rng.uniform(1e-3, 0.1 * (sx if side is sides[0] else sy)))
                limit = None
                if rng.random() < 0.5:
                    limit = p0 * float(rng.uniform(0.9, 1.1))
                orders.append(Order(side, size, limit))
            s = clearing_price_with_limits(C, snap, orders)
            after = Reserves(sx + s.pool_delta[0], sy + s.pool_delta[1])
            assert after.x > 0 and after.y > 0
            assert C.invariant(after) == pytest.approx(C.invariant(snap), rel=1e-9)
        report(8, "solvency: 10000 random batches kept the pool on its curve "
                  "with positive reserves (8a)")

    def test_criterion_8b_long_run_token_conservation(self):
        cfg = dataclasses.replace(SCN["default"], blocks=12_000)
        m = run_scenario(cfg, 13).metrics
        assert m.ops >= 100_000
        assert m.conservation_error <= 1e-6
        report(8, f"conservation: drift {m.conservation_error:.2e} over "
                  f"{m.ops} ledger operations (8b)")

    def test_criterion_8c_lifecycle_soundness_under_fuzzing(self):
        allowed = (InvalidTransition, FundingError, VerificationError, DomainError)
        rng = np.random.default_rng(101)
        raised = 0
        for chain_i in range(40):
            schedule = RebateSchedule(z_max=4, beta0=0.8)
            chain = ChainState(
                Reserves(10_000.0, 100.0),
                schedule,
                max_x=10.0,
                max_y=0.1,
                reveal_window=int(rng.integers(0, 4)),
                conversion_frequency=int(rng.integers(0, 4)),
                balances={"u": (1e6, 1e4), "prod": (1e6, 1e4)},
            )
            bodies = {}
            for _ in range(120):
                op = int(rng.integers(0, 6))
                try:
                    if op == 0:
                        side = OrderSide.BUY_Y if rng.random() < 0.5 else OrderSide.SELL_Y
                        bound = 10.0 if side is OrderSide.BUY_Y else 0.1
                        order = Order(side, float(rng.uniform(0.0, 1.2 * bound)) or 1e-6)
                        oct = chain.submit_oct("u", order)
                        bodies[oct.id] = order
                    elif op == 1:
                        pool = list(chain.mempool) + [999_999]
                        k = int(rng.integers(0, len(pool) + 1))
                        chain.insert_octs("prod", list(rng.choice(pool, size=k)))
                    elif op == 2:
                        label = int(rng.integers(-1, chain.height + 2))
                        price = pool_price(chain) * float(rng.uniform(0.9, 1.1))
                        chain.apply_update_tx("prod", label, price)
                    elif op == 3 and bodies:
                        oct_id = int(rng.choice(list(bodies)))
                        body = bodies[oct_id]
                        if rng.random() < 0.2:
                            body = Order(body.side, body.size * 0.5 or 1e-6)
                        chain.reveal_order(oct_id, body)
                    elif op == 4:
                        labels = list(chain.open_allocations) or [0]
                        label = int(rng.choice(labels))
                        proposal = None
                        if rng.random() < 0.3:
                            proposal = pool_price(chain) * float(rng.uniform(0.95, 1.05))
                        chain.execute_batch(label, proposed_price=proposal)
                    else:
                        chain.advance_block(
                            pool_price(chain) * float(rng.uniform(0.95, 1.05)),
                            converter="prod",
                        )
                except allowed:
                    raised += 1
                except InvariantViolation as e:  # pragma: no cover - must not happen
                    pytest.fail(f"invariant violation under fuzzing: {e}")
            assert chain.conservation_error() < 1e-6
        assert raised > 0  # the fuzz actually exercised the guards
        report(8, f"lifecycle: 4800 fuzzed operations, {raised} rejected cleanly, "
                  "zero invariant violations (8c)")

    def test_criterion_8d_byte_identical_determinism(self):
        cfg = dataclasses.replace(SCN["default"], blocks=50, record_events=True)
        a = run_scenario(cfg, 99)
        b = run_scenario(cfg, 99)
        dump = lambda r: json.dumps(
            {
                "metrics": r.metrics.to_dict(),
                "blocks": r.blocks,
                "events": [json.loads(line) for block in r.receipts
                           for line in block.ndjson().splitlines()],
            },
            sort_keys=True,
        ).encode()
        assert dump(a) == dump(b)
        seq = json.dumps([m.to_dict() for m in run_many(cfg, 5, 6, jobs=1)], sort_keys=True)
        par = json.dumps([m.to_dict() for m in run_many(cfg, 5, 6, jobs=3)], sort_keys=True)
        assert seq.encode() == par.encode()
        report(8, "determinism: repeated runs and jobs=1 vs jobs=3 byte-identical (8d)")
