"""Simulation driver, run metrics, and the experiment suite.

``run_scenario`` advances the protocol block by block from a scenario and a
seed — external price step, user commitments, producer insertion/update,
reveals, then block close — and reduces the engine receipts to metrics. A
(scenario, seed) pair fully determines every output, including the order of
random draws: price, user flow, and producer decisions each consume their
own named stream.

The realized-LVR measure marks every pool outflow and inflow at the external
price of the block it happens in: update flows and vault deposits out,
vault re-entries back in, and whatever sits in the vault at the end of the
run is netted off at the final price. Under a martingale external price the
deposit/re-entry legs cancel in expectation, so the measure is an unbiased
estimate of what price updates actually extracted from the pool; with
rebates disabled it equals the classic loss-versus-rebalancing sum exactly.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .agents import (
    PriceProcess,
    aggregate_market_flow,
    choose_inserts,
    decide_update,
    gen_user_orders,
    producer_utility,
)
from .allocation import Order, OrderSide
from .cfmm import CURVES, Reserves, max_lvr
from .config import ScenarioConfig
from .engine import VAULT, ChainState, OctState
from .errors import ConfigError

PRODUCER = "producer"
USERS = "users"


@dataclass(slots=True)
class RunMetrics:
    blocks: int
    n_updates: int = 0
    updates_by_gap: dict = field(default_factory=dict)
    realized_lvr: float = 0.0
    full_lvr: float = 0.0
    producer_flow_value: float = 0.0
    producer_escrow_net: float = 0.0
    producer_order_pnl: float = 0.0
    converter_value: float = 0.0
    update_costs: float = 0.0
    n_octs: int = 0
    n_executed: int = 0
    n_burned: int = 0
    n_user_fills: int = 0
    user_dev_sum: float = 0.0
    user_dev_sq: float = 0.0
    volume_y: float = 0.0
    ops: int = 0
    final_eps: float = 0.0
    final_pool_x: float = 0.0
    final_pool_y: float = 0.0
    final_k: float = 0.0
    final_vault_value: float = 0.0
    conservation_error: float = 0.0

    @property
    def lvr_ratio(self) -> float:
        """Realized LVR over the counterfactual full-LVR of the same updates."""
        return self.realized_lvr / self.full_lvr if self.full_lvr > 0 else math.nan

    @property
    def user_dev_mean(self) -> float:
        return self.user_dev_sum / self.n_user_fills if self.n_user_fills else math.nan

    @property
    def user_dev_se(self) -> float:
        n = self.n_user_fills
        if n < 2:
            return math.nan
        m = self.user_dev_sum / n
        var = max(self.user_dev_sq - n * m * m, 0.0) / (n - 1)
        return math.sqrt(var / n)

    def to_dict(self) -> dict:
        d = asdict(self)
        # The raw deviation sums are reported as their mean and standard error.
        del d["user_dev_sum"], d["user_dev_sq"]
        d["updates_by_gap"] = {str(g): c for g, c in sorted(self.updates_by_gap.items())}
        d.update(lvr_ratio=self.lvr_ratio, user_dev_mean=self.user_dev_mean,
                 user_dev_se=self.user_dev_se)
        return d


@dataclass(slots=True)
class RunResult:
    metrics: RunMetrics
    blocks: list
    events: list | None = None


def run_scenario(cfg: ScenarioConfig, seed: int) -> RunResult:
    cfg.validate()
    curve = CURVES[cfg.curve]
    schedule = cfg.rebate_schedule()
    ss = np.random.SeedSequence(seed)
    price_rng, flow_rng, prod_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    chain = ChainState(
        curve,
        Reserves(cfg.pool_x, cfg.pool_y),
        schedule,
        max_x=cfg.max_x,
        max_y=cfg.max_y,
        reveal_window=cfg.reveal_window,
        conversion_frequency=cfg.conversion_frequency,
        balances={
            USERS: (cfg.user_budget_x, cfg.user_budget_y),
            PRODUCER: (cfg.producer.budget_x, cfg.producer.budget_y),
        },
        record_events=cfg.record_events,
    )

    proc = PriceProcess(eps=cfg.price.initial, sigma=cfg.price.sigma, drift=cfg.price.drift)
    eps = proc.eps
    prev_eps = eps
    metrics = RunMetrics(blocks=cfg.blocks)
    rows = []
    private_orders: dict[int, Order] = {}
    no_reveal: set[int] = set()
    label_info: dict[int, tuple[float, float, float, float]] = {}  # eps, beta, dep_x, dep_y

    for h in range(cfg.blocks):
        if h > 0:
            prev_eps = eps
            eps = proc.step(price_rng)

        n_submitted = 0
        for order in gen_user_orders(flow_rng, cfg.flow, eps, cfg.max_x, cfg.max_y, USERS):
            oct = chain.submit_oct(USERS, order)
            private_orders[oct.id] = order
            if cfg.flow.no_reveal_prob > 0 and flow_rng.random() < cfg.flow.no_reveal_prob:
                no_reveal.add(oct.id)
            n_submitted += 1
        alpha = cfg.producer.self_trade_alpha
        if alpha > 0:
            if cfg.producer.price_offset >= 1.0:
                own = Order(OrderSide.SELL_Y, alpha * cfg.max_y, None, PRODUCER)
            else:
                own = Order(OrderSide.BUY_Y, alpha * cfg.max_x, None, PRODUCER)
            oct = chain.submit_oct(PRODUCER, own)
            private_orders[oct.id] = own
            n_submitted += 1
        metrics.n_octs += n_submitted
        metrics.ops += n_submitted

        inserted = chain.insert_octs(
            PRODUCER, choose_inserts(prod_rng, chain.mempool.keys(), cfg.producer.censor_rate)
        )
        metrics.ops += len(inserted)

        row = {
            "height": h,
            "eps": eps,
            "update": 0,
            "gap": -1,
            "beta": 0.0,
            "update_price": math.nan,
            "n_submitted": n_submitted,
            "n_inserted": len(inserted),
            "n_revealed": 0,
            "n_executed": 0,
            "n_burned": 0,
            "volume_y": 0.0,
        }

        decision = decide_update(
            cfg.producer, schedule, curve, chain.pool_reserves(), h,
            chain.last_alloc_label, eps, prev_eps,
        )
        if decision is not None:
            label, target = decision
            pre = chain.pool_reserves()
            receipt = chain.apply_update_tx(PRODUCER, label, target)
            metrics.ops += 1
            metrics.n_updates += 1
            metrics.updates_by_gap[receipt.gap] = metrics.updates_by_gap.get(receipt.gap, 0) + 1
            metrics.update_costs += cfg.producer.update_cost
            fx, fy = receipt.move.producer_flow
            vx, vy = receipt.move.vault_deposit
            metrics.producer_flow_value += fx + fy * eps
            metrics.realized_lvr += (fx + vx) + (fy + vy) * eps
            metrics.full_lvr += max_lvr(curve, pre, eps)[1]
            ex, ey = receipt.escrow
            label_info[label] = (eps, receipt.beta, receipt.beta * ex, receipt.beta * ey)
            row.update(update=1, gap=receipt.gap, beta=receipt.beta, update_price=float(target))

        n_revealed = 0
        for oct_id in sorted(private_orders):
            oct = chain.octs[oct_id]
            if oct.state is OctState.ALLOCATED and oct_id not in no_reveal:
                chain.reveal_order(oct_id, private_orders.pop(oct_id))
                n_revealed += 1
        metrics.ops += n_revealed
        row["n_revealed"] = n_revealed

        block = chain.advance_block(eps, converter=PRODUCER)
        metrics.ops += 1
        for er in block.executions:
            metrics.ops += 1
            metrics.n_executed += er.n_revealed
            metrics.n_burned += len(er.burned)
            metrics.volume_y += er.settlement.volume_y
            row["n_executed"] += er.n_revealed
            row["n_burned"] += len(er.burned)
            row["volume_y"] += er.settlement.volume_y
            eps_alloc, _beta, dep_x, dep_y = label_info.pop(er.label)
            tx, ty = er.to_producer
            metrics.producer_escrow_net += (tx - dep_x) + (ty - dep_y) * eps
            for f in er.settlement.fills:
                order = er.orders[f.index]
                if order.owner == USERS:
                    metrics.n_user_fills += 1
                    dev = er.settlement.price / eps_alloc - 1.0
                    metrics.user_dev_sum += dev
                    metrics.user_dev_sq += dev * dev
                elif order.owner == PRODUCER:
                    if order.side is OrderSide.SELL_Y:
                        metrics.producer_order_pnl += f.bought - f.sold * eps
                    else:
                        metrics.producer_order_pnl += f.bought * eps - f.sold
            if er.burned:
                dead = [i for i in private_orders if chain.octs[i].state is OctState.BURNED]
                for oct_id in dead:
                    del private_orders[oct_id]
                    no_reveal.discard(oct_id)
        if block.reentry is not None:
            metrics.ops += 1
            cx, cy = block.reentry.converter_flow
            metrics.converter_value += cx + cy * eps
            ax, ay = block.reentry.added
            metrics.realized_lvr -= ax + ay * eps

        pool = chain.pool_reserves()
        vault = chain.balances[VAULT]
        row.update(
            pool_x=pool.x,
            pool_y=pool.y,
            pool_price=chain.pool_price(),
            pool_k=chain.pool_constant(),
            vault_x=vault[0],
            vault_y=vault[1],
        )
        rows.append(row)

    vault_value = chain.balances[VAULT][0] + chain.balances[VAULT][1] * eps
    metrics.realized_lvr -= vault_value
    metrics.final_eps = eps
    pool = chain.pool_reserves()
    metrics.final_pool_x = pool.x
    metrics.final_pool_y = pool.y
    metrics.final_k = chain.pool_constant()
    metrics.final_vault_value = vault_value
    metrics.conservation_error = chain.conservation_error()
    return RunResult(metrics=metrics, blocks=rows, events=chain.events)


# --- experiments --------------------------------------------------------------


def _run_seeds(seed: int, runs: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(runs, dtype=np.uint64)]


def _metrics_worker(args) -> RunMetrics:
    cfg, s = args
    return run_scenario(cfg, s).metrics


def run_many(cfg: ScenarioConfig, seed: int, runs: int, jobs: int = 1) -> list[RunMetrics]:
    """Independent runs with per-run seeds derived from ``seed``.

    The per-run seeds do not depend on ``jobs``, so outputs are identical
    however the work is spread.
    """
    if runs <= 0:
        raise ConfigError("runs must be > 0")
    args = [(cfg, s) for s in _run_seeds(seed, runs)]
    if jobs <= 1:
        return [_metrics_worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(_metrics_worker, args, chunksize=max(1, runs // (4 * jobs))))


def lvr_experiment(cfg: ScenarioConfig, seed: int, runs: int = 200, jobs: int = 1) -> dict:
    """Distribution of the per-run realized/full LVR ratio.

    The headline numbers are the mean ratio and its 95% confidence interval;
    with the linear rebate schedule at gap zero the mean should sit near
    ``1 - beta0``.
    """
    results = run_many(cfg, seed, runs, jobs)
    ratios = [m.lvr_ratio for m in results if not math.isnan(m.lvr_ratio)]
    n = len(ratios)
    if not n:
        raise ConfigError(f"no run produced an LVR ratio: none of the {runs} runs extracted value")
    mean = sum(ratios) / n
    var = sum((r - mean) ** 2 for r in ratios) / (n - 1) if n > 1 else 0.0
    se = math.sqrt(var / n)
    half = 1.96 * se
    return {
        "runs": n,
        "blocks": cfg.blocks,
        "expected_keep": 1.0 - cfg.rebate_schedule().value_at(0),
        "mean_ratio": mean,
        "se": se,
        "ci95": [mean - half, mean + half],
        "ratios": ratios,
    }


def user_price_experiment(cfg: ScenarioConfig, seed: int, runs: int = 1, jobs: int = 1) -> dict:
    """Pooled signed deviation of user execution prices from the block price."""
    results = run_many(cfg, seed, runs, jobs)
    n = sum(m.n_user_fills for m in results)
    total = sum(m.user_dev_sum for m in results)
    sq = sum(m.user_dev_sq for m in results)
    mean = total / n if n else math.nan
    var = max(sq - n * mean * mean, 0.0) / (n - 1) if n > 1 else math.nan
    se = math.sqrt(var / n) if n > 1 else math.nan
    return {
        "runs": len(results),
        "orders": n,
        "mean_deviation": mean,
        "se": se,
        "z": mean / se if se and se > 0 else math.nan,
        "within_3se": bool(abs(mean) <= 3 * se) if n > 1 else False,
    }


def equilibrium_experiment(cfg: ScenarioConfig, seed: int, runs: int = 100, jobs: int = 1) -> dict:
    """How update gaps distribute under the configured producer policy."""
    results = run_many(cfg, seed, runs, jobs)
    gaps: dict[int, int] = {}
    for m in results:
        for g, c in m.updates_by_gap.items():
            gaps[g] = gaps.get(g, 0) + c
    total = sum(gaps.values())
    if not total:
        raise ConfigError(f"no run made an update: none of the {runs} runs updated the pool")
    return {
        "runs": len(results),
        "updates": total,
        "updates_by_gap": {str(g): c for g, c in sorted(gaps.items())},
        "frac_gap0": gaps.get(0, 0) / total,
    }


def dominance_sweep(
    cfg: ScenarioConfig,
    seed: int,
    multipliers=None,
    alphas=(0.0, 0.25, 0.5),
    trials: int = 10_000,
) -> dict:
    """Expected producer utility over a (price multiplier, self-trade) grid.

    All grid points share one set of sampled user-flow batches, so the
    comparison is paired; the ``alpha == 0`` column is exact. The honest
    strategy — target the external price, no self-trading — should come out
    on top whenever the pool starts at the external price.
    """
    cfg.validate()
    if multipliers is None:
        multipliers = [(90 + i) / 100.0 for i in range(21)]
    curve = CURVES[cfg.curve]
    reserves = Reserves(cfg.pool_x, cfg.pool_y)
    eps = cfg.price.initial
    schedule = cfg.rebate_schedule()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flow_dx, flow_dy = aggregate_market_flow(rng, cfg.flow, eps, cfg.max_x, cfg.max_y, trials)
    rows = []
    for m in multipliers:
        for a in alphas:
            u = producer_utility(
                curve, reserves, eps, schedule, cfg.max_x, cfg.max_y,
                m, a, flow_dx, flow_dy,
            )
            rows.append({"multiplier": m, "alpha": a, "utility": u})
    best = max(rows, key=lambda r: r["utility"])
    return {
        "trials": trials,
        "rows": rows,
        "best": dict(best),
    }
