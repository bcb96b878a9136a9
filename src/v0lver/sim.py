"""Simulation driver, run metrics, and the experiment suite.

``run_scenario`` advances the protocol block by block from a scenario and a
seed — external price step, user commitments, producer insertion/update,
reveals, then block close — and reduces the engine receipts to metrics. A
(scenario, seed) pair fully determines every output, including the order of
random draws: the price and the user flow each consume their own named
stream. The producer draws nothing: it inserts every pending commitment and
moves the pool to the external price when its update policy says so.

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
from dataclasses import asdict, dataclass, field

import numpy as np

from .agents import PriceProcess, decide_update, gen_user_orders, producer_utility
from .allocation import Order, OrderSide, plain_sum
from .cfmm import Reserves, check_int, max_lvr
from .config import FlowModel, ScenarioConfig, check_scenario
from .engine import POOL, BlockReceipt, ChainState
from .errors import ConfigError, DomainError, FundingError

PRODUCER = "producer"
USERS = "users"


def _mean_se(n: int, total: float, sq: float) -> tuple[float, float]:
    """Mean and standard error of ``n`` values from their sum and sum of squares
    (NaN where undefined)."""
    mean = total / n if n else math.nan
    if n < 2:
        return mean, math.nan
    var = max(sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


@dataclass(slots=True)
class RunMetrics:
    blocks: int
    n_updates: int = 0
    updates_by_gap: dict = field(default_factory=dict)
    realized_lvr: float = 0.0
    full_lvr: float = 0.0
    producer_flow_value: float = 0.0
    producer_escrow_net: float = 0.0
    producer_order_pnl: float = 0.0  # always 0.0: the producer places no orders of its own
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

    def to_dict(self) -> dict:
        d = asdict(self)
        # The raw deviation sums are reported as their mean and standard error.
        del d["user_dev_sum"], d["user_dev_sq"]
        d["updates_by_gap"] = {str(g): c for g, c in sorted(self.updates_by_gap.items())}
        mean, se = _mean_se(self.n_user_fills, self.user_dev_sum, self.user_dev_sq)
        d.update(lvr_ratio=self.lvr_ratio, user_dev_mean=mean, user_dev_se=se)
        return d


@dataclass(slots=True)
class RunResult:
    """A run's receipts and the metrics reduced from them; ``blocks`` builds its rows on access."""

    metrics: RunMetrics
    receipts: list

    @property
    def blocks(self) -> list:
        return [_block_row(b) for b in self.receipts]


#: The scenario fields that fund each ledger account a run can overdraw.
_FUNDED_BY = {
    USERS: "users.budget_x/users.budget_y",
    PRODUCER: "producer.budget_x/producer.budget_y",
    POOL: "pool.x/pool.y",
}


def _check_int(name: str, value, low: int = 1):
    """``cfmm.check_int``'s rule, raising a ConfigError naming ``name``."""
    try:
        check_int(value, name, low)
    except DomainError as e:
        raise ConfigError(str(e)) from None


def run_scenario(cfg: ScenarioConfig, seed: int) -> RunResult:
    _check_int("seed", seed, 0)
    check_scenario(cfg)
    chain = ChainState(
        Reserves(cfg.pool_x, cfg.pool_y),
        cfg.rebate,
        max_x=cfg.max_x,
        max_y=cfg.max_y,
        reveal_window=cfg.reveal_window,
        conversion_frequency=cfg.conversion_frequency,
        balances={
            USERS: (cfg.user_budget_x, cfg.user_budget_y),
            PRODUCER: (cfg.producer.budget_x, cfg.producer.budget_y),
        },
    )
    try:
        receipts = list(_drive(cfg, seed, chain))
    except FundingError as e:
        if e.party not in _FUNDED_BY:
            raise
        raise FundingError(f"{e} (funded by {_FUNDED_BY[e.party]})", party=e.party) from None

    metrics = RunMetrics(blocks=cfg.blocks)
    for block in receipts:
        _tally(metrics, cfg, block, receipts)
    last = receipts[-1]
    (px, py), (vx, vy) = last.pool, last.vault
    vault_value = vx + vy * last.eps
    metrics.realized_lvr -= vault_value
    metrics.final_eps = last.eps
    metrics.final_pool_x = px
    metrics.final_pool_y = py
    metrics.final_k = px * py
    metrics.final_vault_value = vault_value
    metrics.conservation_error = chain.conservation_error()
    return RunResult(metrics=metrics, receipts=receipts)


def _drive(cfg: ScenarioConfig, seed: int, chain: ChainState):
    """Advance ``chain`` through the scenario, yielding each block's receipt."""
    ss = np.random.SeedSequence(seed)
    price_rng, flow_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    proc = PriceProcess(eps=cfg.price.initial, sigma=cfg.price.sigma)
    eps = proc.eps
    # The bodies of the committed orders that will reveal once allocated.
    private_orders: dict[int, Order] = {}

    for h in range(cfg.blocks):
        if h > 0:
            eps = proc.step(price_rng)

        orders, hidden = _user_flow(flow_rng, cfg.flow, eps, cfg.max_x, cfg.max_y)
        for order, hide in zip(orders, hidden):
            oct = chain.submit_oct(USERS, order)
            if not hide:
                private_orders[oct.id] = order
        if chain.mempool:  # ascending ids: submission order; an empty insertion changes nothing
            chain.insert_octs(PRODUCER, list(chain.mempool))
        decision = decide_update(cfg.producer, chain.schedule, chain.pool_reserves(), h,
                                 chain.last_alloc_label, eps)
        if decision is not None:
            update = chain.apply_update_tx(PRODUCER, *decision)
            if update.oct_ids:
                for oct_id in sorted(update.oct_ids):
                    if oct_id in private_orders:
                        chain.reveal_order(oct_id, private_orders.pop(oct_id))

        yield chain.advance_block(eps, converter=PRODUCER)


def _user_flow(rng, flow: FlowModel, eps: float, max_x: float, max_y: float):
    """One block's user orders, then, in one draw, whether each stays unrevealed."""
    orders, p = gen_user_orders(rng, flow, eps, max_x, max_y), flow.no_reveal_prob
    hidden = (rng.random(len(orders)) < p).tolist() if p > 0 and orders else [False] * len(orders)
    return orders, hidden


def _block_row(block: BlockReceipt) -> dict:
    """The ``blocks.csv`` row of one block, keys in column order."""
    u = block.update
    px, py = block.pool
    return {
        "height": block.height,
        "eps": block.eps,
        "pool_x": px,
        "pool_y": py,
        "pool_price": px / py,  # the constant-product price and invariant
        "pool_k": px * py,
        "vault_x": block.vault[0],
        "vault_y": block.vault[1],
        "update": int(u is not None),
        "gap": -1 if u is None else u.gap,
        "beta": 0.0 if u is None else u.beta,
        "update_price": math.nan if u is None else u.price,
        "n_submitted": len(block.submitted),
        "n_inserted": sum(len(ids) for _, ids in block.inserts),
        "n_revealed": len(block.revealed),
        "n_executed": sum(len(er.orders) for er in block.executions),
        "n_burned": sum(len(er.burned) for er in block.executions),
        "volume_y": plain_sum(er.settlement.volume_y for er in block.executions),
    }


def _tally(m: RunMetrics, cfg: ScenarioConfig, block: BlockReceipt, receipts: list):
    """Add one block's share of the run metrics; float sums go per update, execution and fill."""
    eps, u, n_submitted = block.eps, block.update, len(block.submitted)
    m.n_octs += n_submitted
    m.ops += (n_submitted + (u is not None) + len(block.revealed) + 1 + len(block.executions)
              + (block.reentry is not None))
    if block.inserts:
        m.ops += sum(len(ids) for _, ids in block.inserts)
    if u is not None:
        m.n_updates += 1
        gap = u.gap
        m.updates_by_gap[gap] = m.updates_by_gap.get(gap, 0) + 1
        m.update_costs += cfg.producer.update_cost
        (fx, fy), (vx, vy) = u.producer_flow, u.vault_deposit
        m.producer_flow_value += fx + fy * eps
        m.realized_lvr += (fx + vx) + (fy + vy) * eps
        m.full_lvr += max_lvr(u.before, eps)[1]
    for er in block.executions:
        m.n_executed += len(er.orders)
        m.n_burned += len(er.burned)
        m.volume_y += er.settlement.volume_y
        alloc = er.update
        eps_alloc = receipts[alloc.height].eps  # the external price at allocation
        beta, (ex, ey) = alloc.beta, alloc.escrow
        tx, ty = er.to_producer
        m.producer_escrow_net += (tx - beta * ex) + (ty - beta * ey) * eps
        for f in er.settlement.fills:
            if er.revealed[f.index].owner == USERS:
                m.n_user_fills += 1
                dev = er.settlement.price / eps_alloc - 1.0
                m.user_dev_sum += dev
                m.user_dev_sq += dev * dev
    if block.reentry is not None:
        cx, cy = block.reentry.converter_flow
        m.converter_value += cx + cy * eps
        ax, ay = block.reentry.added
        m.realized_lvr -= ax + ay * eps


# --- experiments --------------------------------------------------------------


def _metrics_worker(args) -> RunMetrics:
    cfg, s = args
    return run_scenario(cfg, s).metrics


def run_many(cfg: ScenarioConfig, seed: int, runs: int, jobs: int = 1) -> list[RunMetrics]:
    """Independent runs with per-run seeds derived from ``seed``.

    The per-run seeds do not depend on ``jobs``, so outputs are identical
    however the work is spread.
    """
    _check_int("runs", runs)
    _check_int("jobs", jobs)
    _check_int("seed", seed, 0)
    check_scenario(cfg)
    seeds = np.random.SeedSequence(seed).generate_state(runs, dtype=np.uint64)
    args = [(cfg, int(s)) for s in seeds]
    if jobs <= 1:
        return [_metrics_worker(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a run asks for a pool
    with ProcessPoolExecutor(max_workers=min(jobs, runs)) as ex:
        return list(ex.map(_metrics_worker, args, chunksize=max(1, runs // (4 * jobs))))


def lvr_experiment(cfg: ScenarioConfig, seed: int, runs: int = 200, jobs: int = 1) -> dict:
    """Distribution of the per-run realized/full LVR ratio.

    The headline numbers are the mean ratio and its 95% confidence interval;
    with the linear rebate schedule at gap zero the mean should sit near
    ``1 - beta0``. One ratio gives no spread: ``se`` and ``ci95`` are NaN.
    ``dropped_runs`` counts the runs that gave no ratio (no full LVR to divide by).
    """
    results = run_many(cfg, seed, runs, jobs)
    ratios = [m.lvr_ratio for m in results if not math.isnan(m.lvr_ratio)]
    n = len(ratios)
    if not n:
        raise ConfigError(f"no run produced an LVR ratio: none of the {runs} runs extracted value")
    mean = plain_sum(ratios) / n
    var = plain_sum((r - mean) ** 2 for r in ratios) / (n - 1) if n > 1 else math.nan
    se = math.sqrt(var / n)
    half = 1.96 * se
    return {
        "runs": n,
        "dropped_runs": len(results) - n,
        "blocks": cfg.blocks,
        "expected_keep": 1.0 - cfg.rebate.value_at(0),
        "mean_ratio": mean,
        "se": se,
        "ci95": [mean - half, mean + half],
        "ratios": ratios,
    }


def user_price_experiment(cfg: ScenarioConfig, seed: int, runs: int = 1, jobs: int = 1) -> dict:
    """Pooled signed deviation of user execution prices from the block price."""
    results = run_many(cfg, seed, runs, jobs)
    n = sum(m.n_user_fills for m in results)
    total = plain_sum(m.user_dev_sum for m in results)
    sq = plain_sum(m.user_dev_sq for m in results)
    mean, se = _mean_se(n, total, sq)
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


#: ``dominance_sweep``'s strategy grid: target-price multipliers 0.90 to 1.10 of
#: the external price, and self-trades of these fractions of the order bound.
SWEEP_MULTIPLIERS = tuple((90 + i) / 100.0 for i in range(21))
SWEEP_ALPHAS = (0.0, 0.25, 0.5)


def dominance_sweep(cfg: ScenarioConfig, seed: int, trials: int = 10_000) -> dict:
    """Expected producer utility over the (price multiplier, self-trade) grid.

    The grid is fixed: every pair of ``SWEEP_MULTIPLIERS`` and ``SWEEP_ALPHAS``.
    Each trial is one block of the run's user flow at ``price.initial``, drawn
    by ``_user_flow`` from one generator seeded by ``seed``; its batch is what
    the revealed orders sell, as an unrevealed order never trades. Limit flow
    is refused: ``producer_utility`` clears market orders only. All grid points
    share the trials, so the comparison is paired; every point, ``alpha == 0``
    included, is a Monte Carlo mean. The honest strategy — target the external
    price, no self-trading — should come out on top whenever the pool starts
    at the external price.
    """
    _check_int("seed", seed, 0)
    check_scenario(cfg)
    _check_int("trials", trials)
    if cfg.flow.limit_prob > 0:
        raise ConfigError(f"flow.limit_prob must be 0 for the sweep, which clears market orders "
                          f"only, got {cfg.flow.limit_prob!r}")
    reserves = Reserves(float(cfg.pool_x), float(cfg.pool_y))
    eps = cfg.price.initial
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    totals = []
    for _ in range(trials):
        orders, hidden = _user_flow(rng, cfg.flow, eps, cfg.max_x, cfg.max_y)
        sold = [o for o, hide in zip(orders, hidden) if not hide]
        totals.append([plain_sum(o.size for o in sold if o.side is side)
                       for side in (OrderSide.BUY_Y, OrderSide.SELL_Y)])
    flow_dx, flow_dy = np.array(totals).T
    rows = []
    for m in SWEEP_MULTIPLIERS:
        for a in SWEEP_ALPHAS:
            try:
                u = producer_utility(reserves, eps, cfg.rebate, cfg.max_x, cfg.max_y, m, a,
                                     flow_dx, flow_dy)
            except DomainError as e:
                raise ConfigError(f"price.initial {eps!r} with pool ({cfg.pool_x!r}, "
                                  f"{cfg.pool_y!r}): the grid target {m!r} * price.initial "
                                  f"moves the pool out of range: {e}") from None
            rows.append({"multiplier": m, "alpha": a, "utility": u})
    best = max(rows, key=lambda r: r["utility"])
    return {
        "trials": trials,
        "rows": rows,
        "best": dict(best),
    }
