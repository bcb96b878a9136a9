"""Independent reference implementations used to cross-check closed forms.

Everything here deliberately avoids the package's own formulas: clearing
prices come from sign-bracketed bisection on the level-curve constraint,
optimal arbitrage from dense grid search on the curve itself. Slow and
dumb, on purpose. The plain-CFMM replay is the exception: it reuses the
package's curve and clearing formulas, because what it checks is the
protocol's escrow and vault plumbing around them. The engine-backed producer
payoffs are the other one: they run the protocol itself, the reference the
vectorized criterion-4 model must reproduce. The market-batch closed
form is the reference the auction's all-market case must reproduce bit for
bit. ``InlineExecutor`` and ``pool_price`` are test plumbing, not references.
"""
from __future__ import annotations

import math

import numpy as np

from v0lver.allocation import Order, OrderSide, clearing_price_with_limits
from v0lver.cfmm import Reserves
from v0lver.engine import ChainState


def bisect_market_clearing(snapshot_x: float, snapshot_y: float, dx: float, dy: float,
                           rel_tol: float = 1e-12) -> float:
    """Uniform price for market flow (dx of x sold, dy of y sold) by bisection.

    The defining constraint: after the pool absorbs the imbalance at price p,
    its reserves must return to the starting level curve,

        (Sx + dx - dy*p) * (Sy + dy - dx/p) == Sx * Sy.

    This has a parasitic root at p == dx/dy (the pool trades nothing); the
    economically meaningful root lies strictly between the snapshot price and
    that ratio, and the constraint is strictly negative at the snapshot
    price, so a sign bracket pins it down.
    """
    p0 = snapshot_x / snapshot_y
    if dx == 0.0 and dy == 0.0:
        return p0

    def g(p: float) -> float:
        return (snapshot_x + dx - dy * p) * (snapshot_y + dy - dx / p) - snapshot_x * snapshot_y

    if dy > 0.0 and abs(dx - dy * p0) <= 1e-15 * max(dx, dy * p0):
        return p0  # balanced flow clears at the snapshot price
    lo = hi = None
    if dy == 0.0:
        lo = p0
        hi = p0 * 2.0
        while g(hi) <= 0.0:
            hi *= 2.0
    elif dx == 0.0:
        hi = p0
        lo = p0 / 2.0
        while g(lo) <= 0.0:
            lo /= 2.0
        lo, hi = lo, p0
    else:
        # g < 0 at the snapshot price and g > 0 just inside the parasitic
        # root, so walk toward the parasite until the sign flips.
        parasite = dx / dy
        span = parasite - p0
        cand = None
        for k in range(1, 80):
            c = p0 + span * (1.0 - 0.5**k)
            if g(c) > 0.0:
                cand = c
                break
        if cand is None:
            raise AssertionError("no sign bracket found")
        lo, hi = (p0, cand) if span > 0 else (cand, p0)
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
        if hi - lo <= rel_tol * mid:
            break
    return 0.5 * (lo + hi)


def closed_form_market_batch(snapshot_x: float, snapshot_y: float, dx: float, dy: float):
    """``(price, pool_delta, volume_y)`` of market flow (dx of x sold, dy of y sold).

    The clearing price is ``(Sx + dx) / (Sy + dy)`` and the pool absorbs the
    imbalance at that price; zero flow clears at the snapshot price.
    """
    if dx == 0.0 and dy == 0.0:
        return snapshot_x / snapshot_y, (0.0, 0.0), 0.0
    p = (snapshot_x + dx) / (snapshot_y + dy)
    return p, (dx - dy * p, dy - dx / p), dx / p + dy


def grid_max_extraction(x: float, y: float, eps: float, points: int = 10_001):
    """Best value extractable by moving the pool along its level curve.

    Parameterizes candidate end points by their x reserve on a log grid and
    maximizes ``(x - x_t) + (y - y_t) * eps`` directly. Returns
    ``(best_value, best_x)`` at grid resolution.
    """
    k = x * y
    ratio = np.sqrt(eps * y / x)  # optimal x multiplier, used only to size the window
    lo = x * min(1.0, ratio) / 4.0
    hi = x * max(1.0, ratio) * 4.0
    xt = np.geomspace(lo, hi, points)
    yt = k / xt
    value = (x - xt) + (y - yt) * eps
    i = int(np.argmax(value))
    return float(value[i]), float(xt[i])


def brentq_vault_shed(x: float, y: float, target: float, beta: float):
    """Re-derive a rebated move by root-finding instead of algebra.

    After moving fraction ``1 - beta`` of the full swap, solve for the
    rich-side amount whose removal puts the pool price exactly on target.
    Returns (new_x, new_y, shed_x, shed_y).
    """
    from scipy.optimize import brentq

    k = x * y
    x_full = (k * target) ** 0.5
    y_full = (k / target) ** 0.5
    mid_x = x + (1.0 - beta) * (x_full - x)
    mid_y = y + (1.0 - beta) * (y_full - y)
    if beta == 0.0:
        return mid_x, mid_y, 0.0, 0.0
    p_mid = mid_x / mid_y
    if target > x / y:
        f = lambda s: mid_x / (mid_y - s) - target
        s = brentq(f, 0.0, mid_y * (1.0 - 1e-12), xtol=1e-15, rtol=8.9e-16)
        return mid_x, mid_y - s, 0.0, s
    if target < x / y:
        f = lambda s: (mid_x - s) / mid_y - target
        s = brentq(f, 0.0, mid_x * (1.0 - 1e-12), xtol=1e-15, rtol=8.9e-16)
        return mid_x - s, mid_y, s, 0.0
    return x, y, 0.0, 0.0


def baseline_cfmm_replay(curve, reserves: Reserves, receipts):
    """Drive a plain CFMM through the block receipts of a protocol run.

    Updates become full arbitrage moves to the receipt's price; each batch is
    re-settled from its revealed orders against this walk's own snapshot at
    the allocation block. Returns end-of-block ``(height, x, y)`` reserves.
    With rebates disabled the protocol should shadow this walk exactly (up to
    float noise); any divergence means the escrow plumbing leaked.
    """
    r = reserves
    snapshots: dict[int, Reserves] = {}
    out = []
    for block in receipts:
        u = block.update
        if u is not None:
            r = curve.reserves_at_price(curve.invariant(r), u.price)
            snapshots[u.label] = r
        for e in block.executions:
            settled = clearing_price_with_limits(curve, snapshots[e.update.label], e.orders)
            dx, dy = settled.pool_delta
            r = Reserves(r.x + dx, r.y + dy)
        out.append((block.height, r.x, r.y))
    return out


def engine_producer_payoffs(curve, reserves: Reserves, eps: float, schedule, max_x: float,
                            max_y: float, multiplier: float, alpha: float, flow_dx, flow_dy):
    """Per-trial producer payoffs of ``agents.producer_utility``'s strategy, one block each.

    Each trial is one ``ChainState`` block: the users commit the trial's x and
    y flow, each side split into ceil(q / bound) equal market orders, the
    producer commits its own order (``alpha`` of the y bound sold when
    ``multiplier >= 1``, of the x bound otherwise), inserts everything, updates
    at gap zero to ``multiplier * eps``, and all orders reveal and settle at
    block end. The payoff is the producer's ledger change marked at ``eps``,
    from its balance before its own collateral is posted.
    """
    out = []
    for qx, qy in zip(flow_dx, flow_dy):
        chain = ChainState(curve, reserves, schedule, max_x=max_x, max_y=max_y,
                           conversion_frequency=0,
                           balances={"users": (1e6, 1e4), "producer": (1e5, 1e3)})
        orders = []
        for side, q, bound in ((OrderSide.BUY_Y, qx, max_x), (OrderSide.SELL_Y, qy, max_y)):
            n = math.ceil(q / bound)
            orders += [Order(side, float(q) / n, None, "users") for _ in range(n)]
        octs = [(chain.submit_oct("users", o), o) for o in orders]
        x0, y0 = chain.balances["producer"]
        if alpha > 0.0:
            own = (Order(OrderSide.SELL_Y, alpha * max_y, None, "producer") if multiplier >= 1.0
                   else Order(OrderSide.BUY_Y, alpha * max_x, None, "producer"))
            octs.append((chain.submit_oct("producer", own), own))
        chain.insert_octs("producer", [oct.id for oct, _ in octs])
        chain.apply_update_tx("producer", 0, multiplier * eps)
        for oct, o in octs:
            chain.reveal_order(oct.id, o)
        chain.advance_block(eps, converter="producer")
        x1, y1 = chain.balances["producer"]
        out.append((x1 - x0) + (y1 - y0) * eps)
    return np.array(out)


class InlineExecutor:
    """Stand-in for ``ProcessPoolExecutor``: maps in this process and records
    the ``max_workers`` each pool was asked for in ``InlineExecutor.workers``."""

    workers: list[int] = []

    def __init__(self, max_workers):
        InlineExecutor.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def pool_price(chain: ChainState) -> float:
    """The price of ``chain``'s pool on its own curve."""
    return chain.curve.price(chain.pool_reserves())
