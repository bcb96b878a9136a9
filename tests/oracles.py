"""Independent reference implementations used to cross-check closed forms.

Everything here deliberately avoids the package's own formulas: clearing
prices come from sign-bracketed bisection on the level-curve constraint,
optimal arbitrage from dense grid search on the curve itself. Slow and
dumb, on purpose. The plain-CFMM replay is the exception: it reuses the
package's curve and clearing formulas, because what it checks is the
protocol's escrow and vault plumbing around them. The engine-backed producer
payoffs are the other one: they run the protocol itself, the reference the
vectorized criterion-4 model must reproduce. The market-batch closed
form is the reference the auction's all-market case (``market_orders``)
must reproduce bit for bit. The reference clearing (``ReferenceBook``, ``reference_clearing_price``
and ``reference_verify_clearing_price``) is the quadratic uniform-price book
the sorted book in ``allocation`` replaced: it re-sums each side per regime
and settles every candidate exactly, and the sorted book must reproduce its
solver and verifier bit for bit. ``reference_events`` is a block's
event records as dicts, the schema ``BlockReceipt.ndjson`` renders, and
``reference_ndjson`` the event-log writer over them: every record made
JSON-safe (NaN and inf become null), then ``json.dumps`` per line;
``BlockReceipt.ndjson`` and the CLI's log must match the two byte for byte.
``reference_transfer`` is the guarded two-token ledger leg, and
``reference_transfer_token`` the one-token leg as it books it, which the
engine's in-place ``_transfer_token`` must reproduce bit for bit, signed
zeros and account order included. ``reference_guarded_leg`` is the per-leg
guard the engine's one-token legs once had (every leg no
``alloc:`` escrow pays or receives): the engine, which checks the owner once
where it posts collateral and the collateral at block end, must refuse
exactly when it does. ``reference_book_fill`` is a revealed order's fill as
three ``reference_guarded_leg`` calls in booking order (sold into the batch's
escrow, bought out of it, the collateral's rest back to the owner), which the
engine's in-place ``_book_fill`` must reproduce bit for bit, the escrow's
opening included. ``reference_dry_run`` is the generic dry run over a
list of legs, and ``reference_update_refusal`` the update's dry run with
every leg guarded, the pool's and the vault's included; the engine, which
checks only the producer, must refuse exactly when it does, with the same
party and message. ``reference_user_flow`` is a block's user flow drawn one
scalar at a time, which the flow's one-call draws must reproduce bit for bit,
the generator's state after them included. ``ReferenceBook`` sums with
``plain_sum``, the left-to-right adds of the sorted book's loops.
``market_orders``, ``user_flow_trials``, ``settlement_bits``, ``InlineExecutor``,
``pool_price``, ``sold_token``, ``producer_payoff`` and ``strict_records`` are test
plumbing, not references.
"""
from __future__ import annotations

import json
import math

import numpy as np

from v0lver.agents import gen_user_orders
from v0lver.allocation import (
    CLEARING_RTOL,
    Fill,
    Order,
    OrderSide,
    Settlement,
    clearing_price_with_limits,
)
from v0lver.errors import DomainError, FundingError
from v0lver.cfmm import CONSTANT_PRODUCT, Reserves, check_live, check_price
from v0lver.engine import COLLATERAL, POOL, VAULT, ChainState, Oct, _guard
from v0lver.rebate import apply_rebated_move


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


def market_orders(dx: float, dy: float) -> list[Order]:
    """Aggregate market flow (dx of x sold, dy of y sold) as at most two market
    orders: the x sold (if any), then the y sold."""
    flow = ((OrderSide.BUY_Y, dx), (OrderSide.SELL_Y, dy))
    return [Order(side, q) for side, q in flow if q != 0.0]


def plain_sum(values) -> float:
    """Left-to-right float adds. ``sum()`` of floats is compensated from Python
    3.12 on, so it would not reproduce the book's index-order loops there."""
    total = 0.0
    for v in values:
        total += v
    return total


class ReferenceBook:
    """One batch, split once: the orders, each side's ``(index, size, limit)``
    triples in index order (``limit=None`` for markets), and the sorted limits."""

    __slots__ = ("orders", "buys", "sells", "limits")

    def __init__(self, orders):
        self.orders = list(orders)
        self.buys, self.sells = [], []
        for i, o in enumerate(self.orders):
            (self.buys if o.side is OrderSide.BUY_Y else self.sells).append((i, o.size, o.limit))
        self.limits = sorted({o.limit for o in self.orders if o.limit is not None})

    def regimes(self, snapshot):
        """Yield ``(lo, hi, p_star)`` for each gap between consecutive limits.

        The executable sets are constant strictly inside ``(lo, hi)``, and
        ``p_star`` is the market-balance price they would clear at.
        """
        edges = [0.0] + self.limits + [math.inf]
        for lo, hi in zip(edges, edges[1:]):
            x_in = plain_sum(s for _, s, lim in self.buys if lim is None or lim >= hi)
            y_in = plain_sum(s for _, s, lim in self.sells if lim is None or lim <= lo)
            yield lo, hi, (snapshot.x + x_in) / (snapshot.y + y_in)

    def settle(self, curve, snapshot, p):
        """Try to clear the batch at uniform price ``p``.

        Infra-marginal orders (limits strictly admitting ``p``, and markets)
        must fill fully; orders with limit exactly ``p`` may fill pro-rata so
        that the pool's net trade is exactly the level-curve chord at ``p``.
        Returns the Settlement, or None when no fill fractions in [0, 1]
        balance the batch.
        """
        in_x = plain_sum(s for _, s, lim in self.buys if lim is None or lim > p)
        mb = plain_sum(s for _, s, lim in self.buys if lim == p)
        in_y = plain_sum(s for _, s, lim in self.sells if lim is None or lim < p)
        ms = plain_sum(s for _, s, lim in self.sells if lim == p)
        chord = curve.chord_y(snapshot, p)
        scale = max(snapshot.y, abs(chord), (in_x + mb) / p, in_y + ms, 1e-30)
        tol = CLEARING_RTOL * scale

        # Net y demand minus supply with all marginals included, versus the chord.
        gap = (in_x + mb) / p - (in_y + ms) - chord
        phi_b = phi_s = 1.0
        if gap > tol:
            if mb <= 0.0:
                return None
            phi_b = (p * (in_y + ms + chord) - in_x) / mb
            if phi_b < -CLEARING_RTOL or phi_b > 1.0 + CLEARING_RTOL:
                return None
            phi_b = min(max(phi_b, 0.0), 1.0)
        elif gap < -tol:
            if ms <= 0.0:
                return None
            phi_s = ((in_x + mb) / p - chord) - in_y
            phi_s /= ms
            if phi_s < -CLEARING_RTOL or phi_s > 1.0 + CLEARING_RTOL:
                return None
            phi_s = min(max(phi_s, 0.0), 1.0)
        # The balance at the clamped fractions, whose tolerance scales with the
        # marginal size and so may hide an imbalance the pool cannot pay. A NaN
        # balance or an infinite tolerance fails too.
        ex_x, ex_y = in_x + phi_b * mb, in_y + phi_s * ms
        if not abs(ex_x / p - ex_y - chord) <= CLEARING_RTOL * max(
                snapshot.y, abs(chord), ex_x / p, ex_y, 1e-30) < math.inf:
            return None

        fills = []
        sold_x = sold_y = 0.0
        for i, o in enumerate(self.orders):
            lim = o.limit
            if o.side is OrderSide.BUY_Y:
                f = 1.0 if lim is None or lim > p else phi_b if lim == p else 0.0
                if f > 0.0:
                    amt = f * o.size
                    fills.append(Fill(index=i, sold=amt, bought=amt / p))
                    sold_x += amt
            else:
                f = 1.0 if lim is None or lim < p else phi_s if lim == p else 0.0
                if f > 0.0:
                    amt = f * o.size
                    fills.append(Fill(index=i, sold=amt, bought=amt * p))
                    sold_y += amt
        return Settlement(
            price=p,
            pool_delta=(sold_x - sold_y * p, sold_y - sold_x / p),
            fills=tuple(fills),
            volume_y=sold_x / p + sold_y,
        )


def reference_clearing_price(curve, snapshot: Reserves, orders) -> Settlement:
    """The first candidate in ascending order that settles: each regime's
    market-balance price (when inside its gap), then the limit above it."""
    book = ReferenceBook(orders)
    for lo, hi, p_star in book.regimes(snapshot):
        if lo < p_star < hi:
            settled = book.settle(curve, snapshot, p_star)
            if settled is not None:
                return settled
        if math.isfinite(hi):
            settled = book.settle(curve, snapshot, hi)
            if settled is not None:
                return settled
    # Unreachable for well-formed inputs: the crossing always exists.
    raise DomainError("no consistent uniform clearing price found")


def reference_verify_clearing_price(curve, snapshot: Reserves, orders, proposed):
    """The settlement at ``proposed`` if it clears and no candidate price (any
    limit, the pool price, any regime's market-balance price) settles more
    volume, else None; every candidate is settled exactly."""
    try:
        p = check_price(proposed)
    except DomainError:
        return None
    book = ReferenceBook(orders)
    settled = book.settle(curve, snapshot, p)
    if settled is None:
        return None
    candidates = set(book.limits)
    candidates.add(curve.price(snapshot))
    candidates.update(p_star for _, _, p_star in book.regimes(snapshot))
    vol = best = settled.volume_y
    for c in candidates:
        if c <= 0.0 or not math.isfinite(c):
            continue
        other = book.settle(curve, snapshot, c)
        if other is not None and other.volume_y > best:
            best = other.volume_y
    scale = max(vol, best, 1.0)
    return settled if vol >= best - CLEARING_RTOL * scale else None


def settlement_bits(s):
    """A Settlement (or None) as exact bits: ``float.hex`` of the price, the
    pool delta, the volume and every fill."""
    if s is None:
        return None
    return (s.price.hex(), [v.hex() for v in s.pool_delta], s.volume_y.hex(),
            [(f.index, f.sold.hex(), f.bought.hex()) for f in s.fills])


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


def _bisect(f, lo: float, hi: float) -> float:
    """A root of monotone ``f`` on ``[lo, hi]``, where ``f(lo)`` and ``f(hi)``
    differ in sign, halved until the bracket is two adjacent floats."""
    below = f(lo) < 0.0
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return lo if abs(f(lo)) <= abs(f(hi)) else hi
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == below:
            lo = mid
        else:
            hi = mid


def bisect_vault_shed(x: float, y: float, target: float, beta: float):
    """Re-derive a rebated move by root-finding instead of algebra.

    After moving fraction ``1 - beta`` of the full swap, solve by bisection
    for the rich-side amount whose removal puts the pool price exactly on
    target. Returns (new_x, new_y, shed_x, shed_y).
    """
    k = x * y
    x_full = (k * target) ** 0.5
    y_full = (k / target) ** 0.5
    mid_x = x + (1.0 - beta) * (x_full - x)
    mid_y = y + (1.0 - beta) * (y_full - y)
    if beta == 0.0:
        return mid_x, mid_y, 0.0, 0.0
    if target > x / y:
        s = _bisect(lambda s: mid_x / (mid_y - s) - target, 0.0, mid_y * (1.0 - 1e-12))
        return mid_x, mid_y - s, 0.0, s
    if target < x / y:
        s = _bisect(lambda s: (mid_x - s) / mid_y - target, 0.0, mid_x)
        return mid_x - s, mid_y, s, 0.0
    return x, y, 0.0, 0.0


def baseline_cfmm_replay(reserves: Reserves, receipts):
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
            r = CONSTANT_PRODUCT.reserves_at_price(CONSTANT_PRODUCT.invariant(r), u.price)
            snapshots[u.label] = r
        for e in block.executions:
            settled = clearing_price_with_limits(CONSTANT_PRODUCT, snapshots[e.update.label],
                                                 e.orders)
            dx, dy = settled.pool_delta
            r = Reserves(r.x + dx, r.y + dy)
        out.append((block.height, r.x, r.y))
    return out


def user_flow_trials(rng, flow, eps: float, max_x: float, max_y: float, trials: int):
    """``trials`` blocks of ``agents.gen_user_orders`` at ``eps``, and per block the x
    and y its orders sell, summed in order, as the arrays ``producer_utility`` takes."""
    blocks = [gen_user_orders(rng, flow, eps, max_x, max_y) for _ in range(trials)]
    dx, dy = (np.array([plain_sum(o.size for o in b if o.side is side) for b in blocks])
              for side in (OrderSide.BUY_Y, OrderSide.SELL_Y))
    return blocks, dx, dy


def engine_producer_payoffs(reserves: Reserves, eps: float, schedule, max_x: float, max_y: float,
                            multiplier: float, alpha: float, blocks):
    """Per-trial producer payoffs of ``agents.producer_utility``'s strategy, one block each.

    Each trial is one ``ChainState`` block: the users commit the trial's
    orders, the producer commits its own order (``alpha`` of the y bound sold
    when ``multiplier >= 1``, of the x bound otherwise), inserts everything,
    updates at gap zero to ``multiplier * eps``, and all orders reveal and
    settle at block end. The payoff is the producer's ledger change marked at
    ``eps``, from its balance before its own collateral is posted.
    """
    out = []
    for orders in blocks:
        chain = ChainState(reserves, schedule, max_x=max_x, max_y=max_y,
                           conversion_frequency=0,
                           balances={"users": (1e6, 1e4), "producer": (1e5, 1e3)})
        octs = [(chain.submit_oct("users", o), o) for o in orders]
        x0, y0 = chain.balances["producer"]
        if alpha > 0.0:
            own = (Order(OrderSide.SELL_Y, alpha * max_y) if multiplier >= 1.0
                   else Order(OrderSide.BUY_Y, alpha * max_x))
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


def reference_transfer(chain: ChainState, src: str, dst: str, dx: float, dy: float,
                       *, guard: bool = True):
    """Move (dx, dy) from src to dst through ``chain._transfer``; with ``guard``,
    refuse first, as ``_guard`` does, so a refused leg opens no account."""
    if guard and not (dx == 0.0 and dy == 0.0):
        _guard(src, dst, chain.balances.get(src, (0.0, 0.0)),
               chain.balances.get(dst, (0.0, 0.0)), dx, dy)
    chain._transfer(src, dst, dx, dy)


def reference_transfer_token(chain: ChainState, src: str, dst: str, token: str, amount: float,
                             *, guard: bool = True):
    """Move ``amount`` of one token from src to dst as the two-token ``reference_transfer``."""
    if token == "x":
        reference_transfer(chain, src, dst, amount, 0.0, guard=guard)
    else:
        reference_transfer(chain, src, dst, 0.0, amount, guard=guard)


def reference_guarded_leg(chain: ChainState, src: str, dst: str, token: str, amount: float):
    """``reference_transfer_token``, guarded unless an ``alloc:`` escrow pays or receives."""
    guard = not (src.startswith("alloc:") or dst.startswith("alloc:"))
    reference_transfer_token(chain, src, dst, token, amount, guard=guard)


def reference_book_fill(chain: ChainState, escrow: str, oct: Oct, sold: float, bought: float):
    """One revealed order's fill as three one-token legs, in the order they book."""
    sells = oct.collateral_token
    buys = "y" if sells == "x" else "x"
    reference_guarded_leg(chain, COLLATERAL, escrow, sells, sold)
    reference_guarded_leg(chain, escrow, oct.owner, buys, bought)
    reference_guarded_leg(chain, COLLATERAL, oct.owner, sells, oct.collateral - sold)


def reference_dry_run(chain: ChainState, *legs):
    """Dry run: raise FundingError if booking the (src, dst, dx, dy) legs would."""
    after = {}
    for src, dst, dx, dy in legs:
        s = after.get(src) or chain.balances.get(src, (0.0, 0.0))
        d = after.get(dst) or chain.balances.get(dst, (0.0, 0.0))
        _guard(src, dst, s, d, dx, dy)
        after[src], after[dst] = (s[0] - dx, s[1] - dy), (d[0] + dx, d[1] + dy)


def reference_update_refusal(chain: ChainState, producer: str, alloc_label: int, price):
    """The FundingError ``chain.apply_update_tx(producer, alloc_label, price)``
    raises under a dry run that guards every leg, or None if it books.

    ``reference_dry_run`` runs over the two move legs, then the earmarks are
    checked, then it runs over every leg in booking order, the escrow
    leg of a non-empty batch included. The update must be otherwise valid
    (fresh label, a price that keeps the pool live)."""
    p = check_price(price)
    beta = chain.schedule.value_at(chain.height - alloc_label)
    before = Reserves(*chain.balances[POOL])
    (vx, vy), (fx, fy) = apply_rebated_move(before, p, beta)
    snapshot = check_live(Reserves(before.x - fx - vx, before.y - fy - vy), "pool reserves")
    legs = [(POOL, producer, fx, fy), (POOL, VAULT, vx, vy)]
    n = sum(len(chain.inserted_by_height.get(h, ()))
            for h in range(chain.last_alloc_label + 1, alloc_label + 1))
    ex, ey = n * chain.max_y * p, n * chain.max_x / p
    held_x, held_y = chain.earmark()
    try:
        reference_dry_run(chain, *legs)
        need_x, need_y = held_x + (1.0 - beta) * ex, held_y + (1.0 - beta) * ey
        if need_x > snapshot.x or need_y > snapshot.y:
            raise FundingError(
                f"pool reserves cannot back escrow earmarks ({need_x!r}, {need_y!r})", party=POOL)
        if n:
            legs.append((producer, f"alloc:{alloc_label}", beta * ex, beta * ey))
            reference_dry_run(chain, *legs)
    except FundingError as e:
        return e
    return None


def reference_user_flow(rng, flow, eps: float, max_x: float, max_y: float):
    """One block of user orders and their no-reveal coins, one scalar draw at a time.

    The orders are ``agents.gen_user_orders``'s per-order loop, the coins the
    per-order draw ``sim._drive`` made after them; ``sim._user_flow``, which
    draws each in one call, must reproduce both, and the generator's state."""
    orders = []
    if flow.arrival > 0:
        n = int(rng.poisson(flow.arrival))
        cap = flow.value_frac * min(max_x, max_y * eps)
        for _ in range(n):
            sells_x = rng.random() < 0.5
            value = cap * rng.random()
            if value <= 0.0:
                continue
            limit = None
            if flow.limit_prob > 0 and rng.random() < flow.limit_prob:
                limit = eps * (1.0 + flow.limit_width * rng.uniform(-1.0, 1.0))
            if sells_x:
                orders.append(Order(OrderSide.BUY_Y, value, limit))
            else:
                orders.append(Order(OrderSide.SELL_Y, value / eps, limit))
    hidden = [flow.no_reveal_prob > 0 and rng.random() < flow.no_reveal_prob for _ in orders]
    return orders, hidden


def pool_price(chain: ChainState) -> float:
    """The price of ``chain``'s pool."""
    return CONSTANT_PRODUCT.price(chain.pool_reserves())


def sold_token(order: Order) -> str:
    """The token ``order`` sells, ``"x"`` or ``"y"``, read from its side."""
    return "x" if order.side is OrderSide.BUY_Y else "y"


def producer_payoff(move, eps: float) -> float:
    """The producer's leg of an ``apply_rebated_move`` result, marked at ``eps``."""
    _, (fx, fy) = move
    return fx + fy * eps


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def reference_events(block) -> list[dict]:
    """The block's ``events.ndjson`` records, in protocol phase order."""
    h = block.height

    def ev(kind, **data):
        return {"height": h, "kind": kind, **data}

    out = [ev("oct_submitted", id=o.id, owner=o.owner, token=o.collateral_token,
              collateral=o.collateral) for o in block.submitted]
    out += [ev("octs_inserted", ids=list(ids), producer=p) for p, ids in block.inserts]
    u = block.update
    if u is not None:
        out.append(ev("update_applied", label=u.label, gap=u.gap, beta=u.beta, price=u.price,
                      producer_flow=u.producer_flow, vault_deposit=u.vault_deposit, count=u.count,
                      escrow=u.escrow, producer=u.producer))
    out += [ev("oct_revealed", id=i) for i in block.revealed]
    for e in block.executions:
        out += [ev("oct_burned", id=o.id, owner=o.owner, amount=o.collateral)
                for o in e.burned]
        out.append(ev("batch_executed", label=e.update.label, price=e.settlement.price,
                      pool_delta=e.settlement.pool_delta, n_allocated=e.update.count,
                      n_revealed=len(e.orders), n_burned=len(e.burned),
                      to_pool=e.to_pool, to_producer=e.to_producer))
    r = block.reentry
    if r is not None:
        out.append(ev("vault_reentered", eps=block.eps, added=r.added,
                      converter_flow=r.converter_flow, converter=r.converter))
    out.append(ev("block_end", pool=block.pool, vault=block.vault))
    return out


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_records(text: str) -> list:
    """The records of ``events.ndjson`` text, each line read as strict JSON (no NaN or inf)."""
    return [json.loads(line, parse_constant=_refuse_constant) for line in text.splitlines()]


def reference_ndjson(records) -> str:
    """``events.ndjson`` as the per-line ``json.dumps`` of each record made JSON-safe."""
    return "".join(json.dumps(_json_safe(rec), sort_keys=True) + "\n" for rec in records)
