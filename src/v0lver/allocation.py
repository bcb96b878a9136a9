"""Allocation escrow and the uniform-price batch auction.

An allocation escrow backs a batch of committed orders. The update that
allocates the batch funds it with enough of both tokens to pay out the
worst case — ``count`` orders all selling the same side at their maximum
size — priced at the update's pool price ``p``:

    (count * max_y * p,  count * max_x / p)

The producer funds the rebate fraction ``beta`` of that escrow and the pool
reserves back the remainder as an earmark.

Settlement replicates what batch-executing the revealed orders directly
against the pool snapshot would do, as one uniform-price auction.
Executable demand and supply at a candidate price come from the orders whose
limits admit it plus the snapshot curve's chord liquidity; the clearing price
is the unique point balancing the two (marginal orders filled pro-rata), and
that point is also the volume maximizer since demand falls and supply rises
in price. Between consecutive limits the executable orders sell fixed
amounts ``x_in`` and ``y_in``, and on a constant-product snapshot the
crossing has the closed form

    p_e = (R_x + x_in) / (R_y + y_in)

with the pool's net trade the chord of the level curve at slope ``p_e``, so
applying the pool delta to the snapshot preserves the invariant. A batch of
market orders alone is the auction without limits (``settle_market_batch``).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .cfmm import Reserves, check_price
from .errors import DomainError

# Relative tolerance used when checking a proposed clearing price.
CLEARING_RTOL = 1e-9


class OrderSide(enum.Enum):
    """BUY_Y sells token x for y; SELL_Y sells token y for x."""

    BUY_Y = "buy_y"
    SELL_Y = "sell_y"


@dataclass(frozen=True, slots=True)
class Order:
    """A revealed order: side, size in the sold token, optional limit.

    The limit is a price in x per y. A BUY_Y order executes at clearing
    prices up to its limit, a SELL_Y order at prices down to its limit;
    ``limit=None`` is a market order.
    """

    side: OrderSide
    size: float
    limit: float | None = None
    owner: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.size) and self.size > 0.0):
            raise DomainError(f"order size must be finite and > 0, got {self.size!r}")
        if self.limit is not None:
            object.__setattr__(self, "limit", check_price(self.limit))

    @property
    def sells_token(self) -> str:
        return "x" if self.side is OrderSide.BUY_Y else "y"


@dataclass(frozen=True, slots=True)
class Fill:
    """Executed part of one order: what it sold and what it received."""

    index: int
    sold: float
    bought: float


@dataclass(frozen=True, slots=True)
class Settlement:
    """Uniform-price batch outcome against a pool snapshot.

    ``pool_delta`` is signed into the pool's residual position: applying it
    to the snapshot reserves lands back on the same level curve.
    ``volume_y`` counts executed order quantity in y units (both sides).
    """

    price: float
    pool_delta: tuple[float, float]
    fills: tuple[Fill, ...]
    volume_y: float


def escrow_size(count: int, price: float, max_x: float, max_y: float) -> tuple[float, float]:
    """Escrow that covers ``count`` one-sided max-size orders at price ``price`` > 0."""
    if count < 0:
        raise DomainError("order count must be >= 0")
    if not (max_x > 0.0 and max_y > 0.0):
        raise DomainError("order bounds must be > 0")
    return count * max_y * price, count * max_x / price


# --- the uniform-price batch auction -----------------------------------------


class _Book:
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
            x_in = sum(s for _, s, lim in self.buys if lim is None or lim >= hi)
            y_in = sum(s for _, s, lim in self.sells if lim is None or lim <= lo)
            yield lo, hi, (snapshot.x + x_in) / (snapshot.y + y_in)

    def settle(self, curve, snapshot, p):
        """Try to clear the batch at uniform price ``p``.

        Infra-marginal orders (limits strictly admitting ``p``, and markets)
        must fill fully; orders with limit exactly ``p`` may fill pro-rata so
        that the pool's net trade is exactly the level-curve chord at ``p``.
        Returns the Settlement, or None when no fill fractions in [0, 1]
        balance the batch.
        """
        in_x = sum(s for _, s, lim in self.buys if lim is None or lim > p)
        mb = sum(s for _, s, lim in self.buys if lim == p)
        in_y = sum(s for _, s, lim in self.sells if lim is None or lim < p)
        ms = sum(s for _, s, lim in self.sells if lim == p)
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


def clearing_price_with_limits(curve, snapshot: Reserves, orders) -> Settlement:
    """Uniform-price, volume-maximizing clearing against the snapshot curve.

    Net executable user demand falls in price, the snapshot chord liquidity
    rises, so their crossing is unique; between consecutive limit prices it
    has the same closed form as the all-market batch, and at a limit price
    the marginal orders' pro-rata fraction closes the gap. An empty batch
    clears at the snapshot price with zero volume.
    """
    book = _Book(orders)
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


def settle_market_batch(curve, snapshot: Reserves, delta_x: float, delta_y: float) -> Settlement:
    """Settle aggregate market flow (x sold, y sold) against the snapshot.

    The all-market case of ``clearing_price_with_limits``: the flow becomes
    at most two market orders, the x sold (if any) then the y sold, which
    clear at ``(R_x + delta_x) / (R_y + delta_y)``. Zero flow clears at the
    snapshot price with an untouched pool.
    """
    if delta_x < 0 or delta_y < 0:
        raise DomainError("aggregate sold amounts must be >= 0")
    flow = ((OrderSide.BUY_Y, delta_x), (OrderSide.SELL_Y, delta_y))
    return clearing_price_with_limits(curve, snapshot, [Order(s, q) for s, q in flow if q != 0.0])


def verify_clearing_price(curve, snapshot: Reserves, orders, proposed) -> Settlement | None:
    """Check a proposed uniform price without trusting the solver's search.

    Returns the settlement at ``proposed`` iff the batch can actually clear
    there (limits respected, infra-marginal orders fully filled, pool trade
    on the level curve) and no candidate price — any order limit or any
    regime's market-balance price — achieves more executed volume; None
    otherwise.
    """
    try:
        p = check_price(proposed)
    except DomainError:
        return None
    book = _Book(orders)
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
