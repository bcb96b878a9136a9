"""The uniform-price batch auction.

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
market orders alone is the auction without limits.

A batch has one ``Book``. It sorts the distinct limits once and keeps prefix
sums of each side's size over them, so whether the batch can clear at a
price, and how much it could trade, is screened in O(log n)
(``Book.excluded``). The screen only rules candidates out: every number that
reaches a Settlement comes from an exact O(n) pass that sums the orders in
index order, and the screen's comparisons are widened by a bound on the
difference between the two summation orders, so both functions return, bit
for bit, what settling every candidate would. Clearing n orders with L
distinct limits costs O(n + L log L) plus a few exact passes, where settling
every candidate cost O(n L).

The engine builds the batch's ``Book`` and passes it to both functions as
``orders``; each uses a book built for an equal snapshot as it is, so the
verifier's exact settle of the solver's price is the solver's own. Plain
orders get a fresh book at every call.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left
from functools import reduce
from itertools import accumulate
from operator import add
from typing import NamedTuple

from .cfmm import CONSTANT_PRODUCT, Reserves, check_live, check_price
from .errors import DomainError

# Relative tolerance used when checking a proposed clearing price.
CLEARING_RTOL = 1e-9


def plain_sum(values) -> float:
    """Left-to-right float adds: ``sum()`` of floats is compensated from Python 3.12."""
    return reduce(add, values, 0.0)


class OrderSide(enum.Enum):
    """BUY_Y sells token x for y; SELL_Y sells token y for x."""

    BUY_Y = "buy_y"
    SELL_Y = "sell_y"


class _OrderFields(NamedTuple):
    side: OrderSide
    size: float
    limit: float | None = None


class Order(_OrderFields):
    """A revealed order: side, size in the sold token, optional limit.

    The limit is a price in x per y. A BUY_Y order executes at clearing
    prices up to its limit, a SELL_Y order at prices down to its limit;
    ``limit=None`` is a market order. ``_make``, ``_replace``, unpickling
    and copies all go through the checks in ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, side, size, limit=None):
        if not isinstance(side, OrderSide):
            try:
                side = OrderSide(side)
            except ValueError:
                raise DomainError(f"order side must be 'buy_y' or 'sell_y', got {side!r}") from None
        # A finite float > 0 passes as it is; anything else is converted or refused.
        if not (type(size) is float and 0.0 < size < math.inf):
            size = check_price(size, what="order size")
        if limit is not None and not (type(limit) is float and 0.0 < limit < math.inf):
            limit = check_price(limit, what="order limit")
        return tuple.__new__(cls, (side, size, limit))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class Fill(NamedTuple):
    """Executed part of one order: what it sold and what it received."""

    index: int
    sold: float
    bought: float


class Settlement(NamedTuple):
    """Uniform-price batch outcome against a pool snapshot.

    ``pool_delta`` is signed into the pool's residual position: applying it
    to the snapshot reserves lands back on the same level curve.
    ``volume_y`` counts executed order quantity in y units (both sides).
    """

    price: float
    pool_delta: tuple[float, float]
    fills: tuple[Fill, ...]
    volume_y: float


class Book:
    """One batch against one snapshot, sorted once; a sequence of its orders.

    The exact side keeps the orders and each side's ``(size, limit)`` pairs
    in index order (``limit=None`` for markets); ``settle`` and
    ``regime_price`` sum them in that order, so every number that reaches a
    Settlement has one summation order. The screening side totals each
    side's size per limit (``buy_at``, ``sell_at``) and keeps prefix sums
    over the sorted distinct ``limits``: per regime ``k`` (the gap between
    ``limits[k-1]`` and ``limits[k]``, with 0 below the first limit and
    infinity above the last), the size of the buys (``bx[k]``, limit at or
    above the gap, or market) and of the sells (``sy[k]``, limit at or below
    it, or market) executable inside the gap. A prefix sum differs from the
    index-order sum by rounding only, bounded relative to the sum by
    ``slack`` (infinite near overflow, so that nothing is screened out).
    A snapshot not live ``Reserves``, or orders not ``Order``s, raise a DomainError.
    """

    __slots__ = ("snapshot", "orders", "buys", "sells", "limits",
                 "bx", "sy", "buy_at", "sell_at", "slack", "last_settled")

    def __init__(self, snapshot, orders):
        self.snapshot = check_live(snapshot, "snapshot")
        try:
            orders = self.orders = tuple(orders)
        except TypeError:
            raise DomainError(f"orders must be an iterable of Orders, got {orders!r}") from None
        # One scan at C speed; every pass below unpacks an order as (side, size, limit).
        if not {*map(type, orders)} <= {Order}:
            i = next(i for i, o in enumerate(orders) if type(o) is not Order)
            raise DomainError(f"orders[{i}] must be an Order, got {orders[i]!r}")
        buy = OrderSide.BUY_Y
        buys = self.buys = [(size, lim) for side, size, lim in orders if side is buy]
        sells = self.sells = [(size, lim) for side, size, lim in orders if side is not buy]
        buy_markets, buy_at = self._totals(buys)
        sell_markets, sell_at = self._totals(sells)
        self.buy_at, self.sell_at = buy_at, sell_at
        limits = self.limits = sorted(buy_at.keys() | sell_at.keys())
        self.bx = list(accumulate([buy_at.get(lim, 0.0) for lim in reversed(limits)],
                                  initial=buy_markets))[::-1]
        self.sy = list(accumulate([sell_at.get(lim, 0.0) for lim in limits], initial=sell_markets))

        # The rounding bound holds while no value settle computes at a
        # candidate price (all within ``prices``) can overflow.
        x, y, x_all, y_all = self.snapshot.x, self.snapshot.y, self.bx[0], self.sy[-1]
        prices = [x / (y + y_all), (x + x_all) / y] + limits[:1] + limits[-1:]
        low, high = min(prices), max(prices)
        safe = (2.0**-400 < low and high < 2.0**400
                and (x + y + x_all + y_all) * max(high, 1.0 / low, 1.0) ** 2 < 2.0**900)
        self.slack = 16.0 * (len(self.orders) + 8) * 2.0**-53 if safe else math.inf
        self.last_settled = (None, None)  # settle's last (price object, result)

    def __len__(self):
        return len(self.orders)

    def __iter__(self):
        return iter(self.orders)

    @staticmethod
    def _totals(side):
        """The side's market size and its size per limit, each summed in index order."""
        markets, at = 0.0, {}
        for size, lim in side:
            if lim is None:
                markets += size
            else:
                at[lim] = at.get(lim, 0.0) + size
        return markets, at

    def gap(self, k):
        """``(lo, hi)``: the limits around regime ``k``."""
        lo = self.limits[k - 1] if k > 0 else 0.0
        return lo, self.limits[k] if k < len(self.limits) else math.inf

    def regime_price(self, k):
        """Regime ``k``'s market-balance price, from index-order sums."""
        lo, hi = self.gap(k)
        x_in = plain_sum(s for s, lim in self.buys if lim is None or lim >= hi)  # as in settle
        y_in = plain_sum(s for s, lim in self.sells if lim is None or lim <= lo)
        return (self.snapshot.x + x_in) / (self.snapshot.y + y_in)

    def screened_price(self, k):
        """Regime ``k``'s market-balance price from the prefix sums: within
        relative ``slack`` of ``regime_price(k)`` when finite and > 0."""
        return (self.snapshot.x + self.bx[k]) / (self.snapshot.y + self.sy[k])

    def excluded(self, p, wobble=0.0, vol=None):
        """True when ``settle`` certainly fails at every price within relative
        ``wobble`` of ``p`` > 0, or (given ``vol``) certainly settles at most
        ``vol`` plus half the verifier's tolerance.

        The screen mirrors ``settle``'s branches on prefix sums, with each
        comparison widened by the rounding bound; anything it cannot decide
        (a limit inside the wobble, overflow, NaN) is not excluded.
        """
        x, y = self.snapshot.x, self.snapshot.y
        lo, hi = p * (1.0 - wobble), p * (1.0 + wobble)
        k = bisect_left(self.limits, lo)
        if k < len(self.limits) and self.limits[k] <= hi:
            if wobble:
                return False
            # p is limits[k]: with its marginal orders in, and out.
            in_x, all_x, in_y, all_y = self.bx[k + 1], self.bx[k], self.sy[k], self.sy[k + 1]
            marginal_buys, marginal_sells = p in self.buy_at, p in self.sell_at
        else:
            in_x = all_x = self.bx[k]
            in_y = all_y = self.sy[k]
            marginal_buys = marginal_sells = False
        err = self.slack * ((all_x + x) / lo + all_y + y + 1e-280)
        if vol is not None and all_x / lo + all_y + err <= vol + 0.5 * CLEARING_RTOL * max(vol, 1.0):
            return True
        tol = CLEARING_RTOL * max(y, x / lo, all_x / lo, all_y, 1e-30)
        if (all_x + x) / hi - (all_y + y) > tol + err:
            # Demand exceeds supply: only marginal buys filling less can close it.
            excess = (in_x + x) / p - (all_y + y)
            return not marginal_buys or excess > CLEARING_RTOL * (all_x - in_x) / p + 2.0 * err
        gap = (all_x + x) / lo - (all_y + y)
        if gap < -tol - err:
            # Supply exceeds demand: only marginal sells filling less can close it.
            return not marginal_sells or gap < -(1.0 + CLEARING_RTOL) * (all_y - in_y) - 3.0 * err
        return False

    def settle(self, p):
        """Try to clear the batch at uniform price ``p``, in one O(n) pass.

        Infra-marginal orders (limits strictly admitting ``p``, and markets)
        must fill fully; orders with limit exactly ``p`` may fill pro-rata so
        that the pool's net trade is exactly the level-curve chord at ``p``.
        Returns the Settlement, or None when no fill fractions in [0, 1]
        balance the batch. Called again with the price object it settled
        last, it returns that result without a pass.
        """
        last_p, last = self.last_settled
        if p is last_p:
            return last
        snapshot = self.snapshot
        in_x = mb = in_y = ms = 0.0  # each sums in index order
        for s, lim in self.buys:
            if lim is None or lim > p:
                in_x += s
            elif lim == p:
                mb += s
        for s, lim in self.sells:
            if lim is None or lim < p:
                in_y += s
            elif lim == p:
                ms += s
        chord = CONSTANT_PRODUCT.chord_y(snapshot, p)
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

        # Fills in ascending index order. A full fill sells ``size``, which is
        # ``1.0 * size`` to the bit; ``tuple.__new__(Fill, ...)`` is ``Fill.__new__``'s body.
        fills = []
        append, new, buy = fills.append, tuple.__new__, OrderSide.BUY_Y
        sold_x = sold_y = 0.0
        for i, (side, size, lim) in enumerate(self.orders):
            if side is buy:
                if lim is None or lim > p:
                    amt = size
                elif lim == p and phi_b > 0.0:
                    amt = phi_b * size
                else:
                    continue
                append(new(Fill, (i, amt, amt / p)))
                sold_x += amt
            else:
                if lim is None or lim < p:
                    amt = size
                elif lim == p and phi_s > 0.0:
                    amt = phi_s * size
                else:
                    continue
                append(new(Fill, (i, amt, amt * p)))
                sold_y += amt
        settled = Settlement(
            price=p,
            pool_delta=(sold_x - sold_y * p, sold_y - sold_x / p),
            fills=tuple(fills),
            volume_y=sold_x / p + sold_y,
        )
        self.last_settled = (p, settled)
        return settled


def _book(curve, snapshot, orders) -> Book:
    """``orders`` if a ``Book`` built for an equal ``Reserves``, else a new one; DomainError
    unless ``curve`` is ``CONSTANT_PRODUCT``."""
    if curve is not CONSTANT_PRODUCT:
        raise DomainError(f"curve must be CONSTANT_PRODUCT, got {curve!r}")
    if isinstance(orders, Book) and isinstance(snapshot, Reserves) and snapshot == orders.snapshot:
        return orders
    return Book(snapshot, orders)


def clearing_price_with_limits(curve, snapshot: Reserves, orders) -> Settlement:
    """Uniform-price, volume-maximizing clearing against the snapshot curve.

    Net executable user demand falls in price, the snapshot chord liquidity
    rises, so their crossing is unique; between consecutive limit prices it
    has the same closed form as the all-market batch, and at a limit price
    the marginal orders' pro-rata fraction closes the gap. The result is the
    first candidate, from the lowest up, that settles: each regime's
    market-balance price when inside its gap, settled only when its screened
    value may be, then the limit above it, unless ``excluded`` rules it out.
    An empty batch clears at the snapshot price with zero volume. ``orders``
    is the batch's ``Book`` or its orders, which ``Book`` checks.
    """
    book = _book(curve, snapshot, orders)
    m = len(book.limits)
    for k in range(m + 1):
        lo, hi = book.gap(k)
        screened = book.screened_price(k)
        if not 0.0 < screened < math.inf or (
                screened * (1.0 + book.slack) > lo and screened * (1.0 - book.slack) < hi):
            p_star = book.regime_price(k)
            if lo < p_star < hi:
                settled = book.settle(p_star)
                if settled is not None:
                    return settled
        if k < m and not book.excluded(hi):
            settled = book.settle(hi)
            if settled is not None:
                return settled
    # Unreachable for well-formed inputs: the crossing always exists.
    raise DomainError("no consistent uniform clearing price found")


def verify_clearing_price(curve, snapshot: Reserves, orders, proposed) -> Settlement | None:
    """Check a proposed uniform price without trusting the solver's search.

    Returns the settlement at ``proposed`` iff the batch can actually clear
    there (limits respected, infra-marginal orders fully filled, pool trade
    on the level curve) and no candidate price — any order limit, the pool
    price or any regime's market-balance price — achieves more executed
    volume; None otherwise. The proposal is settled exactly; a candidate is
    settled exactly only when the screen cannot rule it out, i.e. it may
    clear and its volume may beat the proposal's. Given the ``Book`` the
    solver cleared and the price it returned, the verifier reads that book,
    and the proposal's exact settle is the solver's own settlement; every
    candidate is still screened here. Plain orders get a fresh book,
    checked as in ``clearing_price_with_limits``, before the proposal.
    """
    book = _book(curve, snapshot, orders)
    try:
        p = check_price(proposed)
    except DomainError:
        return None
    settled = book.settle(p)
    if settled is None:
        return None
    vol = best = settled.volume_y
    candidates = [(c, None) for c in book.limits]
    candidates.append((CONSTANT_PRODUCT.price(book.snapshot), None))
    candidates.extend((book.screened_price(k), k) for k in range(len(book.limits) + 1))
    for c, k in candidates:
        if k is not None:
            if 0.0 < c < math.inf and book.excluded(c, book.slack, vol):
                continue
            c = book.regime_price(k)
        # A candidate equal to the proposal settles exactly as it did.
        if c == p or not 0.0 < c < math.inf or book.excluded(c, 0.0, vol):
            continue
        other = book.settle(c)
        if other is not None and other.volume_y > best:
            best = other.volume_y
    scale = max(vol, best, 1.0)
    return settled if vol >= best - CLEARING_RTOL * scale else None
