import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from v0lver import allocation, sim
from v0lver.allocation import (
    Fill,
    Order,
    OrderSide,
    clearing_price_with_limits,
    verify_clearing_price,
)
from v0lver.cfmm import CONSTANT_PRODUCT, Reserves
from v0lver.config import builtin_scenarios
from v0lver.engine import ChainState
from v0lver.errors import DomainError, InvariantViolation, VerificationError
from v0lver.rebate import RebateSchedule

from oracles import (
    ReferenceBook,
    bisect_market_clearing,
    closed_form_market_batch,
    market_orders,
    reference_clearing_price,
    reference_verify_clearing_price,
    settlement_bits,
    sold_token,
)

C = CONSTANT_PRODUCT
SNAP = Reserves(100.0, 100.0)


def buy(size, limit=None):
    return Order(side=OrderSide.BUY_Y, size=size, limit=limit)


def sell(size, limit=None):
    return Order(side=OrderSide.SELL_Y, size=size, limit=limit)


def market_batch(snapshot, dx, dy):
    """Aggregate market flow (dx of x sold, dy of y sold) cleared as market orders."""
    return clearing_price_with_limits(C, snapshot, market_orders(dx, dy))


def allocated(orders, price=102.0):
    """A chain at price 100 whose update at ``price`` allocated ``orders``
    (label 0, beta 0.8, bounds 10 x and 0.1 y), all revealed."""
    chain = ChainState(Reserves(10_000.0, 100.0), RebateSchedule(z_max=4, beta0=0.8),
                       max_x=10.0, max_y=0.1,
                       balances={"u": (1_000.0, 10.0), "prod": (10_000.0, 100.0)})
    octs = [chain.submit_oct("u", o) for o in orders]
    chain.insert_octs("prod", [o.id for o in octs])
    update = chain.apply_update_tx("prod", 0, price)
    for oct, o in zip(octs, orders):
        chain.reveal_order(oct.id, o)
    return chain, update


#: Aggregate market flow: zero, subnormal, tiny, ordinary and large amounts.
flow_amounts = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 1e-300),
    st.floats(0.0, 1e5),
    st.floats(1e5, 1e12),
)


class TestMarketBatch:
    def test_worked_example(self):
        # snapshot (100, 100), 10 x sold against 5 y sold: the uniform price
        # is (100+10)/(100+5) and the pool absorbs the imbalance along its
        # level curve.
        s = market_batch(SNAP, 10.0, 5.0)
        assert s.price == pytest.approx(110.0 / 105.0, rel=1e-12)
        assert s.pool_delta[0] == pytest.approx(100.0 / 21.0, rel=1e-12)
        assert s.pool_delta[1] == pytest.approx(-50.0 / 11.0, rel=1e-12)
        assert s.volume_y == pytest.approx(160.0 / 11.0, rel=1e-12)
        after = Reserves(SNAP.x + s.pool_delta[0], SNAP.y + s.pool_delta[1])
        assert C.invariant(after) == pytest.approx(10_000.0, rel=1e-12)
        # the flow settles as two market orders: the x sold, then the y sold
        assert s.fills == (Fill(0, 10.0, 10.0 / s.price), Fill(1, 5.0, 5.0 * s.price))

    @given(sx=st.floats(1e-3, 1e9), sy=st.floats(1e-3, 1e9), dx=flow_amounts, dy=flow_amounts)
    @example(sx=100.0, sy=100.0, dx=0.0, dy=0.0)
    @example(sx=100.0, sy=100.0, dx=7.0, dy=7.0)
    @example(sx=100.0, sy=100.0, dx=5e-324, dy=0.0)
    @example(sx=100.0, sy=100.0, dx=0.0, dy=5e-324)
    def test_matches_the_closed_form_bit_for_bit(self, sx, sy, dx, dy):
        s = market_batch(Reserves(sx, sy), dx, dy)
        price, pool_delta, volume_y = closed_form_market_batch(sx, sy, dx, dy)
        got = [s.price, *s.pool_delta, s.volume_y]
        assert [v.hex() for v in got] == [v.hex() for v in (price, *pool_delta, volume_y)]

    def test_balanced_flow_leaves_pool_alone(self):
        s = market_batch(SNAP, 7.0, 7.0)
        assert s.price == pytest.approx(1.0)
        assert s.pool_delta == pytest.approx((0.0, 0.0), abs=1e-12)
        assert s.volume_y == pytest.approx(14.0)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sx = float(rng.uniform(10.0, 1e4))
            sy = float(rng.uniform(10.0, 1e4))
            dx = float(rng.uniform(0.0, 0.2 * sx))
            dy = float(rng.uniform(0.0, 0.2 * sy))
            s = market_batch(Reserves(sx, sy), dx, dy)
            p_ref = bisect_market_clearing(sx, sy, dx, dy)
            assert abs(s.price - p_ref) <= 1e-9 * p_ref

    @given(
        sx=st.floats(1.0, 1e6),
        sy=st.floats(1.0, 1e6),
        dx=st.floats(0.0, 1e5),
        dy=st.floats(0.0, 1e5),
    )
    def test_delta_preserves_level_curve(self, sx, sy, dx, dy):
        snap = Reserves(sx, sy)
        s = market_batch(snap, dx, dy)
        after = Reserves(sx + s.pool_delta[0], sy + s.pool_delta[1])
        assert after.x > 0 and after.y > 0
        assert C.invariant(after) == pytest.approx(C.invariant(snap), rel=1e-9)


class TestLimitClearing:
    def test_single_buy_inside_limit_fills_fully(self):
        s = clearing_price_with_limits(C, SNAP, [buy(10.0, limit=1.2)])
        assert s.price == pytest.approx(1.1, rel=1e-12)
        assert len(s.fills) == 1
        assert s.fills[0].sold == pytest.approx(10.0)
        assert s.fills[0].bought == pytest.approx(100.0 / 11.0, rel=1e-12)

    def test_single_buy_pins_price_at_its_limit(self):
        # limit 1.05 binds before the market-balance price 1.1: execution is
        # cut to what the pool chord supplies at 1.05, exactly half the order.
        s = clearing_price_with_limits(C, SNAP, [buy(10.0, limit=1.05)])
        assert s.price == pytest.approx(1.05, rel=1e-12)
        assert s.fills[0].sold == pytest.approx(5.0, rel=1e-9)
        assert s.fills[0].bought == pytest.approx(100.0 / 21.0, rel=1e-9)
        after = Reserves(SNAP.x + s.pool_delta[0], SNAP.y + s.pool_delta[1])
        assert C.invariant(after) == pytest.approx(10_000.0, rel=1e-9)

    def test_single_sell_pins_price_at_its_limit(self):
        s = clearing_price_with_limits(C, SNAP, [sell(10.0, limit=0.95)])
        assert s.price == pytest.approx(0.95, rel=1e-12)
        assert s.fills[0].sold == pytest.approx(100.0 / 19.0, rel=1e-9)
        assert s.pool_delta[0] == pytest.approx(-5.0, rel=1e-9)

    def test_crossed_limits_trade_through_each_other(self):
        # Buy interest slightly exceeds sell interest at the common limit 1.0;
        # the sells fill fully, the buys pro-rate, the pool stays put.
        s = clearing_price_with_limits(
            C, SNAP, [buy(10.5, limit=1.0), sell(10.0, limit=1.0)]
        )
        assert s.price == pytest.approx(1.0, rel=1e-12)
        by_index = {f.index: f for f in s.fills}
        assert by_index[0].sold == pytest.approx(10.0, rel=1e-9)
        assert by_index[1].sold == pytest.approx(10.0, rel=1e-9)
        assert s.pool_delta == pytest.approx((0.0, 0.0), abs=1e-9)
        assert s.volume_y == pytest.approx(20.0, rel=1e-9)

    def test_marginal_orders_share_pro_rata(self):
        s = clearing_price_with_limits(
            C, SNAP, [buy(6.0, limit=1.05), buy(4.0, limit=1.05)]
        )
        assert s.price == pytest.approx(1.05, rel=1e-12)
        by_index = {f.index: f for f in s.fills}
        # both marginal at 1.05: identical fractions of their sizes
        assert by_index[0].sold / 6.0 == pytest.approx(by_index[1].sold / 4.0, rel=1e-9)
        assert by_index[0].sold + by_index[1].sold == pytest.approx(5.0, rel=1e-9)

    def test_empty_batch_clears_at_snapshot_price(self):
        s = clearing_price_with_limits(C, SNAP, [])
        assert s.price == pytest.approx(1.0)
        assert s.fills == ()
        assert s.volume_y == 0.0

    def test_market_orders_match_aggregate_settlement(self):
        orders = [buy(4.0), buy(6.0), sell(5.0)]
        s = clearing_price_with_limits(C, SNAP, orders)
        price, pool_delta, volume_y = closed_form_market_batch(SNAP.x, SNAP.y, 10.0, 5.0)
        assert s.price == pytest.approx(price, rel=1e-12)
        assert s.pool_delta == pytest.approx(pool_delta, rel=1e-12)
        assert s.volume_y == pytest.approx(volume_y, rel=1e-12)

    def test_unfillable_limits_leave_batch_empty(self):
        s = clearing_price_with_limits(C, SNAP, [buy(10.0, limit=0.5)])
        assert s.price == pytest.approx(1.0)
        assert all(f.sold == 0.0 for f in s.fills)
        assert s.volume_y == pytest.approx(0.0, abs=1e-12)


orders_strategy = st.lists(
    st.builds(
        Order,
        side=st.sampled_from([OrderSide.BUY_Y, OrderSide.SELL_Y]),
        size=st.floats(0.01, 50.0),
        limit=st.one_of(st.none(), st.floats(0.5, 2.0)),
    ),
    max_size=8,
)


class TestClearingProperties:
    @given(orders=orders_strategy)
    @settings(max_examples=200)
    def test_solver_output_self_verifies(self, orders):
        s = clearing_price_with_limits(C, SNAP, orders)
        assert verify_clearing_price(C, SNAP, orders, s.price) == s

    @given(orders=orders_strategy)
    @settings(max_examples=200)
    def test_limits_respected_and_tokens_conserved(self, orders):
        s = clearing_price_with_limits(C, SNAP, orders)
        p = s.price
        sold_x = sold_y = bought_x = bought_y = 0.0
        for f in s.fills:
            o = orders[f.index]
            assert 0.0 <= f.sold <= o.size * (1 + 1e-9)
            if o.side is OrderSide.BUY_Y:
                assert o.limit is None or o.limit >= p * (1 - 1e-12)
                sold_x += f.sold
                bought_y += f.bought
            else:
                assert o.limit is None or o.limit <= p * (1 + 1e-12)
                sold_y += f.sold
                bought_x += f.bought
        # sold tokens either bought by the other side or absorbed by the pool
        assert sold_x == pytest.approx(bought_x + s.pool_delta[0], abs=1e-9 * max(1.0, sold_x))
        assert sold_y == pytest.approx(bought_y + s.pool_delta[1], abs=1e-9 * max(1.0, sold_y))
        # infra-marginal orders must fill fully
        filled = {f.index: f.sold for f in s.fills}
        for i, o in enumerate(orders):
            if o.limit is None:
                assert filled.get(i, 0.0) == pytest.approx(o.size, rel=1e-9)
            elif (o.side is OrderSide.BUY_Y and o.limit > p) or (
                o.side is OrderSide.SELL_Y and o.limit < p
            ):
                assert filled.get(i, 0.0) == pytest.approx(o.size, rel=1e-9)

    @given(orders=orders_strategy)
    @settings(max_examples=200)
    def test_pool_never_leaves_its_level_curve(self, orders):
        s = clearing_price_with_limits(C, SNAP, orders)
        after = Reserves(SNAP.x + s.pool_delta[0], SNAP.y + s.pool_delta[1])
        assert after.x > 0 and after.y > 0
        assert C.invariant(after) == pytest.approx(C.invariant(SNAP), rel=1e-9)


#: One market buy and one limit sell: cleared against a pool without y, they
#: would take y from it.
REFUSED_ORDERS = (Order("buy_y", 1.0), Order("sell_y", 0.5, 1.1))


class TestVerification:
    def test_rejects_prices_that_lose_volume(self):
        orders = [buy(10.0, limit=1.2)]
        assert verify_clearing_price(C, SNAP, orders, 1.1)
        assert not verify_clearing_price(C, SNAP, orders, 1.2)
        assert not verify_clearing_price(C, SNAP, orders, 1.05)

    def test_rejects_prices_where_nothing_balances(self):
        # strictly between the snapshot price and the balance price no fill
        # fractions can match demand to the chord
        orders = [buy(10.0)]
        assert not verify_clearing_price(C, SNAP, orders, 1.05)
        assert verify_clearing_price(C, SNAP, orders, 1.1)

    def test_rejects_garbage_proposals(self):
        orders = [buy(10.0)]
        assert not verify_clearing_price(C, SNAP, orders, 0.0)
        assert not verify_clearing_price(C, SNAP, orders, -3.0)
        assert not verify_clearing_price(C, SNAP, orders, float("nan"))
        assert not verify_clearing_price(C, SNAP, orders, "abc")
        assert not verify_clearing_price(C, SNAP, orders, None)

    @pytest.mark.parametrize("orders, index", [
        ([("buy_y", 1.0, None)], 0),
        ([(OrderSide.BUY_Y, 1.0, None)], 0),  # a plain tuple of an order's fields
        ([None], 0),
        ("ab", 0),
        ([buy(1.0), sell(1.0, limit=1.0), None], 2),
    ])
    def test_an_entry_that_is_not_an_order_is_refused(self, orders, index):
        bad = list(orders)[index]
        for call in (lambda: clearing_price_with_limits(C, SNAP, orders),
                     lambda: verify_clearing_price(C, SNAP, orders, 1.0),
                     lambda: verify_clearing_price(C, SNAP, orders, math.nan)):
            with pytest.raises(DomainError) as e:
                call()
            assert str(e.value) == f"orders[{index}] must be an Order, got {bad!r}"

    @pytest.mark.parametrize("snapshot, orders, name", [
        (Reserves(0.0, 1.0), REFUSED_ORDERS, "snapshot"),  # would leave the pool no y
        (Reserves(1.0, 0.0), REFUSED_ORDERS, "snapshot"),
        (Reserves(-1.0, 1.0), REFUSED_ORDERS, "snapshot"),
        (Reserves(math.nan, 1.0), REFUSED_ORDERS, "snapshot"),
        (Reserves(1.0, math.inf), REFUSED_ORDERS, "snapshot"),
        (Reserves(1e300, 1e-10), REFUSED_ORDERS, "snapshot"),  # x / y overflows
        (Reserves(1e-300, 1e100), REFUSED_ORDERS, "snapshot"),  # x / y underflows
        ((100.0, 100.0), REFUSED_ORDERS, "snapshot"),
        (Reserves("1", 2.0), REFUSED_ORDERS, "snapshot"),
        (Reserves(10**400, 1.0), REFUSED_ORDERS, "snapshot"),
        (None, REFUSED_ORDERS, "snapshot"),
        ((100.0, 100.0), "book", "snapshot"),  # equal values, but not Reserves
        (Reserves(0.0, 1.0), "book", "snapshot"),
        (SNAP, None, "orders"),
        (SNAP, 5, "orders"),
    ])
    @pytest.mark.parametrize("clear", ["solver", "verifier"])
    def test_a_dead_snapshot_or_orders_that_are_not_iterable_are_refused(
            self, snapshot, orders, name, clear):
        if orders == "book":
            orders = allocation.Book(SNAP, REFUSED_ORDERS)
        proposal = clearing_price_with_limits(C, SNAP, REFUSED_ORDERS).price
        with pytest.raises(DomainError, match=f"^{name} must be"):
            if clear == "solver":
                clearing_price_with_limits(C, snapshot, orders)
            else:
                verify_clearing_price(C, snapshot, orders, proposal)

    def test_a_proposal_that_settles_but_loses_volume_is_refused(self):
        # a buy limited just above a deep pool's price: the proposal above its
        # limit settles with zero volume, the pool's chord inside the balance
        # tolerance, and only the volume rule refuses it
        snapshot = Reserves(1e8, 1e6)
        orders = [buy(1e-3, limit=100.0 * (1.0 + 1e-12))]
        proposal = 100.0 * (1.0 + 1e-10)
        assert allocation.Book(snapshot, orders).settle(proposal).volume_y == 0.0
        assert verify_clearing_price(C, snapshot, orders, proposal) is None
        solved = clearing_price_with_limits(C, snapshot, orders)
        assert solved.price == pytest.approx(100.0, rel=1e-11)
        assert solved.volume_y == pytest.approx(1e-5, rel=1e-9)
        assert verify_clearing_price(C, snapshot, orders, solved.price) == solved

        chain = ChainState(snapshot, RebateSchedule(z_max=4, beta0=0.8), max_x=1.0,
                           max_y=0.01, balances={"u": (1.0, 0.0), "prod": (10.0, 1.0)})
        oct = chain.submit_oct("u", orders[0])
        chain.insert_octs("prod", [oct.id])
        assert chain.apply_update_tx("prod", 0, 100.0).snapshot == snapshot
        chain.reveal_order(oct.id, orders[0])
        state = repr(chain.balances), dict(chain.reveals), dict(chain.open_allocations)
        with pytest.raises(VerificationError):
            chain.execute_batch(0, proposed_price=proposal)
        assert (repr(chain.balances), dict(chain.reveals), dict(chain.open_allocations)) == state
        assert chain.execute_batch(0).settlement == solved

    def test_volume_probe_matches_settlement(self):
        orders = [buy(10.0, limit=1.05)]
        v = verify_clearing_price(C, SNAP, orders, 1.05).volume_y
        s = clearing_price_with_limits(C, SNAP, orders)
        assert v == pytest.approx(s.volume_y, rel=1e-12)
        assert verify_clearing_price(C, SNAP, orders, 1.07) is None


#: Limits on a small grid around the snapshot price 1.0, so that ties,
#: duplicate limits and limits at the snapshot price are common.
LIMIT_GRID = (0.9, 0.95, 0.98, 0.99, 1.0, 1.01, 1.02, 1.05, 1.1)


@st.composite
def grid_books(draw):
    """``(snapshot, orders)``: 0-60 orders with limits from ``LIMIT_GRID``
    against a pool priced 1.0; a quarter of the books are all-market and a
    third one-sided."""
    snapshot = draw(st.sampled_from([Reserves(100.0, 100.0), Reserves(10.0, 10.0),
                                     Reserves(1.0, 1.0)]))
    sides = draw(st.sampled_from([list(OrderSide), [OrderSide.BUY_Y], [OrderSide.SELL_Y]]))
    limits = st.none() if draw(st.integers(0, 3)) == 0 else st.one_of(
        st.none(), st.sampled_from(LIMIT_GRID))
    orders = draw(st.lists(
        st.builds(Order, side=st.sampled_from(sides),
                  size=st.one_of(st.sampled_from([0.5, 1.0, 2.5, 10.0]), st.floats(0.01, 50.0)),
                  limit=limits),
        max_size=60))
    return snapshot, orders


def outcome(fn, *args):
    """``fn(*args)`` as exact bits, or "DomainError" when it raises one."""
    try:
        return settlement_bits(fn(*args))
    except DomainError:
        return "DomainError"


#: A huge marginal buy at 1.0: its fill fraction is 0 within the settle
#: tolerance, but the tolerance scales with its size, and at fraction 0 the
#: buy at 2.0 alone takes 500 y from a pool that holds 100. The batch must not
#: clear at 1.0; it clears at 2.0 with the buy at 2.0 a fifth filled.
MARGINAL_ARTIFACT = (SNAP, [buy(1e12, limit=1.0), buy(500.0, limit=2.0)])

#: The sells' limit 1.05 settles (their fill fraction is 0 within tolerance),
#: but the market-balance price 1.5e-9 below it clears 1.5e-9 more volume:
#: just beyond the verifier's tolerance, so proposing 1.05 fails.
NARROWLY_BEATEN = (SNAP, [buy(100.0 * 1.05 * (1.0 - 1.5e-9) - 100.0), sell(1000.0, limit=1.05)])


#: Sums that overflow: at the limit 0.5 the buys' y demand is inf and the gap
#: NaN, which must not read as balanced. The market buy alone clears at 2.0.
OVERFLOWING = (Reserves(1e300, 1e300), [buy(1.7e308, limit=0.5), buy(1e300)])


def assert_fills_in_index_order(s):
    """The engine books a settlement by walking its fills beside the orders."""
    if s is not None:
        assert all(type(f) is Fill for f in s.fills)
        indices = [f.index for f in s.fills]
        assert all(a < b for a, b in zip(indices, indices[1:])), indices


def count_calls(monkeypatch, cls, name):
    """Patch ``cls.name`` to record each call's arguments (``self`` left out) in the list returned."""
    seen, method = [], getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *a, **kw: seen.append(a) or method(self, *a, **kw))
    return seen


class TestSortedBookMatchesReference:
    """The sorted book reproduces the quadratic reference clearing bit for bit."""

    @given(book=grid_books())
    @example(book=MARGINAL_ARTIFACT)
    @settings(max_examples=300, deadline=None)
    def test_solver(self, book):
        snapshot, orders = book
        got = outcome(clearing_price_with_limits, C, snapshot, orders)
        assert got == outcome(reference_clearing_price, C, snapshot, orders)
        if got != "DomainError":
            assert_fills_in_index_order(clearing_price_with_limits(C, snapshot, orders))

    @given(book=grid_books())
    @example(book=MARGINAL_ARTIFACT)
    @example(book=NARROWLY_BEATEN)
    @settings(max_examples=200, deadline=None)
    def test_verifier(self, book):
        snapshot, orders = book
        ref = ReferenceBook(orders)
        prices = {reference_clearing_price(C, snapshot, orders).price, *ref.limits}
        prices.update(p_star for _, _, p_star in ref.regimes(snapshot))
        proposals = prices | {math.nextafter(p, d) for p in prices for d in (0.0, math.inf)}
        for p in [*sorted(proposals), 0.0, -1.0, math.nan]:
            verified = verify_clearing_price(C, snapshot, orders, p)
            assert settlement_bits(verified) == (
                settlement_bits(reference_verify_clearing_price(C, snapshot, orders, p))), p
            assert_fills_in_index_order(verified)

    def test_sums_are_plain_left_to_right_adds(self):
        # 1e16 + 1.0 rounds back to 1e16, twice; a compensated sum (sum() of
        # floats from Python 3.12 on) keeps the 2.0 and prices one ulp higher.
        snapshot, orders = Reserves(2.0, 1.0), [buy(1e16), buy(1.0), buy(1.0)]
        plain = (2.0 + ((1e16 + 1.0) + 1.0)) / 1.0
        assert plain != (2.0 + math.fsum([1e16, 1.0, 1.0])) / 1.0
        assert allocation.Book(snapshot, orders).regime_price(0) == plain
        assert [p_star for _, _, p_star in ReferenceBook(orders).regimes(snapshot)] == [plain]
        s = clearing_price_with_limits(C, snapshot, orders)
        assert s.price == plain
        assert settlement_bits(s) == settlement_bits(reference_clearing_price(C, snapshot, orders))

    def test_a_non_finite_gap_does_not_settle(self):
        snapshot, orders = OVERFLOWING
        s = clearing_price_with_limits(C, snapshot, orders)
        assert settlement_bits(s) == settlement_bits(
            reference_clearing_price(C, snapshot, orders))
        assert s.price == 2.0 and s.volume_y == 5e299
        assert all(map(math.isfinite, s.pool_delta))
        for p in (0.5, 2.0):
            assert settlement_bits(verify_clearing_price(C, snapshot, orders, p)) == (
                settlement_bits(reference_verify_clearing_price(C, snapshot, orders, p)))
        assert verify_clearing_price(C, snapshot, orders, 0.5) is None
        assert verify_clearing_price(C, snapshot, orders, 2.0) == s

    def test_a_clamped_marginal_fraction_must_still_balance(self):
        snapshot, orders = MARGINAL_ARTIFACT
        for solve, verify in ((clearing_price_with_limits, verify_clearing_price),
                              (reference_clearing_price, reference_verify_clearing_price)):
            s = solve(C, snapshot, orders)
            assert s.price == 2.0
            assert [f.index for f in s.fills] == [1]
            assert s.fills[0].sold == pytest.approx(0.2 * 500.0, rel=1e-12)
            assert s.pool_delta == pytest.approx((100.0, -50.0), rel=1e-12)
            assert verify(C, snapshot, orders, 1.0) is None
            assert verify(C, snapshot, orders, 2.0) == s

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_ties_where_the_price_flips(self, seed):
        # Grow one market buy through the size at which the clearing price
        # jumps to another candidate. Within a few ulps of that size the
        # prefix sums and the index-order sums round differently, and only
        # the screen's rounding margin keeps the skipped candidates exact.
        rng = random.Random(seed)
        base = [Order(rng.choice(list(OrderSide)), rng.uniform(0.01, 50.0),
                      rng.choice(LIMIT_GRID) if rng.random() < 0.7 else None)
                for _ in range(40)]
        snapshot = Reserves(1.0, 1.0)

        def price(size):
            return reference_clearing_price(C, snapshot, base + [buy(size)]).price

        lo, hi = 1e-3, 200.0
        low_price = price(lo)
        assert price(hi) != low_price
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if price(mid) == low_price else (lo, mid)
        size = lo
        for _ in range(40):
            size = math.nextafter(size, 0.0)
        for _ in range(80):
            orders = base + [buy(size)]
            ref = reference_clearing_price(C, snapshot, orders)
            assert settlement_bits(clearing_price_with_limits(C, snapshot, orders)) == (
                settlement_bits(ref))
            for p in (ref.price, low_price):
                assert settlement_bits(verify_clearing_price(C, snapshot, orders, p)) == (
                    settlement_bits(reference_verify_clearing_price(C, snapshot, orders, p)))
            size = math.nextafter(size, math.inf)

    def test_exact_passes_stay_constant_on_a_large_book(self, monkeypatch):
        # 3,000 orders of the default flow at price 100, 30% with limits
        # within 2%: about 900 distinct limits, where the quadratic book
        # settled about twice per limit.
        rng = random.Random(0)
        orders = []
        for _ in range(3_000):
            value = 10.0 * rng.random() or 1.0
            limit = 100.0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)) if rng.random() < 0.3 else None
            orders.append(buy(value, limit) if rng.random() < 0.5 else sell(value / 100.0, limit))
        snapshot = Reserves(10_000.0, 100.0)
        assert len({o.limit for o in orders}) > 850
        calls = {name: count_calls(monkeypatch, allocation.Book, name)
                 for name in ("settle", "regime_price", "excluded")}
        s = clearing_price_with_limits(C, snapshot, orders)
        # the walk screens each limit at most once
        assert len(calls["excluded"]) <= len(allocation.Book(snapshot, orders).limits)
        assert verify_clearing_price(C, snapshot, orders, s.price) == s
        assert len(calls["settle"]) + len(calls["regime_price"]) <= 6


class TestOneBookPerBatch:
    """The engine's one ``Book`` per batch serves the solver and the verifier."""

    def batch_counts(self, monkeypatch, propose):
        """Per engine batch of ``default`` flow at arrival 400: its order count,
        the ``Book``s built and the exact settle passes at its winning price.
        With ``propose``, each batch is executed at the solver's price as a proposal."""
        books = count_calls(monkeypatch, allocation.Book, "__init__")
        chords = count_calls(monkeypatch, type(C), "chord_y")  # one per exact settle pass
        batches, execute = [], ChainState.execute_batch

        def execute_batch(chain, label, proposed_price=None):
            if propose:
                u = chain.open_allocations[label]
                orders = [chain.reveals[i][1] for i in u.oct_ids if i in chain.reveals]
                proposed_price = clearing_price_with_limits(C, u.snapshot, orders).price
            del books[:], chords[:]
            receipt = execute(chain, label, proposed_price)
            price = receipt.settlement.price
            assert not propose or price == proposed_price
            batches.append((len(receipt.orders), len(books),
                            sum(p == price for _, p in chords)))
            return receipt

        monkeypatch.setattr(ChainState, "execute_batch", execute_batch)
        cfg = builtin_scenarios()["default"]
        flow = dataclasses.replace(cfg.flow, arrival=400.0)
        sim.run_scenario(dataclasses.replace(cfg, blocks=4, flow=flow).validate(), 1)
        assert batches and all(n > 200 for n, _, _ in batches), batches
        return [(b, s) for _, b, s in batches]

    def test_an_engine_batch_builds_one_book_and_settles_its_price_once(self, monkeypatch):
        counts = self.batch_counts(monkeypatch, propose=False)
        assert counts == [(1, 1)] * len(counts)

    def test_a_proposed_batch_builds_one_book_and_settles_its_price_once(self, monkeypatch):
        counts = self.batch_counts(monkeypatch, propose=True)
        assert counts == [(1, 1)] * len(counts)

    @given(book=grid_books())
    @example(book=MARGINAL_ARTIFACT)
    @example(book=NARROWLY_BEATEN)
    @settings(max_examples=150, deadline=None)
    def test_solving_and_verifying_one_book_matches_the_reference(self, book):
        snapshot, orders = book
        shared = allocation.Book(snapshot, orders)
        solved = clearing_price_with_limits(C, snapshot, shared)
        assert settlement_bits(solved) == settlement_bits(
            reference_clearing_price(C, snapshot, orders))
        proposals = [solved.price, *ReferenceBook(orders).limits]
        on_book = [verify_clearing_price(C, snapshot, shared, p) for p in proposals]
        assert on_book[0] is solved  # the solver's own settlement
        plain = [verify_clearing_price(C, snapshot, tuple(orders), p) for p in proposals]
        ref = [reference_verify_clearing_price(C, snapshot, orders, p) for p in proposals]
        assert ([*map(settlement_bits, on_book)] == [*map(settlement_bits, plain)]
                == [*map(settlement_bits, ref)])

    @pytest.mark.parametrize("snapshot, fresh", [
        (Reserves(100.0, 100.0), False),  # an equal snapshot: the book as it is
        (Reserves(200.0, 100.0), True),
        (Reserves(100.0, 200.0), True),
    ])
    def test_a_book_for_another_snapshot_is_sorted_afresh(self, monkeypatch, snapshot, fresh):
        orders = (buy(10.0), sell(5.0, limit=0.9), buy(30.0, limit=1.5), sell(8.0, limit=1.2))
        book = allocation.Book(SNAP, orders)
        at_snap = clearing_price_with_limits(C, SNAP, book).price
        books = count_calls(monkeypatch, allocation.Book, "__init__")
        solved = clearing_price_with_limits(C, snapshot, book)
        assert settlement_bits(solved) == settlement_bits(
            reference_clearing_price(C, snapshot, orders))
        prices = [solved.price, at_snap, 0.9, 1.2, 1.5]
        for p in prices:
            assert settlement_bits(verify_clearing_price(C, snapshot, book, p)) == (
                settlement_bits(reference_verify_clearing_price(C, snapshot, orders, p))), p
        assert len(books) == (1 + len(prices) if fresh else 0)

    def test_a_list_changed_after_the_solve_is_verified_as_changed(self):
        orders = [buy(10.0), sell(5.0, limit=0.9)]
        solved = clearing_price_with_limits(C, SNAP, orders)
        assert verify_clearing_price(C, SNAP, orders, solved.price) == solved
        orders[0] = buy(20.0)
        assert reference_verify_clearing_price(C, SNAP, orders, solved.price) is None
        assert verify_clearing_price(C, SNAP, orders, solved.price) is None
        resolved = clearing_price_with_limits(C, SNAP, orders)
        assert resolved.price != solved.price
        assert settlement_bits(verify_clearing_price(C, SNAP, orders, resolved.price)) == (
            settlement_bits(reference_verify_clearing_price(C, SNAP, orders, resolved.price)))


def assert_payable(snapshot, s):
    """The snapshot plus ``s.pool_delta`` is > 0 in both tokens and on the
    snapshot's level curve, to a tolerance relative to the traded amounts."""
    x, y = snapshot.x + s.pool_delta[0], snapshot.y + s.pool_delta[1]
    assert x > 0.0 and y > 0.0
    scale = max(snapshot.y, s.volume_y, abs(s.pool_delta[1]))
    # y on the curve at x is the invariant over x, formed without overflow
    assert abs(y - snapshot.y * (snapshot.x / x)) <= 1e-8 * scale


class TestSettlementsArePayable:
    """Every settlement either book returns is one the snapshot can pay."""

    @given(book=grid_books())
    @example(book=MARGINAL_ARTIFACT)
    @example(book=NARROWLY_BEATEN)
    @example(book=OVERFLOWING)
    @settings(max_examples=200, deadline=None)
    def test_solver_and_verifier_settlements(self, book):
        snapshot, orders = book
        ref = ReferenceBook(orders)
        prices = {*ref.limits, C.price(snapshot)}
        prices.update(p_star for _, _, p_star in ref.regimes(snapshot))
        for solve, verify in ((clearing_price_with_limits, verify_clearing_price),
                              (reference_clearing_price, reference_verify_clearing_price)):
            assert_payable(snapshot, solve(C, snapshot, orders))
            for p in prices:
                s = verify(C, snapshot, orders, p)
                if s is not None:
                    assert_payable(snapshot, s)


class TestEscrowSizing:
    def test_escrow_worked_example(self):
        # three orders, bounds 4 x and 1 y, allocated at price 2: the escrow
        # covers three max-size sells of either token, (3 * 1 * 2, 3 * 4 / 2)
        chain = ChainState(Reserves(2_000.0, 1_000.0), RebateSchedule(z_max=4, beta0=0.8),
                           max_x=4.0, max_y=1.0,
                           balances={"u": (100.0, 100.0), "prod": (100.0, 100.0)})
        octs = [chain.submit_oct("u", o) for o in (buy(4.0), buy(1.0), sell(1.0))]
        chain.insert_octs("prod", [o.id for o in octs])
        assert chain.apply_update_tx("prod", 0, 2.0).escrow == (6.0, 6.0)

    def test_create_pool_sizes_and_splits_escrow(self):
        # the update sizes the escrow for count one-sided max-size orders at
        # its price; the producer funds the beta share into alloc:<label> and
        # the pool earmarks the rest
        orders = [buy(5.0), buy(2.0), sell(0.05)]
        chain, update = allocated(orders, price=102.0)
        ex, ey = 3 * 0.1 * 102.0, 3 * 10.0 / 102.0
        assert update.escrow == (ex, ey)
        assert chain.open_allocations == {0: update}
        assert (update.label, update.height, update.price, update.count) == (0, 0, 102.0, 3)
        assert (update.oct_ids, update.producer, update.beta) == ((0, 1, 2), "prod", 0.8)
        assert chain.balances["alloc:0"] == [0.8 * ex, 0.8 * ey]
        assert chain.earmark() == ((1.0 - 0.8) * ex, (1.0 - 0.8) * ey)

    def test_empty_pool(self):
        # a pure-arbitrage update allocates nothing: no escrow, batch or earmark
        chain, update = allocated([])
        assert (update.count, update.escrow) == (0, (0.0, 0.0))
        assert chain.open_allocations == {}
        assert "alloc:0" not in chain.balances
        assert chain.earmark() == (0.0, 0.0)


class TestRedistribute:
    def test_splits_by_funding_ratio(self):
        chain, _ = allocated([buy(5.0), sell(0.01)])
        producer = list(chain.balances["prod"])
        er = chain.execute_batch(0)
        beta = er.update.beta
        rx = er.update.escrow[0] + er.settlement.pool_delta[0]
        ry = er.update.escrow[1] + er.settlement.pool_delta[1]
        assert er.to_pool == ((1.0 - beta) * rx, (1.0 - beta) * ry)
        assert er.to_producer == (beta * rx, beta * ry)
        # the producer's ledger is credited its share (up to escrow dust)
        assert chain.balances["prod"] == pytest.approx(
            [producer[0] + er.to_producer[0], producer[1] + er.to_producer[1]], rel=1e-15)
        assert chain.earmark() == (0.0, 0.0)

    def test_rejects_breached_escrow(self):
        chain, _ = allocated([buy(5.0)])
        # book the batch with an empty escrow: the pool's y payout breaches it
        chain.open_allocations[0] = chain.open_allocations[0]._replace(escrow=(0.0, 0.0))
        with pytest.raises(InvariantViolation, match="breached"):
            chain.execute_batch(0)

    def test_breach_in_one_token_is_not_hidden_by_the_other(self):
        chain, _ = allocated([buy(5.0)])
        # book the batch with a vast x escrow, the producer's share funded, and
        # no y: the pool's y payout breaches it whatever the x side holds
        chain.open_allocations[0] = chain.open_allocations[0]._replace(escrow=(1e9, 0.0))
        chain.balances["alloc:0"] = [0.8 * 1e9, 0.0]
        with pytest.raises(InvariantViolation, match="breached"):
            chain.execute_batch(0)


class TestOrderValidation:
    def test_side_is_coerced_and_checked(self):
        # a side given by its value is the enum member, not a seller
        assert Order("buy_y", 10.0).side is OrderSide.BUY_Y
        assert sold_token(Order("buy_y", 10.0)) == "x"
        with pytest.raises(DomainError, match="side"):
            Order("buy", 1.0)
        with pytest.raises(DomainError, match="side"):
            Order(None, 1.0)

    def test_size_and_limit_are_coerced_and_checked(self):
        o = Order(OrderSide.BUY_Y, 1)
        assert type(o.size) is float and o.size == 1.0
        for bad in ("ten", None, float("nan"), float("inf"), 0.0, True):
            with pytest.raises(DomainError, match="size"):
                Order(OrderSide.SELL_Y, bad)
        for bad in ("ten", float("nan"), -2.0, True):
            with pytest.raises(DomainError, match="limit"):
                Order(OrderSide.SELL_Y, 1.0, bad)

    @pytest.mark.parametrize("value", [np.float64(2.5), 2, np.int64(2), Fraction(5, 2)])
    def test_a_non_float_size_or_limit_comes_out_a_float(self, value):
        o = Order(OrderSide.SELL_Y, value, value)
        for v in (o.size, o.limit):
            assert type(v) is float and v == float(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0,
                                     np.float64(math.nan), "abc", "2.0", b"2", None, True,
                                     False, np.True_])
    def test_a_bad_size_or_limit_keeps_its_message(self, bad):
        with pytest.raises(DomainError) as e:
            Order(OrderSide.SELL_Y, bad)
        assert str(e.value) == f"order size must be finite and > 0, got {bad!r}"
        if bad is not None:  # a limit of None is a market order
            with pytest.raises(DomainError) as e:
                Order(OrderSide.BUY_Y, 1.0, bad)
            assert str(e.value) == f"order limit must be finite and > 0, got {bad!r}"

    @pytest.mark.parametrize("field, bad", [("side", "buy"), ("side", None), ("size", 0.0),
                                            ("size", math.nan), ("size", "ten"),
                                            ("limit", -2.0), ("limit", math.inf)])
    def test_every_way_to_build_an_order_checks_it(self, field, bad):
        good = {"side": OrderSide.BUY_Y, "size": 5.0, "limit": 101.0}
        fields = {**good, field: bad}
        with pytest.raises(DomainError) as expected:
            Order(**fields)
        # The bad fields in an Order that skipped the checks, as a forged pickle carries them.
        forged = tuple.__new__(Order, fields.values())
        builds = {"_make": lambda: Order._make(fields.values()),
                  "_replace": lambda: Order(**good)._replace(**{field: bad}),
                  "deepcopy": lambda: copy.deepcopy(forged),
                  "copy": lambda: copy.copy(forged)}
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            builds[f"pickle {protocol}"] = lambda p=protocol: pickle.loads(pickle.dumps(forged, p))
        for how, build in builds.items():
            with pytest.raises(DomainError) as raised:
                build()
            assert str(raised.value) == str(expected.value), how

    def test_every_way_to_build_an_order_converts_as_the_call_does(self):
        o = Order("sell_y", 2, np.float64(3.5))
        assert Order._make(("sell_y", 2, np.float64(3.5))) == o
        assert buy(1.0)._replace(side="sell_y", size=2, limit=np.float64(3.5)) == o
        copies = [copy.copy(o), copy.deepcopy(o)]
        copies += [pickle.loads(pickle.dumps(o, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert c == o and type(c) is Order
            assert c.side is OrderSide.SELL_Y and type(c.size) is type(c.limit) is float
