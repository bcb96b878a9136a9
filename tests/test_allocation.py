import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v0lver.allocation import (
    Order,
    OrderSide,
    allocation_bound,
    clearing_price_with_limits,
    create_allocation_pool,
    escrow_size,
    redistribute,
    settle_market_batch,
    verify_clearing_price,
)
from v0lver.cfmm import CONSTANT_PRODUCT, Reserves
from v0lver.errors import DomainError

from oracles import bisect_market_clearing

C = CONSTANT_PRODUCT
SNAP = Reserves(100.0, 100.0)


def buy(size, limit=None, owner=None):
    return Order(side=OrderSide.BUY_Y, size=size, limit=limit, owner=owner)


def sell(size, limit=None, owner=None):
    return Order(side=OrderSide.SELL_Y, size=size, limit=limit, owner=owner)


class TestMarketBatch:
    def test_worked_example(self):
        # snapshot (100, 100), 10 x sold against 5 y sold: the uniform price
        # is (100+10)/(100+5) and the pool absorbs the imbalance along its
        # level curve.
        s = settle_market_batch(C, SNAP, 10.0, 5.0)
        assert s.price == pytest.approx(110.0 / 105.0, rel=1e-12)
        assert s.pool_delta[0] == pytest.approx(100.0 / 21.0, rel=1e-12)
        assert s.pool_delta[1] == pytest.approx(-50.0 / 11.0, rel=1e-12)
        assert s.volume_y == pytest.approx(160.0 / 11.0, rel=1e-12)
        after = Reserves(SNAP.x + s.pool_delta[0], SNAP.y + s.pool_delta[1])
        assert C.invariant(after) == pytest.approx(10_000.0, rel=1e-12)

    def test_balanced_flow_leaves_pool_alone(self):
        s = settle_market_batch(C, SNAP, 7.0, 7.0)
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
            s = settle_market_batch(C, Reserves(sx, sy), dx, dy)
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
        s = settle_market_batch(C, snap, dx, dy)
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
        agg = settle_market_batch(C, SNAP, 10.0, 5.0)
        assert s.price == pytest.approx(agg.price, rel=1e-12)
        assert s.pool_delta == pytest.approx(agg.pool_delta, rel=1e-12)
        assert s.volume_y == pytest.approx(agg.volume_y, rel=1e-12)

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

    def test_volume_probe_matches_settlement(self):
        orders = [buy(10.0, limit=1.05)]
        v = verify_clearing_price(C, SNAP, orders, 1.05).volume_y
        s = clearing_price_with_limits(C, SNAP, orders)
        assert v == pytest.approx(s.volume_y, rel=1e-12)
        assert verify_clearing_price(C, SNAP, orders, 1.07) is None


class TestEscrowSizing:
    def test_escrow_worked_example(self):
        assert escrow_size(3, 2.0, 4.0, 1.0) == pytest.approx((6.0, 6.0))

    def test_escrow_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            escrow_size(-1, 2.0, 4.0, 1.0)
        with pytest.raises(DomainError):
            escrow_size(1, 2.0, 0.0, 1.0)

    def test_allocation_bound_worked_example(self):
        lam_x, lam_y = allocation_bound(C, SNAP, 10.0, 10.0)
        assert lam_x == pytest.approx(100.0 / 11.0, rel=1e-12)
        assert lam_y == pytest.approx(100.0 / 11.0, rel=1e-12)

    def test_allocation_bound_rejects_draining_bounds(self):
        # reserves so small the level-curve payout rounds to everything
        with pytest.raises(DomainError):
            allocation_bound(C, Reserves(1e-200, 1e-200), 10.0, 10.0)

    def test_create_pool_sizes_and_splits_escrow(self):
        pool = create_allocation_pool(
            3, 2.0, 4.0, 1.0, 0.25, SNAP, label=5, created_at=7, producer="p"
        )
        assert pool.escrow == pytest.approx((6.0, 6.0))
        assert pool.producer_fraction == 0.25
        assert pool.label == 5 and pool.created_at == 7
        assert pool.count == 3

    def test_empty_pool(self):
        pool = create_allocation_pool(
            0, 2.0, 4.0, 1.0, 0.5, SNAP, label=1, created_at=1, producer="p"
        )
        assert pool.count == 0
        assert pool.escrow == (0.0, 0.0)


class TestRedistribute:
    def test_splits_by_funding_ratio(self):
        to_pool, to_producer = redistribute((10.0, 20.0), 0.25)
        assert to_pool == pytest.approx((7.5, 15.0))
        assert to_producer == pytest.approx((2.5, 5.0))

    def test_rejects_breached_escrow(self):
        with pytest.raises(DomainError):
            redistribute((-1.0, 0.0), 0.5)


class TestOrderValidation:
    def test_rejects_bad_sizes_and_limits(self):
        with pytest.raises(DomainError):
            buy(0.0)
        with pytest.raises(DomainError):
            sell(-1.0)
        with pytest.raises(DomainError):
            buy(1.0, limit=-2.0)

    def test_sells_token(self):
        assert buy(1.0).sells_token == "x"
        assert sell(1.0).sells_token == "y"
