import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from v0lver.allocation import Order, OrderSide, verify_clearing_price
from v0lver.cfmm import (
    CONSTANT_PRODUCT,
    Reserves,
    check_price,
    max_lvr,
)
from v0lver.engine import ChainState
from v0lver.errors import DomainError
from v0lver.rebate import RebateSchedule

from oracles import grid_max_extraction

C = CONSTANT_PRODUCT


class TestPrimitives:
    def test_a_bool_is_no_number(self):
        """True is not a price, a size, a bound or a balance of 1.0, nor False one of 0.0."""
        zero = RebateSchedule(z_max=0, beta0=0.0)
        for flag in (True, False):
            for or_zero in (False, True):
                with pytest.raises(DomainError, match=f"got {flag}"):
                    check_price(flag, "price", or_zero)
            with pytest.raises(DomainError, match="order size"):
                Order(OrderSide.BUY_Y, flag)
            with pytest.raises(DomainError, match="order limit"):
                Order(OrderSide.BUY_Y, 1.0, limit=flag)
            with pytest.raises(DomainError, match="max_x"):
                ChainState(Reserves(1.0, 1.0), zero, max_x=flag, max_y=1.0)
        for opening in ((True, 0.0), (0.0, False)):
            with pytest.raises(DomainError, match="opening balance of 'a'"):
                ChainState(Reserves(1.0, 1.0), zero, max_x=1.0, max_y=1.0,
                           balances={"a": opening})
        orders = [Order(OrderSide.BUY_Y, 1.0), Order(OrderSide.SELL_Y, 1.0)]
        assert verify_clearing_price(C, Reserves(100.0, 100.0), orders, 1.0)
        assert verify_clearing_price(C, Reserves(100.0, 100.0), orders, True) is None

    def test_pool_price(self):
        assert C.price(Reserves(10_000, 100)) == 100.0
        assert C.price(Reserves(100, 100)) == 1.0

    def test_reserves_at_price_round_figures(self):
        # k = 1e6 at p = 110.25 lands on exactly (10500, 1e6/10500)
        r = C.reserves_at_price(1_000_000.0, 110.25)
        assert r.x == pytest.approx(10_500.0, rel=1e-12)
        assert r.y == pytest.approx(1_000_000.0 / 10_500.0, rel=1e-12)
        assert r.x / r.y == pytest.approx(110.25, rel=1e-12)

    def test_level_curve_solves(self):
        assert C.x_matching_price(2.0, 100.0) == 200.0
        assert C.y_matching_price(4.0, 100.0) == 25.0

    def test_chord_is_the_level_preserving_trade(self):
        r = Reserves(100, 100)
        q = C.chord_y(r, 2.0)
        assert q == 50.0
        after = Reserves(r.x + q * 2.0, r.y - q)
        assert C.invariant(after) == pytest.approx(C.invariant(r), rel=1e-12)

    @given(
        x=st.floats(1e-3, 1e9),
        y=st.floats(1e-3, 1e9),
        p=st.floats(1e-6, 1e6),
    )
    def test_reserves_at_price_stays_on_curve(self, x, y, p):
        k = C.invariant(Reserves(x, y))
        r = C.reserves_at_price(k, p)
        assert C.invariant(r) == pytest.approx(k, rel=1e-12)
        assert C.price(r) == pytest.approx(p, rel=1e-12)


class TestExtractionValue:
    def test_worked_example(self):
        # (100, 100) against an external price of 4: the optimal move lands
        # on (200, 50) and extracts 100.
        target, value = max_lvr(Reserves(100, 100), 4.0)
        assert value == pytest.approx(100.0, rel=1e-12)
        assert target.x == pytest.approx(200.0, rel=1e-12)
        assert target.y == pytest.approx(50.0, rel=1e-12)

    def test_at_price_pool_has_nothing_to_extract(self):
        r = Reserves(10_000, 100)
        target, value = max_lvr(r, 100.0)
        assert value == 0.0
        assert target == r

    @given(
        x=st.floats(1.0, 1e6),
        y=st.floats(1.0, 1e6),
        eps=st.floats(1e-3, 1e3),
        c=st.floats(0.1, 10.0),
    )
    @example(x=184624.0, y=188616.0, eps=1.0, c=3.5)
    def test_value_scales_linearly_with_pool_size(self, x, y, eps, c):
        _, v1 = max_lvr(Reserves(x, y), eps)
        _, v2 = max_lvr(Reserves(c * x, c * y), eps)
        # Near price parity max_lvr cancels terms the size of the pool value
        # x + y*eps, so the value is exact only to a few ulps of that value.
        assert v2 == pytest.approx(c * v1, rel=1e-12, abs=1e-14 * c * (x + y * eps))

    def test_closed_form_matches_grid_search(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x = float(rng.uniform(1.0, 1e5))
            y = float(rng.uniform(1.0, 1e5))
            eps = float((x / y) * rng.uniform(0.25, 4.0))
            target, value = max_lvr(Reserves(x, y), eps)
            grid_value, grid_x = grid_max_extraction(x, y, eps)
            scale = x + y * eps
            # the grid can only undershoot the true optimum
            assert value >= grid_value - 1e-9 * scale
            # and must come within grid resolution of it (the peak is
            # quadratic, so the value error is second order in the spacing)
            assert grid_value == pytest.approx(value, abs=1e-5 * scale)
            if value > 1e-4 * scale:
                assert grid_x == pytest.approx(target.x, rel=1e-2)

    @given(
        x=st.floats(1.0, 1e6),
        y=st.floats(1.0, 1e6),
        eps_mult=st.floats(0.1, 10.0),
        probe=st.floats(0.05, 20.0),
    )
    def test_no_curve_point_beats_the_closed_form(self, x, y, eps_mult, probe):
        r = Reserves(x, y)
        eps = float(C.price(r)) * eps_mult
        target, value = max_lvr(r, eps)
        k = C.invariant(r)
        other = C.reserves_at_price(k, eps * probe)
        assert (r.x - other.x) + (r.y - other.y) * eps <= value + 1e-9 * max(1.0, value)
