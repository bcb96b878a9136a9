import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v0lver.agents import (
    PriceProcess,
    decide_update,
    gen_user_orders,
    producer_utility,
)
from v0lver.allocation import OrderSide
from v0lver.cfmm import CONSTANT_PRODUCT, Reserves
from v0lver.config import FlowModel, ProducerModel, builtin_scenarios
from v0lver.errors import DomainError
from v0lver.rebate import RebateSchedule
from v0lver.sim import _user_flow

from oracles import engine_producer_payoffs, reference_user_flow, user_flow_trials

C = CONSTANT_PRODUCT
SCHEDULE = RebateSchedule(z_max=4, beta0=0.8)
NO_FLOW = np.zeros(1)


def step_factors(proc, rng, n):
    """n independent one-step multiplicative factors, each drawn by ``proc.step``."""
    start = proc.eps
    factors = np.empty(n)
    for i in range(n):
        proc.eps = start
        factors[i] = proc.step(rng) / start
    return factors


class TestPriceProcess:
    def test_martingale_in_expectation(self):
        rng = np.random.default_rng(0)
        proc = PriceProcess(eps=100.0, sigma=0.05)
        factors = step_factors(proc, rng, 200_000)
        # E[factor] = 1 for the drift-corrected walk
        assert factors.mean() == pytest.approx(1.0, abs=3 * factors.std() / 200_000**0.5)

    def test_step_matches_factor_construction(self):
        proc = PriceProcess(eps=100.0, sigma=0.02)
        out = proc.step(np.random.default_rng(5))
        z = np.random.default_rng(5).standard_normal()
        assert out == pytest.approx(100.0 * np.exp(-0.5 * 0.02**2 + 0.02 * z))
        assert proc.eps == out

    @pytest.mark.parametrize("sigma", [1e200, 50.0])
    def test_walk_out_of_float_range_names_the_field(self, sigma):
        proc = PriceProcess(eps=100.0, sigma=sigma)
        with pytest.raises(DomainError, match=r": price\.sigma \S+ is too extreme$"):
            proc.step(np.random.default_rng(0))


class TestUserFlow:
    FLOW = FlowModel(arrival=5.0, limit_prob=0.4, limit_width=0.01, value_frac=0.5)

    def test_orders_respect_bounds_and_sides(self):
        rng = np.random.default_rng(2)
        eps = 100.0
        cap = self.FLOW.value_frac * min(10.0, 0.1 * eps)
        for _ in range(200):
            for o in gen_user_orders(rng, self.FLOW, eps, 10.0, 0.1):
                if o.side is OrderSide.BUY_Y:
                    assert 0.0 < o.size <= cap
                else:
                    assert 0.0 < o.size <= cap / eps
                if o.limit is not None:
                    assert abs(o.limit / eps - 1.0) <= self.FLOW.limit_width

    def test_sides_and_value_are_symmetric(self):
        rng = np.random.default_rng(3)
        eps = 50.0
        signed_value = n = 0.0
        for _ in range(3_000):
            for o in gen_user_orders(rng, self.FLOW, eps, 10.0, 1.0):
                v = o.size if o.side is OrderSide.BUY_Y else o.size * eps
                signed_value += v if o.side is OrderSide.BUY_Y else -v
                n += 1
        cap = self.FLOW.value_frac * min(10.0, 1.0 * eps)
        se = cap * 0.6 * n**0.5  # loose bound on the sum's deviation
        assert abs(signed_value) < 3 * se

    def test_zero_arrival_means_no_orders(self):
        rng = np.random.default_rng(4)
        flow = FlowModel(arrival=0.0, limit_prob=0.0, limit_width=0.0, value_frac=0.5)
        assert gen_user_orders(rng, flow, 100.0, 10.0, 0.1) == []


class TestUserFlowRefusals:
    """The flow builds each ``Order`` positionally after ``Order.__new__``'s test of its
    floats: it refuses a block exactly where building its orders with ``Order`` would."""

    @pytest.mark.parametrize("eps, width, max_y, named", [
        (1.7e308, 0.5, 0.1, r"flow\.limit_width 0\.5 is too wide at price 1\.7e\+308: "
                            r"an order limit of inf"),  # limits above ~1.06 eps overflow
        (5e-324, 0.9, 1e6, r"flow\.limit_width 0\.9 is too wide at price 5e-324: "
                           r"an order limit of 0\.0"),  # limits below eps / 2 underflow
    ])
    def test_refuses_exactly_where_order_does(self, eps, width, max_y, named):
        flow = FlowModel(arrival=2.0, limit_prob=1.0, limit_width=width, value_frac=1.0)
        refused = 0
        for seed in range(60):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                expected = reference_user_flow(slow, flow, eps, 10.0, max_y)[0]
            except DomainError as e:
                assert "order limit must be finite and > 0" in str(e)
                with pytest.raises(DomainError, match=named):
                    gen_user_orders(fast, flow, eps, 10.0, max_y)
                refused += 1
            else:
                assert order_bits(gen_user_orders(fast, flow, eps, 10.0, max_y)) == \
                    order_bits(expected)
        assert 0 < refused < 60


BIT_GENERATORS = {"PCG64": np.random.PCG64, "MT19937": np.random.MT19937,
                  "Philox": np.random.Philox}
DECADES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
# 0 and 1 are the edges where a draw is always or never made.
PROB = st.one_of(st.sampled_from([0.0, 1.0]),
                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


def order_bits(orders):
    """Each order's type and fields, floats as their exact bits."""
    return [(type(o), o.side, o.size.hex(), None if o.limit is None else o.limit.hex())
            for o in orders]


def state_of(rng):
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


class TestUserFlowDraw:
    @settings(max_examples=150, deadline=None)
    @given(arrival=st.one_of(st.just(0.0), st.floats(0.0, 500.0)), limit_prob=PROB,
           limit_width=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
           value_frac=st.floats(-6.0, 0.0).map(lambda e: 10.0**e), no_reveal_prob=PROB,
           eps=DECADES, max_x=DECADES, max_y=DECADES,
           bit_generator=st.sampled_from(sorted(BIT_GENERATORS)), seed=st.integers(0, 2**32 - 1))
    def test_one_call_per_block_is_the_scalar_stream(self, arrival, limit_prob, limit_width,
                                                    value_frac, no_reveal_prob, eps, max_x,
                                                    max_y, bit_generator, seed):
        flow = FlowModel(arrival=arrival, limit_prob=limit_prob, limit_width=limit_width,
                         value_frac=value_frac, no_reveal_prob=no_reveal_prob)
        fast, slow = (np.random.Generator(BIT_GENERATORS[bit_generator](seed)) for _ in "ab")
        for _ in range(3):  # consecutive blocks start where the last one left the stream
            orders, hidden = _user_flow(fast, flow, eps, max_x, max_y)
            ref_orders, ref_hidden = reference_user_flow(slow, flow, eps, max_x, max_y)
            assert order_bits(orders) == order_bits(ref_orders)
            assert hidden == ref_hidden
            assert state_of(fast) == state_of(slow)


class TestProducerUtility:
    def test_no_selftrade_reduces_to_move_payoff(self):
        r = Reserves(10_000.0, 100.0)
        u = producer_utility(r, 104.0, SCHEDULE, 10.0, 0.1, 1.0, 0.0, NO_FLOW, NO_FLOW)
        # full extraction at eps, kept fraction (1 - 0.8)
        from v0lver.cfmm import max_lvr

        _, lvr = max_lvr(r, 104.0)
        assert u == pytest.approx(0.2 * lvr, rel=1e-12)

    def test_updating_to_eps_with_zero_alpha_is_zero_at_eps_start(self):
        r = C.reserves_at_price(1e6, 100.0)
        assert producer_utility(r, 100.0, SCHEDULE, 10.0, 0.1, 1.0, 0.0, NO_FLOW, NO_FLOW) == 0.0

    def test_selftrade_against_balanced_flow_loses(self):
        # at multiplier 1 the batch clears at eps on average; pushing extra
        # size through moves the price against the trade, so alpha > 0 loses
        r = C.reserves_at_price(1e6, 100.0)
        flow = FlowModel(arrival=4.0, limit_prob=0.0, limit_width=0.0, value_frac=0.5)
        _, dx, dy = user_flow_trials(np.random.default_rng(8), flow, 100.0, 10.0, 0.1, 20_000)
        u0 = producer_utility(r, 100.0, SCHEDULE, 10.0, 0.1, 1.0, 0.0, dx, dy)
        u1 = producer_utility(r, 100.0, SCHEDULE, 10.0, 0.1, 1.0, 0.5, dx, dy)
        # the honest update moves nothing, and its escrow share earns the
        # batch's price impact: beta of the pool's gain from the flow
        assert u0 > 0.0
        assert u1 < u0

    @pytest.mark.parametrize("multiplier, alpha", [
        (1.0, 0.0), (1.0, 0.5), (0.95, 0.5), (1.05, 0.5), (1.01, 0.0), (0.99, 0.25)])
    def test_matches_one_engine_block_per_trial(self, multiplier, alpha):
        cfg = builtin_scenarios()["dominance"]
        r = Reserves(cfg.pool_x, cfg.pool_y)
        eps, schedule = cfg.price.initial, cfg.rebate
        blocks, dx, dy = user_flow_trials(np.random.default_rng(4), cfg.flow, eps, cfg.max_x,
                                          cfg.max_y, 300)
        engine = engine_producer_payoffs(r, eps, schedule, cfg.max_x, cfg.max_y,
                                         multiplier, alpha, blocks)
        model = [producer_utility(r, eps, schedule, cfg.max_x, cfg.max_y, multiplier, alpha,
                                  dx[i:i + 1], dy[i:i + 1]) for i in range(len(dx))]
        assert np.max(np.abs(np.array(model) - engine)) <= 1e-10 * 2.0 * r.x


class TestUpdateDecision:
    R = Reserves(10_000.0, 100.0)

    def prod(self, **kw):
        base = dict(
            update_policy="always",
            update_cost=0.0,
            min_keep=0.0,
        )
        base.update(kw)
        return ProducerModel(**base)

    def test_never_policy(self):
        p = self.prod(update_policy="never")
        assert decide_update(p, SCHEDULE, self.R, 5, 2, 104.0) is None

    def test_always_updates_at_current_height(self):
        p = self.prod()
        assert decide_update(p, SCHEDULE, self.R, 5, 2, 104.0) == (5, 104.0)
        # even when there is nothing to gain
        assert decide_update(p, SCHEDULE, self.R, 5, 2, 100.0) == (5, 100.0)

    def test_best_response_takes_current_label_when_profitable(self):
        p = self.prod(update_policy="best_response", update_cost=1e-9)
        got = decide_update(p, SCHEDULE, self.R, 5, 2, 104.0)
        assert got == (5, 104.0)

    def test_best_response_skips_when_cost_dominates(self):
        # keep = 1 - beta0 = 0.2 of the tiny arbitrage does not cover cost
        p = self.prod(update_policy="best_response", update_cost=10.0)
        assert decide_update(p, SCHEDULE, self.R, 5, 2, 100.001) is None

    def test_threshold_backdates_to_schedule_horizon(self):
        p = self.prod(update_policy="threshold", min_keep=1.0, update_cost=0.0)
        # height 10, last label 2: backdate to 10 - 4 = 6, where beta = 0
        got = decide_update(p, SCHEDULE, self.R, 10, 2, 104.0)
        assert got == (6, 104.0)
        # a fresher last label forces a smaller gap and keep < 1: no update
        assert decide_update(p, SCHEDULE, self.R, 10, 8, 104.0) is None

    def test_threshold_with_partial_keep(self):
        p = self.prod(update_policy="threshold", min_keep=0.55, update_cost=0.0)
        # gap 3 gives keep 0.8 >= 0.55 at label height-4+1
        got = decide_update(p, SCHEDULE, self.R, 10, 6, 104.0)
        assert got == (7, 104.0)

    def test_zero_schedule_makes_every_gap_free(self):
        p = self.prod(update_policy="best_response", update_cost=0.0)
        zero = RebateSchedule(z_max=0, beta0=0.0)
        got = decide_update(p, zero, self.R, 5, 2, 104.0)
        assert got == (5, 104.0)

    @pytest.mark.parametrize("policy", ["threshold", "best_response"])
    def test_zero_cost_producer_updates_a_pool_already_at_the_price(self, policy):
        # At a pool already at eps the move is worth exactly zero, not float dust
        # below it, so a kept fraction always covers a zero update cost.
        p = self.prod(update_policy=policy)
        rng = np.random.default_rng(5)
        for x, y in rng.uniform(1.0, 1e6, size=(2000, 2)).tolist():
            eps = x / y
            assert decide_update(p, SCHEDULE, Reserves(x, y), 5, 2, eps) is not None, (x, y)
