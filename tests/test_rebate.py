import pytest
from hypothesis import given, strategies as st

from v0lver.cfmm import CONSTANT_PRODUCT, Reserves, max_lvr
from v0lver.errors import DomainError
from v0lver.rebate import RebateSchedule, apply_rebated_move, vault_reenter

from oracles import bisect_vault_shed, producer_payoff

C = CONSTANT_PRODUCT


def booked(r, move):
    """The pool the engine books: ``r`` less the producer and vault legs."""
    (vx, vy), (fx, fy) = move
    return Reserves(r.x - fx - vx, r.y - fy - vy)


class TestSchedule:
    def test_linear_ramp(self):
        s = RebateSchedule(z_max=4, beta0=0.8)
        assert [s.value_at(g) for g in range(6)] == pytest.approx(
            [0.8, 0.6, 0.4, 0.2, 0.0, 0.0]
        )

    def test_zero_schedule_pays_nothing(self):
        zero = RebateSchedule(z_max=0, beta0=0.0)
        assert zero.value_at(0) == 0.0
        assert zero.value_at(7) == 0.0

    def test_no_rebate_without_a_horizon(self):
        with pytest.raises(DomainError, match="^beta0 must be 0 when z_max is 0$"):
            RebateSchedule(z_max=0, beta0=0.5)
        assert RebateSchedule(z_max=0, beta0=0).value_at(0) == 0.0


class TestRebatedMove:
    def test_worked_example(self):
        # (100, 100) moved to price 4 with a 50% rebate: the producer trades
        # half of the full swap, the pool sheds the leftover y into the vault
        # and lands exactly on price 4.
        r = Reserves(100, 100)
        res = deposit, flow = apply_rebated_move(r, 4.0, 0.5)
        assert booked(r, res).x == pytest.approx(150.0, rel=1e-12)
        assert booked(r, res).y == pytest.approx(37.5, rel=1e-12)
        assert deposit == pytest.approx((0.0, 37.5))
        assert flow == pytest.approx((-50.0, 25.0))
        # payoff at eps = 4 is (1 - beta) * L = 0.5 * 100
        assert producer_payoff(res, 4.0) == pytest.approx(50.0, rel=1e-12)

    def test_matches_root_finding_oracle(self):
        for x, y, tp, beta in [
            (100.0, 100.0, 4.0, 0.5),
            (100.0, 100.0, 0.25, 0.5),
            (10_000.0, 100.0, 104.3, 0.8),
            (10_000.0, 100.0, 95.7, 0.2),
            (3.0, 7.0, 1.0, 0.6),
        ]:
            res = (dx, dy), _ = apply_rebated_move(Reserves(x, y), tp, beta)
            ox, oy, sx, sy = bisect_vault_shed(x, y, tp, beta)
            pool = booked(Reserves(x, y), res)
            assert pool.x == pytest.approx(ox, rel=1e-9)
            assert pool.y == pytest.approx(oy, rel=1e-9)
            assert dx == pytest.approx(sx, rel=1e-9, abs=1e-9)
            assert dy == pytest.approx(sy, rel=1e-9, abs=1e-9)

    def test_noop_at_current_price(self):
        r = Reserves(123.0, 45.0)
        res = deposit, flow = apply_rebated_move(r, 123.0 / 45.0, 0.7)
        assert booked(r, res) == r
        assert deposit == (0.0, 0.0)
        assert flow == (0.0, 0.0)

    def test_zero_rebate_is_the_full_swap(self):
        # The full swap from (100, 100) to price 4 lands on (200, 50).
        r = Reserves(100, 100)
        res = deposit, _ = apply_rebated_move(r, 4.0, 0.0)
        assert booked(r, res) == Reserves(200.0, 50.0) == C.reserves_at_price(C.invariant(r), 4.0)
        assert deposit == (0.0, 0.0)
        assert C.invariant(booked(r, res)) == pytest.approx(10_000.0, rel=1e-12)

    @given(
        x=st.floats(1.0, 1e6),
        y=st.floats(1.0, 1e6),
        mult=st.floats(0.05, 20.0),
        beta=st.floats(0.0, 0.95),
    )
    def test_lands_on_target_and_never_grows_k(self, x, y, mult, beta):
        r = Reserves(x, y)
        tp = float(C.price(r)) * mult
        res = (dx, dy), _ = apply_rebated_move(r, tp, beta)
        pool = booked(r, res)
        assert C.price(pool) == pytest.approx(tp, rel=1e-9)
        k0 = C.invariant(r)
        k1 = C.invariant(pool)
        assert k1 <= k0 * (1.0 + 1e-12)
        # vault deposits are one-sided and non-negative
        assert dx >= 0.0 and dy >= 0.0
        assert dx == 0.0 or dy == 0.0

    @given(
        x=st.floats(1.0, 1e4),
        y=st.floats(1.0, 1e4),
        eps_mult=st.floats(0.1, 10.0),
        beta=st.floats(0.0, 0.95),
        probe_mult=st.floats(0.1, 10.0),
    )
    def test_optimal_target_dominates_any_other(self, x, y, eps_mult, beta, probe_mult):
        # Moving all the way to the external price and keeping (1 - beta) of
        # the extraction is at least as good as any other rebated move.
        r = Reserves(x, y)
        eps = float(C.price(r)) * eps_mult
        _, best_value = max_lvr(r, eps)
        at_eps = apply_rebated_move(r, eps, beta)
        assert producer_payoff(at_eps, eps) == pytest.approx(
            (1.0 - beta) * best_value, rel=1e-9, abs=1e-9 * (x + y * eps)
        )
        probe = apply_rebated_move(r, eps * probe_mult, beta)
        assert producer_payoff(probe, eps) <= producer_payoff(at_eps, eps) + 1e-9 * (
            x + y * eps
        )


class TestVault:
    def test_reentry_worked_example(self):
        # vault (0, 37.5) folded into pool (150, 37.5) at eps = 4:
        # value 150 splits into (75, 18.75); the converter's flow nets zero.
        added, flow = vault_reenter((0.0, 37.5), 4.0)
        assert added == pytest.approx((75.0, 18.75))
        assert flow == pytest.approx((-75.0, 18.75))
        assert C.price(Reserves(150.0 + added[0], 37.5 + added[1])) == pytest.approx(4.0, rel=1e-12)

    def test_reentry_on_empty_vault_is_noop(self):
        assert vault_reenter((0.0, 0.0), 2.0) == ((0.0, 0.0), (0.0, 0.0))

    @given(
        x=st.floats(1.0, 1e6),
        y=st.floats(1.0, 1e6),
        vx=st.floats(0.0, 1e4),
        vy=st.floats(0.0, 1e4),
        eps=st.floats(1e-2, 1e2),
    )
    def test_reentry_is_value_neutral_and_grows_k(self, x, y, vx, vy, eps):
        r = Reserves(x, y)
        (ax, ay), (fx, fy) = vault_reenter((vx, vy), eps)
        assert fx + fy * eps == pytest.approx(0.0, abs=1e-9 * max(1.0, vx + vy * eps))
        assert C.invariant(Reserves(x + ax, y + ay)) >= C.invariant(r) * (1.0 - 1e-12)
        assert vx + vy * eps == pytest.approx(
            ax + ay * eps, rel=1e-12, abs=1e-12
        )

