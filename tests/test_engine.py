import dataclasses
import functools
import json
import math
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from v0lver import cli, engine
from v0lver.allocation import Order, OrderSide, verify_clearing_price
from v0lver.cfmm import CONSTANT_PRODUCT, Reserves, check_price
from v0lver.engine import (
    BURNED,
    COLLATERAL,
    POOL,
    VAULT,
    _NEG_TOL,
    ChainState,
    Oct,
    commit_order,
)
from v0lver.errors import (
    DomainError,
    FundingError,
    InvalidTransition,
    InvariantViolation,
    VerificationError,
)
from v0lver.rebate import RebateSchedule, apply_rebated_move

from oracles import (pool_price, reference_book_fill, reference_guarded_leg,
                     reference_transfer, reference_transfer_token, reference_update_refusal,
                     sold_token, strict_records)

C = CONSTANT_PRODUCT
SCHEDULE = RebateSchedule(z_max=4, beta0=0.8)


POSITIVE = (st.sampled_from([0.1, 1.0, 5e-324])
            | st.floats(0.0, exclude_min=True, allow_infinity=False))
COMMITTED = st.tuples(
    st.builds(Order, st.sampled_from(list(OrderSide)), POSITIVE, st.none() | POSITIVE),
    st.sampled_from(["0", "1"]) | st.text(max_size=4))


def make_chain(schedule=SCHEDULE, **kwargs):
    defaults = dict(
        max_x=10.0,
        max_y=0.1,
        reveal_window=2,
        conversion_frequency=1,
        balances={
            "alice": (1_000.0, 10.0),
            "bob": (1_000.0, 10.0),
            "prod": (10_000.0, 100.0),
        },
    )
    defaults.update(kwargs)
    return ChainState(Reserves(10_000.0, 100.0), schedule, **defaults)


def stages(chain, oct_id):
    """The names of the engine queues that hold ``oct_id`` (none once its batch closed)."""
    inserted = {o.id for octs in chain.inserted_by_height.values() for o in octs}
    queues = (("pending", chain.mempool), ("inserted", inserted),
              ("allocated", chain.allocated), ("revealed", chain.reveals))
    return [name for name, ids in queues if oct_id in ids]


def ledger_and_queues(chain):
    """Every balance (signed zeros included), every OCT queue and the last allocation label."""
    return (repr(list(chain.balances.items())), dict(chain.mempool),
            {h: list(v) for h, v in chain.inserted_by_height.items()}, dict(chain.allocated),
            dict(chain.reveals), dict(chain.open_allocations), chain.last_alloc_label)


def buy(size, limit=None):
    return Order(side=OrderSide.BUY_Y, size=size, limit=limit)


def sell(size, limit=None):
    return Order(side=OrderSide.SELL_Y, size=size, limit=limit)


class TestCommitments:
    def test_commitment_binds_every_field(self):
        base = Order(side=OrderSide.BUY_Y, size=5.0, limit=101.0)
        c = commit_order(base, salt="7")
        assert commit_order(base, salt="8") != c
        for other in (
            Order(side=OrderSide.SELL_Y, size=5.0, limit=101.0),
            Order(side=OrderSide.BUY_Y, size=5.1, limit=101.0),
            Order(side=OrderSide.BUY_Y, size=5.0, limit=102.0),
        ):
            assert commit_order(other, salt="7") != c

    @settings(max_examples=300, deadline=None)
    @given(a=COMMITTED, b=COMMITTED, limit=POSITIVE)
    def test_commitments_agree_exactly_when_every_field_does(self, a, b, limit):
        (order_a, salt_a), (order_b, salt_b) = a, b
        same = order_a == order_b and salt_a == salt_b  # > 0 floats: equal means equal bits
        assert (commit_order(order_a, salt_a) == commit_order(order_b, salt_b)) == same
        # no limit takes the value that stands for a market order
        market = order_a._replace(limit=None)
        assert commit_order(market, salt_a) != commit_order(
            order_a._replace(limit=limit), salt_a)

    @settings(max_examples=100, deadline=None)
    @given(side=st.sampled_from(list(OrderSide)), frac=st.floats(1e-6, 1.0),
           limit=st.none() | st.floats(1e-3, 1e6),
           field=st.sampled_from(["side", "size", "limit"]))
    def test_reveal_refuses_an_order_one_field_off(self, side, frac, limit, field):
        order = Order(side, frac * (10.0 if side is OrderSide.BUY_Y else 0.1), limit)
        altered = order._replace(**{
            "side": {"side": OrderSide.SELL_Y if side is OrderSide.BUY_Y else OrderSide.BUY_Y},
            "size": {"size": math.nextafter(order.size, 0.0)},  # one bit off
            "limit": {"limit": 100.0 if limit is None else math.nextafter(limit, math.inf)},
        }[field])
        chain = make_chain()
        oct = chain.submit_oct("alice", order)
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 100.0)
        with pytest.raises(InvalidTransition, match="commitment"):
            chain.reveal_order(oct.id, altered)
        chain.reveal_order(oct.id, order)


    @settings(max_examples=100, deadline=None)
    @given(first=COMMITTED, second=COMMITTED)
    def test_submit_builds_the_oct_of_its_fields(self, first, second):
        top = sys.float_info.max  # bounds every size COMMITTED draws
        chain = make_chain(max_x=top, max_y=top,
                           balances={"alice": (top, top), "bob": (top, top)})
        for oct_id, owner, (order, _) in ((0, "alice", first), (1, "bob", second)):
            oct = chain.submit_oct(owner, order)
            assert type(oct) is Oct
            assert oct == Oct(oct_id, owner, commit_order(order, str(oct_id)),
                              sold_token(order), top)
            assert oct.commitment == commit_order(order, str(oct.id))


class TestLifecycle:
    def test_full_walkthrough(self):
        chain = make_chain()
        o_a = buy(5.0)
        o_b = sell(0.05)
        oct_a = chain.submit_oct("alice", o_a)
        oct_b = chain.submit_oct("bob", o_b)
        # collateral is the full bound, not the order size
        assert chain.balances["alice"] == [990.0, 10.0]
        assert chain.balances["bob"] == [1_000.0, 9.9]
        assert chain.balances[COLLATERAL] == [10.0, 0.1]
        assert chain.mempool == {oct_a.id: oct_a, oct_b.id: oct_b}
        assert stages(chain, oct_a.id) == ["pending"]

        chain.insert_octs("prod", [oct_a.id, oct_b.id])
        assert chain.inserted_by_height == {0: [oct_a, oct_b]}
        assert stages(chain, oct_a.id) == ["inserted"]

        receipt = chain.apply_update_tx("prod", 0, 102.0)
        assert receipt.gap == 0
        assert receipt.beta == pytest.approx(0.8)
        assert receipt.count == 2
        assert pool_price(chain) == pytest.approx(102.0, rel=1e-12)
        assert chain.balances[VAULT] != [0.0, 0.0]
        assert receipt.oct_ids == (oct_a.id, oct_b.id)
        assert chain.allocated[oct_a.id] == oct_a
        assert stages(chain, oct_a.id) == ["allocated"]

        chain.reveal_order(oct_a.id, o_a)
        chain.reveal_order(oct_b.id, o_b)
        assert chain.reveals[oct_a.id] == (oct_a, o_a)
        assert stages(chain, oct_a.id) == ["revealed"]

        block = chain.advance_block(102.0, converter="prod")
        assert len(block.executions) == 1
        er = block.executions[0]
        assert er.update is receipt and receipt.label == 0
        assert receipt.count == 2 and len(er.orders) == 2
        assert not er.burned
        # closed: no queue holds it; its batch's receipt records the fill
        assert stages(chain, oct_a.id) == [] and er.orders == (o_a, o_b)
        assert block.submitted == (oct_a, oct_b)
        with pytest.raises(AttributeError):
            block.submitted[0].collateral = 0.0
        assert block.submitted[0].collateral == 10.0
        snap = er.settlement
        assert snap.price == pytest.approx(
            (receipt.snapshot.x + 5.0) / (receipt.snapshot.y + 0.05), rel=1e-12
        )
        # alice sold 5 x, got 5/p y and her unspent collateral back
        assert chain.balances["alice"][0] == pytest.approx(995.0)
        assert chain.balances["alice"][1] == pytest.approx(10.0 + 5.0 / snap.price)
        # bob sold 0.05 y for 0.05 * p x
        assert chain.balances["bob"][0] == pytest.approx(1_000.0 + 0.05 * snap.price)
        assert chain.balances["bob"][1] == pytest.approx(9.95)
        # escrow closed, collateral account empty, only the escrow's rounding dust burned
        assert "alloc:0" not in chain.balances
        assert chain.balances[COLLATERAL] == pytest.approx([0.0, 0.0], abs=1e-9)
        assert chain.balances[BURNED] == pytest.approx([0.0, 0.0], abs=1e-9)
        # the vault was converted at the block boundary (frequency 1)
        assert chain.balances[VAULT] == [0.0, 0.0]
        assert chain.balances[VAULT] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert chain.conservation_error() < 1e-9
        assert chain.height == 1

    def test_each_fill_is_booked_to_its_owner(self):
        # This schedule rebates nothing and the pool already prices at 100, so
        # the update moves nothing and the producer funds no escrow: each owner's
        # ledger moves by its own fill alone, the producer's included.
        chain = make_chain(schedule=RebateSchedule(z_max=0, beta0=0.0))
        submitted = [("alice", buy(5.0, limit=103.0)), ("prod", sell(0.03)),
                     ("bob", sell(0.05))]
        before = {who: list(chain.balances[who]) for who, _ in submitted}
        octs = [chain.submit_oct(who, o) for who, o in submitted]
        chain.insert_octs("prod", [oct.id for oct in octs])
        update = chain.apply_update_tx("prod", 0, 100.0)
        assert update.producer_flow == (0.0, 0.0) and update.beta == 0.0
        for oct, (_, o) in reversed(list(zip(octs, submitted))):
            chain.reveal_order(oct.id, o)
        er = chain.advance_block(100.0, converter="prod").executions[0]
        assert er.revealed == tuple(octs)
        assert tuple(oct.owner for oct in er.revealed) == ("alice", "prod", "bob")
        assert er.orders == tuple(o for _, o in submitted)
        assert sorted(f.index for f in er.settlement.fills) == [0, 1, 2]
        for f in er.settlement.fills:
            owner, sells = er.revealed[f.index].owner, "xy".index(sold_token(er.orders[f.index]))
            change = [now - then for now, then in zip(chain.balances[owner], before[owner])]
            assert change[sells] == pytest.approx(-f.sold, rel=1e-12, abs=1e-12), owner
            assert change[1 - sells] == pytest.approx(f.bought, rel=1e-12, abs=1e-12), owner

    def test_unrevealed_orders_burn(self):
        chain = make_chain()
        oct = chain.submit_oct("alice", buy(5.0))
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 101.0)
        chain.advance_block(101.0)  # not due yet (window 2, no reveal)
        assert stages(chain, oct.id) == ["allocated"]
        chain.advance_block(101.0)
        block = chain.advance_block(101.0)
        assert stages(chain, oct.id) == []
        assert block.executions[0].burned == (oct,)
        with pytest.raises(AttributeError):
            block.executions[0].burned[0].owner = "bob"
        assert block.executions[0].burned[0].owner == "alice"
        assert (oct.owner, oct.collateral_token, oct.collateral) == ("alice", "x", 10.0)
        assert chain.balances[BURNED] == [10.0, 0.0]
        assert chain.balances["alice"] == [990.0, 10.0]
        assert chain.conservation_error() < 1e-9

    def test_batch_without_orders_is_pure_arbitrage(self):
        chain = make_chain()
        receipt = chain.apply_update_tx("prod", 0, 104.0)
        assert receipt.count == 0
        assert receipt.escrow == (0.0, 0.0)
        block = chain.advance_block(104.0)
        assert block.executions == ()
        # producer paid x in, took y out at less than the full swap
        fx, fy = receipt.producer_flow
        assert fx < 0 < fy
        assert chain.conservation_error() < 1e-11

    def test_early_execution_when_all_revealed(self):
        chain = make_chain(reveal_window=10)
        o = buy(5.0)
        oct = chain.submit_oct("alice", o)
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 101.0)
        chain.reveal_order(oct.id, o)
        block = chain.advance_block(101.0)
        assert len(block.executions) == 1
        assert stages(chain, oct.id) == [] and block.executions[0].orders == (o,)


class TestConstruction:
    @pytest.mark.parametrize("field", ["max_x", "max_y"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), "abc"])
    def test_order_bounds_are_checked_where_they_enter(self, field, bad):
        balances = {"alice": (1_000.0, 10.0)}
        with pytest.raises(DomainError, match=field):
            make_chain(**{field: bad}, balances=balances)
        assert balances == {"alice": (1_000.0, 10.0)}

    @pytest.mark.parametrize("reserves", [(100.0, 100.0), [100.0, 100.0], (100, 100)],
                             ids=["tuple", "list", "ints"])
    def test_reserves_are_any_pair_of_numbers(self, reserves):
        chain = ChainState(reserves, SCHEDULE, max_x=1.0, max_y=1.0)
        assert chain.pool_reserves() == Reserves(100.0, 100.0)
        assert chain.balances[POOL] == [100.0, 100.0]
        assert all(type(v) is float for v in chain.balances[POOL])

    def test_zero_opening_balances_are_kept(self):
        chain = make_chain(balances={"alice": (0.0, 0.0), VAULT: (5.0, 0.0)})
        assert chain.balances["alice"] == [0.0, 0.0]
        assert chain.balances[VAULT] == [5.0, 0.0]
        assert chain.balances[POOL] == [10_000.0, 100.0]


class TestOneNumberRule:
    """Every numeric entry point takes a real number as a float; ``test_boundary.py``
    holds what each refuses."""

    @pytest.mark.parametrize("good", [np.int64(100), np.float32(100.0), Fraction(100)],
                             ids=["np_int", "np_float", "fraction"])
    def test_numpy_numbers_and_fractions_pass_as_floats(self, good):
        assert check_price(good) == 100.0 and type(check_price(good)) is float
        assert make_chain().advance_block(good).eps == 100.0
        assert verify_clearing_price(C, Reserves(100.0, 1.0), [], good) is not None


class TestOneIntegerRule:
    """Every integer entry point takes an integral number, numpy's too, and stores an int."""

    ENTRY_POINTS = {
        "reveal_window": lambda v: make_chain(reveal_window=v).reveal_window,
        "conversion_frequency": lambda v: make_chain(conversion_frequency=v).conversion_frequency,
        "z_max": lambda v: RebateSchedule(z_max=v).z_max,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("good", [np.int64(4), np.uint8(4), 4], ids=["np_int64", "np_uint8",
                                                                         "int"])
    def test_integral_numbers_pass_as_ints(self, entry, good):
        stored = self.ENTRY_POINTS[entry](good)
        assert stored == 4 and type(stored) is int

    @pytest.mark.parametrize("beta0", [np.float32(0.5), np.float64(0.5), Fraction(1, 2)],
                             ids=["np_float32", "np_float64", "fraction"])
    def test_a_real_beta0_is_stored_as_a_float(self, beta0):
        schedule = RebateSchedule(beta0=beta0)
        assert schedule.beta0 == 0.5 and type(schedule.beta0) is float
        assert json.dumps(dataclasses.asdict(RebateSchedule(z_max=np.int64(3), beta0=beta0)))


class TestTransitionGuards:
    def test_submit_rejects_oversized_orders(self):
        chain = make_chain()
        with pytest.raises(DomainError):
            chain.submit_oct("alice", buy(10.5))
        with pytest.raises(DomainError):
            chain.submit_oct("bob", sell(0.2))

    def test_submit_needs_collateral_funding(self):
        chain = make_chain(balances={"poor": (1.0, 0.0), "alice": (10.0, 0.0)})
        with pytest.raises(FundingError):
            chain.submit_oct("poor", buy(5.0))
        # an unknown payer is refused without opening an account or spending an id
        with pytest.raises(FundingError):
            chain.submit_oct("nobody", buy(5.0))
        assert "nobody" not in chain.balances
        assert chain.submit_oct("alice", buy(5.0)).id == 0

    def test_insert_unknown_or_duplicate(self):
        chain = make_chain()
        oct = chain.submit_oct("alice", buy(5.0))
        with pytest.raises(InvalidTransition):
            chain.insert_octs("prod", [999])
        with pytest.raises(InvalidTransition):
            chain.insert_octs("prod", [oct.id, oct.id])
        chain.insert_octs("prod", [oct.id])
        with pytest.raises(InvalidTransition):
            chain.insert_octs("prod", [oct.id])

    def test_insertion_after_the_update_is_refused(self):
        chain = make_chain()
        chain.apply_update_tx("prod", 0, 101.0)
        oct = chain.submit_oct("alice", buy(5.0))
        # no later update could allocate height 0 again
        with pytest.raises(InvalidTransition, match="already allocated"):
            chain.insert_octs("prod", [oct.id])
        assert stages(chain, oct.id) == ["pending"]
        assert chain.inserted_by_height == {}
        chain.advance_block(101.0)
        chain.insert_octs("prod", [oct.id])
        update = chain.apply_update_tx("prod", 1, 101.0)
        assert update.oct_ids == (oct.id,)
        for h in range(2, 5):
            chain.advance_block(101.0)
            chain.apply_update_tx("prod", h, 101.0)
        # the next block's insertion was allocated, burned at the window and freed its collateral
        assert stages(chain, oct.id) == []
        assert chain.balances[COLLATERAL] == [0.0, 0.0]
        assert chain.balances[BURNED] == pytest.approx([10.0, 0.0])

    def test_an_empty_insertion_before_the_update_changes_nothing(self):
        # The premise of the driver's skip: ``insert_octs(producer, [])`` books nothing.
        def run(insert_nothing):
            chain = make_chain()
            first = chain.submit_oct("alice", buy(5.0))
            chain.insert_octs("prod", [first.id])
            chain.advance_block(100.0)
            chain.submit_oct("bob", sell(0.05))  # pending beside a waiting insertion
            if insert_nothing:
                state = ledger_and_queues(chain)
                assert chain.insert_octs("prod", []) == []
                assert ledger_and_queues(chain) == state
            chain.apply_update_tx("prod", 1, 101.0)
            return chain.advance_block(101.0, converter="prod"), ledger_and_queues(chain)

        assert run(True) == run(False)

    def test_one_update_per_block(self):
        chain = make_chain()
        chain.apply_update_tx("prod", 0, 101.0)
        with pytest.raises(InvalidTransition):
            chain.apply_update_tx("prod", 0, 102.0)

    def test_update_label_must_be_fresh_and_not_in_future(self):
        chain = make_chain()
        with pytest.raises(InvalidTransition):
            chain.apply_update_tx("prod", 1, 101.0)  # future label
        chain.apply_update_tx("prod", 0, 101.0)
        chain.advance_block(101.0)
        chain.advance_block(101.0)
        chain.apply_update_tx("prod", 2, 101.5)
        with pytest.raises(InvalidTransition):
            chain.apply_update_tx("prod", 2, 102.0)  # reused label

    def test_reveal_guards(self):
        chain = make_chain()
        o = buy(5.0)
        oct = chain.submit_oct("alice", o)
        with pytest.raises(InvalidTransition):
            chain.reveal_order(oct.id, o)  # not yet allocated
        with pytest.raises(InvalidTransition):
            chain.reveal_order(999, o)
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 101.0)
        with pytest.raises(InvalidTransition):
            chain.reveal_order(oct.id, buy(4.0))  # wrong body
        chain.advance_block(101.0)
        chain.advance_block(101.0)
        chain.advance_block(101.0)
        with pytest.raises(InvalidTransition):
            chain.reveal_order(oct.id, o)  # window closed (burned by now)

    @pytest.mark.parametrize("window", range(4))
    def test_a_late_reveal_finds_its_oct_gone(self, window):
        def allocated_chain():
            chain = make_chain(reveal_window=window)
            oct = chain.submit_oct("alice", o)
            chain.insert_octs("prod", [oct.id])
            chain.apply_update_tx("prod", 0, 101.0)
            for _ in range(window):
                chain.advance_block(101.0)
            return chain, oct

        o = buy(5.0)
        chain, oct = allocated_chain()  # at the window's last height: still in time
        chain.reveal_order(oct.id, o)
        assert chain.advance_block(101.0).executions[0].orders == (o,)
        chain, oct = allocated_chain()
        # the batch executes as the window closes and burns what is unrevealed
        assert chain.advance_block(101.0).executions[0].burned == (oct,)
        state = ledger_and_queues(chain)
        with pytest.raises(InvalidTransition, match="not allocated and unrevealed"):
            chain.reveal_order(oct.id, o)
        assert ledger_and_queues(chain) == state

    @pytest.mark.parametrize("body", [sell(0.05), sell(5.0), buy(10.0), buy(10.5),
                                      buy(math.nextafter(5.0, math.inf))])
    def test_an_order_beyond_its_collateral_fails_on_the_commitment(self, body):
        # the commitment binds side and size, the two fields the collateral was sized from
        chain = make_chain()
        oct = chain.submit_oct("alice", buy(5.0))
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 101.0)
        with pytest.raises(InvalidTransition, match="does not match the commitment"):
            chain.reveal_order(oct.id, body)
        assert stages(chain, oct.id) == ["allocated"]

    def test_execute_guards(self):
        chain = make_chain()
        o = buy(5.0)
        oct = chain.submit_oct("alice", o)
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 101.0)
        with pytest.raises(InvalidTransition):
            chain.execute_batch(7)
        with pytest.raises(InvalidTransition):
            chain.execute_batch(0)  # reveal outstanding, window open

    def test_verification_rejects_bad_proposals(self):
        chain = make_chain()
        o = buy(5.0)
        oct = chain.submit_oct("alice", o)
        chain.insert_octs("prod", [oct.id])
        receipt = chain.apply_update_tx("prod", 0, 101.0)
        chain.reveal_order(oct.id, o)
        with pytest.raises(VerificationError):
            chain.execute_batch(0, proposed_price=receipt.price * 1.01)
        # the correct price passes the same gate
        good = (receipt.snapshot.x + 5.0) / (receipt.snapshot.y)
        er = chain.execute_batch(0, proposed_price=good)
        assert er.settlement.price == pytest.approx(good)

    def test_refused_proposal_books_nothing(self):
        chain = make_chain(reveal_window=1)
        o_a, o_b = buy(5.0), buy(3.0)
        oct_a = chain.submit_oct("alice", o_a)
        oct_b = chain.submit_oct("bob", o_b)
        chain.insert_octs("prod", [oct_a.id, oct_b.id])
        u = chain.apply_update_tx("prod", 0, 101.0)
        chain.reveal_order(oct_a.id, o_a)
        chain.advance_block(101.0)  # bob's reveal is outstanding, window 1: not due yet
        balances = {party: list(acct) for party, acct in chain.balances.items()}
        with pytest.raises(VerificationError):
            chain.execute_batch(0, proposed_price=1.5 * u.price)
        # nothing burned, nothing moved, both OCTs still wait in their stages
        assert chain.balances == balances
        assert stages(chain, oct_a.id) == ["revealed"] and stages(chain, oct_b.id) == ["allocated"]
        er = chain.execute_batch(0)
        assert er.burned == (oct_b,) and er.orders == (o_a,)
        assert chain.balances[BURNED][0] == pytest.approx(10.0)
        block = chain.advance_block(101.0)
        burned = [e["id"] for e in strict_records(block.ndjson()) if e["kind"] == "oct_burned"]
        assert burned == [oct_b.id]

    def test_proposing_the_solver_price_settles_as_the_solver(self):
        orders = [("alice", buy(5.0, limit=103.0)), ("bob", sell(0.05, limit=100.5)),
                  ("alice", buy(3.0))]

        def revealed_batch():
            chain = make_chain()
            octs = [chain.submit_oct(owner, o) for owner, o in orders]
            chain.insert_octs("prod", [oct.id for oct in octs])
            chain.apply_update_tx("prod", 0, 101.0)
            for oct, (_, o) in zip(octs, orders):
                chain.reveal_order(oct.id, o)
            return chain

        solved = revealed_batch().execute_batch(0)
        proposed = revealed_batch().execute_batch(0, proposed_price=solved.settlement.price)
        assert proposed.settlement == solved.settlement

    def test_earmark_funding_limit(self):
        chain = ChainState(
            Reserves(100.0, 1.0),
            RebateSchedule(z_max=0, beta0=0.0),
            max_x=10.0,
            max_y=0.1,
            balances={"u": (1_000.0, 10.0), "prod": (1_000.0, 10.0)},
        )
        # pool y reserve (1.0) cannot back escrow for 20 x-bound orders
        ids = [chain.submit_oct("u", buy(5.0)).id for _ in range(20)]
        chain.insert_octs("prod", ids)
        balances = {party: list(acct) for party, acct in chain.balances.items()}
        price = pool_price(chain)
        with pytest.raises(FundingError):
            chain.apply_update_tx("prod", 0, 110.0)
        # the refused update moved no price and booked nothing
        assert chain.balances == balances
        assert pool_price(chain) == price
        assert chain.open_allocations == {}
        assert chain.advance_block(110.0).update is None

    @pytest.mark.parametrize("name", [POOL, VAULT, COLLATERAL, BURNED, "alloc:0"])
    @pytest.mark.parametrize("entry, arg", [("submit_oct", "owner"), ("insert_octs", "producer"),
                                            ("apply_update_tx", "producer"),
                                            ("advance_block", "converter")])
    def test_agents_must_not_act_as_engine_accounts(self, entry, arg, name):
        chain = make_chain(conversion_frequency=2)
        first = chain.submit_oct("alice", buy(5.0))
        chain.insert_octs("prod", [first.id])
        chain.apply_update_tx("prod", 0, 101.0)
        chain.advance_block(101.0, converter="prod")
        # block 1: batch 0 waits for its reveal in alloc:0, the vault holds the
        # update's deposit and re-enters at this block's end
        pending = chain.submit_oct("alice", buy(5.0))
        assert chain.balances["alloc:0"] != [0.0, 0.0] and chain.balances[VAULT] != [0.0, 0.0]
        state = ledger_and_queues(chain)
        call = {"submit_oct": lambda: chain.submit_oct(name, buy(5.0)),
                "insert_octs": lambda: chain.insert_octs(name, [pending.id]),
                "apply_update_tx": lambda: chain.apply_update_tx(name, 1, 102.0),
                "advance_block": lambda: chain.advance_block(102.0, converter=name)}[entry]
        with pytest.raises(DomainError, match=f"^{arg} .*'{name}'"):
            call()
        assert ledger_and_queues(chain) == state
        assert chain.height == 1 and chain._update is None
        assert chain._submitted == [pending] and chain._inserts == []

    def test_overdraft_tolerance_is_per_token(self):
        chain = make_chain(balances={"alice": (1_000.0, 1e12)})
        # a 1e12 y leg allows 1e3 y of rounding slack, but no x overdraft beyond ~1e-6
        with pytest.raises(FundingError, match="alice overdrawn"):
            reference_transfer(chain, "alice", "bob", 1_000.5, 1e12)
        assert chain.balances["alice"] == [1_000.0, 1e12]

    def test_update_leaving_the_float_range_books_nothing(self):
        chain = make_chain()
        balances = {party: list(acct) for party, acct in chain.balances.items()}
        price = pool_price(chain)
        # k * p overflows: the move would put the pool's x reserve at inf
        with pytest.raises(DomainError, match="pool reserves"):
            chain.apply_update_tx("prod", 0, 1e303)
        assert chain.balances == balances
        assert pool_price(chain) == price
        assert chain.advance_block(100.0).update is None

    def test_non_numeric_update_price_books_nothing(self):
        chain = make_chain()
        balances = {party: list(acct) for party, acct in chain.balances.items()}
        with pytest.raises(DomainError, match="price"):
            chain.apply_update_tx("prod", 0, "abc")
        assert chain.balances == balances
        assert chain.advance_block(100.0).update is None

    def test_advance_block_checks_the_external_price(self):
        chain = make_chain()
        for bad in (0.0, -1.0, float("nan"), float("inf"), "abc", None):
            with pytest.raises(DomainError):
                chain.advance_block(bad)
        assert chain.height == 0


# Values equal by hash to an OCT id or batch label 0 or 1, and two that are not.
NOT_INTS = [np.int64(0), True, False, 0.0, "0", None]


class TestIdsAndLabelsAreInts:
    """An OCT id or a batch label must be an ``int``: a value that merely equals one
    is refused before anything books, so no receipt records it."""

    @staticmethod
    def staged(entry):
        """A chain on which ``entry`` accepts 0 and 1 as OCT ids or batch labels."""
        chain = make_chain()
        orders = [buy(5.0), sell(0.05)]
        octs = [chain.submit_oct(who, o) for who, o in zip(("alice", "bob"), orders)]
        if entry == "execute_batch":  # batches 0 and 1, both revealed and due
            chain.insert_octs("prod", [0])
            chain.apply_update_tx("prod", 0, 100.0)
            chain.advance_block(100.0)
            chain.insert_octs("prod", [1])
            chain.apply_update_tx("prod", 1, 100.0)
            for oct, o in zip(octs, orders):
                chain.reveal_order(oct.id, o)
        elif entry != "insert_octs":
            chain.insert_octs("prod", [0, 1])
            if entry == "reveal_order":
                chain.apply_update_tx("prod", 0, 100.0)
            else:  # at height 1 with nothing allocated, labels 0 and 1 are open
                chain.advance_block(100.0)
        return chain, orders

    @pytest.mark.parametrize("bad", NOT_INTS, ids=repr)
    @pytest.mark.parametrize("entry", ["insert_octs", "reveal_order", "apply_update_tx",
                                       "execute_batch"])
    def test_a_value_equal_to_an_id_is_refused(self, entry, bad):
        chain, orders = self.staged(entry)
        call, error, message = {
            "insert_octs": (lambda v: chain.insert_octs("prod", [v]), InvalidTransition,
                            "is not in the mempool"),
            "reveal_order": (lambda v: chain.reveal_order(v, orders[0]), InvalidTransition,
                             "is not allocated and unrevealed"),
            "apply_update_tx": (lambda v: chain.apply_update_tx("prod", v, 100.0), DomainError,
                                "^alloc_label must be an integer"),
            "execute_batch": (chain.execute_batch, InvalidTransition, "no open allocation"),
        }[entry]
        balances, state = repr(list(chain.balances.items())), ledger_and_queues(chain)
        block = (chain._next_oct_id, list(chain._inserts), list(chain._revealed),
                 list(chain._executions), chain._update)
        with pytest.raises(error, match=message):
            call(bad)
        assert repr(list(chain.balances.items())) == balances
        assert ledger_and_queues(chain) == state
        assert (chain._next_oct_id, chain._inserts, chain._revealed, chain._executions,
                chain._update) == block
        call(0)  # the id itself is accepted, and the block's events are strict JSON
        strict_records(chain.advance_block(100.0).ndjson())


class TestOrdersAreOrders:
    """An order must be an ``Order``: a plain tuple of its fields compares equal to
    one, so only the type keeps it out, and it is refused before anything books."""

    @pytest.mark.parametrize("bad", [(OrderSide.BUY_Y, 5.0, None), ("buy_y", 5.0, None), None,
                                     {"side": OrderSide.BUY_Y, "size": 5.0, "limit": None}],
                             ids=["tuple", "raw_tuple", "none", "dict"])
    @pytest.mark.parametrize("entry", ["submit_oct", "reveal_order"])
    def test_a_non_order_is_refused(self, entry, bad):
        chain = make_chain()
        oct = chain.submit_oct("alice", buy(5.0))
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 100.0)
        call = {"submit_oct": lambda o: chain.submit_oct("alice", o),
                "reveal_order": lambda o: chain.reveal_order(oct.id, o)}[entry]
        state = ledger_and_queues(chain)
        block = (chain._next_oct_id, list(chain._submitted), list(chain._revealed))
        with pytest.raises(DomainError, match="^order must be an Order, got "):
            call(bad)
        assert ledger_and_queues(chain) == state
        assert (chain._next_oct_id, chain._submitted, chain._revealed) == block
        call(buy(5.0))  # the order itself is accepted
        assert (OrderSide.BUY_Y, 5.0, None) == buy(5.0)


def _overpaid(curve, snapshot, orders, price):
    """The true settlement, with the first fill's ``bought`` doubled."""
    s = verify_clearing_price(curve, snapshot, orders, price)
    if s is None or not s.fills:
        return s
    first = s.fills[0]._replace(bought=2.0 * s.fills[0].bought)
    return s._replace(fills=(first, *s.fills[1:]))


# A verifier that refuses the solver's price, and one whose settlement overpays.
BREAKS = pytest.mark.parametrize("verify, message", [
    (lambda curve, snapshot, orders, price: None, "failed self-verification"),
    (_overpaid, "not fully unwound"),
], ids=["refused", "overpaid"])


class TestInvariantBreaks:
    """The engine's two raises that only a broken solver or verifier reaches."""

    @BREAKS
    def test_a_broken_settlement_raises(self, verify, message, monkeypatch):
        chain = make_chain(reveal_window=0)  # the batch is due at once
        o = buy(5.0)
        oct, hidden = chain.submit_oct("alice", o), chain.submit_oct("bob", sell(0.05))
        chain.insert_octs("prod", [oct.id, hidden.id])
        chain.apply_update_tx("prod", 0, 101.0)
        chain.reveal_order(oct.id, o)
        state = ledger_and_queues(chain)
        monkeypatch.setattr(engine, "verify_clearing_price", verify)
        with pytest.raises(InvariantViolation, match=message):
            chain.advance_block(101.0)
        if message == "failed self-verification":
            # refused before the unrevealed OCT burns or any order is paid
            assert ledger_and_queues(chain) == state
            assert chain.balances[BURNED] == [0.0, 0.0]

    @BREAKS
    def test_a_run_that_breaks_exits_two(self, verify, message, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "verify_clearing_price", verify)
        assert cli.main(["run", "--scenario", "default", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invariant violation:") and message in err


class TestZeroRebateFallback:
    def test_updates_are_plain_swaps(self):
        chain = ChainState(
            Reserves(10_000.0, 100.0),
            RebateSchedule(z_max=0, beta0=0.0),
            max_x=10.0,
            max_y=0.1,
            balances={"prod": (10_000.0, 100.0)},
        )
        k0 = C.invariant(chain.pool_reserves())
        for price in (104.0, 99.5, 101.2, 97.0):
            chain.apply_update_tx("prod", chain.height, price)
            expect = C.reserves_at_price(k0, price)
            got = chain.pool_reserves()
            assert got.x == pytest.approx(expect.x, rel=1e-12)
            assert got.y == pytest.approx(expect.y, rel=1e-12)
            assert chain.balances[VAULT] == [0.0, 0.0]
            chain.advance_block(price)
        assert C.invariant(chain.pool_reserves()) == pytest.approx(k0, rel=1e-12)
        assert chain.balances[VAULT] == [0.0, 0.0]
        assert chain.conservation_error() < 1e-11


class TestVaultConversion:
    def test_vault_reenters_on_schedule(self):
        chain = make_chain(conversion_frequency=3)
        chain.apply_update_tx("prod", 0, 103.0)
        assert chain.balances[VAULT] != [0.0, 0.0]
        k_before = C.invariant(chain.pool_reserves())
        chain.advance_block(103.0, converter="prod")  # height 0 -> 1, 1 % 3 != 0
        assert chain.balances[VAULT] != [0.0, 0.0]
        chain.advance_block(103.0, converter="prod")  # 2 % 3 != 0
        assert chain.balances[VAULT] != [0.0, 0.0]
        block = chain.advance_block(103.0, converter="prod")  # 3 % 3 == 0
        assert chain.balances[VAULT] == [0.0, 0.0]
        assert block.reentry is not None
        fx, fy = block.reentry.converter_flow
        assert fx + fy * 103.0 == pytest.approx(0.0, abs=1e-9)
        assert C.invariant(chain.pool_reserves()) > k_before
        assert chain.conservation_error() < 1e-9

    def test_funded_vault_reenters_at_first_block_end(self):
        chain = make_chain(balances={"prod": (10_000.0, 100.0), VAULT: (5.0, 0.0)})
        s0 = chain.total_supply()
        k0 = C.invariant(chain.pool_reserves())
        block = chain.advance_block(100.0, converter="prod")
        assert block.reentry is not None
        assert block.reentry.added == pytest.approx((2.5, 0.025))
        assert chain.balances[VAULT] == [0.0, 0.0]
        assert C.invariant(chain.pool_reserves()) > k0
        assert chain.total_supply() == pytest.approx(s0, rel=1e-12)
        assert chain.conservation_error() < 1e-9

    def test_conversion_disabled(self):
        chain = make_chain(conversion_frequency=0)
        chain.apply_update_tx("prod", 0, 103.0)
        for _ in range(5):
            assert chain.advance_block(103.0).reentry is None
        assert chain.balances[VAULT] != [0.0, 0.0]


class TestLedger:
    def test_total_supply_constant_through_mixed_history(self):
        chain = make_chain()
        s0 = chain.total_supply()
        o1, o2 = buy(3.0), sell(0.04)
        a = chain.submit_oct("alice", o1)
        b = chain.submit_oct("bob", o2)
        chain.insert_octs("prod", [a.id, b.id])
        chain.apply_update_tx("prod", 0, 101.0)
        chain.reveal_order(a.id, o1)
        chain.advance_block(101.0, converter="prod")
        chain.advance_block(100.0, converter="prod")
        chain.apply_update_tx("prod", 2, 100.0)
        chain.advance_block(100.0, converter="prod")
        s1 = chain.total_supply()
        assert s1[0] == pytest.approx(s0[0], rel=1e-12)
        assert s1[1] == pytest.approx(s0[1], rel=1e-12)
        assert chain.conservation_error() < 1e-9

    def test_block_receipt_gathers_the_block(self):
        chain = make_chain()
        o = buy(5.0)
        oct = chain.submit_oct("alice", o)
        chain.insert_octs("prod", [])
        chain.insert_octs("prod", [oct.id])
        update = chain.apply_update_tx("prod", 0, 102.0)
        chain.reveal_order(oct.id, o)
        execution = chain.execute_batch(0)  # a direct call lands in the block too
        block = chain.advance_block(102.0, converter="prod")
        assert block.height == 0
        assert block.submitted == (oct,)
        assert block.inserts == (("prod", (oct.id,)),)
        assert block.update is update
        assert update.before == Reserves(10_000.0, 100.0)
        assert block.revealed == (oct.id,)
        assert block.executions == (execution,)
        assert block.reentry is not None
        assert block.pool == tuple(chain.balances[POOL])
        assert block.vault == tuple(chain.balances[VAULT])
        kinds = [e["kind"] for e in strict_records(block.ndjson())]
        assert kinds == ["oct_submitted", "octs_inserted", "update_applied", "oct_revealed",
                         "batch_executed", "vault_reentered", "block_end"]
        assert {e["height"] for e in strict_records(block.ndjson())} == {0}
        # the next block starts empty
        empty = chain.advance_block(102.0)
        assert (empty.height, empty.submitted, empty.update, empty.executions) == (1, (), None, ())
        assert [e["kind"] for e in strict_records(empty.ndjson())] == ["block_end"]

    def test_every_record_of_a_block_is_immutable(self):
        chain = make_chain()
        oct = chain.submit_oct("alice", buy(5.0))
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 102.0)
        chain.reveal_order(oct.id, buy(5.0))
        block = chain.advance_block(102.0, converter="prod")
        er = block.executions[0]
        records = [block, block.submitted[0], block.update, block.update.before, er,
                   er.settlement, er.settlement.fills[0], er.orders[0], block.reentry]
        assert [type(r).__name__ for r in records] == [
            "BlockReceipt", "Oct", "UpdateReceipt", "Reserves", "ExecutionReceipt",
            "Settlement", "Fill", "Order", "ReentryReceipt"]
        for r in records:
            for name in r._fields:
                value = getattr(r, name)
                with pytest.raises(AttributeError):
                    setattr(r, name, None)
                with pytest.raises(AttributeError):
                    object.__setattr__(r, name, None)
                assert getattr(r, name) is value
            with pytest.raises(AttributeError):
                r.note = None  # no field can be added either

    def test_settled_escrows_leave_the_ledger(self):
        chain = make_chain(conversion_frequency=2)
        s0 = chain.total_supply()
        for h in range(8):
            orders = [buy(2.0 + h), sell(0.03)]
            octs = [chain.submit_oct(who, o) for who, o in zip(("alice", "bob"), orders)]
            chain.insert_octs("prod", [o.id for o in octs])
            chain.apply_update_tx("prod", h, 100.0 + h)
            if h % 2:  # odd blocks reveal at once, even ones wait out the window and burn
                for oct, o in zip(octs, orders):
                    chain.reveal_order(oct.id, o)
            chain.advance_block(100.0 + h, converter="prod")
            escrows = {p for p in chain.balances if p.startswith("alloc:")}
            assert escrows <= {f"alloc:{label}" for label in chain.open_allocations}
        assert len(chain.open_allocations) < 8
        s1 = chain.total_supply()
        assert s1 == pytest.approx(s0, rel=1e-12)

    def test_negative_escrow_dust_is_paid_not_burned(self):
        chain = make_chain()
        orders = [buy(1.0), sell(0.02)]
        octs = [chain.submit_oct(who, o) for who, o in zip(("alice", "bob"), orders)]
        chain.insert_octs("prod", [o.id for o in octs])
        chain.apply_update_tx("prod", 0, 104.0)
        for oct, o in zip(octs, orders):
            chain.reveal_order(oct.id, o)
        to_producer = []
        transfer = chain._transfer

        def recording(src, dst, dx, dy, **kw):
            if (src, dst) == ("alloc:0", "prod"):
                to_producer.append((dx, dy))
            return transfer(src, dst, dx, dy, **kw)

        chain._transfer = recording
        chain.advance_block(104.0, converter="prod")
        # this batch's escrow closes short in both tokens by rounding dust,
        # which its producer pays; nothing burns, and burned never goes negative
        dust_x, dust_y = to_producer[-1]
        assert -1e-12 < dust_x < 0.0 and -1e-12 < dust_y < 0.0
        assert chain.balances[BURNED] == [0.0, 0.0]
        assert chain.conservation_error() < 1e-12

    def test_block_end_checks_the_books(self):
        chain = make_chain()
        chain.balances["alice"][0] += 1e-3  # x from nowhere
        with pytest.raises(InvariantViolation, match="supply drifted"):
            chain.advance_block(100.0)

        chain = make_chain()
        oct = chain.submit_oct("alice", buy(5.0))
        chain.insert_octs("prod", [oct.id])
        chain.apply_update_tx("prod", 0, 100.0)
        chain.advance_block(100.0)  # the batch waits for its reveal
        _, earmark_y = chain.earmark()
        # move pool y below the earmark without changing the supply
        reference_transfer(chain, POOL, "thief", 0.0, chain.balances[POOL][1] - earmark_y / 2)
        with pytest.raises(InvariantViolation, match="earmarks"):
            chain.advance_block(100.0)

    def test_check_books_catches_non_finite_values(self):
        for bad in (float("nan"), float("inf")):
            chain = make_chain()
            chain.balances[POOL][0] = bad
            with pytest.raises(InvariantViolation, match="supply drifted"):
                chain.check_books()

        for bad in (float("nan"), float("inf")):
            chain = make_chain()
            oct = chain.submit_oct("alice", buy(5.0))
            chain.insert_octs("prod", [oct.id])
            chain.apply_update_tx("prod", 0, 100.0)
            chain.check_books()
            chain.open_allocations[0] = chain.open_allocations[0]._replace(escrow=(bad, 0.0))
            with pytest.raises(InvariantViolation, match="earmarks"):
                chain.check_books()

    def test_a_dead_closing_pool_is_an_invariant_break(self):
        chain = make_chain()
        chain.balances[POOL][0] = float("nan")
        with pytest.raises(InvariantViolation):
            chain.advance_block(100.0)
        # supply conserved, but the pool's x drained into another account
        chain = make_chain()
        chain._transfer(POOL, "thief", chain.balances[POOL][0], 0.0)
        with pytest.raises(InvariantViolation, match="pool reserves"):
            chain.advance_block(100.0)

    def test_a_negative_vault_is_an_invariant_break(self):
        chain = make_chain()
        chain._transfer(VAULT, "alice", 0.0, 1e-3)  # supply conserved
        with pytest.raises(InvariantViolation, match="vault"):
            chain.check_books()

    def test_collateral_dust_below_zero_passes(self):
        # block-end collateral reads as low as -1.35e-13 over the builtins
        chain = make_chain()
        chain._transfer(COLLATERAL, "alice", 1e-13, 1e-13)  # supply conserved
        chain.check_books()
        chain.advance_block(100.0)

    def test_overdrawn_collateral_is_an_invariant_break(self, monkeypatch):
        for token, bound in (("x", 10.0), ("y", 0.1)):
            chain = make_chain()
            over = math.nextafter(_NEG_TOL * (bound + 1.0), math.inf)
            chain._transfer_token(COLLATERAL, "alice", token, over)  # supply conserved
            with pytest.raises(InvariantViolation, match="collateral overdrawn"):
                chain.check_books()
            chain._transfer_token("alice", COLLATERAL, token, over - _NEG_TOL * (bound + 1.0))
            chain.check_books()  # exactly at the tolerance
        # a NaN fails the collateral check itself, not only the supply check
        chain = make_chain()
        monkeypatch.setattr(chain, "total_supply", lambda: chain._supply0)
        for i in range(2):
            chain.balances[COLLATERAL] = [0.0, 0.0]
            chain.balances[COLLATERAL][i] = float("nan")
            with pytest.raises(InvariantViolation, match="collateral overdrawn"):
                chain.check_books()

    def test_replay_determinism(self):
        def run():
            chain = make_chain()
            o = buy(5.0)
            oct = chain.submit_oct("alice", o)
            chain.insert_octs("prod", [oct.id])
            chain.apply_update_tx("prod", 0, 102.0)
            chain.reveal_order(oct.id, o)
            block = chain.advance_block(102.0, converter="prod")
            return chain, block

        (c1, b1), (c2, b2) = run(), run()
        assert c1.balances == c2.balances
        assert b1.ndjson() == b2.ndjson()


# One operation of a random protocol history: (kind, a, b, f). Hypothesis favours
# zeros, so a zero parameter makes the well-formed call and a 7 the refused one.
OPS = st.tuples(st.sampled_from(["submit", "submit", "insert", "update", "reveal", "reveal",
                                 "execute", "execute", "advance"]),
                st.integers(0, 7), st.integers(0, 7), st.floats(0.0, 1.25))


class TestStageProperty:
    @settings(max_examples=100, deadline=None)
    @given(window=st.integers(0, 3), ops=st.lists(OPS, min_size=30, max_size=80))
    def test_every_oct_sits_in_one_stage(self, window, ops):
        chain = make_chain(reveal_window=window, balances={
            "alice": (1_000.0, 10.0), "poor": (15.0, 0.0), "prod": (10_000.0, 100.0)})
        octs, bodies, closed = {}, {}, set()

        def close(receipts):
            for er in receipts:
                assert {o.id for o in er.burned} <= set(er.update.oct_ids)
                closed.update(er.update.oct_ids)

        def snapshot():
            return ({p: list(a) for p, a in chain.balances.items()}, dict(chain.mempool),
                    {h: list(v) for h, v in chain.inserted_by_height.items()},
                    dict(chain.allocated), dict(chain.reveals), dict(chain.open_allocations),
                    chain.last_alloc_label, chain.height)

        for kind, a, b, f in ops:
            before = snapshot()
            try:
                if kind == "submit":
                    order = (buy if a % 2 else sell)(f * (10.0 if a % 2 else 0.1) or 1e-6)
                    oct = chain.submit_oct({6: "poor", 7: "nobody"}.get(b, "alice"), order)
                    octs[oct.id] = oct
                    bodies[oct.id] = order
                elif kind == "insert":
                    chain.insert_octs("prod", sorted(chain.mempool)[b:] + [999] * (a == 7))
                elif kind == "update":
                    chain.apply_update_tx("prod", chain.height - a % 3 + (b == 7),
                                          pool_price(chain) * (0.9 + 0.16 * f))
                elif kind == "reveal" and bodies:
                    oct_id = sorted(bodies)[a % len(bodies)]
                    body = bodies[oct_id] if b < 7 else bodies[oct_id]._replace(size=1e-6)
                    chain.reveal_order(oct_id, body)
                elif kind == "execute":
                    labels = sorted(chain.open_allocations) or [0]
                    proposal = pool_price(chain) * (0.9 + 0.16 * f) if b >= 4 else None
                    close([chain.execute_batch(labels[a % len(labels)], proposed_price=proposal)])
                elif kind == "advance":
                    eps = pool_price(chain) * (0.95 + 0.08 * f) if a < 7 else 0.0
                    close(chain.advance_block(eps, converter="prod").executions)
            except (InvalidTransition, FundingError, VerificationError, DomainError):
                # a refused operation moves no balance and no OCT
                assert snapshot() == before

            for oct_id in octs:
                found = stages(chain, oct_id) + (["closed"] if oct_id in closed else [])
                assert len(found) == 1, (oct_id, found)
            held = [sum(o.collateral for i, o in octs.items()
                        if i not in closed and o.collateral_token == token) for token in "xy"]
            assert chain.balances[COLLATERAL] == pytest.approx(held, abs=1e-9)
            assert all(h > chain.last_alloc_label for h in chain.inserted_by_height)
            # an allocated OCT sits in an open batch whose reveal window is open
            for oct_id, oct in chain.allocated.items():
                assert oct == octs[oct_id]
                assert any(oct_id in u.oct_ids and chain.height <= u.height + window
                           for u in chain.open_allocations.values())


# One step of a random lifecycle: (kind, a, b, f). "zed" and "amy" open with a -0.0,
# "poor" cannot fund a collateral, "nobody" holds no account. An order moves the
# pool's price by about 2%, and a limit (b >= 3) lies within 2% of it, so batches
# fill some limits fully, some pro-rata and leave others unfilled.
LIFECYCLE = st.tuples(st.sampled_from(["submit"] * 3 + ["insert", "update", "reveal", "reveal",
                                                         "advance", "advance"]),
                      st.integers(0, 7), st.integers(0, 7), st.floats(0.0, 1.0))


def lifecycle(chain, ops):
    """Drive ``chain`` through ``ops``; return each step's outcome and the ledger after it."""
    bodies, trace = {}, []
    for kind, a, b, f in ops:
        outcome = None
        try:
            if kind == "submit":
                who = ("alice", "zed", "amy", ("poor", "nobody")[a % 2])[a // 2]
                side = OrderSide.SELL_Y if a % 2 else OrderSide.BUY_Y
                limit = None if b < 3 else pool_price(chain) * (0.98 + 0.01 * (b - 3))
                order = Order(side, (1.0 if a % 2 else 100.0) * max(f, 0.01), limit)
                before = repr(chain.balances.get(who))
                try:
                    oct = chain.submit_oct(who, order)
                except FundingError:
                    # a refused submission leaves the payer's balance as it was
                    assert repr(chain.balances.get(who)) == before
                    raise
                bodies[oct.id] = order
            elif kind == "insert":
                chain.insert_octs("prod", sorted(chain.mempool)[b // 2:])
            elif kind == "update":
                # gap 0 rebates beta0 = 0.5, gap 1 rebates nothing
                chain.apply_update_tx("prod", chain.height - b % 2,
                                      pool_price(chain) * (0.99 + 0.02 * f))
            elif kind == "reveal" and chain.allocated:
                oct_id = sorted(chain.allocated)[a % len(chain.allocated)]
                chain.reveal_order(oct_id, bodies[oct_id])
            elif kind == "advance":
                chain.advance_block(pool_price(chain) * (0.99 + 0.02 * f), converter="prod")
        except (InvalidTransition, FundingError, DomainError) as e:
            outcome = repr(e)
        trace.append((kind, outcome, repr(list(chain.balances.items()))))
    return trace


def lifecycle_chain():
    return make_chain(schedule=RebateSchedule(z_max=1, beta0=0.5), max_x=100.0, max_y=1.0,
                      balances={"alice": (5_000.0, 50.0), "zed": (-0.0, 50.0),
                                "amy": (5_000.0, -0.0), "poor": (1.0, 0.0),
                                "prod": (10_000.0, 100.0)})


# A market buy of 150 x against a sell limit 1% above the pool fills it pro-rata, limits
# beyond the price stay unfilled ("amy"'s -0.0 y meets her refund), the last OCT burns
# unrevealed, and four payers are refused; a second batch allocates at gap 1 (beta 0).
COVERING = [("submit", 0, 0, 1.0), ("submit", 0, 0, 0.5), ("submit", 3, 6, 1.0),
            ("submit", 1, 7, 0.5), ("submit", 4, 3, 0.2), ("submit", 5, 0, 0.5),
            ("submit", 2, 0, 0.5), ("submit", 6, 0, 0.5), ("submit", 7, 0, 0.5),
            ("submit", 0, 0, 0.3), ("insert", 0, 0, 0.0), ("update", 0, 0, 0.5)]
COVERING += [("reveal", 0, 0, 0.0)] * 5 + [("advance", 0, 0, 0.5)] * 3
COVERING += [("submit", 0, 0, 0.5), ("submit", 3, 0, 0.5), ("insert", 0, 0, 0.0),
             ("advance", 0, 0, 0.5), ("update", 0, 1, 0.5), ("reveal", 0, 0, 0.0),
             ("reveal", 0, 0, 0.0), ("advance", 0, 0, 0.5)]


class TestLedgerOracle:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(LIFECYCLE, min_size=20, max_size=60))
    @example(ops=COVERING)
    def test_one_token_legs_book_as_the_two_token_transfer(self, ops):
        # the twin guards every one-token leg no escrow pays or receives, a fill's
        # three legs included; the engine, which checks the owner in submit_oct and
        # the collateral at block end, must refuse alike
        reference = lifecycle_chain()
        reference._transfer_token = types.MethodType(reference_guarded_leg, reference)
        reference._book_fill = types.MethodType(reference_book_fill, reference)
        assert lifecycle(lifecycle_chain(), ops) == lifecycle(reference, ops)

    @pytest.mark.parametrize("fills", [
        [(0, 0.0, 0.0), (1, 0.0, 0.0)],  # zero fills: the escrow is never opened
        [(0, 0.0, 0.0), (1, 0.04, 4.0)],  # the first leg through the escrow opens it
        [(0, 10.0, 0.1), (1, 0.1, 10.0)],  # full fills: no collateral rest
        [(1, 5e-324, 0.0), (0, 2.5, 0.025)],  # a fill whose proceeds underflow to 0
    ])
    def test_book_fill_books_as_three_one_token_legs(self, fills):
        # each owner holds -0.0 of the token it buys, and no escrow is open
        opening = {"buyer": (10.0, -0.0), "seller": (-0.0, 0.1)}
        traces = []
        for book_fill in (ChainState._book_fill, reference_book_fill):
            chain, trace = make_chain(balances=opening), []
            octs = [chain.submit_oct("buyer", buy(10.0)), chain.submit_oct("seller", sell(0.1))]
            for k, sold, bought in fills:
                book_fill(chain, "alloc:0", octs[k], sold, bought)
                trace.append(repr(list(chain.balances.items())))
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_one_token_leg_at_the_overdraft_edge(self):
        pairs = [("ghost", "ghost"), ("alice", "bob"), ("alice", "nobody"), ("nobody", "alice"),
                 ("alice", "alice"), ("nobody", "nobody"), ("alice", POOL)]
        cases = [(src, dst, token, sign, over) for src, dst in pairs for token in "xy"
                 for sign in (1.0, -1.0) for over in (-1.0, 0.5, 1.5)]

        def run(chain, transfer_token):
            out = []
            for src, dst, token, sign, over in cases:
                # the payer's whole holding plus `over` times the overdraft tolerance
                payer = src if sign > 0.0 else dst
                held = chain.balances.get(payer, (0.0, 0.0))["xy".index(token)]
                amount = sign * (held + over * 1e-9 * (abs(held) + 1.0))
                transfer_token(chain, src, dst, token, amount)
                out.append(repr(list(chain.balances.items())))
            return out

        opening = {"alice": (1_000.0, -0.0), "bob": (-0.0, 10.0)}
        unguarded = functools.partial(reference_transfer_token, guard=False)
        assert (run(make_chain(balances=opening), ChainState._transfer_token)
                == run(make_chain(balances=opening), unguarded))

    @pytest.mark.parametrize("token", "xy")
    def test_submit_at_the_overdraft_edge(self, token):
        """submit_oct refuses exactly when the guarded collateral leg does, with its error."""
        i, bound = "xy".index(token), 10.0 if token == "x" else 0.1
        # The holding, or the order bound for a holding of 0, where the owner's
        # balance after posting sits exactly at -_NEG_TOL * (bound + 1).
        edge_bound = _NEG_TOL / (1.0 - _NEG_TOL)
        cases = [("some", bound - _NEG_TOL * (bound + 1.0))]
        cases += [(held, edge_bound) for held in ("new", "-0.0", "0.0")]
        for held, edge in cases:
            seen = set()
            for ulps in range(-2, 3):
                v = edge
                for _ in range(abs(ulps)):
                    v = math.nextafter(v, math.copysign(math.inf, ulps))
                if held == "some":
                    b, opening = bound, v
                else:
                    b, opening = v, {"-0.0": -0.0, "0.0": 0.0}.get(held)
                balances = {"alice": (1_000.0, 10.0)}
                if opening is not None:
                    balances["owner"] = tuple(opening if j == i else -0.0 for j in range(2))
                bounds = {"max_x": 10.0, "max_y": 0.1, f"max_{token}": b}
                chain, reference = (make_chain(balances=balances, **bounds) for _ in range(2))
                order = Order(OrderSide.BUY_Y if token == "x" else OrderSide.SELL_Y, b)
                try:
                    chain.submit_oct("owner", order)
                    got = None
                except FundingError as e:
                    got = (repr(e), e.party)
                    assert (chain._next_oct_id, chain.mempool) == (0, {})
                try:
                    reference_transfer_token(reference, "owner", COLLATERAL, token, b)
                    want = None
                except FundingError as e:
                    want = (repr(e), e.party)
                assert got == want, (held, ulps)
                assert repr(list(chain.balances.items())) == repr(list(reference.balances.items()))
                seen.add(got is None)
            assert seen == {True, False}, held  # both sides of the edge were reached


# One token of the producer's opening balance for an update: zero, plenty, or
# the overdraft-tolerance edge of the move leg or of the escrow leg, moved by
# a few ulps (clamped at zero, where the producer pays nothing of that token).
HOLDING = st.tuples(st.sampled_from(["zero", "plenty", "move", "escrow"]), st.integers(-2, 2))


def holding(kind, ulps, flow, escrow):
    """An opening balance for a producer receiving ``flow`` (signed) of one token
    in the move leg, then paying ``escrow`` of it into the batch."""
    if kind == "zero":
        return 0.0
    if kind == "plenty":
        return 1e6
    # Where the balance after the leg sits exactly at -_NEG_TOL * (|amount| + 1).
    if kind == "move":
        edge = -flow - _NEG_TOL * (abs(flow) + 1.0)
    else:
        edge = escrow - flow - _NEG_TOL * (escrow + 1.0)
    for _ in range(abs(ulps)):
        edge = math.nextafter(edge, math.copysign(math.inf, ulps))
    return max(edge, 0.0)


class TestUpdateDryRun:
    @settings(max_examples=300, deadline=None)
    @given(beta0=st.sampled_from([0.0, 0.8]),
           ratio=st.sampled_from([0.9, 0.999, 1.0, 1.001, 1.1]) | st.floats(0.5, 2.0),
           n=st.integers(0, 2), max_y=st.sampled_from([0.1, 1_000.0]),
           holdings=st.none() | st.tuples(HOLDING, HOLDING))
    @example(beta0=0.8, ratio=1.1, n=0, max_y=0.1, holdings=None)
    @example(beta0=0.8, ratio=1.1, n=0, max_y=0.1, holdings=(("move", -1), ("zero", 0)))
    @example(beta0=0.8, ratio=1.1, n=0, max_y=0.1, holdings=(("move", 1), ("zero", 0)))
    @example(beta0=0.0, ratio=0.9, n=0, max_y=0.1, holdings=(("zero", 0), ("move", -1)))
    @example(beta0=0.0, ratio=0.9, n=0, max_y=0.1, holdings=(("zero", 0), ("move", 1)))
    @example(beta0=0.8, ratio=0.9, n=2, max_y=0.1, holdings=(("escrow", -1), ("escrow", 1)))
    @example(beta0=0.8, ratio=1.1, n=2, max_y=0.1, holdings=(("escrow", 1), ("escrow", -1)))
    @example(beta0=0.8, ratio=1.1, n=2, max_y=1_000.0, holdings=(("move", -1), ("zero", 0)))
    @example(beta0=0.8, ratio=1.1, n=2, max_y=1_000.0, holdings=(("plenty", 0), ("plenty", 0)))
    def test_refuses_exactly_as_a_dry_run_of_every_leg(self, beta0, ratio, n, max_y, holdings):
        schedule = RebateSchedule(z_max=1 if beta0 else 0, beta0=beta0)
        price = 100.0 * ratio
        _, flow = apply_rebated_move(Reserves(10_000.0, 100.0), price, beta0)
        escrow = (beta0 * n * max_y * price, beta0 * n * 10.0 / price)
        balances = {"alice": (1_000.0, 10.0)}
        if holdings is not None:  # else the producer holds no account
            balances["prod"] = tuple(holding(kind, ulps, f, e) for (kind, ulps), f, e
                                     in zip(holdings, flow, escrow))
        chain = make_chain(schedule=schedule, max_y=max_y, balances=balances)
        octs = [chain.submit_oct("alice", buy(5.0)) for _ in range(n)]
        chain.insert_octs("prod", [oct.id for oct in octs])
        want = reference_update_refusal(chain, "prod", 0, price)
        state = ledger_and_queues(chain)
        try:
            chain.apply_update_tx("prod", 0, price)
        except FundingError as e:
            got = e
            assert ledger_and_queues(chain) == state
        else:
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.party, str(got)) == (want.party, str(want))
