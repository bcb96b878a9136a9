"""
Uniform-price batch settlement
==============================

Orders collected for a batch all execute at one price against a frozen pool
snapshot. Market flow has a closed-form clearing price; limit orders turn
the problem into a small regime search where orders whose limit equals the
clearing price may fill pro-rata. A separate verifier checks any proposed
price without trusting the solver.
"""
from v0lver import CONSTANT_PRODUCT as curve
from v0lver import (
    Order,
    OrderSide,
    Reserves,
    clearing_price_with_limits,
    verify_clearing_price,
)

snapshot = Reserves(100.0, 100.0)

# All-market batch: 10 x sold, 5 y sold. Price is (Sx + dx) / (Sy + dy);
# the pool absorbs the imbalance along its level curve.
orders = [Order(OrderSide.BUY_Y, 10.0), Order(OrderSide.SELL_Y, 5.0)]
s = clearing_price_with_limits(curve, snapshot, orders)
print(f"market batch: price {s.price:.6f} (= 110/105)")
print(f"pool delta ({s.pool_delta[0]:+.4f}, {s.pool_delta[1]:+.4f}), "
      f"volume {s.volume_y:.4f} y")
after = Reserves(snapshot.x + s.pool_delta[0], snapshot.y + s.pool_delta[1])
print(f"invariant before {curve.invariant(snapshot):.1f}, after {curve.invariant(after):.6f}")

# Limit orders. A single buyer of y (paying x) with a limit above the
# balance price fills completely:
orders = [Order(OrderSide.BUY_Y, 10.0, limit=1.2)]
s = clearing_price_with_limits(curve, snapshot, orders)
print(f"\nbuy 10 x-worth, limit 1.2: clears at {s.price:.4f}, "
      f"fill {s.fills[0].sold:.1f}/10")

# With a tighter limit the price pins at the limit and the fill is partial:
# the pool's chord at 1.05 only supplies half the order.
orders = [Order(OrderSide.BUY_Y, 10.0, limit=1.05)]
s = clearing_price_with_limits(curve, snapshot, orders)
print(f"buy 10 x-worth, limit 1.05: clears at {s.price:.4f}, "
      f"fill {s.fills[0].sold:.1f}/10 (pro-rata against the chord)")

# Two marginal orders at the same limit share the chord in proportion to
# their sizes:
orders = [
    Order(OrderSide.BUY_Y, 6.0, limit=1.05),
    Order(OrderSide.BUY_Y, 4.0, limit=1.05),
]
s = clearing_price_with_limits(curve, snapshot, orders)
print("two buys 6+4 at limit 1.05:",
      ", ".join(f"sold {f.sold:.1f}" for f in s.fills))

# Crossed limits trade through each other without touching the pool:
orders = [
    Order(OrderSide.BUY_Y, 10.5, limit=1.0),
    Order(OrderSide.SELL_Y, 10.0, limit=1.0),
]
s = clearing_price_with_limits(curve, snapshot, orders)
print(f"crossed batch: price {s.price:.1f}, pool delta {s.pool_delta}, "
      f"volume {s.volume_y:.1f} y")

# Verification: the engine never trusts a proposed price. Feasible and
# volume-maximizing passes and the verifier returns the settlement it
# checked, which the engine then books; anything else is rejected.
orders = [Order(OrderSide.BUY_Y, 10.0, limit=1.2)]
for p in (1.1, 1.2, 1.05, 0.9):
    checked = verify_clearing_price(curve, snapshot, orders, p)
    verdict = "rejected" if checked is None else f"accepted, volume {checked.volume_y:.4f} y"
    print(f"proposed price {p:4.2f}: {verdict}")
