"""
Rebated price updates and the vault
===================================

A block producer who moves the pool price to the external price captures
the whole arbitrage value. The rebate schedule claws a fraction beta back
for the pool: the producer only executes (1 - beta) of the full swap, and
the pool sheds its leftover rich-side tokens into a vault, landing exactly
on the target price. Later the vault is converted back into pool liquidity
at the then-current price. Net effect: the producer keeps (1 - beta) of the
arbitrage, the pool recovers the rest.
"""
from v0lver import CONSTANT_PRODUCT as curve
from v0lver import (
    RebateSchedule,
    Reserves,
    apply_rebated_move,
    max_lvr,
    vault_reenter,
)

# The schedule pays beta0 at gap zero and fades linearly to zero at z_max.
# The gap z = H - H_a is how far back the update's allocation label sits.
schedule = RebateSchedule(z_max=4, beta0=0.8)
print("gap ->", [round(schedule.value_at(g), 2) for g in range(5)])

# A small worked example that lands on round figures: reserves (100, 100),
# external price 4, rebate 50%.
r = Reserves(100.0, 100.0)
eps = 4.0
move = apply_rebated_move(curve, r, eps, rebate=0.5)
print(f"\nfull swap would land on ({move.full_target.x:.1f}, {move.full_target.y:.1f})")
print(f"half swap lands the pool on ({move.new_reserves.x:.1f}, "
      f"{move.new_reserves.y:.1f}) at price "
      f"{curve.price(move.new_reserves):.1f}")
print(f"vault receives {move.vault_deposit}")
fx, fy = move.producer_flow
print(f"producer flow: {fx:+.1f} x, {fy:+.1f} y "
      f"-> payoff at eps: {move.producer_payoff_at(eps):.1f}")

# Compare with the unrebated arbitrage value: the producer kept exactly
# (1 - beta) of it.
_, full_value = max_lvr(curve, r, eps)
print(f"full arbitrage value {full_value:.1f}; kept fraction "
      f"{move.producer_payoff_at(eps) / full_value:.2f}")

# Value accounting at eps: the pool plus vault together hold what the full
# swap would have left the pool, plus the clawed-back beta * L. Nothing
# vanished.
vx, vy = move.vault_deposit
pool_v = move.new_reserves.x + move.new_reserves.y * eps
full_v = move.full_target.x + move.full_target.y * eps
print(f"pool {pool_v:.1f} + vault {vx + vy * eps:.1f} = "
      f"full-swap pool {full_v:.1f} + beta*L {0.5 * full_value:.1f}")

# Re-entry: fold the vault back in as a price-preserving deposit. The
# converting agent swaps the vault basket for the (v/2, v/2eps) shape; the
# swap happens at eps, so the converter breaks even.
re = vault_reenter(curve, move.new_reserves, move.vault_deposit, eps)
print(f"\nre-entry adds {re.added} to the pool")
print(f"pool after: ({re.new_reserves.x:.2f}, {re.new_reserves.y:.2f}), "
      f"price {curve.price(re.new_reserves):.1f}, "
      f"k {curve.invariant(re.new_reserves):.0f} (was {curve.invariant(r):.0f})")
cx, cy = re.converter_flow
print(f"converter flow ({cx:+.2f}, {cy:+.2f}) is worth {cx + cy * eps:+.2f} at eps")

# The pool's constant ends higher than it started whenever beta > 0: the
# rebate is a real transfer from the arbitrageur back to the LPs.
for beta in (0.0, 0.2, 0.5, 0.8):
    m = apply_rebated_move(curve, r, eps, beta)
    k_end = curve.invariant(vault_reenter(curve, m.new_reserves, m.vault_deposit, eps).new_reserves)
    print(f"beta {beta:.1f}: k after move + re-entry = {k_end:10.1f}")
