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
from v0lver import RebateSchedule, Reserves
from v0lver.cfmm import max_lvr
from v0lver.rebate import apply_rebated_move, vault_reenter

# The schedule pays beta0 at gap zero and fades linearly to zero at z_max.
# The gap z = H - H_a is how far back the update's allocation label sits.
schedule = RebateSchedule(z_max=4, beta0=0.8)
print("gap ->", [round(schedule.value_at(g), 2) for g in range(5)])

# A small worked example that lands on round figures: reserves (100, 100),
# external price 4, rebate 50%.
r = Reserves(100.0, 100.0)
eps = 4.0
full = curve.reserves_at_price(curve.invariant(r), eps)
print(f"\nfull swap would land on ({full.x:.1f}, {full.y:.1f})")
# The move returns the two legs the pool pays out: the vault deposit and the
# producer's flow. The pool the engine books is what is left.
deposit, (fx, fy) = apply_rebated_move(r, eps, rebate=0.5)
vx, vy = deposit
pool = Reserves(r.x - fx - vx, r.y - fy - vy)
print(f"half swap lands the pool on ({pool.x:.1f}, {pool.y:.1f}) at price "
      f"{curve.price(pool):.1f}")
print(f"vault receives {deposit}")
payoff = fx + fy * eps  # the producer's flow marked at the external price
print(f"producer flow: {fx:+.1f} x, {fy:+.1f} y -> payoff at eps: {payoff:.1f}")

# Compare with the unrebated arbitrage value: the producer kept exactly
# (1 - beta) of it.
_, full_value = max_lvr(r, eps)
print(f"full arbitrage value {full_value:.1f}; kept fraction "
      f"{payoff / full_value:.2f}")

# Value accounting at eps: the pool plus vault together hold what the full
# swap would have left the pool, plus the clawed-back beta * L. Nothing
# vanished.
pool_v = pool.x + pool.y * eps
full_v = full.x + full.y * eps
print(f"pool {pool_v:.1f} + vault {vx + vy * eps:.1f} = "
      f"full-swap pool {full_v:.1f} + beta*L {0.5 * full_value:.1f}")

# Re-entry: fold the vault back in as a price-preserving deposit. The
# converting agent swaps the vault basket for the (v/2, v/2eps) shape; the
# swap happens at eps, so the converter breaks even.
(ax, ay), (cx, cy) = vault_reenter(deposit, eps)
after = Reserves(pool.x + ax, pool.y + ay)
print(f"\nre-entry adds {(ax, ay)} to the pool")
print(f"pool after: ({after.x:.2f}, {after.y:.2f}), price {curve.price(after):.1f}, "
      f"k {curve.invariant(after):.0f} (was {curve.invariant(r):.0f})")
print(f"converter flow ({cx:+.2f}, {cy:+.2f}) is worth {cx + cy * eps:+.2f} at eps")

# The pool's constant ends higher than it started whenever beta > 0: the
# rebate is a real transfer from the arbitrageur back to the LPs.
for beta in (0.0, 0.2, 0.5, 0.8):
    (vx, vy), (fx, fy) = apply_rebated_move(r, eps, beta)
    (ax, ay), _ = vault_reenter((vx, vy), eps)
    k_end = curve.invariant(Reserves(r.x - fx - vx + ax, r.y - fy - vy + ay))
    print(f"beta {beta:.1f}: k after move + re-entry = {k_end:10.1f}")
