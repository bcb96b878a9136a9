"""
Constant-product pool mechanics
===============================

The pool holds reserves (x, y) and quotes the marginal price p = x / y.
Trades move the reserves along the level curve x * y = k. This script walks
the three primitives everything else is built from: repricing the pool,
trading along the chord, and valuing the arbitrage left on the table when
the pool's price lags the outside market.
"""
import numpy as np

from v0lver import CONSTANT_PRODUCT as curve
from v0lver import Reserves
from v0lver.cfmm import max_lvr

r = Reserves(10_000.0, 100.0)
k = curve.invariant(r)
print(f"reserves x={r.x:.1f} y={r.y:.1f}  price={curve.price(r):.2f}  k={k:.0f}")

# Where do the reserves sit if the price moves to 110.25? The closed form
# (sqrt(k*p), sqrt(k/p)) keeps the product constant.
target = curve.reserves_at_price(k, 110.25)
print(f"at price 110.25: x={target.x:.2f} y={target.y:.4f} "
      f"(k={curve.invariant(target):.0f})")

# The chord is the pool's supply in a batch auction: the unique block trade
# at uniform price p that keeps the reserves on the same level curve.
# Positive means the pool sells that much y at p, negative it absorbs y.
q = curve.chord_y(r, 110.25)
after = Reserves(r.x + q * 110.25, r.y - q)
print(f"chord at uniform price 110.25: pool sells {q:.4f} y for "
      f"{q * 110.25:.2f} x (k stays {curve.invariant(after):.0f})")

# Suppose the outside market prices y at eps = 104 while the pool still
# quotes 100. An arbitrageur can buy y cheap from the pool and sell it
# outside. The maximal extraction and the reserve point it leaves behind:
eps = 104.0
best, value = max_lvr(r, eps)
print(f"\nexternal price {eps}: optimal move leaves x={best.x:.2f} y={best.y:.4f}")
print(f"extractable value: {value:.4f} (in x units, marked at eps)")

# Any other stopping point on the curve extracts less. The mover supplies
# the reserve differences and keeps their mirror image, marked at eps.
# Sample a few:
for p in (101.0, 102.0, 104.0, 106.0, 110.0):
    alt = curve.reserves_at_price(k, p)
    value_at_p = (r.x - alt.x) + (r.y - alt.y) * eps
    print(f"  stop at pool price {p:6.1f}: value {value_at_p:8.4f}")

# The value scales linearly with pool size -- double the reserves, double
# the leak. This is why the per-block leak matters for LPs.
double = Reserves(2 * r.x, 2 * r.y)
_, v2 = max_lvr(double, eps)
print(f"\ndoubled pool: extractable value {v2:.4f} = 2 x {value:.4f}")

# Over a volatile day the leak accumulates: simulate price factors and sum
# the per-block extraction a perfectly armed arbitrageur would take.
rng = np.random.default_rng(0)
eps_path = 100.0 * np.cumprod(np.exp(-0.5 * 0.02**2 + 0.02 * rng.standard_normal(100)))
pool = Reserves(10_000.0, 100.0)
total = 0.0
for e in eps_path:
    step_target, step_value = max_lvr(pool, float(e))
    total += step_value
    pool = step_target
print(f"\n100 blocks at sigma=2%: cumulative extraction {total:.2f} x "
      f"({100 * total / 20_000:.3f}% of the pool's initial value)")
