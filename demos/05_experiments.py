"""
The headline experiments, scaled down
=====================================

Four simulation studies back the protocol's claims. This script runs each
at a fraction of its full workload so it finishes in seconds; the full
versions live in the acceptance tests and behind the CLI (`v0lver lvr`,
`v0lver sweep`, `v0lver equilibrium`, `v0lver run`).
"""
import dataclasses

from v0lver.config import builtin_scenarios
from v0lver.sim import (
    dominance_sweep,
    equilibrium_experiment,
    lvr_experiment,
    user_price_experiment,
)

scn = builtin_scenarios()

# 1. How much of the arbitrage leak do LPs recover? With beta0 = 0.8 at gap
# zero the producer keeps 20%; the realized/full extraction ratio across
# runs should straddle 0.20, far from the no-rebate value 1.0.
out = lvr_experiment(dataclasses.replace(scn["lvr"], blocks=250), seed=11, runs=60)
lo, hi = out["ci95"]
print(f"extraction ratio: mean {out['mean_ratio']:.3f}, "
      f"95% CI [{lo:.3f}, {hi:.3f}]  (expected keep {out['expected_keep']:.2f})")

# 2. Is honest updating optimal? Sweep target-price multipliers (0.90 to
# 1.10) and self-trade fractions; utility peaks at (1.00, 0).
out = dominance_sweep(scn["dominance"], seed=5, trials=3000)
for row in out["rows"]:
    if row["alpha"] == 0.0:
        print(f"  multiplier {row['multiplier']:.2f}: utility {row['utility']:+.4f}")
best = out["best"]
print(f"best grid point: multiplier {best['multiplier']:.2f}, "
      f"alpha {best['alpha']:.2f}")

# 3. Do users trade at fair prices? Pooled relative deviation of user fills
# from their block's external price, across thousands of orders. (Fills in
# one block share a batch price, so read the z statistic loosely at this
# scale; the acceptance run pools five times as many orders.)
out = user_price_experiment(dataclasses.replace(scn["neutrality"], blocks=1000),
                            seed=2)
print(f"user fills: {out['orders']} orders, mean deviation "
      f"{out['mean_deviation']:+.2e} (z = {out['z']:+.2f})")

# 4. Where do competing producers update? With per-block competition the
# only uncontested allocation label is the current block: gap 0.
out = equilibrium_experiment(dataclasses.replace(scn["equilibrium"], blocks=100),
                             seed=3, runs=20)
print(f"update gaps: {out['updates_by_gap']} -> "
      f"{100 * out['frac_gap0']:.1f}% at gap 0")

# And the monopolist counterpoint: an uncontested producer backdates to the
# end of the schedule and pays no rebate at all.
out = equilibrium_experiment(dataclasses.replace(scn["monopolist"], blocks=100),
                             seed=3, runs=20)
print(f"monopolist gaps: {out['updates_by_gap']}")
