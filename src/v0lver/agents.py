"""Stochastic drivers and agent behavior: price process, user flow, producer.

Every function takes an explicit numpy Generator; the simulation hands each
agent its own named stream so runs are reproducible and adding draws to one
agent never perturbs another. These are the simulation's internal helpers,
not package exports: ``sim`` alone calls them, with values from a validated
scenario, so they check nothing on entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import Order, OrderSide
from .cfmm import Reserves, check_live, max_lvr
from .config import FlowModel, ProducerModel
from .errors import DomainError
from .rebate import RebateSchedule, apply_rebated_move


@dataclass(slots=True)
class PriceProcess:
    """Log-normal multiplicative walk, a martingale."""

    eps: float
    sigma: float

    def step(self, rng: np.random.Generator) -> float:
        z = rng.standard_normal()
        try:
            self.eps *= math.exp(-0.5 * self.sigma**2 + self.sigma * z)
        except OverflowError:
            self.eps = math.inf
        if not 0.0 < self.eps < math.inf:
            raise DomainError(f"price walk left the float range at {self.eps!r}: "
                              f"price.sigma {self.sigma!r} is too extreme")
        return self.eps


def gen_user_orders(
    rng: np.random.Generator,
    flow: FlowModel,
    eps: float,
    max_x: float,
    max_y: float,
) -> list[Order]:
    """Draw one block of user orders at external price ``eps``.

    Sides are value-symmetric: each order first draws a value in x units,
    then sells x (size = value) or y (size = value / eps) with equal
    probability, so the expected signed value imbalance is zero. Per order the
    uniforms come in the order side, value, limit coin (when ``limit_prob > 0``
    and the value is > 0) and limit offset (when the coin is below
    ``limit_prob``); a block draws them in one call, with the generator's end
    state exactly that of the one-at-a-time loop.
    """
    if flow.arrival <= 0:
        return []
    n = int(rng.poisson(flow.arrival))
    cap = flow.value_frac * min(max_x, max_y * eps)
    p, width = flow.limit_prob, flow.limit_width
    state = rng.bit_generator.state if p > 0 else None
    u = rng.random((4 if p > 0 else 2) * n).tolist()  # an order draws at most 4
    orders, j = [], 0
    append, new, inf = orders.append, tuple.__new__, math.inf
    buy, sell = OrderSide.BUY_Y, OrderSide.SELL_Y
    for _ in range(n):
        sells_x, value = u[j] < 0.5, cap * u[j + 1]
        j += 2
        if value <= 0.0:
            continue
        limit = None
        if p > 0:
            j += 1
            if u[j - 1] < p:
                # numpy's uniform(-1, 1) is -1 + 2 * u; 2 * u is exact, so even fused adds agree.
                limit = eps * (1.0 + width * (-1.0 + 2.0 * u[j]))
                j += 1
        side, size = (buy, value) if sells_x else (sell, value / eps)
        # ``Order.__new__``'s test of a float size and limit, then its body.
        if not (0.0 < size < inf and (limit is None or 0.0 < limit < inf)):
            raise _unorderable(flow, eps, max_y, value, size, limit)
        append(new(Order, (side, size, limit)))
    if state is not None:  # rewind, then draw exactly the j values the orders used
        rng.bit_generator.state = state
        rng.random(j)
    return orders


def _unorderable(flow: FlowModel, eps: float, max_y: float, value: float, size: float,
                 limit: float | None) -> DomainError:
    """The error for a drawn order that ``Order`` refuses, naming the scenario field behind it."""
    if size == 0.0:  # value / eps underflowed
        return DomainError(f"flow.value_frac {flow.value_frac!r} is too small: an order "
                           f"worth {value!r} x has no size in y at price {eps!r}")
    if size == math.inf:  # value / eps overflowed
        return DomainError(f"bounds.max_y {max_y!r} is too large: an order worth {value!r} x has "
                           f"no finite size in y at price {eps!r}")
    return DomainError(f"flow.limit_width {flow.limit_width!r} is too wide at price {eps!r}: "
                       f"an order limit of {limit!r} is not finite and > 0")


def producer_utility(
    reserves: Reserves,
    eps: float,
    schedule: RebateSchedule,
    max_x: float,
    max_y: float,
    multiplier: float,
    alpha: float,
    flow_dx: np.ndarray,
    flow_dy: np.ndarray,
) -> float:
    """Expected per-block producer payoff for one strategy grid point, at ``eps``.

    The producer updates at gap zero to ``multiplier * eps`` and optionally
    self-trades ``alpha`` of the per-order bound in its own batch (selling y
    when the target is above the external price, buying otherwise). In trial
    ``i`` the users sell ``flow_dx[i]`` x and ``flow_dy[i]`` y in market
    orders, and that batch plus the own order clears against the snapshot the
    engine books at ``clearing_price_with_limits``'s all-market closed form
    ``(R_x + x_in) / (R_y + y_in)``; limit orders have no closed form here. The
    payoff sums the exact move leg, the own order's fill and the escrow leg
    ``beta * (dx + dy * eps)``, the producer's share of the batch's pool delta;
    callers share the flow across grid points so comparisons are paired. Fixed
    update costs are omitted: they are constant across the grid.
    """
    beta = schedule.value_at(0)
    (vx, vy), (fx, fy) = apply_rebated_move(reserves, multiplier * eps, beta)
    sx, sy = reserves.x - fx - vx, reserves.y - fy - vy
    check_live(Reserves(sx, sy), "pool reserves")  # as the engine's update requires
    own_x, own_y = (0.0, alpha * max_y) if multiplier >= 1.0 else (alpha * max_x, 0.0)
    x_in, y_in = flow_dx + own_x, flow_dy + own_y
    p_e = (sx + x_in) / (sy + y_in)
    own = own_y * (p_e - eps) + own_x * (eps / p_e - 1.0)
    escrow = beta * ((x_in - y_in * p_e) + (y_in - x_in / p_e) * eps)
    return fx + fy * eps + float(np.mean(own + escrow))


def decide_update(
    producer: ProducerModel,
    schedule: RebateSchedule,
    reserves: Reserves,
    height: int,
    last_label: int,
    eps: float,
) -> tuple[int, float] | None:
    """Producer's update decision: ``(allocation_height, eps)`` or None.

    The producer is honest: an update always moves the pool to the external
    price ``eps``, and the policy picks only when, and at which label.
    ``always`` updates every block at gap zero. ``best_response`` models a
    producer facing per-block competition: any backdated allocation height
    would already have been claimed by a rival, so the only uncontested
    label is the current block, and it is taken whenever the kept fraction
    of the full arbitrage value covers the update cost. ``threshold`` is the
    uncontested monopolist: it backdates as far as the schedule rewards and
    only moves once the kept fraction reaches ``min_keep`` (at 1.0, it waits
    out the rebate entirely and updates at the schedule horizon).
    """
    if producer.update_policy == "never":
        return None
    if producer.update_policy == "always":
        return height, eps
    if producer.update_policy == "best_response":
        label = height
    else:
        label = max(last_label + 1, height - schedule.z_max)
    keep = 1.0 - schedule.value_at(height - label)
    if producer.update_policy == "threshold" and keep < producer.min_keep:
        return None
    full, value = max_lvr(reserves, eps)
    check_live(full, "pool reserves")  # a target whose reserves overflow cannot be reached
    if keep * value < producer.update_cost:
        return None
    return label, eps
