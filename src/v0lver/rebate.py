"""LVR-rebate price moves and vault re-entry.

When a block producer moves the pool price, only a fraction ``1 - beta`` of
the full reserve swap goes through the producer; the pool then sheds enough
of its rich-side token into a side vault to land the price exactly on the
producer's target. The producer's arbitrage take is therefore capped at
``(1 - beta)`` of the full LVR opportunity, with equality when the target is
the external market price.

The vault, an account in the engine's ledger, periodically re-enters the
pool: the imbalance is converted at the external price (an idealized
arbitrageur takes the other side) and the proceeds are deposited in a
price-preserving ratio, so the pool constant weakly increases at every
re-entry.

The move and the re-entry are internal and check nothing: the engine and the
agents pass them values checked where those entered the package. Each returns
its two legs as a plain pair, which the engine books and records as they are.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cfmm import CONSTANT_PRODUCT, Reserves, check_int, check_price
from .errors import DomainError


@dataclass(frozen=True, slots=True)
class RebateSchedule:
    """Rebate fraction as a function of the update gap ``z = H - H_a``.

    The schedule is linear: ``beta(z) = beta0 * (1 - z / z_max)`` for
    ``z < z_max`` and zero from ``z_max`` on. ``z_max = 0`` disables rebates
    entirely (``beta == 0`` everywhere), which reduces the protocol to a
    plain CFMM. It is also the scenario's ``rebate`` section, defaults included.
    """

    z_max: int = 4
    beta0: float = 0.8

    def __post_init__(self):
        z_max, beta0 = check_int(self.z_max, "z_max"), check_price(self.beta0, "beta0", True)
        if not beta0 < 1.0:
            raise DomainError(f"beta0 must lie in [0, 1), got {self.beta0!r}")
        if z_max > 0 and beta0 == 0.0:
            raise DomainError("beta0 must be > 0 when z_max > 0 (schedule must decrease)")
        if z_max == 0 and beta0 != 0.0:
            raise DomainError("beta0 must be 0 when z_max is 0")
        # Plain Python numbers, which JSON encodes; a plain int beta0 keeps its type.
        object.__setattr__(self, "z_max", z_max)
        if type(self.beta0) is not int:
            object.__setattr__(self, "beta0", beta0)

    def value_at(self, gap: int) -> float:
        gap = check_int(gap, "gap")
        if gap >= self.z_max:
            return 0.0
        return self.beta0 * (1.0 - gap / self.z_max)


def apply_rebated_move(
    reserves: Reserves, target_price, rebate: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Move the pool price to ``target_price`` paying rebate fraction ``rebate``.

    Returns ``(vault_deposit, producer_flow)``, the two legs the pool pays out,
    so the moved pool is ``reserves - producer_flow - vault_deposit``. The
    producer trades ``(1 - rebate)`` of the full reserve swap that would land
    the pool on ``target_price`` (its flow is signed: positive received); the
    vault takes the non-negative rest of the rich side that puts the moved pool
    at exactly ``target_price``. The pool constant weakly drops (strictly,
    whenever the move is real and ``rebate > 0``).
    Unchecked: ``reserves`` is a live pool, ``target_price`` a float price > 0
    and ``rebate`` a float in [0, 1), as the callers' checks leave them.
    """
    p0 = CONSTANT_PRODUCT.price(reserves)
    if target_price == p0:
        return (0.0, 0.0), (0.0, 0.0)
    full = CONSTANT_PRODUCT.reserves_at_price(CONSTANT_PRODUCT.invariant(reserves), target_price)
    dx = full.x - reserves.x
    dy = full.y - reserves.y
    keep = 1.0 - rebate
    mid_x = reserves.x + keep * dx
    mid_y = reserves.y + keep * dy
    if rebate == 0.0:
        deposit = (0.0, 0.0)
    elif target_price > p0:
        # Price rose: the partial move undershoots, y is the rich side.
        # The shed amount is mathematically non-negative; the max() guards
        # against one-ulp roundoff when the rebate is vanishingly small.
        deposit = (0.0, max(0.0, mid_y - CONSTANT_PRODUCT.y_matching_price(target_price, mid_x)))
    else:
        deposit = (max(0.0, mid_x - CONSTANT_PRODUCT.x_matching_price(target_price, mid_y)), 0.0)
    return deposit, (-keep * dx, -keep * dy)


def vault_reenter(
    vault: tuple[float, float], eps: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Convert the vault at ``eps`` and deposit it in an ``eps``-ratio split.

    Returns ``(added, converter_flow)``: ``added`` is what lands in the pool,
    ``converter_flow`` what the agent performing the conversion receives
    (signed, value zero at ``eps``). The vault's total value ``v`` (at
    ``eps``) is split into equal-value halves ``(v/2, v/(2*eps))``, the split
    of a price-preserving deposit for a pool sitting at price ``eps``, so the
    pool constant weakly increases. Unchecked: ``vault`` is the ``(x, y)``
    holding to fold in, two floats finite and >= 0, and ``eps`` a float price
    > 0; callers drain the vault when they route the token movements.
    """
    vx, vy = vault
    v = vx + vy * eps
    if v == 0.0:
        return (0.0, 0.0), (0.0, 0.0)
    add_x = v / 2.0
    add_y = v / (2.0 * eps)
    return (add_x, add_y), (vx - add_x, vy - add_y)
