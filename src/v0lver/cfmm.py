"""Constant-function market-maker primitives.

A pool holds reserves ``(x, y)`` of two tokens and quotes the marginal price
of token y in units of token x. For the constant-product family the price is
``x / y`` and the feasible set is the level curve ``x * y = k``. This module
provides the curve abstraction plus the two arbitrage quantities everything
else is built on:

* ``lvr_value`` — the value extracted from a pool by moving its reserves
  between two points on the same level curve, marked at an external price;
* ``max_lvr`` — the reserve target an arbitrageur with frictionless access
  to the external market would pick, and the value of doing so. For the
  constant-product curve the optimal target is the point whose pool price
  equals the external price.

All quantities are plain floats; token amounts are assumed divisible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Relative tolerance for "the pool price matches the requested price".
PRICE_MATCH_RTOL = 1e-9


class Price(float):
    """A marginal price (token x per token y). Finite and strictly positive.

    Degenerate values are rejected at construction so downstream math never
    has to guard against zero/negative/NaN prices.
    """

    __slots__ = ()

    def __new__(cls, value) -> "Price":
        v = float(value)
        if not math.isfinite(v) or v <= 0.0:
            raise DomainError(f"price must be finite and > 0, got {value!r}")
        return super().__new__(cls, v)


@dataclass(frozen=True, slots=True)
class Reserves:
    """Token reserves of a live pool. Both components strictly positive."""

    x: float
    y: float

    def __post_init__(self):
        x, y = float(self.x), float(self.y)
        if not (math.isfinite(x) and math.isfinite(y)) or x <= 0.0 or y <= 0.0:
            raise DomainError(f"reserves must be finite and > 0, got ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class ConstantProduct:
    """The Uniswap-V2 style curve ``f(x, y) = x * y``.

    ``max_lvr_at_external_price`` marks the subclass of curves for which the
    optimal arbitrage target is exactly the reserve point whose pool price
    equals the external price; the closed forms below rely on it.
    """

    kind = "constant_product"
    max_lvr_at_external_price = True

    def invariant(self, r: Reserves) -> float:
        return r.x * r.y

    def price(self, r: Reserves) -> Price:
        return Price(r.x / r.y)

    def reserves_at_price(self, k: float, p: float) -> Reserves:
        """The unique point on level curve ``k`` with pool price ``p``."""
        if not (math.isfinite(k) and k > 0.0):
            raise DomainError(f"invariant level must be finite and > 0, got {k!r}")
        p = Price(p)
        return Reserves(math.sqrt(k * p), math.sqrt(k / p))

    def y_given_x(self, k: float, x: float) -> float:
        """Solve ``f(x, y) = k`` for y."""
        return k / x

    def x_given_y(self, k: float, y: float) -> float:
        return k / y

    def x_matching_price(self, p: float, y: float) -> float:
        """The x reserve that puts a pool with y reserve ``y`` at price ``p``."""
        return p * y

    def y_matching_price(self, p: float, x: float) -> float:
        return x / p

    def chord_y(self, r: Reserves, p: float) -> float:
        """Net y the pool pays out when trading at a uniform price ``p``.

        Trading the full amount ``q = y - x/p`` at price ``p`` is the unique
        non-trivial trade that returns the reserves to the same level curve;
        positive means the pool sells y, negative means it buys y.
        """
        return r.y - r.x / p

    def __repr__(self):
        return f"{type(self).__name__}()"


CONSTANT_PRODUCT = ConstantProduct()

#: Registry used by scenario configuration. v1 supports one curve family.
CURVES = {ConstantProduct.kind: CONSTANT_PRODUCT}


def check_same_curve(curve, before: Reserves, after: Reserves, rtol: float = PRICE_MATCH_RTOL):
    """Raise unless both reserve points sit on the same level curve."""
    kb, ka = curve.invariant(before), curve.invariant(after)
    if abs(ka - kb) > rtol * max(abs(kb), abs(ka)):
        raise DomainError(
            f"reserve points lie on different invariant levels ({kb!r} vs {ka!r})"
        )


def lvr_value(before: Reserves, after: Reserves, eps: float, curve=CONSTANT_PRODUCT) -> float:
    """Value extracted by moving the pool from ``before`` to ``after``.

    The mover supplies the reserve differences and keeps their mirror image,
    marked at the external price ``eps``:

        (x_before - x_after) + (y_before - y_after) * eps

    Both points must lie on the same level curve of ``curve`` (checked to a
    tolerance); the sign is positive when the move profits the mover.
    """
    eps = Price(eps)
    check_same_curve(curve, before, after)
    return (before.x - after.x) + (before.y - after.y) * eps


def max_lvr(curve, r: Reserves, eps: float) -> tuple[Reserves, float]:
    """Optimal arbitrage target against external price ``eps`` and its value.

    Returns ``(target_reserves, value)`` where ``value >= 0`` and is zero
    exactly when the pool already prices at ``eps``. Only curves whose
    optimum lands on the external price are supported in closed form.
    """
    eps = Price(eps)
    if not getattr(curve, "max_lvr_at_external_price", False):
        raise DomainError(f"no closed-form max-LVR target for curve {curve!r}")
    p0 = curve.price(r)
    if p0 == eps:
        return r, 0.0
    target = curve.reserves_at_price(curve.invariant(r), eps)
    value = (r.x - target.x) + (r.y - target.y) * eps
    # The optimum is mathematically >= 0; drop float dust for near-at-price pools.
    return target, max(0.0, value)
