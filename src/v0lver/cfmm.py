"""Constant-function market-maker primitives.

A pool holds reserves ``(x, y)`` of two tokens and quotes the marginal price
of token y in units of token x. For the constant-product family the price is
``x / y`` and the feasible set is the level curve ``x * y = k``. The package
has one curve, the module constant ``CONSTANT_PRODUCT``; the rebate math, the
producer's policy and the engine read its formulas there rather than take a
curve argument. ``max_lvr`` gives the reserve target an arbitrageur with
frictionless access to the external market would pick, the point whose pool
price equals the external price, and the value ``(x - x_t) + (y - y_t) * eps``
of moving the pool there, marked at the external price.

All quantities are plain floats; token amounts are assumed divisible. Values
are checked where they enter the package, not each time one is computed: the
exports check their arguments by the ``check_*`` rules here, and internal
steps such as ``max_lvr`` do not. What each export refuses and accepts is the
table in ``tests/test_boundary.py``.
"""
from __future__ import annotations

import math
from numbers import Integral, Real
from typing import NamedTuple

from .errors import DomainError


def check_price(value, what="price", or_zero=False) -> float:
    """``value`` as a float; DomainError naming ``what`` unless a real number (no bool, no
    text), finite and > 0 (>= 0 with or_zero)."""
    if type(value) is float:
        v = value
    elif isinstance(value, Real) and not isinstance(value, bool):  # numpy's bool is no Real
        try:
            v = float(value)
        except OverflowError:  # an int or Fraction past the float range
            v = math.inf
    else:
        v = math.nan
    if not (0.0 < v < math.inf or or_zero and v == 0.0):
        raise DomainError(f"{what} must be finite and {'>=' if or_zero else '>'} 0, got {value!r}")
    return v


def check_int(value, what, low=0) -> int:
    """``value`` as an int; DomainError naming ``what`` unless an integer (no bool) >= ``low``."""
    if type(value) is int and value >= low:  # the plain-int fast path
        return value
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise DomainError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


class Reserves(NamedTuple):
    """Token reserves ``(x, y)``; a live pool has both, and its price, finite and > 0."""

    x: float
    y: float


def check_live(r, what) -> Reserves:
    """``r`` with float parts; DomainError naming ``what`` unless ``Reserves`` whose x and y
    pass ``check_price`` and whose price x / y is finite and > 0."""
    x, y = r if isinstance(r, Reserves) else (math.nan, math.nan)
    if type(x) is not float or type(y) is not float:
        x, y = r = Reserves(check_price(x, what), check_price(y, what))
    if not (0.0 < x < math.inf and 0.0 < y < math.inf and 0.0 < x / y < math.inf):
        raise DomainError(f"{what} must be live Reserves (finite and > 0), got {r!r}")
    return r


def check_pair(value, what, or_zero=False) -> list[float]:
    """``[x, y]`` from a tuple or list of two numbers each passing ``check_price``."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2):
        raise DomainError(f"{what} must be a pair (x, y), got {value!r}")
    return [check_price(v, what, or_zero) for v in value]


class ConstantProduct:
    """The Uniswap-V2 style curve ``f(x, y) = x * y``.

    Its optimal arbitrage target is the reserve point whose pool price
    equals the external price; ``max_lvr`` relies on that.
    """

    def invariant(self, r: Reserves) -> float:
        return r.x * r.y

    def price(self, r: Reserves) -> float:
        return r.x / r.y

    def reserves_at_price(self, k: float, p: float) -> Reserves:
        """The unique point on level curve ``k`` > 0 with pool price ``p`` > 0."""
        return tuple.__new__(Reserves, (math.sqrt(k * p), math.sqrt(k / p)))

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


CONSTANT_PRODUCT = ConstantProduct()


def max_lvr(r: Reserves, eps: float) -> tuple[Reserves, float]:
    """Optimal arbitrage target against external price ``eps`` and its value.

    Unchecked: ``r`` is a live pool and ``eps`` a float price > 0, as the
    callers' checks leave them. Returns ``(target_reserves, value)`` where
    ``value >= 0`` and is zero exactly when the pool already prices at ``eps``.
    """
    if CONSTANT_PRODUCT.price(r) == eps:
        return r, 0.0
    target = CONSTANT_PRODUCT.reserves_at_price(CONSTANT_PRODUCT.invariant(r), eps)
    value = (r.x - target.x) + (r.y - target.y) * eps
    # The optimum is mathematically >= 0; drop float dust for near-at-price pools.
    return target, max(0.0, value)
