"""Quantum-state and moment-order types with their validity domains.

A bound state of the D-dimensional hydrogenic system is labeled by
(D, n, l, Z).  All downstream formulas depend only on the derived symbols
eta = n + (D-3)/2, L = l + (D-3)/2, nu = L + 1 and k = n - l - 1, which are
kept as exact rationals so half-integer cases (even D) stay exact.  The
integer kernels take 2 nu and 2 eta, which are integers for every D.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real

from .errors import (
    DimensionTooSmall,
    NonpositiveCharge,
    OrderOutOfDomain,
    ParameterOutOfRange,
    QuantumNumberOutOfRange,
    UnsupportedArgument,
)
from .specfun import as_fraction


_DOUBLE_MAX = sys.float_info.max


class Space(enum.Enum):
    POSITION = "r"
    MOMENTUM = "p"


@dataclass(frozen=True)
class HydrogenicState:
    D: int
    n: int
    l: int
    Z: float

    def __post_init__(self):
        for name in ("D", "n", "l"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise UnsupportedArgument(f"{name} must be an int, got {value!r}")
            object.__setattr__(self, name, int(value))
        if isinstance(self.Z, bool) or not isinstance(self.Z, (int, float, Fraction)):
            raise UnsupportedArgument(f"Z must be an int, float or Fraction, got {self.Z!r}")
        if self.D < 2:
            raise DimensionTooSmall(f"D must be >= 2, got {self.D}")
        if self.n < 1 or self.l < 0 or self.l >= self.n:
            raise QuantumNumberOutOfRange(
                f"need n >= 1 and 0 <= l <= n-1, got n={self.n}, l={self.l}"
            )
        if not self.Z > 0:
            raise NonpositiveCharge(f"Z must be positive, got {self.Z}")
        # an exact comparison for an int or Fraction, so nothing overflows
        if not sys.float_info.min <= self.Z <= _DOUBLE_MAX:
            raise ParameterOutOfRange(
                f"Z must lie in the normal double range [2^-1022, {_DOUBLE_MAX:.6g}]"
            )

    @property
    def eta(self) -> Fraction:
        return self.n + Fraction(self.D - 3, 2)

    @property
    def L(self) -> Fraction:
        return self.l + Fraction(self.D - 3, 2)

    @property
    def nu(self) -> Fraction:
        return self.L + 1

    @property
    def two_eta(self) -> int:
        """2 eta = 2n + D - 3."""
        return 2 * self.n + self.D - 3

    @property
    def two_nu(self) -> int:
        """2 nu = 2l + D - 1."""
        return 2 * self.l + self.D - 1

    @property
    def k(self) -> int:
        return self.n - self.l - 1

    @property
    def Z_exact(self) -> Fraction:
        return as_fraction(self.Z)

    @property
    def is_circular(self) -> bool:
        return self.l == self.n - 1

    def scale(self, a: int, space: Space) -> tuple[int, int]:
        """The space's scale, (Z/eta)^a for momentum and (eta/2Z)^a for position,
        at integer order a as an unreduced (numerator, denominator) pair:
        with Z = z_num / z_den, Z/eta = 2 z_num / (z_den 2eta)."""
        z_num, z_den = self.Z.as_integer_ratio()
        p, q = 2 * z_num, z_den * self.two_eta
        if space is Space.POSITION:  # eta/2Z = z_den 2eta / (4 z_num)
            p, q = q, 2 * p
        return (p ** a, q ** a) if a >= 0 else (q ** -a, p ** -a)

    def scale_logs(self, alpha: float, space: Space) -> list[float]:
        """The log terms of the space's scale at order alpha, with ln Z and ln
        eta taken alone, so no product of Z can leave the double range."""
        if space is Space.MOMENTUM:
            return [alpha * math.log(self.Z), -alpha * math.log(self.two_eta / 2)]
        return [alpha * math.log(self.two_eta / 4), -alpha * math.log(self.Z)]

    def momentum_interval(self) -> tuple[int, int]:
        """Open interval of valid momentum orders."""
        return (-self.D - 2 * self.l, self.D + 2 * self.l + 2)

    def position_lower_bound(self) -> int:
        """Position orders must exceed this value."""
        return -self.D - 2 * self.l


@dataclass(frozen=True)
class MomentOrder:
    alpha: float
    space: Space


def make_state(D: int, n: int, l: int, Z: float) -> HydrogenicState:
    return HydrogenicState(D=D, n=n, l=l, Z=Z)


def check_order(state: HydrogenicState, order: MomentOrder) -> bool:
    """True iff `require_order` accepts the order: it is finite and lies in
    the open validity interval for its space."""
    try:
        require_order(state, order.alpha, order.space)
    except OrderOutOfDomain:
        return False
    return True


def require_order(state: HydrogenicState, alpha, space: Space) -> float:
    """The float that callers compute with, once alpha is checked: raise
    UnsupportedArgument unless alpha is a real number, and OrderOutOfDomain
    unless it lies within the double range and its float in the open
    validity interval for space.  An int or Fraction is compared exactly with
    the double range before float() could overflow; the interval's bounds
    are integers, so a float inside it means alpha is inside too.  The one
    domain rule: it takes alpha and space rather than a MomentOrder, which
    costs more to build than the comparison, and every exact moment calls it."""
    if type(alpha) is not float:
        # int first: the ABC check costs more than the rest of this function
        if not isinstance(alpha, (int, Real)):
            raise UnsupportedArgument(f"an order must be a real number, got {alpha!r}")
        if not -_DOUBLE_MAX <= alpha <= _DOUBLE_MAX:  # false for nan
            raise OrderOutOfDomain(f"{space.name.lower()} order is not a finite double")
        alpha = float(alpha)
    if space is Space.POSITION:
        if state.position_lower_bound() < alpha <= _DOUBLE_MAX:  # false for inf and nan
            return alpha
        raise OrderOutOfDomain(
            f"position order {alpha} outside "
            f"({state.position_lower_bound()}, inf) for D={state.D}, l={state.l}"
        )
    lo, hi = state.momentum_interval()
    if lo < alpha < hi:
        return alpha
    raise OrderOutOfDomain(
        f"momentum order {alpha} outside ({lo}, {hi}) for D={state.D}, l={state.l}"
    )
