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
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import (
    DimensionTooSmall,
    NonpositiveCharge,
    ParameterOutOfRange,
    QuantumNumberOutOfRange,
    UnsupportedArgument,
)
from .specfun import as_fraction


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
        if isinstance(self.Z, float) and not math.isfinite(self.Z):
            raise ParameterOutOfRange(f"Z must be finite, got {self.Z}")

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
    """True iff the order is finite and lies in the open validity interval
    for its space."""
    alpha = order.alpha
    if not math.isfinite(alpha):
        return False
    if order.space is Space.POSITION:
        return alpha > state.position_lower_bound()
    lo, hi = state.momentum_interval()
    return lo < alpha < hi
