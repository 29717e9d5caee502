"""Special-function kernels.

Exact rational-times-pi arithmetic (ExactValue), gamma-family evaluation for
integer and half-integer arguments, the exact rational part of digamma at
half-integers, summation of terminating hypergeometric series (one integer
term-ratio kernel in exact mode, compensated summation in float mode), and
float prefactors evaluated from their logarithms with a rounding bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral, Rational

from .errors import (
    FloatOverflow,
    FloatUnderflow,
    NonpositiveArgument,
    NonTerminating,
    PoleInBottomParameter,
    UnsupportedArgument,
)

_EPS = 2.0 ** -53

# Euler-Mascheroni constant to double precision.
EULER_GAMMA = 0.5772156649015328606


def as_fraction(x) -> Fraction:
    """Exact Fraction from an int, Fraction, or float (binary-exact).  A
    Fraction is returned as is: it is already in lowest terms."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, Rational)):
        return Fraction(x)
    raise UnsupportedArgument(f"cannot represent {x!r} exactly")


def is_integral(x) -> bool:
    """True for an integer-valued int, Fraction or float and for any other
    Integral, numpy's integers among them; a bool is not an integer here."""
    if isinstance(x, int):
        return not isinstance(x, bool)
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, Integral)


@dataclass(frozen=True)
class ExactValue:
    """A number of the form coeff * pi**pi_pow with rational coeff and
    half-integer pi_pow.  Zero is canonicalized to pi_pow = 0."""

    coeff: Fraction
    pi_pow: Fraction = Fraction(0)

    def __post_init__(self):
        coeff = as_fraction(self.coeff)
        pi_pow = as_fraction(self.pi_pow)
        if pi_pow.denominator not in (1, 2):
            raise UnsupportedArgument("pi exponent must be a half-integer")
        if coeff == 0:
            pi_pow = Fraction(0)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_pow", pi_pow)

    def __mul__(self, other) -> "ExactValue":
        other = _coerce(other)
        return ExactValue(self.coeff * other.coeff, self.pi_pow + other.pi_pow)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactValue":
        other = _coerce(other)
        return ExactValue(self.coeff / other.coeff, self.pi_pow - other.pi_pow)

    def __rtruediv__(self, other) -> "ExactValue":
        return _coerce(other) / self

    def __add__(self, other) -> "ExactValue":
        other = _coerce(other)
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_pow != other.pi_pow:
            raise UnsupportedArgument("cannot add values with different pi powers")
        return ExactValue(self.coeff + other.coeff, self.pi_pow)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __neg__(self) -> "ExactValue":
        return ExactValue(-self.coeff, self.pi_pow)

    def __pow__(self, m: int) -> "ExactValue":
        if not isinstance(m, int):
            raise UnsupportedArgument("ExactValue powers must be integers")
        return ExactValue(self.coeff ** m, self.pi_pow * m)

    def to_float(self) -> float:
        """The nearest double; raises FloatOverflow beyond the double range and
        FloatUnderflow when a nonzero value falls below its smallest normal."""
        try:
            value = float(self.coeff) * math.pi ** float(self.pi_pow)
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise FloatOverflow("exact value exceeds the double range")
        if self.coeff and abs(value) < sys.float_info.min:
            raise FloatUnderflow("exact value is below the double range")
        return value

    def is_rational(self) -> bool:
        return self.pi_pow == 0

    def __repr__(self):
        if self.pi_pow == 0:
            return f"ExactValue({self.coeff})"
        return f"ExactValue({self.coeff} * pi^{self.pi_pow})"


def _coerce(x) -> ExactValue:
    if isinstance(x, ExactValue):
        return x
    return ExactValue(as_fraction(x))


EXACT_ONE = ExactValue(Fraction(1))
SQRT_PI = ExactValue(Fraction(1), Fraction(1, 2))


def exp_sum(terms) -> tuple[float, float]:
    """exp(sum(terms)) and a bound on its relative rounding error.

    Each term is a computed logarithm (log_gamma, log, or a multiple of one)
    off by a few units in its last place, so the exponent carries an
    absolute error of about eps * sum |term|, which exp turns into a
    relative error.  This is the one place where a float built from
    logarithms leaves the double range: it raises FloatOverflow when the
    result exceeds the range and FloatUnderflow when it falls below the
    smallest normal double, where it would lose digits or read as zero."""
    exponent = math.fsum(terms)
    try:
        value = math.exp(exponent)
    except OverflowError:
        value = math.inf
    if value == math.inf:  # math.exp passes an infinite exponent on as inf
        raise FloatOverflow(f"exp({exponent:.6g}) exceeds the double range")
    if value < sys.float_info.min:
        raise FloatUnderflow(f"exp({exponent:.6g}) is below the double range")
    return value, 4 * _EPS * (sum(map(abs, terms)) + 1)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise NonpositiveArgument(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


@lru_cache(maxsize=None)
def _gamma_exact_cached(num: int, den: int) -> ExactValue:
    x = Fraction(num, den)
    if den == 1:
        return ExactValue(Fraction(math.factorial(num - 1)))
    # x = m + 1/2 with m >= 0: Gamma(m + 1/2) = (2m)! / (4^m m!) * sqrt(pi)
    m = (num - 1) // 2
    coeff = Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
    return ExactValue(coeff, Fraction(1, 2))


def gamma_exact(x) -> ExactValue:
    """Gamma(x) for positive integer or half-integer rational x."""
    x = as_fraction(x)
    num, den = x.numerator, x.denominator
    if num <= 0:
        raise NonpositiveArgument(f"gamma_exact requires x > 0, got {x}")
    if den not in (1, 2):
        raise UnsupportedArgument(f"gamma_exact needs denominator 1 or 2, got {x}")
    return _gamma_exact_cached(num, den)


def gamma_ratio_doubled(top2, bottom2) -> tuple[int, int, int]:
    """prod Gamma(x/2) over top2 divided by prod Gamma(x/2) over bottom2,
    for positive integers x, as an unreduced (numerator, denominator, twice
    the pi power).

    Each top argument, largest first, pairs with the largest bottom argument
    of its parity still free, and the pair's quotient is a rising product on
    integers: Gamma(x/2)/Gamma(y/2) = prod_{m = y, y+2, ..., x-2} m/2 for
    x >= y, inverted for x < y.  Only the arguments left unpaired, the
    smallest of their parity, are read off gamma_exact's coefficient.  Every
    argument is checked first, since a pair's product would hide a zero."""
    tops = sorted(top2, reverse=True)
    bottoms = sorted(bottom2, reverse=True)
    if (tops and tops[-1] < 1) or (bottoms and bottoms[-1] < 1):
        raise NonpositiveArgument(
            f"gamma_ratio_doubled needs doubled arguments >= 1, got {top2} over {bottom2}"
        )
    num = den = 1
    two_pi = 0
    for x in tops:
        for i, y in enumerate(bottoms):
            if not (x - y) & 1:
                del bottoms[i]
                if x >= y:
                    num *= math.prod(range(y, x, 2))
                    den <<= (x - y) >> 1
                else:
                    num <<= (y - x) >> 1
                    den *= math.prod(range(x, y, 2))
                break
        else:
            c = gamma_exact(Fraction(x, 2)).coeff
            num *= c.numerator
            den *= c.denominator
            two_pi += x & 1
    for y in bottoms:
        c = gamma_exact(Fraction(y, 2)).coeff
        num *= c.denominator
        den *= c.numerator
        two_pi -= y & 1
    return num, den, two_pi


def pochhammer(a, j: int, mode: str = "exact"):
    """(a)_j = a (a+1) ... (a+j-1), with (a)_0 = 1."""
    if j < 0:
        raise UnsupportedArgument("pochhammer needs j >= 0")
    if mode == "exact":
        if isinstance(a, int):
            return Fraction(math.prod(range(a, a + j)))
        a = as_fraction(a)
        if a.denominator not in (1, 2):
            raise UnsupportedArgument("exact pochhammer needs denominator 1 or 2")
        prod = Fraction(1)
        for i in range(j):
            prod *= a + i
        return prod
    prod = 1.0
    a = float(a)
    for i in range(j):
        prod *= a + i
    return prod


def digamma_half_exact(n: int) -> Fraction:
    """Rational part r of psi(n + 1/2) = r - gamma - 2 ln 2, i.e.
    r = 2 * sum_{k=1..n} 1/(2k-1).  The gamma and 2 ln 2 constants stay
    symbolic so they can cancel exactly in downstream brackets."""
    if n < 1:
        raise NonpositiveArgument("digamma_half_exact requires n >= 1")
    return 2 * sum(Fraction(1, 2 * k - 1) for k in range(1, n + 1))


@dataclass(frozen=True)
class HypSumSpec:
    """A terminating hypergeometric sum: sum_{j=0}^{terms-1} of
    prod (top_i)_j / prod (bottom_i)_j / j!, evaluated at unit argument."""

    top: tuple
    bottom: tuple
    terms: int

    def __post_init__(self):
        if self.terms < 1:
            raise NonTerminating("need at least one term")
        k = self.terms - 1
        first = self.top[0]
        if not is_integral(first) or round(float(first)) != -k:
            raise NonTerminating(
                f"first top parameter must be -{k} for a {self.terms}-term sum"
            )
        for b in self.bottom:
            if is_integral(b) and -k < float(b) <= 0:
                raise PoleInBottomParameter(f"bottom parameter {b} hits a pole")


def hyp_sum_doubled(top2, bottom2, terms: int) -> tuple[int, int]:
    """The exact sum of `terms` terms of a terminating series whose top and
    bottom parameters are given doubled, as the integers 2 a_i and 2 b_i,
    returned as an unreduced (numerator, denominator) pair.  The caller
    checks that the series terminates and has no pole.

    With every parameter written as A/d over the common denominator d (1
    when every doubled parameter is even, else 2), the term ratio is
    r_j = prod(A_i + d j) d^(q-p) / ((j+1) prod(B_i + d j)) for p top and q
    bottom parameters.  The sum 1 + r_0 (1 + r_1 (1 + ... (1 + r_{k-1})))
    runs backwards on one integer numerator and denominator, so each step
    costs O(1) integer products, and the caller reduces once at the end (as
    in Haible & Papanikolaou, "Fast multiprecision evaluation of series of
    rational numbers", 1998)."""
    if all(x % 2 == 0 for x in (*top2, *bottom2)):
        d, top, bottom = 1, [x // 2 for x in top2], [x // 2 for x in bottom2]
    else:
        d, top, bottom = 2, top2, bottom2
    shift = len(bottom) - len(top)
    num_scale, den_scale = d ** max(shift, 0), d ** max(-shift, 0)
    num = den = 1
    for j in range(terms - 2, -1, -1):
        rn = num_scale
        for a in top:
            rn *= a + d * j
        rd = den_scale * (j + 1)
        for b in bottom:
            rd *= b + d * j
        num = rd * den + rn * num
        den *= rd
    return num, den


def hyp_sum_fraction(spec: HypSumSpec) -> Fraction:
    """The exact sum as a Fraction: `hyp_sum_doubled` on the doubled
    half-integer parameters, reduced once."""
    doubled = []
    for p in (*spec.top, *spec.bottom):
        p = as_fraction(p)
        if p.denominator not in (1, 2):
            raise UnsupportedArgument("exact hyp_sum needs half-integer parameters")
        doubled.append(2 * p.numerator // p.denominator)
    ntop = len(spec.top)
    return Fraction(*hyp_sum_doubled(doubled[:ntop], doubled[ntop:], spec.terms))


def hyp_sum(spec: HypSumSpec, mode: str = "exact"):
    """Evaluate a terminating hypergeometric sum.

    Exact mode returns an ExactValue (rational); float mode returns
    (value, error_bound) using exactly rounded summation of the signed terms
    plus a per-term rounding bound, so cancellation is visible to callers.
    A term that overflows gives (nan, inf).
    """
    if mode == "exact":
        return ExactValue(hyp_sum_fraction(spec))

    k = spec.terms - 1
    top = [float(a) for a in spec.top]
    bottom = [float(b) for b in spec.bottom]
    nops = len(top) + len(bottom) + 1
    term = 1.0
    terms = [1.0]
    bounds = [0.0]
    for j in range(k):
        for a in top:
            term *= a + j
        for b in bottom:
            term /= b + j
        term /= j + 1
        if not math.isfinite(term):
            return math.nan, math.inf
        terms.append(term)
        bounds.append(nops * (j + 1) * _EPS * abs(term))
    total = math.fsum(terms)
    bound = math.fsum(bounds) + _EPS * abs(total)
    return total, bound
