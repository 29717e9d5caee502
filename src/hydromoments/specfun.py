"""Special-function kernels.

Exact rational-times-pi arithmetic (ExactValue), gamma-family evaluation for
integer and half-integer arguments, digamma with an exact half-integer
decomposition, summation of terminating hypergeometric series (one integer
term-ratio kernel in exact mode, compensated summation in float mode), and
float prefactors evaluated from their logarithms with a rounding bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from .errors import (
    CancellationOverflow,
    FloatOverflow,
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
    if isinstance(x, (Rational, float)):
        return Fraction(x)
    raise UnsupportedArgument(f"cannot represent {x!r} exactly")


def is_integral(x) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, float):
        return x.is_integer()
    return False


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
        return float(self.coeff) * math.pi ** float(self.pi_pow)

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
    relative error.  Raises FloatOverflow when the result exceeds the
    double range."""
    exponent = math.fsum(terms)
    try:
        value = math.exp(exponent)
    except OverflowError:
        raise FloatOverflow(f"exp({exponent:.6g}) exceeds the double range") from None
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
    if x <= 0:
        raise NonpositiveArgument(f"gamma_exact requires x > 0, got {x}")
    if x.denominator not in (1, 2):
        raise UnsupportedArgument(f"gamma_exact needs denominator 1 or 2, got {x}")
    return _gamma_exact_cached(x.numerator, x.denominator)


def gamma_ratio_exact(x, y) -> ExactValue:
    """Gamma(x)/Gamma(y) for positive integer/half-integer x, y."""
    return gamma_exact(x) / gamma_exact(y)


def pochhammer(a, j: int, mode: str = "exact"):
    """(a)_j = a (a+1) ... (a+j-1), with (a)_0 = 1."""
    if j < 0:
        raise UnsupportedArgument("pochhammer needs j >= 0")
    if mode == "exact":
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


def digamma(x: float) -> float:
    """psi(x) for x > 0, via upward recurrence and the asymptotic series."""
    if x <= 0:
        raise NonpositiveArgument(f"digamma requires x > 0, got {x}")
    result = 0.0
    while x < 12.0:
        result -= 1.0 / x
        x += 1.0
    # psi(x) ~ ln x - 1/(2x) - sum B_{2n} / (2n x^{2n})
    inv2 = 1.0 / (x * x)
    series = inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * (1.0 / 240 - inv2 / 132))))
    return result + math.log(x) - 0.5 / x - series


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


def hyp_sum_fraction(spec: HypSumSpec) -> Fraction:
    """The exact sum as a Fraction, on integers only.

    With every parameter written over the common denominator d as A/d, the
    term ratio is r_j = prod(A_i + d j) d^(q-p) / ((j+1) prod(B_i + d j))
    for p top and q bottom parameters.  The sum
    1 + r_0 (1 + r_1 (1 + ... (1 + r_{k-1}))) runs backwards on one integer
    numerator and denominator, and Fraction takes the single gcd at the end
    (as in Haible & Papanikolaou, "Fast multiprecision evaluation of series
    of rational numbers", 1998), so each step costs O(1) integer products."""
    params = [as_fraction(p) for p in (*spec.top, *spec.bottom)]
    if any(p.denominator not in (1, 2) for p in params):
        raise UnsupportedArgument("exact hyp_sum needs half-integer parameters")
    d = max(p.denominator for p in params)
    ints = [int(p * d) for p in params]
    top, bottom = ints[: len(spec.top)], ints[len(spec.top):]
    shift = len(bottom) - len(top)
    num_scale, den_scale = d ** max(shift, 0), d ** max(-shift, 0)
    num = den = 1
    for j in range(spec.terms - 2, -1, -1):
        rn = num_scale
        for a in top:
            rn *= a + d * j
        rd = den_scale * (j + 1)
        for b in bottom:
            rd *= b + d * j
        num = rd * den + rn * num
        den *= rd
    return Fraction(num, den)


def hyp_sum(spec: HypSumSpec, mode: str = "exact"):
    """Evaluate a terminating hypergeometric sum.

    Exact mode returns an ExactValue (rational); float mode returns
    (value, error_bound) using exactly rounded summation of the signed terms
    plus a per-term rounding bound, so cancellation is visible to callers.
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
            raise CancellationOverflow(f"hypergeometric term {j + 1} overflowed")
        terms.append(term)
        bounds.append(nops * (j + 1) * _EPS * abs(term))
    total = math.fsum(terms)
    bound = math.fsum(bounds) + _EPS * abs(total)
    return total, bound
