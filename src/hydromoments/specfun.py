"""Special-function kernels.

Exact rational-times-pi arithmetic (ExactValue), Gamma at doubled int
arguments and Pochhammer symbols as plain integers built per call with no
cache, the exact rational part of digamma at half-integers and its float
twin from psi's asymptotic series, summation of terminating hypergeometric
series, the once-rounded quotient of two integers, and float prefactors
evaluated from their logarithms with a rounding bound.  A series carries its
parameters doubled (`HypSumSpec`), the integers the exact kernel
`hyp_sum_doubled` sums on, and ends where its first factor vanishes: exact
`hyp_sum` is that kernel over the spec's terms, and float `hyp_sum` halves
each parameter once.  The momentum 5F4 has loops of its own, whose term ratio keeps each
parameter over its own denominator: in fixed point at a real order
(`momom._hyp5f4_fixed`) and exactly at an integer one
(`momom._hyp5f4_rational`, for `single` and `reflect`).  `int_str` prints
an integer of any size.  `require_cost` is the one cost model: every exact
route states the bits and passes it will build before it builds them,
against the one COST_BUDGET; `gamma_ratio_doubled` alone states a Gamma
ratio's, so a route with a ratio makes two statements against that budget.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral, Rational

from .errors import (
    ExactTooLarge,
    FloatOverflow,
    FloatUnderflow,
    NonpositiveArgument,
    NonTerminating,
    PoleInBottomParameter,
    UnsupportedArgument,
)

_EPS = 2.0 ** -53
_LOG_FLOOR = 8  # exp_sum's charge per log term beyond 4 eps |t|, in units of 4 eps
# `ExactValue.to_float`'s relative rounding for |pi_pow| <= 1: four roundings
TO_FLOAT_REL = 4 * _EPS

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


# two_pi -> Fraction(two_pi, 2), handed out by `ExactValue.reduced`: a Fraction is immutable
_PI_POWS = {two_pi: Fraction(two_pi, 2) for two_pi in range(-8, 9)}


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

    @classmethod
    def reduced(cls, coeff: Fraction, two_pi: int) -> "ExactValue":
        """coeff * pi^(two_pi/2) for a Fraction coeff and an int two_pi,
        built without `__post_init__`'s coercion: two_pi/2 is a half-integer
        by construction, and zero still carries pi^0.  The pi power comes
        from `_PI_POWS` where |two_pi| <= 8, the orders every route reaches."""
        value = object.__new__(cls)
        object.__setattr__(value, "coeff", coeff)
        if not coeff:
            two_pi = 0
        pi_pow = _PI_POWS.get(two_pi)
        if pi_pow is None:
            pi_pow = Fraction(two_pi, 2)
        object.__setattr__(value, "pi_pow", pi_pow)
        return value

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
            return f"ExactValue({fraction_str(self.coeff)})"
        return f"ExactValue({fraction_str(self.coeff)} * pi^{self.pi_pow})"


def int_str(n: int) -> str:
    """str(n) at any size: CPython refuses to convert an int of more than
    sys.get_int_max_str_digits() digits (4,300 by default), decimal does not."""
    return format(decimal.Decimal(n), "f")


def fraction_str(x: Fraction) -> str:
    """str(x) at any size."""
    num = int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_str(x.denominator)}"


def _coerce(x) -> ExactValue:
    if isinstance(x, ExactValue):
        return x
    return ExactValue(as_fraction(x))


SQRT_PI = ExactValue(Fraction(1), Fraction(1, 2))


def exp_sum(terms) -> tuple[float, float]:
    """exp(sum(terms)) and a bound on its relative rounding error: the one
    error model of every float built from logarithms.  Each term t, a
    `log_gamma` at an argument the caller rounds, a log or a multiple of one,
    is charged 4 eps (|t| + _LOG_FLOOR), and exp 4 eps.  The floor covers
    lgamma near its zeros at 1 and 2, off by up to 12 eps where t is near 0,
    and ln s of a sum s rounded once, so a series adds only its own bound.
    Against 30-digit mpmath on 450k points in (1e-8, 1e6], lgamma's worst
    error is 0.64 of the charge at doubles and 0.95 at the sums the float
    paths form, whose rounding moves the argument by up to 2 eps relative.

    This is the one place where a float built from logarithms leaves the
    double range: it raises FloatOverflow when the result exceeds the range
    and FloatUnderflow when it falls below the smallest normal double, where
    it would lose digits or read as zero."""
    exponent = math.fsum(terms)
    try:
        value = math.exp(exponent)
    except OverflowError:
        value = math.inf
    if value == math.inf:  # math.exp passes an infinite exponent on as inf
        raise FloatOverflow(f"exp({exponent:.6g}) exceeds the double range")
    if value < sys.float_info.min:
        raise FloatUnderflow(f"exp({exponent:.6g}) is below the double range")
    return value, exp_sum_rel(terms)


def exp_sum_rel(terms) -> float:
    """`exp_sum`'s relative bound for terms whose sum stays a log, in or out of the double range."""
    return 4 * _EPS * (sum(map(abs, terms)) + _LOG_FLOOR * len(terms) + 1)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0; FloatOverflow where it exceeds the double
    range, above x of about 2.5e305."""
    if x <= 0:
        raise NonpositiveArgument(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise FloatOverflow(f"ln Gamma({x:.6g}) exceeds the double range") from None


def solid_angle_logs(D: int) -> list[float]:
    """The log terms of Omega_D = 2 pi^(D/2) / Gamma(D/2), the unit (D-1)-sphere's surface."""
    return [math.log(2.0), D / 2 * math.log(math.pi), -log_gamma(D / 2)]


# The one budget, about 3.8e11 bit-passes: with each route's weights every
# route ran at 2e11-6e11 a second (x86-64, Python 3.11), so a statement just
# under it took at most about 1.2 s, a call of two such statements (a route
# and its Gamma ratio) 2.8 s, and the costliest cell the tests touch, 0.8 s.
COST_BUDGET = 11 << 35


def require_cost(bits: int, products: int, instead: str) -> None:
    """The one cost model and the only reader of COST_BUDGET: a call that
    builds `bits` bits in all in `products` passes over them costs their
    product.  A product by a one-word factor is one pass; a product of two
    big integers, a factorial or a reduction of b bits counts b/64, their
    schoolbook cost, and each route weighs its steps and passes as measured.
    Past the budget this raises ExactTooLarge naming `instead`, a cheaper
    route or mode, before the caller builds anything."""
    cost = bits * products
    if cost > COST_BUDGET:
        raise ExactTooLarge(f"this call would cost about 2^{math.log2(cost):.1f} bit-passes, "
                            f"over the budget of 2^{math.log2(COST_BUDGET):.1f}; use {instead}")


def gamma_bits(z: int) -> int:
    """An upper bound on the bits of Gamma(z/2)'s coefficient: (m-1)! < m^(m-1)
    for even z = 2m, and (2m-1)!! < z^m over 2^m for odd z = 2m+1."""
    return (z - 1) // 2 * (z.bit_length() + 2 * (z & 1) - 1)


def gamma_exact(z2: int) -> tuple[int, int, int]:
    """Gamma(z2/2) at an int z2 >= 1 as `gamma_ratio_doubled`'s triple, in
    lowest terms and built per call: (m-1)! over 1 for z2 = 2m, and
    Gamma(m + 1/2) = (2m)! / (4^m m!) sqrt(pi), the odd (2m-1)!! over 2^m,
    for z2 = 2m+1.  It checks and prices nothing: its one caller,
    `gamma_ratio_doubled`, checks every argument and states the cost first."""
    m = z2 >> 1
    if not z2 & 1:
        return math.factorial(m - 1), 1, 0
    # comb(2m, m) m! = (2m)!/m! = 2^m (2m-1)!!
    return (math.comb(2 * m, m) * math.factorial(m)) >> m, 1 << m, 1


def gamma_ratio_doubled(top2, bottom2, instead: str = 'mode="float"') -> tuple[int, int, int]:
    """prod Gamma(x/2) over top2 divided by prod Gamma(x/2) over bottom2,
    for positive integers x, as an unreduced (numerator, denominator, twice
    the pi power).

    Each top argument, largest first, pairs with the largest bottom argument
    of its parity still free, and the pair's quotient is a rising product on
    integers: Gamma(x/2)/Gamma(y/2) = prod_{m = y, y+2, ..., x-2} m/2 for
    x >= y, inverted for x < y.  Only the arguments left unpaired, the
    smallest of their parity, are built, by `gamma_exact` on the doubled
    argument.  Every argument is checked first, since a pair's product would
    hide a zero.  Once paired, before anything is built, it states its whole
    cost to `require_cost`, naming `instead`: the bits of the rising products,
    |x-y|/2 factors below max(x, y) per pair, and of the unpaired factorials
    (`gamma_bits`), at 8 passes per 64 bits plus 6 per paired factor, as
    measured: 60,000 paired factors took 1 s to build and 0.5 s to reduce."""
    tops = sorted(top2, reverse=True)
    bottoms = sorted(bottom2, reverse=True)
    if (tops and tops[-1] < 1) or (bottoms and bottoms[-1] < 1):
        raise NonpositiveArgument(
            f"gamma_ratio_doubled needs doubled arguments >= 1, got {top2} over {bottom2}"
        )
    pairs, lone = [], []
    bits = factors = 0
    for x in tops:
        for i, y in enumerate(bottoms):
            if not (x - y) & 1:
                del bottoms[i]
                if x >= y:
                    f = (x - y) >> 1
                    bits += f * x.bit_length()
                else:
                    f = (y - x) >> 1
                    bits += f * y.bit_length()
                if f:  # an equal pair cancels to 1
                    factors += f
                    pairs.append((x, y))
                break
        else:
            lone.append(x)
            bits += gamma_bits(x)
    for y in bottoms:
        bits += gamma_bits(y)
    require_cost(bits, 6 * factors + 8 * (bits >> 6), instead)
    num = den = 1
    two_pi = 0
    for x, y in pairs:
        if x > y:
            num *= math.prod(range(y, x, 2))
            den <<= (x - y) >> 1
        else:
            num <<= (y - x) >> 1
            den *= math.prod(range(x, y, 2))
    for x in lone:
        g_num, g_den, g_pi = gamma_exact(x)
        num, den, two_pi = num * g_num, den * g_den, two_pi + g_pi
    for y in bottoms:
        g_num, g_den, g_pi = gamma_exact(y)
        num, den, two_pi = num * g_den, den * g_num, two_pi - g_pi
    return num, den, two_pi


def pochhammer(a: int, j: int) -> int:
    """(a)_j = a (a+1) ... (a+j-1), with (a)_0 = 1, for integers a and j >= 0."""
    return math.prod(range(a, a + j))


def digamma_half_exact(n: int) -> Fraction:
    """Rational part r of psi(n + 1/2) = r - gamma - 2 ln 2, i.e.
    r = 2 * sum_{k=1..n} 1/(2k-1).  The gamma and 2 ln 2 constants stay
    symbolic so they can cancel exactly in downstream brackets."""
    if n < 1:
        raise NonpositiveArgument("digamma_half_exact requires n >= 1")
    # n Fraction additions on a pair below 4^n n, each some 128 passes (measured)
    require_cost(4 * n + n.bit_length(), 128 * n, 'mode="float"')
    return 2 * sum(Fraction(1, 2 * k - 1) for k in range(1, n + 1))


def digamma_half_float(n: int, c: Fraction) -> tuple[float, float]:
    """r - c and a bound on its error, for the float twin of
    `digamma_half_exact`, r = psi(n + 1/2) + gamma + 2 ln 2, and a rational
    c in [0, 1].  r comes from psi's asymptotic series
    r = ln 4n + gamma + 1/(24n^2) - 7/(960n^4) + R, whose remainder R lies
    between 0 and the first omitted term 31/(8064n^6) (against 60-digit
    mpmath from n = 1), so the bound is small only at large n.  One fsum adds
    the terms and -c: ln 4n is off by at most 2 eps ln 4n, gamma, c and the
    sum by eps times their size, so 4 eps (ln 4n + 1) bounds the rounding."""
    if n < 1:
        raise NonpositiveArgument("digamma_half_float requires n >= 1")
    x = 1 / (n * n)  # 0.0 from n of about 1e154, where its terms are far below eps
    log4n = math.log(4 * n)
    value = math.fsum((log4n, EULER_GAMMA, x / 24, -7 * x * x / 960, -float(c)))
    return value, 31 * x ** 3 / 8064 + 4 * _EPS * (log4n + 1)


@dataclass(frozen=True)
class HypSumSpec:
    """The terminating sum_{j=0}^{terms-1} prod (a_i)_j / prod (b_i)_j / j!
    at unit argument, `top` holding 2 a_i and `bottom` 2 b_i as every exact
    kernel takes them.  Its first factor to vanish, at the largest even top
    x <= 0, sets `terms` = 1 - x/2; an even bottom in (x, 0] is a pole."""

    top: tuple
    bottom: tuple
    terms: int = field(init=False)

    def __post_init__(self):
        x = None
        for a in self.top:
            # a % 2 == 0 holds only for an even integer, of any number type
            if a <= 0 and a % 2 == 0 and (x is None or a > x):
                x = a
        if x is None:
            raise NonTerminating(f"no doubled top parameter of {self.top} is an even integer <= 0")
        for b in self.bottom:
            if x < b <= 0 and b % 2 == 0:
                raise PoleInBottomParameter(f"doubled bottom parameter {b} hits a pole")
        object.__setattr__(self, "terms", 1 - int(x) // 2)


def hyp_sum_doubled(top2, bottom2, terms: int) -> tuple[int, int]:
    """The exact sum of `terms` terms of a terminating series whose top and
    bottom parameters are given doubled, as the integers 2 a_i and 2 b_i,
    returned as an unreduced (numerator, denominator) pair.  The caller
    checks that the series terminates and has no pole.

    With every parameter written as A/d over the common denominator d (1
    when every doubled parameter is even, else 2), the term ratio is
    r_j = prod(A_i + d j) d^(q-p) / ((j+1) prod(B_i + d j)) for p top and q
    bottom parameters.  The sum 1 + r_0 (1 + r_1 (1 + ... (1 + r_{k-1})))
    runs backwards on one integer numerator and denominator: with r_j = rn/rd,
    num/den becomes (rd den + rn num)/(rd den), so each step takes two
    products of a big integer by a small one, rd den formed once, and the
    caller reduces once at the end (as in Haible & Papanikolaou, "Fast
    multiprecision evaluation of series of rational numbers", 1998)."""
    d, top, bottom = 1, top2, bottom2
    for x in (*top2, *bottom2):
        if x & 1:
            d = 2
            break
    else:
        top, bottom = [x >> 1 for x in top2], [x >> 1 for x in bottom2]
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
        rd *= den
        num = rd + rn * num
        den = rd
    return num, den


def round_quotient(num: int, den: int) -> tuple[float, int]:
    """num/den for positive integers as (quotient, shift), with
    num/den = quotient * 2^shift and quotient in (1/2, 2), rounded once:
    CPython's int true division is correctly rounded."""
    shift = num.bit_length() - den.bit_length()
    quotient = num / (den << shift) if shift >= 0 else (num << -shift) / den
    return quotient, shift


def hyp_sum(spec: HypSumSpec, mode: str = "exact"):
    """Evaluate a terminating hypergeometric sum.

    Exact mode is `hyp_sum_doubled` on the spec's doubled parameters, which
    must be ints: it returns the unreduced (numerator, denominator).  Float
    mode halves each parameter once, which is exact in binary, and returns
    (value, error_bound) using exactly rounded summation of the signed terms
    plus a per-term rounding bound, so cancellation is visible to callers.
    A term that overflows gives (nan, inf).
    """
    if mode == "exact":
        for x in (*spec.top, *spec.bottom):
            if type(x) is not int:
                raise UnsupportedArgument("exact hyp_sum needs int doubled parameters")
        return hyp_sum_doubled(spec.top, spec.bottom, spec.terms)

    k = spec.terms - 1
    top = [float(a) / 2 for a in spec.top]
    bottom = [float(b) / 2 for b in spec.bottom]
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
