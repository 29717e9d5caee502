"""Momentum expectation values <p^alpha>.

Four mutually checking routes: the default single finite sum (k+1 terms),
the raw terminating-5F4 form, the double-sum rewriting, and the reflection
identity.  For integer orders the single sum is the 5F4 series itself, so
`single` and `hyp5f4` share one integer prefactor (`_momentum_prefactor`)
and sum the same series with two kernels: `single` (and exact `reflect`)
with the 5F4's own integer loop `_hyp5f4_rational`, whose term ratio is
written out on t = 2nu and a, `hyp5f4` with the generic exact
`specfun.hyp_sum` on the doubled parameters of `_hyp5f4_doubled`, checked
as a `HypSumSpec`.  Comparing the two checks one kernel against the other,
not the 5F4's parameters or the prefactor; `double` is the independent exact
cross-check.  Its inner sums are the square of one integer polynomial
(`_double_sum_parts`), recomputed per call without a cache, and it calls
neither 5F4 kernel entry.  Each exact route builds one Gamma ratio, whose
same-parity pairs cancel before anything is multiplied out: the single
sum's rational part is the binomial (2k+2nu) C(2nu+k-1, k) / (2nu), so
`gamma_ratio_doubled` sees only the four Gammas of its quotient, built per
call with no cache, and exact `double` hands its prefactor's Gammas to its
inner sums' ratio, where one Gamma(n+l+D-2) cancels.  Every exact route, and `double` in both modes,
states its cost to `specfun.require_cost` before it builds anything
(`_momentum_prefactor` for the single sum, `_double_sum_size` for the
double sum) and raises ExactTooLarge past the one budget; `gamma_ratio_doubled`
states each Gamma ratio's cost, so a route states only what it builds itself.
Both of its modes sum the outer series exactly at a dyadic rational x
(`_double_sum_series`), so its float mode rounds once.
In float mode `hyp5f4` is `single`: both sum the series in
`_single_sum_float`, on integers in 128-bit fixed point at the dyadic
rational alpha = p/2^e is stored as (`_hyp5f4_fixed`, the 5F4's own loop:
each parameter over its own denominator 1, 2 or 2^(e+1), the leftover
2^(2e) a right shift before each floor division, which by nested floors
leaves the generic kernel's bits), with a rigorous integer error bound, and
round it with the prefactor's rational part once (`specfun.round_quotient`,
shared with the float double route).  Float paths
read the integers 2nu and 2eta rather than build the Fractions nu and eta.
Closed forms cover even orders, circular states, the mean momentum and the
average inverse momentum.  Integer orders evaluate exactly: each generic
exact evaluator returns an unreduced, Z-free (numerator, denominator, twice
the pi power), and `posmom.exact` multiplies it by (Z/eta)^a and reduces it
once; the tabulated closed forms keep their own arithmetic in Z.  Each float
series returns the logs of its Z-free prefactor, its sum and the sum's own
bound; `posmom.series_or_quadrature` replaces it by the quadrature oracle when
the bound shows cancellation, else `posmom.rounded` adds the logs of
(Z/eta)^alpha and rounds once, as for the float circular form, under
`specfun.exp_sum`'s one error model.
Float and exact `reflect` are the single sum at alpha called at 2 - alpha,
so `verify` checks `reflect` against `double`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotCircular, OrderOutOfDomain, UnsupportedArgument
from .specfun import (
    TO_FLOAT_REL,
    ExactValue,
    HypSumSpec,
    digamma_half_exact,
    digamma_half_float,
    exp_sum,
    gamma_bits,
    gamma_ratio_doubled,
    hyp_sum,
    log_gamma,
    pochhammer,
    require_cost,
    round_quotient,
)
from .posmom import Method, MomentResult, exact, resolve_mode, rounded, series_or_quadrature
from .states import HydrogenicState, Space, require_order

# Working precision of `_hyp5f4_fixed`: terms in units of 2^-FIXED_BITS.
FIXED_BITS = 128


def _gamma_quotient_logs(nu: float, alpha: float) -> list[float]:
    """The log terms of Gamma(nu+(a+1)/2) Gamma(nu+(3-a)/2) / (Gamma(nu+1/2) Gamma(nu+3/2))."""
    return [
        log_gamma(nu + (alpha + 1) / 2),
        log_gamma(nu + (3 - alpha) / 2),
        -log_gamma(nu + 0.5),
        -log_gamma(nu + 1.5),
    ]


def _momentum_prefactor(state: HydrogenicState, a: int) -> tuple[int, int, int]:
    """The exact prefactor of the 5F4 series at integer order a without
    (Z/eta)^a, 2(k+nu)/k! Gamma(k+2nu)/Gamma(2nu+1)
    * Gamma(nu+(a+1)/2) Gamma(nu+(3-a)/2) / (Gamma(nu+1/2) Gamma(nu+3/2)),
    as an unreduced (numerator, denominator, twice the pi power).  Its
    rational part cancels to the binomial (2k+t) C(t+k-1, k) / t at t = 2nu,
    so `gamma_ratio_doubled` builds only the four Gammas of the quotient.

    By Legendre's duplication formula,
    Gamma(2nu+1) = 2^(2nu) Gamma(nu+1/2) Gamma(nu+1) / sqrt(pi), this is the
    paper's 2^(1-2nu) sqrt(pi) (k+nu)/k! Gamma(k+2nu) Gamma(nu+(a+1)/2)
    Gamma(nu+(3-a)/2) / (Gamma(nu+1/2)^2 Gamma(nu+1) Gamma(nu+3/2))."""
    k, t = state.k, state.two_nu
    # the cost of the single sum every exact caller builds besides the Gamma
    # quotient, which `gamma_ratio_doubled` states itself.  Its rational part:
    # C(t+k-1, k) < (2k+t)^k and 2k+t, k+1 factors of bitlen(2k+t) bits.  Then
    # the k+1-term series, whose steps take nine factors below B = 4k+2t+6,
    # j+1 and 2: at most 11 bitlen(B) bits a term.
    bits = (k + 1) * (2 * k + t).bit_length() + 11 * (k + 1) * (4 * k + 2 * t + 6).bit_length()
    require_cost(bits, 12 * k + 7 * (bits >> 6), 'mode="float"')
    num, den, two_pi = gamma_ratio_doubled((t + a + 1, t + 3 - a), (t + 1, t + 3))
    # 2(k+nu) Gamma(k+2nu) / (k! Gamma(2nu+1)) = (2k+t) C(t+k-1, k) / t
    return num * (2 * k + t) * math.comb(t + k - 1, k), den * t, two_pi


def _hyp5f4_doubled(state: HydrogenicState, a: int) -> tuple[tuple, tuple]:
    """Twice the top and bottom parameters of the 5F4 series at integer order a:
    (-k, k+2nu, nu, nu+(a+1)/2, nu+(3-a)/2) over (2nu, nu+1/2, nu+1, nu+3/2)."""
    k, t = state.k, state.two_nu
    return (-2 * k, 2 * k + 2 * t, t, t + a + 1, t + 3 - a), (2 * t, t + 1, t + 2, t + 3)


def _hyp5f4_rational(k: int, t: int, a: int) -> tuple[int, int]:
    """The k+1 terms of the 5F4 series of `_hyp5f4_doubled` at t = 2nu and
    the integer order a, exactly, as an unreduced (numerator, denominator):
    the exact twin of `_hyp5f4_fixed`.

    The doubled parameters' term ratio with its common factor 4 cancelled is
    N_j / D_j with N_j = (j-k)(k+t+j)(t+2j)(t+2j+a+1)(t+2j+3-a) and
    D_j = (j+1)(t+j)(t+2j+1)(t+2j+2)(t+2j+3) > 0.  The sum runs backwards
    on one numerator and denominator, as in `specfun.hyp_sum_doubled`: each
    step multiplies the small N_j and D_j into them, D_j den formed once."""
    num = den = 1
    b, c = a + 1, 3 - a
    for j in range(k - 1, -1, -1):
        u = t + 2 * j
        rd = (j + 1) * (t + j) * (u + 1) * (u + 2) * (u + 3) * den
        num = rd + (j - k) * (k + t + j) * u * (u + b) * (u + c) * num
        den = rd
    return num, den


def _single_sum_exact(state: HydrogenicState, a: int) -> tuple[int, int, int]:
    """The single sum at integer order a times its prefactor without
    (Z/eta)^a, as an unreduced (numerator, denominator, twice the pi power).
    The single sum over j of (-1)^j C(k,j) (2nu+j)_k / (2nu)_k * nu/(nu+j)
    * (nu+(a+1)/2)_j (nu+(3-a)/2)_j / ((nu+1/2)_j (nu+3/2)_j) is, term for
    term, the 5F4 series, summed by its own loop `_hyp5f4_rational`."""
    num, den, two_pi = _momentum_prefactor(state, a)
    s_num, s_den = _hyp5f4_rational(state.k, state.two_nu, a)
    return num * s_num, den * s_den, two_pi


def _hyp5f4_fixed(k: int, t: int, p: int, e: int) -> tuple[int, int]:
    """The k+1 terms of the 5F4 series of `_hyp5f4_doubled` at t = 2nu and
    alpha = p/2^e, in 2^-FIXED_BITS fixed point: (S, E) with
    |S - 2^FIXED_BITS * sum| <= E.

    Each parameter is an integer over its own denominator: 1 for -k, k+2nu
    and 2nu, 2 for nu, nu+1/2, nu+1 and nu+3/2, and 2q = 2^(e+1) for
    nu+(alpha+1)/2 and nu+(3-alpha)/2.  The term ratio is N_j / (2^(2e) D_j)
    with N_j = (j-k)(k+t+j)(t+2j)(q(t+1)+p+2qj)(q(t+3)-p+2qj) and
    D_j = (j+1)(t+j)(t+1+2j)(t+2+2j)(t+3+2j) > 0.  T_0 = 2^FIXED_BITS and
    T_{j+1} = floor(T_j N_j / (2^(2e) D_j)), off from T_j r_j by less than
    1, so an error E_j on T_j becomes at most E_j |r_j| + 1, and
    E_{j+1} = ceil(E_j |N_j| / (2^(2e) D_j)) + 1 bounds it on integers:
    E = sum E_j is rigorous.  Both are a right shift by 2e, then a floor
    division by D_j, as floor(floor(x / 2^s) / D) = floor(x / (2^s D)) for
    D > 0 (>> floors negative x too), so (S, E) are bit for bit those of a
    generic kernel with all nine parameters over 2^(e+1)."""
    q = 1 << e
    shift = 2 * e
    a, b, step = q * (t + 1) + p, q * (t + 3) - p, q << 1
    term = total = 1 << FIXED_BITS
    err = err_total = 0
    for j in range(k):
        u = t + 2 * j
        num = (j - k) * (k + t + j) * u * a * b
        den = (j + 1) * (t + j) * (u + 1) * (u + 2) * (u + 3)
        a += step
        b += step
        term = (term * num >> shift) // den
        err = -((err * -abs(num) >> shift) // den) + 1
        total += term
        err_total += err
    return total, err_total


def _single_sum_float(state: HydrogenicState, alpha: float) -> tuple[list[float], float, float]:
    """The float single sum as (logs of its prefactor without (Z/eta)^alpha,
    quotient, bound).  The 5F4 series is summed at the dyadic rational alpha
    is stored as, in 2^-128 fixed point with a rigorous integer bound
    (`_hyp5f4_fixed`, each parameter over its own denominator and 2^(2e) a
    shift), and the rational part of the prefactor joins it in one integer
    quotient, rounded once; the bound is the kernel's alone, as exp_sum's
    model covers the quotient's rounding.  Where the sum is not positive or
    its bound reaches it, the bound is infinite; otherwise it is the quotient
    times err/total < 1, which cannot overflow, and `series_or_quadrature`
    compares it with CANCELLATION_LIMIT."""
    k, t = state.k, state.two_nu
    p, q = alpha.as_integer_ratio()  # q = 2^e
    total, err = _hyp5f4_fixed(k, t, p, q.bit_length() - 1)
    logs = _gamma_quotient_logs(t / 2, alpha)
    if total <= 0 or err >= total:
        return logs, 0.0, math.inf
    # 2(k+nu) Gamma(k+2nu) / (k! Gamma(2nu+1)) = (2k+t) (t)_k / (t k!)
    quotient, shift = round_quotient(
        (2 * k + t) * pochhammer(t, k) * total, t * math.factorial(k) << FIXED_BITS
    )
    return [*logs, shift * math.log(2.0)], quotient, quotient * (err / total)


def _hyp5f4_exact(state: HydrogenicState, a: int) -> tuple[int, int, int]:
    """The single sum's prefactor and its 5F4 series through the generic
    exact `hyp_sum` on the doubled parameters of `_hyp5f4_doubled`, not
    through the series' own loop `_hyp5f4_rational` that `single` takes."""
    num, den, two_pi = _momentum_prefactor(state, a)
    s_num, s_den = hyp_sum(HypSumSpec(*_hyp5f4_doubled(state, a)), "exact")
    return num * s_num, den * s_den, two_pi


def _double_sum_parts(state: HydrogenicState, top=(), bottom=()) -> tuple[list[int], int, int]:
    """The inner sums P(s), s = 0..2k, of the double-sum form times the
    Gammas at the doubled arguments top over bottom, as integer numerators
    over one common denominator, with twice their pi power.

    The inner sum over i+j = s squares one polynomial,
    P(s) = (-1)^s (g*g)_s / Gamma(C+s), with g_i = C(k,i) Gamma(A+i)/Gamma(B+i),
    A = n+l+D-2, B = l+D/2 and C = 2l+D+1.  Over W = 2^k (B)_k, which is the
    integer prod_{m<k} (2B+2m), g_i = Gamma(A)/Gamma(B) h_i / W with the integer
    h_i = C(k,i) (A)_i 2^i prod_{i<=m<k} (2B+2m).  Gamma(A)^2/Gamma(B)^2 and the
    extra Gammas are one `gamma_ratio_doubled` call, so what cancels between
    them is never built."""
    k = state.k
    A, two_b, C = state.n + state.l + state.D - 2, 2 * state.l + state.D, 2 * state.l + state.D + 1
    gn, gd, two_pi = gamma_ratio_doubled((2 * A, 2 * A, *top), (two_b, two_b, *bottom), 'route="single"')
    suffix = [1] * (k + 1)
    for m in range(k - 1, -1, -1):
        suffix[m] = suffix[m + 1] * (two_b + 2 * m)
    h, rising = [], 1
    for i in range(k + 1):
        h.append(math.comb(k, i) * rising * suffix[i])
        rising *= 2 * (A + i)
    # over the common Gamma(C+2k), P(s) carries (C+s)_{2k-s}
    nums, tail = [0] * (2 * k + 1), gn
    for s in range(2 * k, -1, -1):
        half = sum(h[i] * h[s - i] for i in range(max(0, s - k), (s + 1) // 2))
        conv = 2 * half + (h[s // 2] ** 2 if s % 2 == 0 else 0)
        nums[s] = (-1) ** s * conv * tail
        tail *= C + s - 1
    return nums, gd * suffix[0] ** 2 * math.factorial(C + 2 * k - 1), two_pi


def _double_sum_size(state: HydrogenicState, x_num: int, x_exp: int) -> tuple[int, int]:
    """(bits, products) of `_double_sum_series` at x = x_num / 2^x_exp: two of
    the h_i < 2^k (2A+2k)^k and their (k+1)^2/2 products; their products with
    Gamma(A)^2/Gamma(B)^2's numerator, two pairs of A-B factors at even D and
    four factorials at odd D, where 2A and 2B differ in parity; (C+2k-1)! with
    the tail and suffix squared (C+6k-1 factors below C+2k); the outer (x)_s
    with its shifts."""
    D, k, A, C = state.D, state.k, state.n + state.l + state.D - 2, 2 * state.l + state.D + 1
    h = k * ((2 * A + 2 * k).bit_length() + 1)
    ratio = 2 * gamma_bits(2 * A) + 2 * gamma_bits(C - 1) if D & 1 else (2 * A - C + 1) * (2 * A + C - 1).bit_length()
    bits = 2 * h + ratio + (C + 6 * k - 1) * (C + 2 * k).bit_length()
    bits += 2 * k * ((x_num + (2 * k << x_exp)).bit_length() + x_exp)
    return bits, 6 * k + 3 * (bits >> 6) + (k + 1) ** 2 * h * h // (4 * bits)


def _double_sum_series(state: HydrogenicState, x_num: int, x_exp: int, top=(), bottom=()) -> tuple[int, int, int]:
    """sum_s P(s) (x)_s exactly at the dyadic rational x = x_num / 2^x_exp,
    times the Gammas at the doubled arguments top over bottom, as an
    unreduced (numerator, denominator, twice the pi power)."""
    k = state.k
    nums, den, two_pi = _double_sum_parts(state, top, bottom)
    # (x)_s = prod_{m<s} (x_num + m 2^x_exp) / 2^(s x_exp), scaled by 2^(2k x_exp)
    total, rising = 0, 1
    for s, num in enumerate(nums):
        total += (num * rising) << (x_exp * (2 * k - s))
        rising *= x_num + (s << x_exp)
    return total, den << (2 * k * x_exp), two_pi


def _double_sum_exact(state: HydrogenicState, a: int) -> tuple[int, int, int]:
    """4 eta Gamma(l+(D-a)/2+1) Gamma(x) / (Gamma(A) k!) times sum_s P(s) (x)_s
    with x = l+(D+a)/2 and A = n+l+D-2, the double sum without (Z/eta)^a, as
    an unreduced (numerator, denominator, twice the pi power).  The
    prefactor's Gammas join the inner sums' Gamma(A)^2/Gamma(B)^2 in one
    ratio, where one Gamma(A) cancels before it is built."""
    x, two_a = 2 * state.l + state.D, 2 * (state.n + state.l + state.D - 2)
    x2 = x + a
    pre = state.k * state.k.bit_length()  # k!; `gamma_ratio_doubled` states the Gammas
    bits, products = _double_sum_size(state, x2, 1)
    require_cost(bits + pre, products + 2 * (pre >> 6), 'route="single"')
    total, den, two_pi = _double_sum_series(state, x2, 1, (x - a + 2, x2), (two_a,))
    return 2 * state.two_eta * total, math.factorial(state.k) * den, two_pi


def _double_sum_float(state: HydrogenicState, alpha: float) -> tuple[list[float], float, float]:
    """Float double-sum route as (logs of its prefactor without (Z/eta)^alpha,
    quotient, 0): the outer sum is exact at the dyadic rational alpha is
    stored as, and its quotient by the denominator is rounded once, which
    exp_sum's model covers."""
    D, n, l = state.D, state.n, state.l
    p, q = alpha.as_integer_ratio()  # q = 2^e
    # x = l + (D+alpha)/2 = ((2l+D) q + p) / 2^(e+1)
    x_num, x_exp = (2 * l + D) * q + p, q.bit_length()
    require_cost(*_double_sum_size(state, x_num, x_exp), 'route="single"')
    total, den, two_pi = _double_sum_series(state, x_num, x_exp)
    quotient, shift = round_quotient(total, den)
    logs = [
        math.log(2 * state.two_eta),  # 4 eta
        log_gamma(l + (D - alpha) / 2 + 1),
        log_gamma(l + (D + alpha) / 2),
        -log_gamma(n + l + D - 2),
        -log_gamma(n - l),
        two_pi / 2 * math.log(math.pi),
        shift * math.log(2.0),
    ]
    return logs, quotient, 0.0


# route -> (exact evaluator, float evaluator, method); in float mode the
# 5F4 series is the single sum
_ROUTES = {
    "single": (_single_sum_exact, _single_sum_float, Method.SINGLE_SUM),
    "hyp5f4": (_hyp5f4_exact, _single_sum_float, Method.HYP5F4),
    "double": (_double_sum_exact, _double_sum_float, Method.DOUBLE_SUM),
}


def p_moment(
    state: HydrogenicState, alpha, mode: str = "auto", route: str = "single"
) -> MomentResult:
    """<p^alpha> for a generic state.  Routes: single (default), hyp5f4, double."""
    mode = resolve_mode(alpha, mode)
    if route not in _ROUTES:
        raise UnsupportedArgument(f"route must be one of {', '.join(_ROUTES)}, got {route!r}")
    alpha_f = require_order(state, alpha, Space.MOMENTUM)
    exact_route, float_route, method = _ROUTES[route]

    if mode == "exact":
        a = int(round(alpha_f))
        return exact(*exact_route(state, a), method, Space.MOMENTUM, a, state)
    return series_or_quadrature(float_route, state, alpha_f, method, Space.MOMENTUM)


def p_moment_double_sum(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    return p_moment(state, alpha, mode=mode, route="double")


_EVEN_CLOSED = (0, 2, -2, 4, 6)


def p_moment_even_closed(state: HydrogenicState, alpha: int) -> MomentResult:
    """Tabulated even-order closed forms: alpha in {0, 2, -2, 4, 6}."""
    alpha = require_order(state, alpha, Space.MOMENTUM)
    if alpha not in _EVEN_CLOSED:
        raise OrderOutOfDomain(f"no closed form for momentum order {alpha}")
    alpha = int(alpha)  # so (Z/eta)^alpha stays a Fraction
    eta, L, nu, k = state.eta, state.L, state.nu, state.k
    Z = state.Z_exact
    if alpha == 0:
        coeff = Fraction(1)
    elif alpha == 2:
        coeff = (Z / eta) ** 2
    elif alpha in (-2, 4):
        coeff = (Z / eta) ** alpha * (8 * eta - 3 * (2 * L + 1)) / (2 * L + 1)
    else:  # alpha == 6
        den = (2 * L + 3) * (2 * L + 1) * (2 * L - 1)
        num = (4 * k + 2 * nu + 1) * (
            16 * k ** 2 + 40 * nu * k - 4 * k + 4 * nu ** 2 + 16 * nu + 15
        )
        coeff = (Z / eta) ** 6 * num / den
    return MomentResult(
        ExactValue(coeff), 0.0, Method.CLOSED_FORM, Space.MOMENTUM, float(alpha), state
    )


def reflect(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """<p^{2-alpha}> computed from <p^alpha> via the inversion identity
    (eta/Z)^{2-alpha} <p^{2-alpha}> = (eta/Z)^alpha <p^alpha>: the single
    sum at alpha times the scale (Z/eta)^(2-alpha) in place of (Z/eta)^alpha.
    In float mode `series_or_quadrature` applies the scale at 2 - alpha to the
    single sum at alpha, so the result is rounded once and is returned
    wherever it lies in the double range; in exact mode `posmom.exact` does."""
    mode = resolve_mode(alpha, mode)
    alpha_f = require_order(state, alpha, Space.MOMENTUM)
    require_order(state, 2 - alpha_f, Space.MOMENTUM)
    if mode == "float":
        # at alpha itself, which 2 - (2 - alpha) need not round back to
        return series_or_quadrature(
            lambda st, _: _single_sum_float(st, alpha_f), state, 2 - alpha_f,
            Method.REFLECTION, Space.MOMENTUM,
        )
    a = int(round(alpha_f))
    return exact(*_single_sum_exact(state, a), Method.REFLECTION, Space.MOMENTUM, 2 - a, state)


def p_moment_circular(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """Gamma-ratio closed form for circular states (l = n-1)."""
    if not state.is_circular:
        raise NotCircular(f"state has l={state.l}, n={state.n}")
    mode = resolve_mode(alpha, mode)
    alpha_f = require_order(state, alpha, Space.MOMENTUM)
    if mode == "exact":
        # (Z/eta)^a Gamma(eta+(a+1)/2) Gamma(eta+(3-a)/2) / (Gamma(eta+1/2) Gamma(eta+3/2))
        a, e = int(round(alpha_f)), state.two_eta
        ratio = gamma_ratio_doubled((e + a + 1, e + 3 - a), (e + 1, e + 3))
        return exact(*ratio, Method.CLOSED_FORM, Space.MOMENTUM, a, state)
    # nu = eta on a circular state
    logs = _gamma_quotient_logs(state.two_eta / 2, alpha_f)
    return rounded(logs, 1.0, 0.0, Method.CLOSED_FORM, Space.MOMENTUM, alpha_f, state)


def _low_order_moment(state: HydrogenicState, order: int, mode: str, ns_value) -> MomentResult:
    """<p^order> for order +-1: the circular closed form, the exact 3D nS
    value ns_value(n, Z), else the generic route."""
    mode = resolve_mode(order, mode)
    if state.is_circular:
        return p_moment_circular(state, order, mode=mode)
    if state.D == 3 and state.l == 0:
        value = ns_value(state.n, state.Z_exact)
        if mode == "float":
            v = value.to_float()
            return MomentResult(v, TO_FLOAT_REL * v, Method.CLOSED_FORM, Space.MOMENTUM, float(order), state)
        return MomentResult(value, 0.0, Method.CLOSED_FORM, Space.MOMENTUM, float(order), state)
    return p_moment(state, order, mode=mode)


def _mean_ns(n: int, Z: Fraction) -> ExactValue:
    return ExactValue(Fraction(8 * n, 4 * n * n - 1) * Z, Fraction(-1))


def mean_momentum(state: HydrogenicState, mode: str = "exact") -> MomentResult:
    """<p>, picking the cheapest applicable closed form."""
    return _low_order_moment(state, 1, mode, _mean_ns)


def _inverse_ns(n: int, Z: Fraction) -> ExactValue:
    bracket = digamma_half_exact(n) - Fraction(2 * n * n, 4 * n * n - 1)
    return ExactValue(Fraction(4 * n) / Z * bracket, Fraction(-1))


# Above this n, float <p^{-1}> of a 3D nS state takes psi from its asymptotic
# series: the exact digamma sum it would round takes 7 ms at n = 1,000
# (x86-64, Python 3.11) and grows as n^2, while the series' first omitted
# term there is below 4e-21
_PSI_SERIES_N = 1_000


def _inverse_ns_float(state: HydrogenicState) -> MomentResult:
    """Float <p^{-1}> of a 3D nS state, the float twin of `_inverse_ns`:
    (n/Z) (4/pi) times the bracket r - 2n^2/(4n^2-1), which
    `specfun.digamma_half_float` returns with its bound."""
    n = state.n
    s, bound = digamma_half_float(n, Fraction(2 * n * n, 4 * n * n - 1))
    logs = [math.log(4.0), -math.log(math.pi)]
    return rounded(logs, s, bound, Method.CLOSED_FORM, Space.MOMENTUM, -1.0, state)


def inverse_momentum(state: HydrogenicState, mode: str = "exact") -> MomentResult:
    """<p^{-1}>; for 3D nS states the exact digamma decomposition keeps the
    value rational over pi, and float mode above n = 1,000 takes psi from its
    asymptotic series (`_inverse_ns_float`)."""
    if state.D == 3 and state.l == 0 and state.n > _PSI_SERIES_N and resolve_mode(-1, mode) == "float":
        return _inverse_ns_float(state)
    return _low_order_moment(state, -1, mode, _inverse_ns)


# Physically named wrappers (proportionality constants deliberately omitted).

def dirac_slater_exchange_moment(state: HydrogenicState) -> MomentResult:
    return mean_momentum(state)


def kinetic_energy_moment(state: HydrogenicState) -> MomentResult:
    return p_moment(state, 2)


def interelectronic_repulsion_moment(state: HydrogenicState) -> MomentResult:
    return p_moment(state, 3)


def breit_pauli_moment(state: HydrogenicState) -> MomentResult:
    return p_moment(state, 4)


def appendix_constants(state: HydrogenicState) -> tuple[ExactValue, ExactValue]:
    """Exact prefactors multiplying the Gegenbauer integrals that reproduce
    <p> and <p^{-1}>: Z and eta^2/Z times Gamma(L+1)^2 2^(2L+2) k! / (2 pi
    Gamma(eta+L+1)), one Gamma ratio, since eta+L+1 = k+2nu."""
    k, t = state.k, state.two_nu  # t = 2nu = 2L+2
    num, den, two_pi = gamma_ratio_doubled((t, t, 2 * k + 2), (2 * k + 2 * t,))
    base = ExactValue.reduced(Fraction(num << (t - 1), den), two_pi - 2)
    return ExactValue(state.Z_exact) * base, ExactValue(state.eta ** 2 / state.Z_exact) * base


def appendix_integral_circular_exact(state: HydrogenicState) -> ExactValue:
    """Exact value of the mean-momentum Gegenbauer integral for circular
    states (k = 0): I = 2^{2 nu + 1} Gamma(nu+1)^2 / Gamma(2 nu + 2), one
    Gamma ratio, priced by `gamma_ratio_doubled` before it is built."""
    if not state.is_circular:
        raise NotCircular(f"state has l={state.l}, n={state.n}")
    t = state.two_nu
    num, den, two_pi = gamma_ratio_doubled((t + 2, t + 2), (2 * t + 4,))
    return ExactValue.reduced(Fraction(num << (t + 1), den), two_pi)


def appendix_integrals(state: HydrogenicState) -> tuple[float, float]:
    """The Gegenbauer-squared integrals I (mean momentum) and J (inverse
    momentum) by Gauss-Jacobi quadrature, each summed from the rule's
    log-weights, the rescaled Gegenbauer values and ln h_k and exponentiated
    once by `exp_sum`, which raises FloatOverflow or FloatUnderflow."""
    import numpy as np

    from . import oracle

    nu, k = float(state.nu), state.k
    sums = []
    for a, b in ((nu, nu), (nu - 1, nu + 1)):
        x, log_w = oracle.gauss_jacobi(max(k + 2, 8), a, b)
        q, s = oracle.gegenbauer_orthonormal(k, nu, x)
        with np.errstate(divide="ignore"):  # ln 0 at a zero of C_k
            log_terms = log_w + 2 * (np.log(np.abs(q)) + s)
        top = float(log_terms.max())
        sums.append(exp_sum([oracle._gegenbauer_log_norm(k, nu), top, math.log(np.exp(log_terms - top).sum())])[0])
    return sums[0], sums[1]
