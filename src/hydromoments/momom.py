"""Momentum expectation values <p^alpha>.

Four mutually checking routes: the default single finite sum (k+1 terms),
the raw terminating-5F4 form, the double-sum rewriting, and the reflection
identity.  For integer orders the single sum is the 5F4 series itself, so
`single` and `hyp5f4` share one integer prefactor (`_momentum_prefactor`)
and one integer kernel, and each builds one Fraction at the end: `single`
calls the kernel `specfun.hyp_sum_doubled` directly, `hyp5f4` goes through
`specfun.hyp_sum`.  Comparing the two therefore checks only one kernel call
against the other; `double` is the independent exact cross-check.  Its inner
sums are the square of one integer polynomial (`_double_sum_parts`),
recomputed per call without a cache, and it calls neither 5F4 kernel entry.
Both of its modes sum the outer series exactly at a dyadic rational x
(`_double_sum_series`), so its float mode rounds once.
In float mode `hyp5f4` is `single`: both sum the series in
`_single_sum_float`, which takes one float Pochhammer symbol (2nu)_k and
advances (2nu+j)_k term by term by the ratio (2nu+j+k)/(2nu+j), so the k+1
terms cost O(k).  Float paths read the integers 2nu and 2eta rather than
build the Fractions nu and eta.  Closed forms cover even orders, circular
states, the mean momentum and the average inverse momentum.  Integer orders
evaluate exactly.  Each float series returns the logs of its Z-free
prefactor, its sum and a bound; `posmom.series_or_quadrature` adds the logs
of the scale (Z/eta)^alpha at the order it is called with and rounds once
or, when the bound shows cancellation, replaces it by the quadrature oracle.
Float `reflect` is the single sum at alpha called at 2 - alpha.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotCircular, OrderOutOfDomain, UnsupportedArgument
from .specfun import (
    ExactValue,
    HypSumSpec,
    digamma_half_exact,
    exp_sum,
    gamma_exact,
    gamma_ratio_doubled,
    hyp_sum,
    hyp_sum_doubled,
    log_gamma,
    pochhammer,
)
from .posmom import Method, MomentResult, resolve_mode, series_or_quadrature
from .states import HydrogenicState, Space, require_order

_EPS = 2.0 ** -53


def _gamma_quotient_logs(nu: float, alpha: float) -> list[float]:
    """The log terms of Gamma(nu+(a+1)/2) Gamma(nu+(3-a)/2) / (Gamma(nu+1/2) Gamma(nu+3/2))."""
    return [
        log_gamma(nu + (alpha + 1) / 2),
        log_gamma(nu + (3 - alpha) / 2),
        -log_gamma(nu + 0.5),
        -log_gamma(nu + 1.5),
    ]


def _momentum_prefactor(state: HydrogenicState, a: int) -> tuple[int, int, int]:
    """The exact prefactor of the 5F4 series at integer order a,
    (Z/eta)^a 2(k+nu)/k! Gamma(k+2nu)/Gamma(2nu+1)
    * Gamma(nu+(a+1)/2) Gamma(nu+(3-a)/2) / (Gamma(nu+1/2) Gamma(nu+3/2)),
    as an unreduced (numerator, denominator, twice the pi power).

    By Legendre's duplication formula,
    Gamma(2nu+1) = 2^(2nu) Gamma(nu+1/2) Gamma(nu+1) / sqrt(pi), this is the
    paper's 2^(1-2nu) sqrt(pi) (k+nu)/k! Gamma(k+2nu) Gamma(nu+(a+1)/2)
    Gamma(nu+(3-a)/2) / (Gamma(nu+1/2)^2 Gamma(nu+1) Gamma(nu+3/2))."""
    k, t = state.k, state.two_nu
    num, den, two_pi = gamma_ratio_doubled(
        (2 * k + 2 * t, t + a + 1, t + 3 - a), (2 * t + 2, t + 1, t + 3)
    )
    # 2(k+nu) = 2k + 2nu
    zn, zd = state.scale(a, Space.MOMENTUM)
    return num * (2 * k + t) * zn, den * math.factorial(k) * zd, two_pi


def _hyp5f4_doubled(state: HydrogenicState, a: int) -> tuple[tuple, tuple]:
    """Twice the top and bottom parameters of the 5F4 series at integer order a:
    (-k, k+2nu, nu, nu+(a+1)/2, nu+(3-a)/2) over (2nu, nu+1/2, nu+1, nu+3/2)."""
    k, t = state.k, state.two_nu
    return (-2 * k, 2 * k + 2 * t, t, t + a + 1, t + 3 - a), (2 * t, t + 1, t + 2, t + 3)


def _single_sum_exact(state: HydrogenicState, a: int, scale: tuple[int, int] = (1, 1)) -> ExactValue:
    """The single sum at integer order a times the integer ratio
    scale[0]/scale[1], as one Fraction."""
    # The single sum over j of (-1)^j C(k,j) (2nu+j)_k / (2nu)_k * nu/(nu+j)
    # * (nu+(a+1)/2)_j (nu+(3-a)/2)_j / ((nu+1/2)_j (nu+3/2)_j) is, term
    # for term, the 5F4 series; this route calls the integer kernel directly,
    # hyp5f4 reaches it through hyp_sum.
    num, den, two_pi = _momentum_prefactor(state, a)
    s_num, s_den = hyp_sum_doubled(*_hyp5f4_doubled(state, a), state.k + 1)
    return ExactValue(
        Fraction(num * s_num * scale[0], den * s_den * scale[1]), Fraction(two_pi, 2)
    )


def _single_sum_float(state: HydrogenicState, alpha: float) -> tuple[list[float], float, float]:
    """The float single sum as (logs of its prefactor without (Z/eta)^alpha,
    sum, bound); the sum is nan when a term overflows."""
    k = state.k
    nu = state.two_nu / 2  # float(nu), without building the Fraction
    logs = [
        math.log(2.0),
        -log_gamma(k + 1),
        math.log(k + nu),
        log_gamma(k + 2 * nu),
        -log_gamma(2 * nu + 1),
        *_gamma_quotient_logs(nu, alpha),
    ]
    terms = []
    bounds = []
    dj = 1.0
    denom = pochhammer(2 * nu, k, "float")
    rising = denom  # (2nu+j)_k; 2nu is an integer, so 2nu+j and 2nu+j+k are exact
    for j in range(k + 1):
        t = (-1) ** j * math.comb(k, j) * rising * dj
        if not math.isfinite(t):
            return logs, math.nan, math.inf
        terms.append(t)
        bounds.append(10.0 * (j + 1) * _EPS * abs(t))
        rising *= (2 * nu + j + k) / (2 * nu + j)
        dj *= (
            (nu + j)
            / (nu + j + 1)
            * (nu + (alpha + 1) / 2 + j)
            * (nu + (3 - alpha) / 2 + j)
            / ((nu + 0.5 + j) * (nu + 1.5 + j))
        )
    s = math.fsum(terms) / denom
    bound = (math.fsum(bounds) + _EPS * abs(s) * denom) / denom
    return logs, s, bound + 20 * _EPS * abs(s)


def _hyp5f4_exact(state: HydrogenicState, a: int) -> ExactValue:
    num, den, two_pi = _momentum_prefactor(state, a)
    top2, bottom2 = _hyp5f4_doubled(state, a)
    spec = HypSumSpec(
        top=tuple(Fraction(x, 2) for x in top2),
        bottom=tuple(Fraction(x, 2) for x in bottom2),
        terms=state.k + 1,
    )
    series = hyp_sum(spec, "exact").coeff
    return ExactValue(
        Fraction(num * series.numerator, den * series.denominator), Fraction(two_pi, 2)
    )


def _double_sum_parts(state: HydrogenicState) -> tuple[list[int], int, int]:
    """The inner sums P(s), s = 0..2k, of the double-sum form as integer
    numerators over one common denominator, with twice their pi power.

    The inner sum over i+j = s squares one polynomial,
    P(s) = (-1)^s (g*g)_s / Gamma(C+s), with g_i = C(k,i) Gamma(A+i)/Gamma(B+i),
    A = n+l+D-2, B = l+D/2 and C = 2l+D+1.  Over W = 2^k (B)_k, which is the
    integer prod_{m<k} (2B+2m), g_i = Gamma(A)/Gamma(B) h_i / W with the integer
    h_i = C(k,i) (A)_i 2^i prod_{i<=m<k} (2B+2m)."""
    k = state.k
    A, two_b, C = state.n + state.l + state.D - 2, 2 * state.l + state.D, 2 * state.l + state.D + 1
    suffix = [1] * (k + 1)
    for m in range(k - 1, -1, -1):
        suffix[m] = suffix[m + 1] * (two_b + 2 * m)
    h, rising = [], 1
    for i in range(k + 1):
        h.append(math.comb(k, i) * rising * suffix[i])
        rising *= 2 * (A + i)
    gn, gd, two_pi = gamma_ratio_doubled((2 * A, 2 * A), (two_b, two_b))
    # over the common Gamma(C+2k), P(s) carries (C+s)_{2k-s}
    nums, tail = [0] * (2 * k + 1), gn
    for s in range(2 * k, -1, -1):
        half = sum(h[i] * h[s - i] for i in range(max(0, s - k), (s + 1) // 2))
        conv = 2 * half + (h[s // 2] ** 2 if s % 2 == 0 else 0)
        nums[s] = (-1) ** s * conv * tail
        tail *= C + s - 1
    return nums, gd * suffix[0] ** 2 * math.factorial(C + 2 * k - 1), two_pi


def _double_sum_series(state: HydrogenicState, x_num: int, x_exp: int) -> tuple[int, int, int]:
    """sum_s P(s) (x)_s exactly at the dyadic rational x = x_num / 2^x_exp, as an
    unreduced (numerator, denominator, twice the pi power)."""
    k = state.k
    nums, den, two_pi = _double_sum_parts(state)
    # (x)_s = prod_{m<s} (x_num + m 2^x_exp) / 2^(s x_exp), scaled by 2^(2k x_exp)
    total, rising = 0, 1
    for s, num in enumerate(nums):
        total += (num * rising) << (x_exp * (2 * k - s))
        rising *= x_num + (s << x_exp)
    return total, den << (2 * k * x_exp), two_pi


def _double_sum_exact(state: HydrogenicState, a: int) -> ExactValue:
    """4 eta (Z/eta)^a Gamma(l+(D-a)/2+1) Gamma(x) / (Gamma(A) k!) times
    sum_s P(s) (x)_s with x = l+(D+a)/2 and A = n+l+D-2, as one Fraction."""
    x2 = 2 * state.l + state.D + a
    total, den, two_pi = _double_sum_series(state, x2, 1)
    pn, pd, p_two_pi = gamma_ratio_doubled(
        (2 * state.l + state.D - a + 2, x2), (2 * (state.n + state.l + state.D - 2),)
    )
    zn, zd = state.scale(a, Space.MOMENTUM)
    coeff = Fraction(
        2 * state.two_eta * pn * zn * total, pd * zd * math.factorial(state.k) * den
    )
    return ExactValue(coeff, Fraction(two_pi + p_two_pi, 2))


def _double_sum_float(state: HydrogenicState, alpha: float) -> tuple[list[float], float, float]:
    """Float double-sum route as (logs of its prefactor without (Z/eta)^alpha,
    quotient, bound): the outer sum is exact at the dyadic rational alpha is
    stored as, and its quotient by the denominator is rounded once."""
    D, n, l = state.D, state.n, state.l
    p, q = alpha.as_integer_ratio()  # q = 2^e
    # x = l + (D+alpha)/2 = ((2l+D) q + p) / 2^(e+1)
    total, den, two_pi = _double_sum_series(state, (2 * l + D) * q + p, q.bit_length())
    # total/den = quotient * 2^shift with the quotient in (1/2, 2), rounded once
    shift = total.bit_length() - den.bit_length()
    quotient = total / (den << shift) if shift >= 0 else (total << -shift) / den
    logs = [
        math.log(2 * state.two_eta),  # 4 eta
        log_gamma(l + (D - alpha) / 2 + 1),
        log_gamma(l + (D + alpha) / 2),
        -log_gamma(n + l + D - 2),
        -log_gamma(n - l),
        two_pi / 2 * math.log(math.pi),
        shift * math.log(2.0),
    ]
    return logs, quotient, 4 * _EPS * quotient


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
        value = exact_route(state, int(round(alpha_f)))
        return MomentResult(value, 0.0, method, Space.MOMENTUM, alpha_f, state)

    return series_or_quadrature(float_route, state, alpha_f, method, Space.MOMENTUM)


def p_moment_double_sum(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    return p_moment(state, alpha, mode=mode, route="double")


_EVEN_CLOSED = (0, 2, -2, 4, 6)


def p_moment_even_closed(state: HydrogenicState, alpha: int) -> MomentResult:
    """Tabulated even-order closed forms: alpha in {0, 2, -2, 4, 6}."""
    if alpha not in _EVEN_CLOSED:
        raise OrderOutOfDomain(f"no closed form for momentum order {alpha}")
    require_order(state, alpha, Space.MOMENTUM)
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
    wherever it lies in the double range.  In exact mode the single sum at a
    is multiplied by (Z/eta)^(2-2a) as integers into one Fraction."""
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
    value = _single_sum_exact(state, a, state.scale(2 - 2 * a, Space.MOMENTUM))
    return MomentResult(value, 0.0, Method.REFLECTION, Space.MOMENTUM, 2 - alpha_f, state)


def p_moment_circular(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """Gamma-ratio closed form for circular states (l = n-1)."""
    if not state.is_circular:
        raise NotCircular(f"state has l={state.l}, n={state.n}")
    mode = resolve_mode(alpha, mode)
    alpha_f = require_order(state, alpha, Space.MOMENTUM)
    if mode == "exact":
        # (Z/eta)^a Gamma(eta+(a+1)/2) Gamma(eta+(3-a)/2) / (Gamma(eta+1/2) Gamma(eta+3/2))
        a, e = int(round(alpha_f)), state.two_eta
        num, den, two_pi = gamma_ratio_doubled((e + a + 1, e + 3 - a), (e + 1, e + 3))
        zn, zd = state.scale(a, Space.MOMENTUM)
        value = ExactValue(Fraction(num * zn, den * zd), Fraction(two_pi, 2))
        return MomentResult(value, 0.0, Method.CLOSED_FORM, Space.MOMENTUM, alpha_f, state)
    # nu = eta on a circular state
    logs = [*state.scale_logs(alpha_f, Space.MOMENTUM), *_gamma_quotient_logs(state.two_eta / 2, alpha_f)]
    value, rel = exp_sum(logs)
    return MomentResult(
        value, (rel + 8 * _EPS) * value, Method.CLOSED_FORM, Space.MOMENTUM, alpha_f, state
    )


def _low_order_moment(state: HydrogenicState, order: int, mode: str, ns_value) -> MomentResult:
    """<p^order> for order +-1: the circular closed form, the exact 3D nS
    value ns_value(n, Z), else the generic route."""
    mode = resolve_mode(order, mode)
    if state.is_circular:
        return p_moment_circular(state, order, mode=mode)
    if state.D == 3 and state.l == 0:
        value = ns_value(state.n, state.Z_exact)
        if mode == "float":
            return MomentResult(
                value.to_float(), 4 * value.to_float() * _EPS,
                Method.CLOSED_FORM, Space.MOMENTUM, float(order), state,
            )
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


def inverse_momentum(state: HydrogenicState, mode: str = "exact") -> MomentResult:
    """<p^{-1}>; for 3D nS states the exact digamma decomposition keeps the
    value rational over pi."""
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
    <p> and <p^{-1}> respectively."""
    eta, L, k = state.eta, state.L, state.k
    base = (
        ExactValue(Fraction(2) ** int(2 * L + 2))
        * gamma_exact(L + 1) ** 2
        * ExactValue(Fraction(math.factorial(k), 2), Fraction(-1))
        / gamma_exact(eta + L + 1)
    )
    k_mean = ExactValue(state.Z_exact) * base
    k_inv = ExactValue(eta ** 2 / state.Z_exact) * base
    return k_mean, k_inv


def appendix_integral_circular_exact(state: HydrogenicState) -> ExactValue:
    """Exact value of the mean-momentum Gegenbauer integral for circular
    states (k = 0): I = 2^{2 nu + 1} Gamma(nu+1)^2 / Gamma(2 nu + 2)."""
    if not state.is_circular:
        raise NotCircular(f"state has l={state.l}, n={state.n}")
    nu = state.nu
    return (
        ExactValue(Fraction(2) ** int(2 * nu + 1))
        * gamma_exact(nu + 1) ** 2
        / gamma_exact(2 * nu + 2)
    )


def appendix_integrals(state: HydrogenicState) -> tuple[float, float]:
    """The Gegenbauer-squared integrals I (mean momentum) and J (inverse
    momentum), evaluated by Gauss-Jacobi quadrature."""
    from . import oracle

    nu = float(state.nu)
    k = state.k
    nodes = max(k + 2, 8)
    x_i, w_i = oracle.gauss_jacobi(nodes, nu, nu)
    I = math.fsum(w_i * oracle.gegenbauer(k, nu, x_i) ** 2)
    x_j, w_j = oracle.gauss_jacobi(nodes, nu - 1, nu + 1)
    J = math.fsum(w_j * oracle.gegenbauer(k, nu, x_j) ** 2)
    return I, J
