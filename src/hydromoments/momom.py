"""Momentum expectation values <p^alpha>.

Four mutually checking routes: the default single finite sum (k+1 terms),
the raw terminating-5F4 form, the double-sum rewriting, and the reflection
identity.  For integer orders the single sum is the 5F4 series itself, so
`single` and `hyp5f4` share one integer prefactor (`_momentum_prefactor`)
and one integer kernel, and each builds one Fraction at the end: `single`
calls the kernel `specfun.hyp_sum_doubled` directly, `hyp5f4` goes through
`specfun.hyp_sum`.  Comparing the two therefore checks only one kernel call
against the other; `double` is the independent exact cross-check.  Closed
forms cover even orders, circular
states, the mean momentum and the average inverse momentum.  Integer orders
evaluate exactly; real orders use compensated float summation with a
cancellation bound and fall back to the quadrature oracle when the bound
trips.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CancellationOverflow,
    NotCircular,
    OrderOutOfDomain,
    SingularDenominator,
    UnsupportedArgument,
)
from .specfun import (
    ExactValue,
    HypSumSpec,
    digamma_half_exact,
    exp_sum,
    gamma_exact,
    gamma_ratio_doubled,
    hyp_sum,
    hyp_sum_doubled,
    is_integral,
    log_gamma,
    pochhammer,
    ratio_power,
)
from .posmom import CANCELLATION_LIMIT, Method, MomentResult, resolve_mode
from .states import HydrogenicState, MomentOrder, Space, check_order

_EPS = 2.0 ** -53


def _require_momentum_order(state: HydrogenicState, alpha: float):
    lo, hi = state.momentum_interval()
    if not lo < alpha < hi:
        raise OrderOutOfDomain(
            f"momentum order {alpha} outside ({lo}, {hi}) for D={state.D}, l={state.l}"
        )


def _zeta_pow(state: HydrogenicState, a: int) -> ExactValue:
    """(Z/eta)^a as an exact value."""
    return ExactValue((state.Z_exact / state.eta) ** a)


def _gamma_quotient_logs(nu: float, alpha: float) -> list[float]:
    """The log terms of Gamma(nu+(a+1)/2) Gamma(nu+(3-a)/2) / (Gamma(nu+1/2) Gamma(nu+3/2))."""
    return [
        log_gamma(nu + (alpha + 1) / 2),
        log_gamma(nu + (3 - alpha) / 2),
        -log_gamma(nu + 0.5),
        -log_gamma(nu + 1.5),
    ]


def _zeta_logs(state: HydrogenicState, alpha: float) -> list[float]:
    """The log terms of (Z/eta)^alpha."""
    return [alpha * math.log(state.Z), -alpha * math.log(float(state.eta))]


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
    # Z/eta = 2 Z_num / (Z_den * 2eta), and 2(k+nu) = 2k + 2nu
    z_num, z_den = state.Z.as_integer_ratio()
    zn, zd = ratio_power(2 * z_num, z_den * state.two_eta, a)
    return num * (2 * k + t) * zn, den * math.factorial(k) * zd, two_pi


def _hyp5f4_doubled(state: HydrogenicState, a: int) -> tuple[tuple, tuple]:
    """Twice the top and bottom parameters of the 5F4 series at integer order a:
    (-k, k+2nu, nu, nu+(a+1)/2, nu+(3-a)/2) over (2nu, nu+1/2, nu+1, nu+3/2)."""
    k, t = state.k, state.two_nu
    return (-2 * k, 2 * k + 2 * t, t, t + a + 1, t + 3 - a), (2 * t, t + 1, t + 2, t + 3)


def _single_sum_exact(state: HydrogenicState, a: int) -> ExactValue:
    # The single sum over j of (-1)^j C(k,j) (2nu+j)_k / (2nu)_k * nu/(nu+j)
    # * (nu+(a+1)/2)_j (nu+(3-a)/2)_j / ((nu+1/2)_j (nu+3/2)_j) is, term
    # for term, the 5F4 series; this route calls the integer kernel directly,
    # hyp5f4 reaches it through hyp_sum.
    num, den, two_pi = _momentum_prefactor(state, a)
    s_num, s_den = hyp_sum_doubled(*_hyp5f4_doubled(state, a), state.k + 1)
    return ExactValue(Fraction(num * s_num, den * s_den), Fraction(two_pi, 2))


def _single_sum_float(state: HydrogenicState, alpha: float) -> tuple[float, float]:
    k = state.k
    nu = float(state.nu)
    pref, pref_rel = exp_sum([
        math.log(2.0),
        -log_gamma(k + 1),
        math.log(k + nu),
        log_gamma(k + 2 * nu),
        -log_gamma(2 * nu + 1),
        *_gamma_quotient_logs(nu, alpha),
        *_zeta_logs(state, alpha),
    ])
    terms = []
    bounds = []
    dj = 1.0
    for j in range(k + 1):
        t = (-1) ** j * math.comb(k, j) * pochhammer(2 * nu + j, k, "float") * dj
        if not math.isfinite(t):
            raise CancellationOverflow(f"term {j} overflowed at n={state.n}")
        terms.append(t)
        bounds.append(10.0 * (j + 1) * _EPS * abs(t))
        dj *= (
            (nu + j)
            / (nu + j + 1)
            * (nu + (alpha + 1) / 2 + j)
            * (nu + (3 - alpha) / 2 + j)
            / ((nu + 0.5 + j) * (nu + 1.5 + j))
        )
    denom = pochhammer(2 * nu, k, "float")
    s = math.fsum(terms) / denom
    bound = (math.fsum(bounds) + _EPS * abs(s) * denom) / denom
    value = pref * s
    err = pref * bound + (pref_rel + 20 * _EPS) * abs(value)
    return value, err


def _hyp5f4_spec(state: HydrogenicState, alpha) -> HypSumSpec:
    if is_integral(alpha):
        top2, bottom2 = _hyp5f4_doubled(state, int(round(float(alpha))))
        top = tuple(Fraction(x, 2) for x in top2)
        bottom = tuple(Fraction(x, 2) for x in bottom2)
    else:
        k, nu_f = state.k, float(state.nu)
        top = (-k, k + 2 * nu_f, nu_f, nu_f + (alpha + 1) / 2, nu_f + (3 - alpha) / 2)
        bottom = (2 * nu_f, nu_f + 0.5, nu_f + 1, nu_f + 1.5)
    return HypSumSpec(top=top, bottom=bottom, terms=state.k + 1)


def _hyp5f4_exact(state: HydrogenicState, a: int) -> ExactValue:
    num, den, two_pi = _momentum_prefactor(state, a)
    series = hyp_sum(_hyp5f4_spec(state, a), "exact").coeff
    return ExactValue(
        Fraction(num * series.numerator, den * series.denominator), Fraction(two_pi, 2)
    )


def _hyp5f4_float(state: HydrogenicState, alpha: float) -> tuple[float, float]:
    k = state.k
    nu = float(state.nu)
    pref, pref_rel = exp_sum([
        (1 - 2 * nu) * math.log(2.0),
        0.5 * math.log(math.pi),
        -log_gamma(k + 1),
        math.log(k + nu),
        log_gamma(k + 2 * nu),
        *_gamma_quotient_logs(nu, alpha),
        -log_gamma(nu + 0.5),
        -log_gamma(nu + 1),
        *_zeta_logs(state, alpha),
    ])
    s, bound = hyp_sum(_hyp5f4_spec(state, alpha), "float")
    value = pref * s
    err = pref * bound + (pref_rel + 20 * _EPS) * abs(value)
    return value, err


@lru_cache(maxsize=512)
def _double_sum_parts_exact(D: int, n: int, l: int) -> tuple[ExactValue, ...]:
    """P(s) = sum over i+j=s of Pi_{i,j}(n,l,D), s = 0..2k."""
    k = n - l - 1
    parts = []
    for s in range(2 * k + 1):
        acc = None
        for i in range(max(0, s - k), min(k, s) + 1):
            j = s - i
            term = (
                ExactValue(
                    pochhammer(-k, i) * pochhammer(-k, j)
                    / (math.factorial(i) * math.factorial(j))
                )
                * gamma_exact(n + l + D - 2 + i)
                * gamma_exact(n + l + D - 2 + j)
                / (
                    gamma_exact(l + Fraction(D, 2) + i)
                    * gamma_exact(l + Fraction(D, 2) + j)
                    * gamma_exact(2 * l + D + 1 + i + j)
                )
            )
            acc = term if acc is None else acc + term
        parts.append(acc)
    return tuple(parts)


def _double_sum_exact(state: HydrogenicState, a: int) -> ExactValue:
    D, n, l = state.D, state.n, state.l
    parts = _double_sum_parts_exact(D, n, l)
    acc = None
    for s, part in enumerate(parts):
        term = part * gamma_exact(l + Fraction(D + a, 2) + s)
        acc = term if acc is None else acc + term
    pref = (
        ExactValue(4 * state.eta)
        * _zeta_pow(state, a)
        * gamma_exact(l + Fraction(D - a, 2) + 1)
        / (gamma_exact(n + l + D - 2) * gamma_exact(n - l))
    )
    return pref * acc


def _log_abs_fraction(fr: Fraction) -> tuple[int, float]:
    """(sign, log|fr|) without overflow for huge integers."""
    if fr == 0:
        return 0, -math.inf
    sign = 1 if fr > 0 else -1
    num, den = abs(fr.numerator), fr.denominator
    # shift both into float range before taking logs
    sn = max(num.bit_length() - 900, 0)
    sd = max(den.bit_length() - 900, 0)
    return sign, math.log(num >> sn) + sn * _LOG2 - math.log(den >> sd) - sd * _LOG2


_LOG2 = math.log(2.0)


def _double_sum_float(state: HydrogenicState, alpha: float) -> tuple[float, float]:
    """Float double-sum route.  The alpha-independent inner cancellation is
    collapsed exactly once per state, leaving a short outer sum in s."""
    D, n, l = state.D, state.n, state.l
    parts = _double_sum_parts_exact(D, n, l)
    pi_pow = float(parts[0].pi_pow)
    lscale = log_gamma(n + l + D - 2)  # keeps exp() in range
    x = l + (D + alpha) / 2
    # shared gamma recurrence: errors correlate across terms and factor out,
    # so cancellation only amplifies the per-term rounding below
    g, g_rel = exp_sum([log_gamma(x), -lscale, pi_pow * math.log(math.pi)])
    terms = []
    bounds = []
    for s, part in enumerate(parts):
        try:
            c = float(part.coeff)
        except OverflowError:
            sign, logc = _log_abs_fraction(part.coeff)
            c = sign * math.exp(logc)
        t = c * g
        if not math.isfinite(t):
            raise CancellationOverflow(f"term {s} overflowed at n={state.n}")
        terms.append(t)
        bounds.append((s + 4) * _EPS * abs(t))
        g *= x + s
    total = math.fsum(terms)
    bound = math.fsum(bounds) + 40 * _EPS * math.fsum(abs(t) for t in terms)
    pref, pref_rel = exp_sum([
        math.log(4 * float(state.eta)),
        *_zeta_logs(state, alpha),
        log_gamma(l + (D - alpha) / 2 + 1),
        -log_gamma(n + l + D - 2),
        -log_gamma(n - l),
        lscale,
    ])
    value = pref * total
    return value, pref * bound + (g_rel + pref_rel + 20 * _EPS) * abs(value)


# route -> (exact evaluator, float evaluator, method)
_ROUTES = {
    "single": (_single_sum_exact, _single_sum_float, Method.SINGLE_SUM),
    "hyp5f4": (_hyp5f4_exact, _hyp5f4_float, Method.HYP5F4),
    "double": (_double_sum_exact, _double_sum_float, Method.DOUBLE_SUM),
}


def p_moment(
    state: HydrogenicState, alpha, mode: str = "auto", route: str = "single"
) -> MomentResult:
    """<p^alpha> for a generic state.  Routes: single (default), hyp5f4, double."""
    alpha_f = float(alpha)
    mode = resolve_mode(alpha, mode)
    if route not in _ROUTES:
        raise UnsupportedArgument(f"route must be one of {', '.join(_ROUTES)}, got {route!r}")
    _require_momentum_order(state, alpha_f)
    exact_route, float_route, method = _ROUTES[route]

    if mode == "exact":
        value = exact_route(state, int(round(alpha_f)))
        return MomentResult(value, 0.0, method, Space.MOMENTUM, alpha_f, state)

    try:
        value, err = float_route(state, alpha_f)
    except CancellationOverflow:
        value, err = math.nan, math.inf
    if err > CANCELLATION_LIMIT * abs(value) or value <= 0 or not math.isfinite(value):
        from . import oracle

        return oracle.quad_p_moment(state, alpha_f)
    return MomentResult(value, err, method, Space.MOMENTUM, alpha_f, state)


def p_moment_double_sum(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    return p_moment(state, alpha, mode=mode, route="double")


_EVEN_CLOSED = (0, 2, -2, 4, 6)


def p_moment_even_closed(state: HydrogenicState, alpha: int) -> MomentResult:
    """Tabulated even-order closed forms: alpha in {0, 2, -2, 4, 6}."""
    if alpha not in _EVEN_CLOSED:
        raise OrderOutOfDomain(f"no closed form for momentum order {alpha}")
    _require_momentum_order(state, alpha)
    eta, L, nu, k = state.eta, state.L, state.nu, state.k
    Z = state.Z_exact
    if alpha == 0:
        coeff = Fraction(1)
    elif alpha == 2:
        coeff = (Z / eta) ** 2
    elif alpha in (-2, 4):
        if 2 * L + 1 == 0:
            raise SingularDenominator("2L+1 vanishes")
        coeff = (Z / eta) ** alpha * (8 * eta - 3 * (2 * L + 1)) / (2 * L + 1)
    else:  # alpha == 6
        den = (2 * L + 3) * (2 * L + 1) * (2 * L - 1)
        if den == 0:
            raise SingularDenominator("(2L+3)(2L+1)(2L-1) vanishes")
        num = (4 * k + 2 * nu + 1) * (
            16 * k ** 2 + 40 * nu * k - 4 * k + 4 * nu ** 2 + 16 * nu + 15
        )
        coeff = (Z / eta) ** 6 * num / den
    return MomentResult(
        ExactValue(coeff), 0.0, Method.CLOSED_FORM, Space.MOMENTUM, float(alpha), state
    )


def reflect(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """<p^{2-alpha}> computed from <p^alpha> via the inversion identity
    (eta/Z)^{2-alpha} <p^{2-alpha}> = (eta/Z)^alpha <p^alpha>."""
    alpha_f = float(alpha)
    mode = resolve_mode(alpha, mode)
    _require_momentum_order(state, alpha_f)
    _require_momentum_order(state, 2 - alpha_f)
    base = p_moment(state, alpha, mode=mode)
    if base.is_exact:
        a = int(round(alpha_f))
        factor = ExactValue((state.eta / state.Z_exact) ** (2 * a - 2))
        value = base.value * factor
        err = 0.0
    else:
        factor = (float(state.eta) / state.Z) ** (2 * alpha_f - 2)
        value = base.as_float() * factor
        err = base.error_estimate * factor + 4 * abs(value) * _EPS
    return MomentResult(value, err, Method.REFLECTION, Space.MOMENTUM, 2 - alpha_f, state)


def p_moment_circular(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """Gamma-ratio closed form for circular states (l = n-1)."""
    if not state.is_circular:
        raise NotCircular(f"state has l={state.l}, n={state.n}")
    alpha_f = float(alpha)
    mode = resolve_mode(alpha, mode)
    _require_momentum_order(state, alpha_f)
    eta = state.eta
    if mode == "exact":
        a = int(round(alpha_f))
        value = (
            _zeta_pow(state, a)
            * gamma_exact(eta + Fraction(a + 1, 2))
            * gamma_exact(eta + Fraction(3 - a, 2))
            / (gamma_exact(eta + Fraction(1, 2)) * gamma_exact(eta + Fraction(3, 2)))
        )
        return MomentResult(value, 0.0, Method.CLOSED_FORM, Space.MOMENTUM, alpha_f, state)
    value, rel = exp_sum([*_zeta_logs(state, alpha_f), *_gamma_quotient_logs(float(eta), alpha_f)])
    return MomentResult(
        value, (rel + 8 * _EPS) * value, Method.CLOSED_FORM, Space.MOMENTUM, alpha_f, state
    )


def mean_momentum(state: HydrogenicState, mode: str = "exact") -> MomentResult:
    """<p>, picking the cheapest applicable closed form."""
    if state.is_circular:
        return p_moment_circular(state, 1, mode=mode)
    if state.D == 3 and state.l == 0:
        n = state.n
        coeff = Fraction(8 * n, 4 * n * n - 1) * state.Z_exact
        value = ExactValue(coeff, Fraction(-1))
        if mode == "float":
            return MomentResult(
                value.to_float(), 4 * value.to_float() * _EPS,
                Method.CLOSED_FORM, Space.MOMENTUM, 1.0, state,
            )
        return MomentResult(value, 0.0, Method.CLOSED_FORM, Space.MOMENTUM, 1.0, state)
    return p_moment(state, 1, mode=mode)


def inverse_momentum(state: HydrogenicState, mode: str = "exact") -> MomentResult:
    """<p^{-1}>; for 3D nS states the exact digamma decomposition keeps the
    value rational over pi."""
    if state.is_circular:
        eta = state.eta
        if mode == "exact":
            value = (
                _zeta_pow(state, -1)
                * gamma_exact(eta)
                * gamma_exact(eta + 2)
                / (gamma_exact(eta + Fraction(1, 2)) * gamma_exact(eta + Fraction(3, 2)))
            )
            return MomentResult(value, 0.0, Method.CLOSED_FORM, Space.MOMENTUM, -1.0, state)
        return p_moment_circular(state, -1.0, mode="float")
    if state.D == 3 and state.l == 0:
        n = state.n
        bracket = digamma_half_exact(n) - Fraction(2 * n * n, 4 * n * n - 1)
        value = ExactValue(Fraction(4 * n) / state.Z_exact * bracket, Fraction(-1))
        if mode == "float":
            return MomentResult(
                value.to_float(), 4 * value.to_float() * _EPS,
                Method.CLOSED_FORM, Space.MOMENTUM, -1.0, state,
            )
        return MomentResult(value, 0.0, Method.CLOSED_FORM, Space.MOMENTUM, -1.0, state)
    return p_moment(state, -1, mode=mode)


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
    I = math.fsum(w * oracle.gegenbauer(k, float(state.nu), x) ** 2 for x, w in zip(x_i, w_i))
    x_j, w_j = oracle.gauss_jacobi(nodes, nu - 1, nu + 1)
    J = math.fsum(w * oracle.gegenbauer(k, float(state.nu), x) ** 2 for x, w in zip(x_j, w_j))
    return I, J
