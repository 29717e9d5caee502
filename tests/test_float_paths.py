"""The float paths read the integer symbols two_nu and two_eta instead of
building the Fractions nu, eta and L, and the single sum advances (2nu+j)_k
by a ratio.  The first must not change a bit; copies of the Fraction-based
code are kept here.  The second must stay within its own error bound of a
30-digit reference and fall back no more often than the O(k^2) loop did, and
the float double route, which sums exactly and rounds once, and float
`reflect` must stay within their bounds of the same reference."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hydromoments import (
    make_state,
    p_moment,
    p_moment_circular,
    quad_p_moment,
    quad_r_moment,
    r_moment,
    reflect,
)
from hydromoments.momom import _gamma_quotient_logs, _single_sum_float
from hydromoments.oracle import _EPS, _rule_size, gauss_jacobi, gegenbauer_orthonormal
from hydromoments.posmom import CANCELLATION_LIMIT, Method, Space, _r_series_float, series_or_quadrature
from hydromoments.specfun import HypSumSpec, exp_sum, hyp_sum, log_gamma, pochhammer
from hydromoments.states import HydrogenicState

ZS = (0.1, 3.906504, Fraction(3, 2))
ORDERS = (-1.7, -0.5, 0.3, 1.5, 2.9, 6.25)


def _states(dims=range(2, 9), ns=(*range(1, 13), 20, 31, 40)):
    """Odd and even D, l in {0, n//2, n-1}; Z cycles through ZS."""
    for D in dims:
        for n in ns:
            for l in sorted({0, n // 2, n - 1}):
                yield make_state(D, n, l, ZS[(n + l + D) % len(ZS)])


def _orders(state):
    lo, hi = state.momentum_interval()
    return [a for a in ORDERS if lo < a < hi]


# Copies of the code that built nu, eta and L as Fractions.

def _zeta_logs_fraction(state, alpha):
    return [alpha * math.log(state.Z), -alpha * math.log(float(state.eta))]


def _r_series_fraction(state, alpha):
    k, L, eta = state.k, state.L, state.eta
    logs = [
        -math.log(float(2 * eta)),
        log_gamma(float(2 * L + 3) + alpha),
        -log_gamma(float(2 * L + 2)),
    ]
    spec = HypSumSpec(top=(-k, -alpha - 1, alpha + 2), bottom=(float(2 * L + 2), 1.0), terms=k + 1)
    s, bound = hyp_sum(spec, "float")
    return logs, s, bound + 4 * 2.0 ** -52 * abs(s)


def _reflect_fraction(state, alpha):
    """The single sum at alpha; series_or_quadrature applies the scale at 2 - alpha."""
    return _single_sum_float(state, alpha)


def _circular_fraction(state, alpha):
    eta = state.eta
    value, rel = exp_sum([*_zeta_logs_fraction(state, alpha), *_gamma_quotient_logs(float(eta), alpha)])
    return value, (rel + 8 * _EPS) * value


def _quad_p_two_passes(state, alpha):
    """quad_p_moment with one Gegenbauer pass per rule."""
    nu, k = float(state.nu), state.k
    m = _rule_size(k)
    a, b = (nu - 0.5) + alpha / 2, (nu + 0.5) - alpha / 2
    x, w = gauss_jacobi(m, a, b)
    vals = gegenbauer_orthonormal(k, nu, x)
    x2, w2 = gauss_jacobi(m + 1, a, b)
    v2 = gegenbauer_orthonormal(k, nu, x2)
    peak = max(float(np.abs(vals).max()), float(np.abs(v2).max()))
    s = float(np.dot(w, (vals / peak) ** 2))
    value, rel = exp_sum([*_zeta_logs_fraction(state, alpha), 2 * math.log(peak), math.log(s)])
    s2 = float(np.dot(w2, (v2 / peak) ** 2))
    _, mu0_rel = exp_sum([(a + b + 1) * math.log(2.0), log_gamma(a + 1), log_gamma(b + 1), -log_gamma(a + b + 2)])
    return value, value * abs(s - s2) / s + ((50 * (k + 1) + 2 * k * k) * _EPS + rel + mu0_rel) * value


def _result(evaluate, state, alpha, method=Method.SINGLE_SUM):
    """(value, error_estimate, method) of a float momentum series."""
    res = series_or_quadrature(evaluate, state, alpha, method, Space.MOMENTUM)
    return res.value, res.error_estimate, res.method


def test_float_paths_build_no_fractions(monkeypatch):
    def forbidden(self):
        raise AssertionError("a float path built a Fraction symbol")

    states = list(_states(ns=(1, 2, 3, 7, 12, 40)))
    for name in ("nu", "eta", "L"):
        monkeypatch.setattr(HydrogenicState, name, property(forbidden))
    calls = 0
    for s in states:
        lo, hi = s.momentum_interval()
        for a in _orders(s):
            for route in ("single", "hyp5f4", "double"):
                p_moment(s, a, mode="float", route=route)
            if lo < 2 - a < hi:
                reflect(s, a, mode="float")
            if s.is_circular:
                p_moment_circular(s, a, mode="float")
            r_moment(s, a, mode="float")
            quad_p_moment(s, a)
            quad_r_moment(s, a)
            calls += 1
    assert calls > 500


@pytest.mark.parametrize("D", range(2, 9))
def test_float_paths_are_bit_identical_to_the_fraction_code(D):
    for s in _states(dims=(D,)):
        for a in _orders(s):
            assert _r_series_float(s, a) == _r_series_fraction(s, a), (s, a)
            res = p_moment(s, a, mode="float", route="double")
            assert res.method is Method.DOUBLE_SUM, (s, a)
            assert abs(res.value - _p_moment_reference(s, a)) <= res.error_estimate, (s, a, res)
            res = quad_p_moment(s, a)
            assert (res.value, res.error_estimate) == _quad_p_two_passes(s, a), (s, a)
            lo, hi = s.momentum_interval()
            if lo < 2 - a < hi:
                res = reflect(s, a, mode="float")
                want = _result(lambda st, _: _reflect_fraction(st, a), s, 2 - a, Method.REFLECTION)
                assert (res.value, res.error_estimate, res.method) == want, (s, a)
            if s.is_circular:
                res = p_moment_circular(s, a, mode="float")
                assert (res.value, res.error_estimate) == _circular_fraction(s, a), (s, a)


def _single_sum_quadratic(state, alpha):
    """The single sum with one float Pochhammer symbol per term, O(k^2)."""
    k, nu = state.k, float(state.nu)
    logs = [
        math.log(2.0), -log_gamma(k + 1), math.log(k + nu), log_gamma(k + 2 * nu),
        -log_gamma(2 * nu + 1), *_gamma_quotient_logs(nu, alpha), *_zeta_logs_fraction(state, alpha),
    ]
    terms, bounds, dj = [], [], 1.0
    for j in range(k + 1):
        t = (-1) ** j * math.comb(k, j) * pochhammer(2 * nu + j, k, "float") * dj
        if not math.isfinite(t):
            return logs, math.nan, math.inf
        terms.append(t)
        bounds.append(10.0 * (j + 1) * _EPS * abs(t))
        dj *= (
            (nu + j) / (nu + j + 1) * (nu + (alpha + 1) / 2 + j) * (nu + (3 - alpha) / 2 + j)
            / ((nu + 0.5 + j) * (nu + 1.5 + j))
        )
    denom = pochhammer(2 * nu, k, "float")
    s = math.fsum(terms) / denom
    bound = (math.fsum(bounds) + _EPS * abs(s) * denom) / denom
    return logs, s, bound + 20 * _EPS * abs(s)


def _falls_back(result):
    """series_or_quadrature's rule for leaving a series result."""
    _, s, bound = result
    return not (s > 0 and bound <= CANCELLATION_LIMIT * s)


def _p_moment_reference(state, alpha):
    """<p^alpha> from the 5F4 form at 30 digits."""
    with mpmath.workdps(30):
        k, nu, a = state.k, mpmath.mpf(state.two_nu) / 2, mpmath.mpf(alpha)
        Z = mpmath.mpf(state.Z_exact.numerator) / state.Z_exact.denominator
        eta = mpmath.mpf(state.two_eta) / 2
        pref = (
            (Z / eta) ** a * 2 * (k + nu) / mpmath.factorial(k)
            * mpmath.gamma(k + 2 * nu) / mpmath.gamma(2 * nu + 1)
            * mpmath.gamma(nu + (a + 1) / 2) * mpmath.gamma(nu + (3 - a) / 2)
            / (mpmath.gamma(nu + 0.5) * mpmath.gamma(nu + 1.5))
        )
        series = mpmath.hyper(
            [-k, k + 2 * nu, nu, nu + (a + 1) / 2, nu + (3 - a) / 2],
            [2 * nu, nu + 0.5, nu + 1, nu + 1.5], 1,
        )
        return pref * series


def test_linear_single_sum_stays_in_its_bound_and_falls_back_no_more():
    kept = fallbacks = fallbacks_quadratic = 0
    for s in _states(dims=range(2, 13), ns=(*range(1, 41), 160)):
        for a in _orders(s):
            got = _single_sum_float(s, a)
            fallbacks_quadratic += _falls_back(_single_sum_quadratic(s, a))
            if _falls_back(got):
                fallbacks += 1
                continue
            value, err, _ = _result(lambda st, _: got, s, a)
            assert abs(value - _p_moment_reference(s, a)) <= err, (s, a, value, err)
            kept += 1
    assert fallbacks <= fallbacks_quadratic
    assert kept > 3000


def test_float_reflect_stays_in_its_bound():
    checked = 0
    for s in _states():
        lo, hi = s.momentum_interval()
        for a in ORDERS:
            if lo < a < hi and lo < 2 - a < hi:
                res = reflect(s, a, mode="float")
                ref = _p_moment_reference(s, 2 - a)
                assert abs(res.value - ref) <= res.error_estimate, (s, a, res, ref)
                checked += 1
    assert checked > 1000
