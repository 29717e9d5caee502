"""The float paths read the integer symbols two_nu and two_eta instead of
building the Fractions nu, eta and L; the position series and the circular
form must not change a bit, and copies of the Fraction-based code are kept
here.  The momentum oracle, which sums in logs, must stay within its bound
of a 40-digit reference.  The momentum single sum runs in 128-bit fixed point
(`momom._hyp5f4_fixed`): it must return the (S, E) of the generic kernel it
replaced, kept here, its integer bound must hold against the exact Fraction
sum, and float `p_moment` (single and hyp5f4), `reflect` and
the double route, which sums exactly and rounds once, must stay within
their bounds of a 40-digit reference, also near the edges of the domain and
on cells that the 53-bit loop handed to the quadrature oracle."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hydromoments import (
    make_state,
    p_moment,
    p_moment_circular,
    quad_p_moment,
    quad_r_moment,
    r_moment,
    reflect,
)
from hydromoments.momom import FIXED_BITS, _gamma_quotient_logs, _hyp5f4_fixed
from hydromoments.posmom import Method, _r_series_float
from hydromoments.specfun import HypSumSpec, exp_sum, hyp_sum, log_gamma
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
    spec = HypSumSpec(top=(-2 * k, -2 * alpha - 2, 2 * alpha + 4), bottom=(float(4 * L + 4), 2.0))
    s, bound = hyp_sum(spec, "float")
    return logs, s, bound


def _circular_fraction(state, alpha):
    eta = state.eta
    # the closed form is a sum s = 1 with bound 0, and ln s = 0 is a term
    value, rel = exp_sum([*_gamma_quotient_logs(float(eta), alpha), *_zeta_logs_fraction(state, alpha), 0.0])
    return value, rel * value


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
            assert abs(res.value - _momentum_reference(s, a)) <= res.error_estimate, (s, a, res)
            res = quad_p_moment(s, a)
            assert abs(res.value - _momentum_reference(s, a)) <= res.error_estimate, (s, a, res)
            if s.is_circular:
                res = p_moment_circular(s, a, mode="float")
                assert (res.value, res.error_estimate) == _circular_fraction(s, a), (s, a)


def _momentum_reference(state, alpha):
    """<p^alpha> from the 5F4 form at 40 digits, for a float or dyadic
    Fraction alpha (2 - alpha, unrounded, for `reflect`)."""
    alpha = Fraction(alpha)
    with mpmath.workdps(40):
        k, nu = state.k, mpmath.mpf(state.two_nu) / 2
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
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


def _within(res, reference):
    with mpmath.workdps(40):
        return abs(mpmath.mpf(res.value) - reference) <= res.error_estimate


def test_linear_single_sum_stays_in_its_bound_and_falls_back_no_more():
    # the fixed-point sum, linear in k; the 53-bit loop it replaced kept 3327
    # of these 7795 cells and handed 4468 to quadrature
    kept = fallbacks = 0
    for s in _states(dims=range(2, 13), ns=(*range(1, 41), 160)):
        for a in _orders(s):
            res = p_moment(s, a, mode="float")
            if res.method is Method.QUADRATURE:
                fallbacks += 1
                continue
            assert res.method is Method.SINGLE_SUM
            assert _within(res, _momentum_reference(s, a)), (s, a, res)
            kept += 1
    assert fallbacks <= 4468
    assert (kept, fallbacks) == (7601, 194)


def _hyp_sum_fixed_generic(top, bottom, d, terms):
    """The generic fixed-point kernel that `_hyp5f4_fixed` replaced, with
    every parameter an integer A_i / d or B_i / d and the term ratio
    d^max(q-p, 0) prod(A_i + d j) / (d^max(p-q, 0) (j+1) prod(B_i + d j))."""
    shift = len(bottom) - len(top)
    num_scale, den_scale = d ** max(shift, 0), d ** max(-shift, 0)
    term = total = 1 << FIXED_BITS
    err = err_total = 0
    for j in range(terms - 1):
        dj = d * j
        rn = num_scale
        for a in top:
            rn *= a + dj
        rd = den_scale * (j + 1)
        for b in bottom:
            rd *= b + dj
        term = term * rn // rd
        err = -(err * -abs(rn) // abs(rd)) + 1
        total += term
        err_total += err
    return total, err_total


def _over_common_denominator(k, t, p, e):
    """The 5F4's parameters at alpha = p/2^e, all over d = 2^(e+1), as the
    generic kernel took them: (top, bottom, d)."""
    q = 1 << e
    top = (-2 * k * q, 2 * q * (k + t), q * t, q * (t + 1) + p, q * (t + 3) - p)
    return top, (2 * q * t, q * (t + 1), q * (t + 2), q * (t + 3)), 2 * q


def _sweep_orders(lo, hi, rng):
    """Integer orders, orders within 1e-6 of both edges, orders across the
    interval, and tiny and subnormal orders, as floats."""
    yield from (float(a) for a in rng.sample(range(lo + 1, hi), 3))
    yield from (lo + rng.uniform(1e-12, 1e-6), hi - rng.uniform(1e-12, 1e-6))
    yield from (rng.uniform(lo, hi) for _ in range(3))
    yield from (5e-324, 1e-300, -2.5e-310)


def test_own_kernel_matches_the_generic_kernel_bit_for_bit():
    rng = random.Random(20261019)
    cells = 0
    for D in range(2, 13):
        for n in sorted(rng.sample(range(1, 171), 10)):
            for l in sorted({0, n // 2, n - 1}):
                k, t = n - l - 1, 2 * l + D - 1
                lo, hi = make_state(D, n, l, 1.0).momentum_interval()
                for alpha in _sweep_orders(lo, hi, rng):
                    assert lo < alpha < hi
                    p, q = alpha.as_integer_ratio()
                    e = q.bit_length() - 1
                    generic = _hyp_sum_fixed_generic(*_over_common_denominator(k, t, p, e), k + 1)
                    assert _hyp5f4_fixed(k, t, p, e) == generic, (D, n, l, alpha)
                    cells += 1
    assert cells > 3000


def _exact_partial_sum(top, bottom, d, terms):
    """The first `terms` terms of sum_j prod (A_i/d)_j / (prod (B_i/d)_j j!)."""
    a, b = [Fraction(x, d) for x in top], [Fraction(x, d) for x in bottom]
    term = total = Fraction(1)
    for j in range(terms - 1):
        term *= math.prod(x + j for x in a) / ((j + 1) * math.prod(x + j for x in b))
        total += term
    return total


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, 60),
    t=st.integers(1, 200),
    e=st.integers(0, 60),
    x=st.fractions(-1, 1),
)
def test_fixed_point_kernel_bound_holds(k, t, e, x):
    # alpha = p/2^e runs up to 40 past either edge of the domain (-t-1, t+3),
    # where the series cancels heavily and a parameter can cross zero
    p = math.floor((1 + (t + 42) * x) * 2 ** e)
    total, err = _hyp5f4_fixed(k, t, p, e)
    exact = _exact_partial_sum(*_over_common_denominator(k, t, p, e), k + 1)
    # |S / 2^P - exact| <= E / 2^P, on integers
    assert abs(total * exact.denominator - (exact.numerator << FIXED_BITS)) <= err * exact.denominator
    assert err >= 0 and (k > 0 or (total, err) == (1 << FIXED_BITS, 0))


# (D, n, l, Z, alpha) within 1e-6 of an edge, and away from the edges with
# cancellation of up to 10^28, that the 53-bit loop handed to quadrature
FELL_BACK_BEFORE = [
    (2, 36, 1, 3.034654, 5.999999427994832),
    (3, 38, 2, 2.360228, 8.999999476454846),
    (2, 33, 1, 3.773844, -3.9999992746927178),
    (6, 31, 0, 0.545442, 7.999999895023342),
    (9, 34, 1, 3.725507, -10.999999115125048),
    (11, 38, 2, 1.372498, 3.094945715004034),
    (7, 39, 3, 3.565248, 2.04327394505113),
    (9, 38, 4, 3.515642, -0.41847844053030414),
    (12, 36, 3, 2.888363, 0.6967061169201436),
]


@pytest.mark.parametrize("D, n, l, Z, alpha", FELL_BACK_BEFORE)
def test_cells_that_fell_back_stay_in_their_bound(D, n, l, Z, alpha):
    s = make_state(D, n, l, Z)
    for route, method in (("single", Method.SINGLE_SUM), ("hyp5f4", Method.HYP5F4)):
        res = p_moment(s, alpha, mode="float", route=route)
        assert res.method is method
        assert _within(res, _momentum_reference(s, alpha)), (route, res)
    lo, hi = s.momentum_interval()
    if lo < 2 - alpha < hi:
        res = reflect(s, alpha, mode="float")
        assert res.method is Method.REFLECTION
        assert _within(res, _momentum_reference(s, 2 - Fraction(alpha))), res


def test_bound_carries_the_fixed_point_error():
    # about 10^28 of cancellation leaves 1.25e-11 of the sum to the kernel's
    # integer bound, far above the rounding of the prefactor
    res = p_moment(make_state(11, 38, 2, 1.372498), 3.094945715004034, mode="float")
    assert res.method is Method.SINGLE_SUM
    assert 1.25e-11 < res.error_estimate / res.value < 1.3e-11


def test_fallback_is_decided_on_integers():
    # at 3D n=1000 the kernel's bound is 2^2391 times its sum, beyond any
    # float: only the comparison on integers can send it to quadrature
    res = p_moment(make_state(3, 1000, 0, 1.0), 0.3)
    assert res.method is Method.QUADRATURE and res.value == pytest.approx(0.0989061076063484, rel=1e-12)


@pytest.mark.parametrize("D, n, alpha", [(2, 80, -1.999999), (2, 160, 3.999999), (3, 80, 4.999999), (3, 160, -2.999999)])
def test_near_edge_cells_beyond_128_bits_fall_back_within_their_bound(D, n, alpha):
    s = make_state(D, n, 0, 1.0)
    for route in ("single", "hyp5f4"):
        res = p_moment(s, alpha, mode="float", route=route)
        assert res.method is Method.QUADRATURE
        assert _within(res, _momentum_reference(s, alpha)), (route, res)


def test_float_reflect_stays_in_its_bound():
    checked = 0
    for s in _states():
        lo, hi = s.momentum_interval()
        for a in ORDERS:
            if lo < a < hi and lo < 2 - a < hi:
                res = reflect(s, a, mode="float")
                assert _within(res, _momentum_reference(s, 2 - Fraction(a))), (s, a, res)
                checked += 1
    assert checked > 1000


# The kernel's shift 2e at both extremes: integer orders in float mode
# (e = 0, no shift) and orders whose dyadic exponent e exceeds 1,000
SHIFT_EXTREMES = [
    (3, 20, 0, 3.0), (5, 12, 3, -2.0), (2, 40, 1, 1.0), (8, 31, 0, 5.0), (4, 9, 4, 7.0),
    (3, 20, 0, 1e-300), (6, 17, 2, 5e-324), (2, 31, 0, -2.5e-310), (9, 40, 20, 1e-300),
]


@pytest.mark.parametrize("D, n, l, alpha", SHIFT_EXTREMES)
def test_shift_extremes_stay_in_their_bound(D, n, l, alpha):
    s = make_state(D, n, l, ZS[(n + l + D) % len(ZS)])
    e = alpha.as_integer_ratio()[1].bit_length() - 1
    assert e == 0 or e > 1000
    for route, method in (("single", Method.SINGLE_SUM), ("hyp5f4", Method.HYP5F4)):
        res = p_moment(s, alpha, mode="float", route=route)
        assert res.method is method
        assert _within(res, _momentum_reference(s, alpha)), (route, res)
    res = reflect(s, alpha, mode="float")
    assert res.method is Method.REFLECTION
    assert _within(res, _momentum_reference(s, 2 - Fraction(alpha))), res
