"""The exact single, hyp5f4 and r_moment values are assembled on integers
(doubled half-integer symbols, one Fraction at the end).  Each must equal
the same formula composed from ExactValue and Fraction operations."""

import math
from fractions import Fraction

import pytest

from hydromoments import ExactValue, make_state, p_moment, r_moment
from hydromoments.specfun import (
    SQRT_PI,
    HypSumSpec,
    gamma_exact,
    hyp_sum,
    hyp_sum_fraction,
    pochhammer,
)

ZS = (0.1, 0.5, 1.5, 3.906504)
ORDERS = range(-3, 8)


def _states(D):
    """n <= 40 plus n = 160, l in {0, n//2, n-1}; Z cycles through ZS."""
    for n in [*range(1, 41), 160]:
        for l in sorted({0, n // 2, n - 1}):
            yield make_state(D, n, l, ZS[(n + l + D) % len(ZS)])


def _hyp5f4_spec(state, a):
    k, nu = state.k, state.nu
    top = (-k, k + 2 * nu, nu, nu + Fraction(a + 1, 2), nu + Fraction(3 - a, 2))
    bottom = (2 * nu, nu + Fraction(1, 2), nu + 1, nu + Fraction(3, 2))
    return HypSumSpec(top=top, bottom=bottom, terms=k + 1)


def _single_composed(state, a):
    k, nu = state.k, state.nu
    pref_rat = (
        Fraction(2, math.factorial(k))
        * (k + nu)
        * gamma_exact(k + 2 * nu).coeff
        / gamma_exact(2 * nu + 1).coeff
    )
    gq = (
        gamma_exact(nu + Fraction(a + 1, 2))
        * gamma_exact(nu + Fraction(3 - a, 2))
        / (gamma_exact(nu + Fraction(1, 2)) * gamma_exact(nu + Fraction(3, 2)))
    )
    series = hyp_sum_fraction(_hyp5f4_spec(state, a))
    return ExactValue((state.Z_exact / state.eta) ** a) * ExactValue(pref_rat * series) * gq


def _hyp5f4_composed(state, a):
    """The paper's prefactor 2^(1-2nu) sqrt(pi) (k+nu)/k! Gamma(k+2nu)
    Gamma(nu+(a+1)/2) Gamma(nu+(3-a)/2) / (Gamma(nu+1/2)^2 Gamma(nu+1) Gamma(nu+3/2))."""
    k, nu = state.k, state.nu
    pref = (
        ExactValue(Fraction(2) ** (1 - int(2 * nu)) / math.factorial(k))
        * SQRT_PI
        * ExactValue(k + nu)
        * gamma_exact(k + 2 * nu)
        * gamma_exact(nu + Fraction(a + 1, 2))
        * gamma_exact(nu + Fraction(3 - a, 2))
        / (
            gamma_exact(nu + Fraction(1, 2)) ** 2
            * gamma_exact(nu + 1)
            * gamma_exact(nu + Fraction(3, 2))
        )
    )
    series = hyp_sum(_hyp5f4_spec(state, a), "exact")
    return ExactValue((state.Z_exact / state.eta) ** a) * pref * series


def _r_moment_composed(state, a):
    k, L, eta = state.k, state.L, state.eta
    if a >= -1:
        ratio = pochhammer(2 * L + 2, a + 1)
    else:
        ratio = 1 / pochhammer(2 * L + a + 3, -a - 1)
    pref = ExactValue(eta ** (a - 1) / (Fraction(2) ** (a + 1) * state.Z_exact ** a) * ratio)
    spec = HypSumSpec(
        top=(-k, Fraction(-a - 1), Fraction(a + 2)),
        bottom=(2 * L + 2, Fraction(1)),
        terms=k + 1,
    )
    return pref * hyp_sum(spec, "exact")


@pytest.mark.parametrize("D", range(2, 9))
@pytest.mark.parametrize("route, composed", [("single", _single_composed), ("hyp5f4", _hyp5f4_composed)])
def test_momentum_routes_equal_the_composed_formula(D, route, composed):
    for s in _states(D):
        lo, hi = s.momentum_interval()
        for a in ORDERS:
            if lo < a < hi:
                assert p_moment(s, a, route=route).value == composed(s, a), (s, a)


@pytest.mark.parametrize("D", range(2, 9))
def test_r_moment_equals_the_composed_formula(D):
    for s in _states(D):
        for a in ORDERS:
            if a > s.position_lower_bound():
                assert r_moment(s, a).value == _r_moment_composed(s, a), (s, a)


def test_exact_routes_compose_no_exact_values(monkeypatch):
    def forbidden(*args):
        raise AssertionError("ExactValue arithmetic on an integer-assembled route")

    for name in ("__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(ExactValue, name, forbidden)
    for D, n, l in [(2, 9, 1), (3, 12, 4), (4, 7, 6), (7, 30, 2)]:
        s = make_state(D, n, l, 1.5)
        for a in (-1, 1, 2, 3):
            for route in ("single", "hyp5f4"):
                assert p_moment(s, a, mode="exact", route=route).is_exact
            assert r_moment(s, a, mode="exact").is_exact
        assert r_moment(s, -2, mode="exact").is_exact
