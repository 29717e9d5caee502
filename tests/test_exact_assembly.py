"""The exact single, hyp5f4 and r_moment values are assembled on integers
(doubled half-integer symbols, one Fraction at the end).  Each must equal
the same formula composed from ExactValue and Fraction operations."""

import math
from fractions import Fraction

import pytest

from hydromoments import (
    ExactValue,
    inverse_momentum,
    make_state,
    mean_momentum,
    p_moment,
    p_moment_circular,
    p_moment_even_closed,
    r_moment,
    r_moment_closed,
    r_moment_ground,
    reflect,
)
from hydromoments import posmom
from hydromoments.specfun import (
    SQRT_PI,
    HypSumSpec,
    gamma_exact,
    hyp_sum,
    pochhammer,
)


def _gamma(x):
    """Gamma(x) at an integer or half-integer x, from gamma_exact's triple."""
    z2 = 2 * Fraction(x)
    assert z2.denominator == 1, x
    num, den, two_pi = gamma_exact(int(z2))
    return ExactValue(Fraction(num, den), Fraction(two_pi, 2))

ZS = (0.1, 0.5, 1.5, 3.906504)
ORDERS = range(-3, 8)


def _states(D):
    """n <= 40 plus n = 160, l in {0, n//2, n-1}; Z cycles through ZS."""
    for n in [*range(1, 41), 160]:
        for l in sorted({0, n // 2, n - 1}):
            yield make_state(D, n, l, ZS[(n + l + D) % len(ZS)])


def _doubled(*params):
    return tuple(int(2 * x) for x in params)


def _hyp5f4_spec(state, a):
    k, nu = state.k, state.nu
    top = _doubled(-k, k + 2 * nu, nu, nu + Fraction(a + 1, 2), nu + Fraction(3 - a, 2))
    bottom = _doubled(2 * nu, nu + Fraction(1, 2), nu + 1, nu + Fraction(3, 2))
    return HypSumSpec(top=top, bottom=bottom)


def _single_composed(state, a):
    k, nu = state.k, state.nu
    pref_rat = (
        Fraction(2, math.factorial(k))
        * (k + nu)
        * _gamma(k + 2 * nu).coeff
        / _gamma(2 * nu + 1).coeff
    )
    gq = (
        _gamma(nu + Fraction(a + 1, 2))
        * _gamma(nu + Fraction(3 - a, 2))
        / (_gamma(nu + Fraction(1, 2)) * _gamma(nu + Fraction(3, 2)))
    )
    series = Fraction(*hyp_sum(_hyp5f4_spec(state, a), "exact"))
    return ExactValue((state.Z_exact / state.eta) ** a) * ExactValue(pref_rat * series) * gq


def _hyp5f4_composed(state, a):
    """The paper's prefactor 2^(1-2nu) sqrt(pi) (k+nu)/k! Gamma(k+2nu)
    Gamma(nu+(a+1)/2) Gamma(nu+(3-a)/2) / (Gamma(nu+1/2)^2 Gamma(nu+1) Gamma(nu+3/2))."""
    k, nu = state.k, state.nu
    pref = (
        ExactValue(Fraction(2) ** (1 - int(2 * nu)) / math.factorial(k))
        * SQRT_PI
        * ExactValue(k + nu)
        * _gamma(k + 2 * nu)
        * _gamma(nu + Fraction(a + 1, 2))
        * _gamma(nu + Fraction(3 - a, 2))
        / (
            _gamma(nu + Fraction(1, 2)) ** 2
            * _gamma(nu + 1)
            * _gamma(nu + Fraction(3, 2))
        )
    )
    series = ExactValue(Fraction(*hyp_sum(_hyp5f4_spec(state, a), "exact")))
    return ExactValue((state.Z_exact / state.eta) ** a) * pref * series


def _r_moment_composed(state, a):
    k, L, eta = state.k, state.L, state.eta
    if a >= -1:
        ratio = Fraction(pochhammer(state.two_nu, a + 1))
    else:
        ratio = Fraction(1, pochhammer(state.two_nu + a + 1, -a - 1))
    pref = ExactValue(eta ** (a - 1) / (Fraction(2) ** (a + 1) * state.Z_exact ** a) * ratio)
    # 3F2(-k, -a-1, a+2; 2L+2, 1; 1) term by term over all k+1 terms, zeros included
    term = series = Fraction(1)
    for j in range(k):
        term *= Fraction((j - k) * (j - a - 1) * (j + a + 2)) / ((2 * L + 2 + j) * (j + 1) ** 2)
        series += term
    return pref * ExactValue(series)


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


@pytest.mark.parametrize("D", range(2, 13))
def test_r_moment_at_small_orders_equals_the_full_series_and_the_closed_forms(D):
    for s in _states(D):
        if s.n > 40:
            continue
        for a in range(-5, 6):
            if a > s.position_lower_bound():
                got = r_moment(s, a).value
                assert got == _r_moment_composed(s, a), (s, a)
                if a in (1, 2, -1, -2, -3, -4):
                    assert got == r_moment_closed(s, a).value, (s, a)


def test_r_moment_sums_only_the_nonzero_terms(monkeypatch):
    # at a = 3 the 3F2 ends after min(k, a+1)+1 = 5 terms, whatever k
    lengths = []

    def traced(spec, mode="exact"):
        lengths.append(spec.terms)
        return hyp_sum(spec, mode)

    monkeypatch.setattr(posmom, "hyp_sum", traced)
    s = make_state(3, 5000, 0, 1.0)
    r_moment(s, 3, mode="exact")
    r_moment(s, 3.0, mode="float")
    r_moment(s, -2, mode="exact")  # min(k, -a-2)+1 = 1 term
    assert lengths == [5, 5, 1]


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
            assert reflect(s, a, mode="exact").is_exact
            assert p_moment_circular(make_state(D, n, n - 1, 1.5), a, mode="exact").is_exact
            assert r_moment_ground(D, 1.5, a, mode="exact").is_exact
        assert r_moment(s, -2, mode="exact").is_exact


def _momentum(a):
    return a


def _position(a):
    return -a


def _reflected(a):
    return 2 - a


# entry point -> (its exact result at charge Z and order a, orders, power of Z at order a)
_SCALED = {
    "single": (lambda Z, a: p_moment(make_state(5, 4, 1, Z), a, "exact", "single"), range(-6, 9), _momentum),
    "hyp5f4": (lambda Z, a: p_moment(make_state(5, 4, 1, Z), a, "exact", "hyp5f4"), range(-6, 9), _momentum),
    "double": (lambda Z, a: p_moment(make_state(5, 4, 1, Z), a, "exact", "double"), range(-6, 9), _momentum),
    "reflect": (lambda Z, a: reflect(make_state(5, 4, 1, Z), a, "exact"), range(-6, 9), _reflected),
    "circular": (lambda Z, a: p_moment_circular(make_state(5, 4, 3, Z), a, "exact"), range(-10, 13), _momentum),
    "even_closed": (lambda Z, a: p_moment_even_closed(make_state(5, 4, 1, Z), a), (0, 2, -2, 4, 6), _momentum),
    "mean_nS": (lambda Z, a: mean_momentum(make_state(3, 4, 0, Z)), (1,), _momentum),
    "mean_circular": (lambda Z, a: mean_momentum(make_state(3, 4, 3, Z)), (1,), _momentum),
    "inverse_nS": (lambda Z, a: inverse_momentum(make_state(3, 4, 0, Z)), (-1,), _momentum),
    "inverse_circular": (lambda Z, a: inverse_momentum(make_state(3, 4, 3, Z)), (-1,), _momentum),
    "r_moment": (lambda Z, a: r_moment(make_state(5, 4, 1, Z), a, "exact"), range(-6, 10), _position),
    "r_closed": (lambda Z, a: r_moment_closed(make_state(5, 4, 1, Z), a), (1, 2, -1, -2, -3, -4, -6), _position),
    "r_ground": (lambda Z, a: r_moment_ground(5, Z, a, "exact"), range(-4, 10), _position),
}


@pytest.mark.parametrize("Z", [2.0, 0.1, Fraction(3, 7)], ids=str)
@pytest.mark.parametrize("entry", _SCALED)
def test_every_exact_entry_point_scales_with_the_charge(entry, Z):
    """Each exact value at Z is exactly its value at Z = 1 times Z^a in
    momentum (Z^(2-a) for `reflect`, which returns <p^(2-a)>) and Z^-a in
    position."""
    result, orders, power = _SCALED[entry]
    for a in orders:
        assert result(Z, a).value == result(1.0, a).value * ExactValue(Fraction(Z) ** power(a)), a
