"""Momentum-moment routes, reflection, closed forms, and appendix identities."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hydromoments import (
    ExactValue,
    Method,
    appendix_constants,
    appendix_integral_circular_exact,
    appendix_integrals,
    inverse_momentum,
    make_state,
    mean_momentum,
    p_moment,
    p_moment_circular,
    p_moment_double_sum,
    p_moment_even_closed,
    quad_p_moment,
    reflect,
)
from hydromoments import momom, specfun
from hydromoments.errors import (
    FloatOverflow,
    FloatUnderflow,
    NotCircular,
    OrderOutOfDomain,
    UnsupportedArgument,
)
from hydromoments.momom import (
    breit_pauli_moment,
    dirac_slater_exchange_moment,
    interelectronic_repulsion_moment,
    kinetic_energy_moment,
)

GRID = [
    (D, n, l)
    for D in (2, 3, 4, 5, 7)
    for n in range(1, 5)
    for l in range(n)
]


def test_unknown_route_rejected():
    s = make_state(3, 2, 0, 1.0)
    with pytest.raises(ValueError):
        p_moment(s, 1, route="nope")
    with pytest.raises(ValueError):
        p_moment(s, 0.5, route="nope")


def test_unknown_mode_rejected():
    s = make_state(3, 2, 0, 1.0)
    for call in (p_moment, reflect):
        with pytest.raises(UnsupportedArgument):
            call(s, 1, mode="bogus")
    with pytest.raises(UnsupportedArgument):
        p_moment_circular(make_state(3, 2, 1, 1.0), 1, mode="bogus")
    # the closed-form branches of <p> and <p^-1> read the mode like the general one
    for state in (s, make_state(3, 2, 1, 1.0), make_state(5, 4, 1, 1.0)):
        for call in (mean_momentum, inverse_momentum):
            with pytest.raises(UnsupportedArgument):
                call(state, mode="bogus")
    # exact mode never rounds a real order to a neighbouring integer
    with pytest.raises(UnsupportedArgument):
        p_moment(s, 0.5, mode="exact")


@pytest.mark.parametrize("np_int", [np.int64, np.int32])
def test_numpy_integer_orders_are_integers(np_int):
    s = make_state(3, 5, 1, 1.0)
    for call in (p_moment, reflect):
        for mode in ("auto", "exact"):
            res = call(s, np_int(3), mode=mode)
            assert res.is_exact
            assert res == call(s, 3, mode=mode)


def test_bool_order_rejected():
    s = make_state(3, 2, 0, 1.0)
    for call in (p_moment, reflect):
        for order in (True, False):
            with pytest.raises(UnsupportedArgument, match="bool"):
                call(s, order)


def _single_sum_quadratic(state, a):
    """The single-sum route as a direct O(k^2) Fraction sum: every term
    rebuilds its Pochhammer symbols."""
    k, nu = state.k, state.nu
    poch = specfun.pochhammer
    total = Fraction(0)
    for j in range(k + 1):
        dj = (
            Fraction(nu, nu + j)
            * poch(nu + Fraction(a + 1, 2), j)
            * poch(nu + Fraction(3 - a, 2), j)
            / (poch(nu + Fraction(1, 2), j) * poch(nu + Fraction(3, 2), j))
        )
        total += (-1) ** j * math.comb(k, j) * poch(2 * nu + j, k) * dj
    fk = total / poch(2 * nu, k)
    pref = (
        Fraction(2, math.factorial(k))
        * (k + nu)
        * specfun.gamma_exact(k + 2 * nu).coeff
        / specfun.gamma_exact(2 * nu + 1).coeff
    )
    gq = (
        specfun.gamma_exact(nu + Fraction(a + 1, 2))
        * specfun.gamma_exact(nu + Fraction(3 - a, 2))
        / (specfun.gamma_exact(nu + Fraction(1, 2)) * specfun.gamma_exact(nu + Fraction(3, 2)))
    )
    return ExactValue((state.Z_exact / state.eta) ** a * pref * fk) * gq


@pytest.mark.parametrize("D", [2, 3, 5])
def test_single_route_matches_direct_sum(D):
    states = [(n, 0) for n in (1, 2, 3, 7, 20, 60)] + [(6, 2), (9, 4), (12, 1)]
    if D == 3:
        states.append((160, 0))
    for n, l in states:
        s = make_state(D, n, l, 1.5)
        lo, hi = s.momentum_interval()
        for alpha in (-3, -1, 1, 3, 5):
            if lo < alpha < hi:
                assert p_moment(s, alpha, route="single").value == _single_sum_quadratic(s, alpha)


def test_exact_single_route_builds_no_pochhammer(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("pochhammer called on the exact single route")

    monkeypatch.setattr(specfun, "pochhammer", forbidden)
    monkeypatch.setattr(momom, "pochhammer", forbidden)
    s = make_state(3, 40, 3, 1.0)
    assert p_moment(s, 3, mode="exact", route="single").value == p_moment(s, 3, route="hyp5f4").value


def test_second_moment_is_squared_energy_scale():
    for D, n, l in GRID:
        for Z in (1.0, 2.0):
            s = make_state(D, n, l, Z)
            expect = ExactValue((s.Z_exact / s.eta) ** 2)
            assert p_moment(s, 2).value == expect


def test_even_closed_forms_match_route():
    for D, n, l in GRID:
        s = make_state(D, n, l, 1.0)
        lo, hi = s.momentum_interval()
        for alpha in (0, 2, -2, 4, 6):
            if not lo < alpha < hi:
                continue
            closed = p_moment_even_closed(s, alpha)
            assert closed.value == p_moment(s, alpha).value


def test_even_closed_rejects_odd_order():
    with pytest.raises(OrderOutOfDomain):
        p_moment_even_closed(make_state(3, 2, 0, 1.0), 3)


def test_reflection_float_mode():
    s = make_state(4, 3, 1, 1.0)
    r = reflect(s, 0.75, mode="float")
    direct = p_moment(s, 1.25, mode="float")
    assert r.alpha == 1.25
    assert r.as_float() == pytest.approx(direct.as_float(), rel=1e-11)
    assert r.method is Method.REFLECTION


def test_reflection_float_overflow_is_a_library_error():
    # (eta/Z)^(2 alpha - 2) exceeds the double range; the direct order does too
    s = make_state(3, 94, 55, 0.001)
    alpha = 100.50738585477922
    with pytest.raises(FloatOverflow):
        reflect(s, alpha, mode="float")
    with pytest.raises(FloatOverflow):
        p_moment(s, 2 - alpha, mode="float")


def test_circular_closed_form():
    for D, n in [(2, 1), (3, 1), (3, 4), (5, 3), (8, 2)]:
        s = make_state(D, n, n - 1, 1.0)
        lo, hi = s.momentum_interval()
        for alpha in range(lo + 1, hi):
            assert p_moment_circular(s, alpha).value == p_moment(s, alpha).value
        v = p_moment_circular(s, 0.5, mode="float").value
        assert v == pytest.approx(p_moment(s, 0.5).as_float(), rel=1e-12)


def test_float_closed_form_and_series_raise_below_the_double_range():
    # both returned a zero or subnormal float with a zero bound
    with pytest.raises(FloatUnderflow):
        p_moment_circular(make_state(3, 100, 99, 1.0), 200.5, mode="float")
    s, alpha = make_state(16, 45, 23, 8.8740849986502e-05), 62.30933776107723
    for route in ("single", "double"):
        with pytest.raises(FloatUnderflow):
            p_moment(s, alpha, mode="float", route=route)


def test_circular_rejects_noncircular():
    with pytest.raises(NotCircular):
        p_moment_circular(make_state(3, 3, 0, 1.0), 1)


def test_domain_is_open_interval():
    s = make_state(3, 1, 0, 1.0)  # valid orders: (-3, 5)
    with pytest.raises(OrderOutOfDomain):
        p_moment(s, 5)
    with pytest.raises(OrderOutOfDomain):
        p_moment(s, -3)
    assert p_moment(s, 4.75, mode="float").as_float() > 0


def test_mean_momentum_families():
    # nS in 3D: <p> = 8 n Z / (pi (4n^2 - 1))
    for n in (1, 2, 5):
        s = make_state(3, n, 0, 1.0)
        v = mean_momentum(s).value
        assert v == ExactValue(Fraction(8 * n, 4 * n * n - 1), Fraction(-1))
        assert v == p_moment(s, 1).value
    # circular and generic states defer to the closed/route values
    c = make_state(3, 3, 2, 1.0)
    assert mean_momentum(c).value == p_moment(c, 1).value
    g = make_state(5, 4, 1, 1.0)
    assert mean_momentum(g).value == p_moment(g, 1).value
    assert mean_momentum(s, mode="float").as_float() == pytest.approx(
        p_moment(s, 1).as_float(), rel=1e-13
    )


def test_inverse_momentum_families():
    for n in (1, 2, 7):
        s = make_state(3, n, 0, 1.0)
        assert inverse_momentum(s).value == p_moment(s, -1).value
    assert inverse_momentum(make_state(3, 1, 0, 1.0)).value == ExactValue(
        Fraction(16, 3), Fraction(-1)
    )
    c = make_state(4, 3, 2, 1.0)
    assert inverse_momentum(c).value == p_moment(c, -1).value
    # auto reads the integer order -1 as exact, as mean_momentum does
    assert inverse_momentum(c, mode="auto").value == p_moment(c, -1).value
    assert mean_momentum(c, mode="auto").value == p_moment(c, 1).value
    assert inverse_momentum(c, mode="float").as_float() == pytest.approx(
        p_moment(c, -1).as_float(), rel=1e-13
    )
    g = make_state(6, 3, 1, 1.0)
    assert inverse_momentum(g).value == p_moment(g, -1).value


def test_physical_wrappers():
    s = make_state(3, 2, 1, 1.0)
    assert dirac_slater_exchange_moment(s).value == p_moment(s, 1).value
    assert kinetic_energy_moment(s).value == p_moment(s, 2).value
    assert interelectronic_repulsion_moment(s).value == p_moment(s, 3).value
    assert breit_pauli_moment(s).value == p_moment(s, 4).value


def test_z_scaling():
    # <p^alpha> scales as Z^alpha
    s1 = make_state(4, 3, 1, 1.0)
    s2 = make_state(4, 3, 1, 2.0)
    for alpha in (-2, 1, 3):
        assert p_moment(s2, alpha).value == p_moment(s1, alpha).value * ExactValue(
            Fraction(2) ** alpha
        )


def test_float_routes_match_quadrature_oracle():
    for D, n, l in [(3, 3, 0), (2, 4, 1), (5, 4, 2), (7, 2, 0)]:
        s = make_state(D, n, l, 1.0)
        q = quad_p_moment(s, 1.3).value
        for route in ("single", "hyp5f4", "double"):
            v = p_moment(s, 1.3, mode="float", route=route).as_float()
            assert v == pytest.approx(q, rel=1e-11)
        assert p_moment_double_sum(s, 1.3).as_float() == pytest.approx(q, rel=1e-11)


def test_float_hyp5f4_is_the_single_sum():
    for D, n, l, alpha in [(3, 3, 0, 1.3), (5, 4, 2, -2.6), (9, 12, 11, -17.1), (3, 160, 0, 0.5)]:
        s = make_state(D, n, l, 1.0)
        single = p_moment(s, alpha, mode="float", route="single")
        hyp = p_moment(s, alpha, mode="float", route="hyp5f4")
        assert (hyp.value, hyp.error_estimate) == (single.value, single.error_estimate)
        if single.method is not Method.QUADRATURE:
            assert hyp.method is Method.HYP5F4


def _momentum_reference(s, alpha):
    """<p^alpha> from the 5F4 form in 40-digit mpmath."""
    with mpmath.workdps(40):
        k, nu, a = s.k, mpmath.mpf(float(s.nu)), mpmath.mpf(alpha)
        g = mpmath.gamma
        series = mpmath.hyper(
            [-k, k + 2 * nu, nu, nu + (a + 1) / 2, nu + (3 - a) / 2],
            [2 * nu, nu + 0.5, nu + 1, nu + 1.5], 1,
        )
        return (
            (s.Z / mpmath.mpf(float(s.eta))) ** a * 2 ** (1 - 2 * nu) * mpmath.sqrt(mpmath.pi) * (k + nu)
            * g(k + 2 * nu) * g(nu + (a + 1) / 2) * g(nu + (3 - a) / 2)
            / (mpmath.factorial(k) * g(nu + 0.5) ** 2 * g(nu + 1) * g(nu + 1.5))
            * series
        )


@pytest.mark.parametrize("route", ["single", "hyp5f4", "double"])
def test_float_error_bound_covers_prefactor_rounding(route):
    # large log-prefactors whose rounding the bound used to leave out
    for D, n, l, alpha in [(6, 12, 11, 10.71), (9, 11, 10, 14.93), (9, 8, 7, -14.06), (9, 12, 11, -17.1)]:
        s = make_state(D, n, l, 1.0)
        res = p_moment(s, alpha, mode="float", route=route)
        assert res.method is not Method.QUADRATURE
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(res.value) - _momentum_reference(s, alpha)) <= res.error_estimate


def test_quadrature_bound_covers_the_rounding_of_mu0():
    # both Gauss-Jacobi rules scale their weights by the same rounded
    # exp(log mu0), which |v - v2| cannot see
    s, alpha = make_state(11, 32, 28, 3.584031), -2.1997609780337086
    res = quad_p_moment(s, alpha)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(res.value) - _momentum_reference(s, alpha)) <= res.error_estimate


@pytest.mark.parametrize("D, n, l, Z, alpha", [
    # 1e-6 inside the lower edge, where nu + (alpha - 1)/2 rounded a+1 by up to 1e-9 of itself
    (10, 33, 3, 1.105957, -15.999999274773872),
    (8, 39, 0, 2.453908, -7.999999702835463),
    (2, 33, 1, 3.773844, -3.9999992746927178),
    (4, 35, 0, 1.920226, -3.9999991662488896),
    # ?stemr dropped the weights near x = -1 that carry 16% of this moment
    (3, 146, 54, 2.506134, 8.262147242695278),
])
def test_quadrature_stays_within_its_bound_near_an_edge_and_on_small_weights(D, n, l, Z, alpha):
    s = make_state(D, n, l, Z)
    res = quad_p_moment(s, alpha)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(res.value) - _momentum_reference(s, alpha)) <= res.error_estimate


def test_large_n_falls_back_to_quadrature():
    res = p_moment(make_state(3, 160, 0, 1.0), 0.5)
    assert res.method is Method.QUADRATURE
    assert math.isfinite(res.as_float()) and res.as_float() > 0


@pytest.mark.parametrize(
    "state, alpha",
    [
        ((3, 100, 0, 1.0), 0.7),
        ((3, 111, 11, 1000.0), 16.630956705390098),
        ((12, 94, 70, 1.492554), -93.49417961458684),
        ((7, 136, 105, 1.769595), -96.93022871944402),
    ],
)
def test_float_double_route_sums_inner_sums_beyond_the_double_range(state, alpha):
    # the outer sum is exact, so inner sums beyond the double range neither
    # send the route to quadrature nor overflow a value that is in range
    s = make_state(*state)
    res = p_moment(s, alpha, mode="float", route="double")
    assert res.method is Method.DOUBLE_SUM
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(res.value) - _momentum_reference(s, alpha)) <= res.error_estimate


@pytest.mark.parametrize(
    "state, alpha",
    [((3, n, 0), a) for n in (40, 160) for a in (-1, 1, 3)] + [((8, 60, 5), a) for a in (-1, 1, 3)],
)
def test_exact_double_route_matches_single_at_large_k(state, alpha):
    s = make_state(*state, 1.0)
    assert p_moment(s, alpha, route="double").value == p_moment(s, alpha).value


def test_appendix_constants_reproduce_momentum_moments():
    for n in range(1, 6):
        for l in range(n):
            s = make_state(3, n, l, 1.0)
            k_mean, k_inv = appendix_constants(s)
            I, J = appendix_integrals(s)
            assert k_mean.to_float() * I == pytest.approx(
                mean_momentum(s).value.to_float(), rel=1e-13
            )
            assert k_inv.to_float() * J == pytest.approx(
                inverse_momentum(s).value.to_float(), rel=1e-13
            )


def test_appendix_circular_integral():
    s = make_state(3, 1, 0, 1.0)
    assert appendix_integral_circular_exact(s) == ExactValue(Fraction(4, 3))
    with pytest.raises(NotCircular):
        appendix_integral_circular_exact(make_state(3, 2, 0, 1.0))


def test_argument_checks_keep_their_order():
    # p_moment checks the mode, then the route, then the order's domain
    s = make_state(3, 2, 0, 1.0)
    with pytest.raises(UnsupportedArgument, match="mode"):
        p_moment(s, 99, mode="bogus", route="nope")
    with pytest.raises(UnsupportedArgument, match="route"):
        p_moment(s, 99, route="nope")
    with pytest.raises(OrderOutOfDomain):
        p_moment(s, 99)
