"""Position-moment routes: 3F2, closed forms, ground-state formula."""

import math
from fractions import Fraction

import mpmath
import pytest

from hydromoments import (
    ExactValue,
    Method,
    MomentOrder,
    Space,
    check_order,
    make_state,
    r_moment,
    r_moment_closed,
    r_moment_ground,
)
from hydromoments.errors import FloatOverflow, OrderOutOfDomain, SingularDenominator, UnsupportedArgument

GRID = [
    (D, n, l)
    for D in (2, 3, 4, 5, 7)
    for n in range(1, 5)
    for l in range(n)
]


def test_known_3d_values():
    s = make_state(3, 1, 0, 1.0)
    assert r_moment(s, 1).value == ExactValue(Fraction(3, 2))
    assert r_moment(s, 2).value == ExactValue(Fraction(3))
    assert r_moment(s, -1).value == ExactValue(Fraction(1))
    # 2p state
    p = make_state(3, 2, 1, 1.0)
    assert r_moment(p, 1).value == ExactValue(Fraction(5))
    assert r_moment(p, -2).value == ExactValue(Fraction(1, 12))


def test_zeroth_moment_is_one():
    for D, n, l in GRID:
        assert r_moment(make_state(D, n, l, 1.0), 0).value == ExactValue(Fraction(1))


@pytest.mark.parametrize("alpha", [1, 2, -1, -2, -3, -4, -6])
def test_closed_forms_match_hypergeometric_route(alpha):
    for D, n, l in GRID:
        s = make_state(D, n, l, 1.0)
        if not alpha > s.position_lower_bound():
            continue
        try:
            closed = r_moment_closed(s, alpha)
        except SingularDenominator:
            continue
        assert closed.value == r_moment(s, alpha).value
        assert closed.method is Method.CLOSED_FORM


def test_closed_form_rejects_untabulated_order():
    with pytest.raises(OrderOutOfDomain):
        r_moment_closed(make_state(3, 1, 0, 1.0), 3)


def test_singular_orders_are_outside_the_domain():
    # denominator zeros of the closed forms only occur at or below the domain
    # edge, so the domain check fires first
    with pytest.raises(OrderOutOfDomain):
        r_moment_closed(make_state(2, 1, 0, 1.0), -2)
    with pytest.raises(OrderOutOfDomain):
        r_moment_closed(make_state(3, 1, 0, 1.0), -3)


def test_domain_enforced():
    s = make_state(3, 1, 0, 1.0)  # orders must exceed -3
    with pytest.raises(OrderOutOfDomain):
        r_moment(s, -3)
    with pytest.raises(OrderOutOfDomain):
        r_moment(s, -3.2)
    assert r_moment(s, -2.9).as_float() > 0


def test_ground_state_formula_matches_general_route():
    for D in (2, 3, 4, 6, 9):
        for Z in (1.0, 2.0):
            for alpha in (-1, 0, 1, 2, 5):
                g = r_moment_ground(D, Z, alpha)
                s = make_state(D, 1, 0, Z)
                assert g.value == r_moment(s, alpha).value


def test_ground_state_float_mode():
    g = r_moment_ground(3, 1.0, 0.5)
    exact_ish = r_moment(make_state(3, 1, 0, 1.0), 0.5).as_float()
    assert g.value == pytest.approx(exact_ish, rel=1e-12)
    with pytest.raises(OrderOutOfDomain):
        r_moment_ground(3, 1.0, -3)


def test_float_mode_consistent_with_exact():
    for D, n, l in GRID:
        s = make_state(D, n, l, 1.0)
        for alpha in (-1, 1, 3):
            ex = r_moment(s, alpha).value.to_float()
            fl = r_moment(s, float(alpha), mode="float")
            assert fl.as_float() == pytest.approx(ex, rel=1e-12)


def test_noninteger_orders_agree_with_quadrature():
    from hydromoments import quad_r_moment

    for D, n, l in [(3, 3, 0), (4, 4, 1), (6, 2, 1)]:
        s = make_state(D, n, l, 1.0)
        for alpha in (-1.5, 0.5, 2.25):
            v = r_moment(s, alpha).as_float()
            q = quad_r_moment(s, alpha).value
            assert v == pytest.approx(q, rel=1e-12)


def test_z_scaling():
    # <r^alpha> scales as Z^-alpha
    s1 = make_state(5, 3, 1, 1.0)
    s2 = make_state(5, 3, 1, 2.0)
    for alpha in (-2, 1, 3):
        v1 = r_moment(s1, alpha).value
        v2 = r_moment(s2, alpha).value
        assert v2 == v1 * ExactValue(Fraction(1, 2) ** alpha)


def test_large_n_float_falls_back_to_quadrature():
    s = make_state(3, 80, 0, 1.0)
    res = r_moment(s, 0.5)
    assert res.method is Method.QUADRATURE
    assert math.isfinite(res.as_float()) and res.as_float() > 0


def test_unknown_mode_rejected():
    s = make_state(3, 2, 0, 1.0)
    with pytest.raises(UnsupportedArgument):
        r_moment(s, 2, mode="bogus")
    with pytest.raises(UnsupportedArgument):
        r_moment(s, 1.5, mode="exact")
    with pytest.raises(UnsupportedArgument):
        r_moment_ground(3, 1.0, 2, mode="bogus")


def _position_reference(s, alpha):
    """<r^alpha> from the 3F2 form in 40-digit mpmath."""
    with mpmath.workdps(40):
        k, a = s.k, mpmath.mpf(alpha)
        eta, L = mpmath.mpf(float(s.eta)), mpmath.mpf(float(s.L))
        series = mpmath.hyper([-k, -a - 1, a + 2], [2 * L + 2, 1], 1)
        return (
            eta ** (a - 1) / (2 ** (a + 1) * mpmath.mpf(s.Z) ** a)
            * mpmath.gamma(2 * L + a + 3) / mpmath.gamma(2 * L + 2) * series
        )


def test_float_error_bound_covers_prefactor_rounding():
    # large log-prefactors whose rounding the bound used to leave out
    for D, n, l, alpha in [(6, 12, 11, 11.57), (2, 16, 12, 26.84), (9, 12, 11, -17.1), (3, 15, 14, -10.22)]:
        s = make_state(D, n, l, 1.0)
        res = r_moment(s, alpha)
        assert res.method is Method.HYP3F2
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(res.value) - _position_reference(s, alpha)) <= res.error_estimate


def test_double_overflow_is_a_library_error():
    with pytest.raises(FloatOverflow):
        r_moment(make_state(3, 100, 0, 1.0), 150.5)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_non_finite_order_is_out_of_domain(alpha):
    s = make_state(3, 4, 1, 1.0)
    with pytest.raises(OrderOutOfDomain):
        r_moment(s, alpha)
    with pytest.raises(OrderOutOfDomain):
        r_moment_ground(3, 1.0, alpha)
    assert not check_order(s, MomentOrder(alpha, Space.POSITION))
    assert not check_order(s, MomentOrder(alpha, Space.MOMENTUM))
