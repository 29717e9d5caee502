"""Position-moment routes: 3F2, closed forms, ground-state formula."""

import math
from fractions import Fraction

import mpmath
import numpy as np
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
from hydromoments import oracle
from hydromoments.errors import (
    CancellationOverflow,
    FloatOverflow,
    OrderOutOfDomain,
    SingularDenominator,
    UnsupportedArgument,
)
from hydromoments.posmom import CANCELLATION_LIMIT, series_or_quadrature

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


@pytest.mark.parametrize("np_int", [np.int64, np.int32])
def test_numpy_integer_orders_are_integers(np_int):
    s = make_state(3, 5, 1, 1.0)
    for mode in ("auto", "exact"):
        res = r_moment(s, np_int(2), mode=mode)
        assert res.is_exact
        assert res == r_moment(s, 2, mode=mode)


def test_bool_order_rejected():
    s = make_state(3, 2, 0, 1.0)
    for order in (True, False):
        with pytest.raises(UnsupportedArgument, match="bool"):
            r_moment(s, order)


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


def test_near_edge_prefactor_argument_is_rounded_once():
    # Gamma(2L+alpha+3) at alpha = -2 + 4.4e-7: with 2L+alpha rounded before
    # adding 3 the result lay 52,822 times its bound from the reference
    s = make_state(2, 1, 0, 1.716327)
    alpha = -1.9999995647990343
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


def _raise(exc):
    def evaluate(state, alpha):
        raise exc
    return evaluate


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize(
    "evaluate, falls_back",
    [
        (lambda s, a: (2.0, 2.0 * CANCELLATION_LIMIT), False),
        (lambda s, a: (2.0, 2.0 * CANCELLATION_LIMIT * 1.5), True),
        (lambda s, a: (0.0, 0.0), True),
        (lambda s, a: (-1.0, 0.0), True),
        (lambda s, a: (math.inf, 0.0), True),
        (lambda s, a: (math.nan, 0.0), True),
        (_raise(CancellationOverflow("term overflowed")), True),
    ],
)
def test_one_fallback_rule_for_both_spaces(monkeypatch, space, evaluate, falls_back):
    # the oracle is looked up at call time, so a replaced quad_* is the one used
    s = make_state(3, 4, 1, 1.0)
    calls = []
    for name in ("quad_r_moment", "quad_p_moment"):
        monkeypatch.setattr(oracle, name, lambda st, a, name=name: calls.append((name, st, a)) or "quad")
    res = series_or_quadrature(evaluate, s, 1.5, Method.SINGLE_SUM, space)
    if falls_back:
        quad = "quad_r_moment" if space is Space.POSITION else "quad_p_moment"
        assert res == "quad" and calls == [(quad, s, 1.5)]
    else:
        assert calls == [] and (res.value, res.method, res.space) == (2.0, Method.SINGLE_SUM, space)


def test_prefactor_overflow_is_not_a_fallback():
    with pytest.raises(FloatOverflow):
        series_or_quadrature(
            _raise(FloatOverflow("prefactor")), make_state(3, 4, 1, 1.0), 1.5,
            Method.HYP3F2, Space.POSITION,
        )


def test_position_domain_is_checked_before_the_mode():
    s = make_state(3, 2, 0, 1.0)
    with pytest.raises(OrderOutOfDomain):
        r_moment(s, -99, mode="bogus")
    with pytest.raises(UnsupportedArgument):
        r_moment(s, 2, mode="bogus")
