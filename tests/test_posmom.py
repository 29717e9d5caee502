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
from hydromoments import oracle, p_moment_even_closed
from hydromoments.errors import (
    FloatOverflow,
    FloatUnderflow,
    OrderOutOfDomain,
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
        closed = r_moment_closed(s, alpha)
        assert closed.value == r_moment(s, alpha).value
        assert closed.method is Method.CLOSED_FORM


def test_closed_form_rejects_untabulated_order():
    with pytest.raises(OrderOutOfDomain):
        r_moment_closed(make_state(3, 1, 0, 1.0), 3)


# the factors L + j/2 of each closed form's denominator: (first j, last j), and
# the momentum forms' odd factors 2L + j
_POSITION_POLES = {-2: (1, 1), -3: (0, 2), -4: (-1, 3), -6: (-3, 5)}
_MOMENTUM_POLES = {-2: (1,), 4: (1,), 6: (-1, 1, 3)}


def test_singular_orders_are_outside_the_domain():
    # every zero of a closed form's denominator lies at an order the domain
    # check rejects, so both closed forms divide without a check
    singular = 0
    for D in range(2, 13):
        for l in range(11):
            s = make_state(D, l + 1, l, 1.0)  # the denominators depend on D and l only
            for alpha, (lo, hi) in _POSITION_POLES.items():
                if any(s.L + Fraction(j, 2) == 0 for j in range(lo, hi + 1)):
                    singular += 1
                    with pytest.raises(OrderOutOfDomain):
                        r_moment_closed(s, alpha)
            for alpha, js in _MOMENTUM_POLES.items():
                if any(2 * s.L + j == 0 for j in js):
                    singular += 1
                    with pytest.raises(OrderOutOfDomain):
                        p_moment_even_closed(s, alpha)
    assert singular == 21


def test_domain_enforced():
    s = make_state(3, 1, 0, 1.0)  # orders must exceed -3
    with pytest.raises(OrderOutOfDomain):
        r_moment(s, -3)
    with pytest.raises(OrderOutOfDomain):
        r_moment(s, -3.2)
    assert r_moment(s, -2.9).as_float() > 0


def test_float_ground_state_below_the_double_range_raises():
    # ((D-1)/4Z)^alpha is about e^-1084; this returned 0.0 with a zero bound
    with pytest.raises(FloatUnderflow):
        r_moment_ground(3, 1e6, 100.5)


def test_ground_state_formula_matches_general_route():
    for D in (2, 3, 4, 6, 9):
        for Z in (1.0, 2.0, 0.1, Fraction(3, 7)):
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


def test_series_below_the_range_raises_without_the_oracle(monkeypatch):
    # the series is rounded once, so FloatUnderflow means the moment itself
    # (about e^-1313) and no quadrature is tried
    monkeypatch.setattr(oracle, "quad_r_moment", lambda *args: pytest.fail("the oracle was called"))
    with pytest.raises(FloatUnderflow):
        r_moment(make_state(8, 113, 90, 1.0), -159.3, mode="float")


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


def _series(logs, s, bound):
    def evaluate(state, alpha):
        return logs, s, bound
    return evaluate


# (logs, s, bound) -> fall back (True), return exp(sum(logs)) s times the scale (False), or raise
@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize(
    "evaluate, falls_back",
    [
        (lambda s, a: ([0.0], 2.0, 2.0 * CANCELLATION_LIMIT), False),
        (lambda s, a: ([0.0], 2.0, 2.0 * CANCELLATION_LIMIT * 1.5), True),
        (lambda s, a: ([0.0], 0.0, 0.0), True),
        (lambda s, a: ([0.0], -1.0, 0.0), True),
        (lambda s, a: ([0.0], 2.0, math.nan), True),
        (lambda s, a: ([0.0], math.nan, 0.0), True),
        (_series([0.0], math.nan, math.inf), True),  # what an overflowing term gives
        # the prefactor alone lies below the double range, the moment does not
        pytest.param(_series([-800.0], math.exp(100.0), 0.0), False, id="prefactor_underflow"),
        pytest.param(_series([800.0], math.exp(-100.0), 0.0), False, id="prefactor_overflow"),
        pytest.param(_series([-800.0], 1.0, 0.0), FloatUnderflow, id="moment_underflow"),
        pytest.param(_series([800.0], 1.0, 0.0), FloatOverflow, id="moment_overflow"),
        pytest.param(_series([0.0], math.inf, 0.0), FloatOverflow, id="infinite_sum"),
    ],
)
def test_one_fallback_rule_for_both_spaces(monkeypatch, space, evaluate, falls_back):
    # the oracle is looked up at call time, so a replaced quad_* is the one used
    s = make_state(3, 4, 1, 1.0)
    calls = []
    for name in ("quad_r_moment", "quad_p_moment"):
        monkeypatch.setattr(oracle, name, lambda st, a, name=name: calls.append((name, st, a)) or "quad")
    if falls_back is True:
        quad = "quad_r_moment" if space is Space.POSITION else "quad_p_moment"
        res = series_or_quadrature(evaluate, s, 1.5, Method.SINGLE_SUM, space)
        assert res == "quad" and calls == [(quad, s, 1.5)]
    elif falls_back is False:
        res = series_or_quadrature(evaluate, s, 1.5, Method.SINGLE_SUM, space)
        logs, sum_, bound = evaluate(s, 1.5)
        want = math.exp(math.fsum([*logs, *s.scale_logs(1.5, space), math.log(sum_)]))
        assert calls == [] and (res.method, res.space) == (Method.SINGLE_SUM, space)
        assert res.value == pytest.approx(want, rel=1e-13)
        assert res.error_estimate >= bound / sum_ * res.value
    else:
        with pytest.raises(falls_back):
            series_or_quadrature(evaluate, s, 1.5, Method.SINGLE_SUM, space)
        assert calls == []


def test_position_domain_is_checked_before_the_mode():
    s = make_state(3, 2, 0, 1.0)
    with pytest.raises(OrderOutOfDomain):
        r_moment(s, -99, mode="bogus")
    with pytest.raises(UnsupportedArgument):
        r_moment(s, 2, mode="bogus")
