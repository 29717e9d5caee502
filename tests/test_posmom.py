"""Position-moment routes: 3F2, closed forms, ground-state formula."""

import dataclasses
import math
import time
import warnings
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
from hydromoments import momom, oracle, p_moment_even_closed, posmom, specfun
from hydromoments.errors import (
    ExactTooLarge,
    FloatOverflow,
    FloatUnderflow,
    OrderOutOfDomain,
    QuadratureFailure,
    UnsupportedArgument,
)
from hydromoments.posmom import CANCELLATION_LIMIT, series_or_quadrature
from hydromoments.specfun import gamma_ratio_doubled

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


@pytest.mark.parametrize("D", [np.int64(3), np.int32(7)])
def test_ground_state_takes_a_numpy_dimension(D):
    # its cost line read D.bit_length(), which numpy integers lack
    for a in (-1, 1, 4):
        assert r_moment_ground(D, 1.0, a).value == r_moment_ground(int(D), 1.0, a).value
    assert r_moment_ground(D, 1.0, 0.5).value == r_moment_ground(int(D), 1.0, 0.5).value


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


@pytest.mark.parametrize("alpha", [1e100, 1e160, 1e300, 1.7e308])
def test_float_position_at_a_huge_order_raises_without_a_warning(alpha):
    # the float 3F2 hands these orders to the Gauss-Laguerre pair (a term
    # overflows), whose nodes near alpha overflowed the recurrence: 1e160
    # returned nan +- nan, and 1e100 warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((QuadratureFailure, FloatOverflow), match="double range"):
            r_moment(make_state(3, 5, 0, 1.0), alpha, mode="float")
        with pytest.raises((QuadratureFailure, FloatOverflow), match="double range"):
            oracle.quad_r_moment(make_state(3, 5, 0, 1.0), alpha)


def test_position_domain_is_checked_before_the_mode():
    s = make_state(3, 2, 0, 1.0)
    with pytest.raises(OrderOutOfDomain):
        r_moment(s, -99, mode="bogus")
    with pytest.raises(UnsupportedArgument):
        r_moment(s, 2, mode="bogus")


@pytest.mark.parametrize("call", [
    lambda a: r_moment(make_state(3, 2, 0, 1.0), a),
    lambda a: r_moment_ground(3, 1.0, a),
], ids=["r_moment", "r_moment_ground"])
def test_exact_order_beyond_the_size_budget_raises_at_once(call):
    # 10^8 would build about 3e9 bits and run for hours
    start = time.perf_counter()
    with pytest.raises(ExactTooLarge, match='mode="float"'):
        call(10 ** 8)
    assert time.perf_counter() - start < 0.01
    assert call(2000).is_exact


def _stated_cost_bounds_what_is_built(monkeypatch, call, built):
    """The call makes one statement to `specfun.require_cost` from each module
    that builds, posmom for itself and specfun for `gamma_ratio_doubled`'s
    Gamma ratio.  `built` maps each module's name to the bits its own builder
    builds; each statement is at least those and at most 1.25 times as many,
    and the one budget is compared with exactly the costs stated: one
    bit-pass under the larger raises, at it the value builds."""
    real = specfun.require_cost
    stated = {}
    for module in (posmom, specfun):
        monkeypatch.setattr(module, "require_cost", lambda bits, products, instead, name=module.__name__:
                            stated.setdefault(name, []).append((bits, products)))
    assert call().is_exact
    assert stated.keys() == {f"hydromoments.{name}" for name in built}
    costs = []
    for name, bits_built in built.items():
        [(bits, products)] = stated[f"hydromoments.{name}"]
        assert bits_built <= bits <= 1.25 * bits_built, name
        costs.append(bits * products)
    monkeypatch.setattr(posmom, "require_cost", real)
    monkeypatch.setattr(specfun, "require_cost", real)
    monkeypatch.setattr(specfun, "COST_BUDGET", max(costs) - 1)
    with pytest.raises(ExactTooLarge, match='mode="float"'):
        call()
    monkeypatch.setattr(specfun, "COST_BUDGET", max(costs))
    assert call().is_exact


@pytest.mark.parametrize("D, n, l, Z, a", [
    (3, 2, 0, 1.0, 3000), (3, 2, 0, 0.1, 700), (3, 2, 0, 1e-300, 60),
    (8, 40, 3, 3.906504, 500), (3, 300, 250, 1.0, -500), (6, 1, 0, 0.1, 900),
])
def test_exact_size_estimate_bounds_the_factors_it_counts(monkeypatch, D, n, l, Z, a):
    """r_moment builds its unreduced triple (the rising product times the
    series) and the scale's power."""
    s = make_state(D, n, l, Z)
    num, den, _ = posmom._r_series_exact(s, a)
    sn, sd = s.scale(a, Space.POSITION)
    built = sum(x.bit_length() for x in (num, den, sn, sd))
    _stated_cost_bounds_what_is_built(monkeypatch, lambda: r_moment(s, a), {"posmom": built})


@pytest.mark.parametrize("D, Z, a", [(6, 0.1, 900), (3, 1.0, 3000), (5, 1e-300, -4)])
def test_ground_state_size_estimate_bounds_the_factors_it_counts(monkeypatch, D, Z, a):
    """r_moment_ground builds the scale's power, and `gamma_ratio_doubled`
    the rising product Gamma(D+a)/Gamma(D)."""
    num, den, _ = gamma_ratio_doubled((2 * (D + a),), (2 * D,))
    sn, sd = make_state(D, 1, 0, Z).scale(a, Space.POSITION)
    built = {"posmom": sn.bit_length() + sd.bit_length(), "specfun": num.bit_length() + den.bit_length()}
    _stated_cost_bounds_what_is_built(monkeypatch, lambda: r_moment_ground(D, Z, a), built)


def test_exact_position_moments_obey_the_kramers_relation():
    """The D-dimensional Kramers relation, with c = 2l+D-2,
    (s+1)(Z/eta)^2 <r^s> - (2s+1) Z <r^(s-1)> + (s/4)(c^2 - s^2) <r^(s-2)> = 0,
    holds exactly on every window with all three orders in the domain, from
    s = -D-2l+3 to 2l+D+11, on D 2-9, n <= 8, every l and Z in {1, 3/8}.
    It shares no code with `r_moment`; it is homogeneous, so <r^0> = 1 and
    the virial value <r^-1> = Z/eta^2 anchor it."""
    windows = 0
    for D in range(2, 10):
        for n in range(1, 9):
            for l in range(n):
                for Z in (1.0, 0.375):
                    s = make_state(D, n, l, Z)
                    Zq, eta, c = Fraction(Z), s.eta, 2 * l + D - 2
                    lo, hi = s.position_lower_bound() + 1, 2 * l + D + 11
                    m = {}
                    for a in range(lo, hi + 1):
                        v = r_moment(s, a, mode="exact").value
                        assert v.pi_pow == 0, (s, a)
                        m[a] = v.coeff
                    assert m[0] == 1 and m[-1] == Zq / eta ** 2, s
                    for t in range(lo + 2, hi + 1):
                        lhs = (t + 1) * (Zq / eta) ** 2 * m[t] - (2 * t + 1) * Zq * m[t - 1]
                        assert lhs + Fraction(t * (c * c - t * t), 4) * m[t - 2] == 0, (s, t)
                        windows += 1
    assert windows == 16_896


def test_exact_momentum_moments_obey_the_four_term_relation():
    """The momentum twin of the Kramers relation, in steps of 2: with
    b = a+2, m_j = <p^(a+2j)>, eps = eta/Z, c = 2l+D-2,
    Q = 3b^3 + (16 eta^2 - 3c^2 - 4) b and K = 16 eta^2 - 4,
    b (b^2 - c^2)(m_0 + eps^6 m_3) + eps^2 (Q + K) m_1 + eps^4 (Q - K) m_2 = 0
    holds exactly on every window of four integer orders in the domain, on
    D 2-8, n <= 6, every l and Z in {1, 1/2}.  It shares no code with
    `p_moment`; it is homogeneous, so <p^0> = 1, <p^2> = (Z/eta)^2 and the
    `double` route's <p^1> anchor it."""
    windows = 0
    for D in range(2, 9):
        for n in range(1, 7):
            for l in range(n):
                for Z in (1, Fraction(1, 2)):
                    s = make_state(D, n, l, Z)
                    lo, hi = s.momentum_interval()
                    values = {a: momom.p_moment(s, a, mode="exact").value for a in range(lo + 1, hi)}
                    assert values[1] == momom.p_moment(s, 1, mode="exact", route="double").value, s
                    m = {a: v.coeff for a, v in values.items()}
                    eta, c = s.eta, 2 * l + D - 2
                    eps = eta / s.Z_exact
                    assert m[0] == 1 and m[2] == eps ** -2, s
                    K = 16 * eta ** 2 - 4
                    for a in range(lo + 1, hi - 6):
                        # one pi power per window: the orders share a parity
                        assert len({values[a + 2 * j].pi_pow for j in range(4)}) == 1, (s, a)
                        b = a + 2
                        Q = 3 * b ** 3 + (16 * eta ** 2 - 3 * c * c - 4) * b
                        lhs = b * (b * b - c * c) * (m[a] + eps ** 6 * m[a + 6])
                        assert lhs + eps ** 2 * (Q + K) * m[a + 2] + eps ** 4 * (Q - K) * m[a + 4] == 0, (s, a)
                        windows += 1
    assert windows == 3_442


def test_directly_built_results_match_dataclass_built_ones():
    """`exact` and `rounded` fill MomentResult's frozen fields without its
    __init__; the result equals, hashes and prints like the dataclass-built
    one and stays frozen."""
    s = make_state(4, 3, 1, 0.375)
    for res in (r_moment(s, 3, mode="exact"), r_moment(s, 0.37, mode="float"), momom.p_moment(s, -1, mode="exact")):
        built = posmom.MomentResult(res.value, res.error_estimate, res.method, res.space, res.alpha, res.state)
        assert type(res) is posmom.MomentResult
        assert res == built and hash(res) == hash(built) and repr(res) == repr(built)
        assert dataclasses.replace(res) == res
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.value = 0.0
