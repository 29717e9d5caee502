"""Asymptotic estimators: Rydberg and high-dimensional regimes."""

import math

import pytest

from hydromoments import (
    Space,
    gamma_ratio_asym,
    highD,
    make_state,
    p_moment,
    r_moment,
    rydberg_circular_p,
    rydberg_inverse_p,
    rydberg_p,
    rydberg_r,
)
from hydromoments.asympt import Regime
from hydromoments.errors import FloatOverflow, FloatUnderflow, NotCircular, OrderOutOfRegime, UnsupportedArgument
from hydromoments.momom import inverse_momentum, mean_momentum


def test_gamma_ratio_asym():
    x = 50.0
    truth = math.gamma(x + 1.75) / math.gamma(x + 0.25)
    assert gamma_ratio_asym(x, 1.75, 0.25) == pytest.approx(truth, rel=1e-3)


def test_rydberg_r_positive_branch_converges():
    prev = None
    for n in (20, 40, 80):
        s = make_state(3, n, 0, 1.0)
        est = rydberg_r(s, 0.5).leading
        dev = abs(r_moment(s, 0.5).as_float() / est - 1)
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev < 0.05


def test_rydberg_r_negative_branch():
    # integer order -2 with l = 1 is reproduced identically at every n
    for n in (10, 40):
        s = make_state(3, n, 1, 1.0)
        est = rydberg_r(s, -2.0).leading
        assert r_moment(s, -2).value.to_float() == pytest.approx(est, rel=1e-14)
    # a non-integer order in (3/2, 2L+3) converges as n grows
    prev = None
    for n in (20, 40, 80):
        s = make_state(3, n, 1, 1.0)
        est = rydberg_r(s, -2.5).leading
        dev = abs(r_moment(s, -2.5).as_float() / est - 1)
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev < 0.1


def test_rydberg_r_out_of_regime():
    s = make_state(3, 10, 0, 1.0)
    with pytest.raises(OrderOutOfRegime):
        rydberg_r(s, -3.5)  # needs -alpha < 2L+3 = 3 for l = 0


def test_rydberg_p_limits_and_domain():
    s = make_state(3, 40, 0, 1.0)
    est = rydberg_p(s, 2.0)
    assert est.regime is Regime.RYDBERG
    # alpha = 2 is exact at every n
    assert est.leading == pytest.approx(p_moment(s, 2).as_float(), rel=1e-12)
    for bad in (-1.0, 3.0, 4.5):
        with pytest.raises(OrderOutOfRegime):
            rydberg_p(s, bad)


def test_rydberg_circular_correction_improves():
    for alpha in (0.5, 2.5):
        for n in (20, 80):
            s = make_state(3, n, n - 1, 1.0)
            exact = p_moment(s, alpha, mode="float").as_float()
            est = rydberg_circular_p(s, alpha)
            assert abs(exact / est.corrected - 1) < abs(exact / est.leading - 1)


def test_rydberg_inverse_p_families():
    # circular: exact <p^-1> approaches (n/Z)(1 + 3/4n)
    for n in (20, 60):
        s = make_state(3, n, n - 1, 1.0)
        exact = inverse_momentum(s).value.to_float()
        est = rydberg_inverse_p(n, 1.0, "circular")
        assert abs(exact / est.corrected - 1) < abs(exact / est.leading - 1)
        assert exact == pytest.approx(est.corrected, rel=1e-2)
    # nS: logarithmic growth with the corrected tail
    for n in (20, 60):
        s = make_state(3, n, 0, 1.0)
        exact = inverse_momentum(s).value.to_float()
        est = rydberg_inverse_p(n, 1.0, "nS")
        assert exact == pytest.approx(est.corrected, rel=1e-3)
    with pytest.raises(UnsupportedArgument):
        rydberg_inverse_p(10, 1.0, "bogus")


def test_highd_momentum_estimates():
    for D in (32, 128):
        s = make_state(D, 2, 0, 1.0)
        est = highD(s, 1.0, Space.MOMENTUM)
        exact = p_moment(s, 1, mode="float").as_float()
        assert abs(exact / est.corrected - 1) < abs(exact / est.leading - 1)
        assert exact == pytest.approx(est.corrected, rel=20.0 / D ** 2)


def test_highd_position_estimates():
    for D in (32, 128):
        s = make_state(D, 3, 0, 1.0)
        est = highD(s, 2.0, Space.POSITION)
        exact = r_moment(s, 2).value.to_float()
        assert abs(exact / est.corrected - 1) < abs(exact / est.leading - 1)
        assert exact == pytest.approx(est.corrected, rel=50.0 / D ** 2)


def test_estimates_outside_the_double_range_raise():
    # before: a bare OverflowError, 0.0, and a corrected value of inf
    with pytest.raises(FloatOverflow):
        rydberg_r(make_state(3, 1, 0, 1.0), 1100)
    with pytest.raises(FloatUnderflow):
        rydberg_circular_p(make_state(3, 300, 299, 1.0), 400)
    with pytest.raises(FloatOverflow):
        highD(make_state(16, 1, 0, 1.0), 150, Space.POSITION)


def test_negative_correction_factor_keeps_its_sign():
    # D=2 2s: 1 + alpha (alpha-2)(2n-2l-1)/(4nu) = -1/2 at alpha = 1, and Z/eta = 2/3
    est = highD(make_state(2, 2, 0, 1.0), 1.0, Space.MOMENTUM)
    assert est.corrected == pytest.approx(-1 / 3, rel=1e-14)
    assert est.leading == pytest.approx(1.0, rel=1e-14)


def test_highd_domain():
    with pytest.raises(OrderOutOfRegime):
        highD(make_state(16, 1, 0, 1.0), -16.5, Space.POSITION)


@pytest.mark.parametrize(
    "estimate, state, alpha",
    [
        (lambda s, a: highD(s, a, Space.MOMENTUM), make_state(16, 2, 0, 1.0), 23.0),
        (lambda s, a: highD(s, a, Space.MOMENTUM), make_state(16, 2, 0, 1.0), 18.0),
        (lambda s, a: highD(s, a, Space.MOMENTUM), make_state(16, 2, 0, 1.0), -16.0),
        (lambda s, a: highD(s, a, Space.POSITION), make_state(16, 2, 0, 1.0), -16.0),
        (rydberg_circular_p, make_state(3, 20, 19, 1.0), 46.0),
        (rydberg_circular_p, make_state(3, 20, 19, 1.0), -41.0),
    ],
)
def test_estimates_refuse_orders_where_the_moment_diverges(estimate, state, alpha):
    with pytest.raises(OrderOutOfRegime):
        estimate(state, alpha)


def test_rydberg_circular_p_needs_a_circular_state():
    # 5D 10s has <p> = 0.0594, not the circular form's 0.0975
    with pytest.raises(NotCircular):
        rydberg_circular_p(make_state(5, 10, 0, 1.0), 1.0)
