"""Quadrature oracle: rules, wavefunctions, norms, and entropic moments."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hydromoments import (
    entropic_moment,
    make_state,
    p_moment,
    quad_p_moment,
    quad_r_moment,
    r_moment,
    radial_momentum,
    radial_position,
    solid_angle,
)
from hydromoments.errors import NonpositiveParameters
from hydromoments.oracle import (
    _jacobi_recurrence,
    _laguerre_recurrence,
    gauss_jacobi,
    gauss_laguerre,
    gegenbauer,
    gegenbauer_orthonormal,
    laguerre_orthonormal,
    momentum_norm_sq,
    position_norm_sq,
)


def test_gauss_laguerre_exactness():
    # integral of x^j e^{-x} = j!
    x, w = gauss_laguerre(6, 0.0)
    for j in range(12):
        assert np.dot(w, x ** j) == pytest.approx(math.factorial(j), rel=1e-12)


def test_gauss_jacobi_exactness():
    # weight (1-x)^a (1+x)^b on (-1, 1); moment 0 is the beta-type mass
    import mpmath

    a, b = 1.5, 0.5
    x, w = gauss_jacobi(5, a, b)
    # total mass 2^(a+b+1) B(a+1, b+1) = pi/2 for these exponents
    assert w.sum() == pytest.approx(math.pi / 2, rel=1e-13)
    m3 = float(mpmath.quad(lambda t: t ** 3 * (1 - t) ** a * (1 + t) ** b, [-1, 1]))
    assert np.dot(w, x ** 3) == pytest.approx(m3, rel=1e-12)


def test_recurrence_parameter_validation():
    with pytest.raises(NonpositiveParameters):
        _laguerre_recurrence(4, -1.0)
    with pytest.raises(NonpositiveParameters):
        _jacobi_recurrence(4, -1.5, 0.0)


def test_orthonormal_laguerre():
    b = 2.5
    x, w = gauss_laguerre(12, b)
    for j in range(5):
        pj = laguerre_orthonormal(j, b, x)
        assert np.dot(w, pj * pj) == pytest.approx(1.0, rel=1e-12)
        if j:
            pk = laguerre_orthonormal(j - 1, b, x)
            assert abs(np.dot(w, pj * pk)) < 1e-12


def test_orthonormal_gegenbauer():
    nu = 2.0
    x, w = gauss_jacobi(12, nu - 0.5, nu - 0.5)
    for j in range(5):
        pj = gegenbauer_orthonormal(j, nu, x)
        assert np.dot(w, pj * pj) == pytest.approx(1.0, rel=1e-12)


def test_plain_gegenbauer_matches_scipy():
    from scipy.special import eval_gegenbauer

    x = np.linspace(-0.9, 0.9, 7)
    for k in range(6):
        for nu in (0.5, 1.0, 2.5):
            assert gegenbauer(k, nu, x) == pytest.approx(
                eval_gegenbauer(k, nu, x), rel=1e-12, abs=1e-12
            )


def test_quadrature_matches_exact_routes():
    for D, n, l in [(2, 3, 1), (3, 4, 0), (5, 3, 2), (8, 2, 1)]:
        s = make_state(D, n, l, 1.0)
        for alpha in (-1, 1, 2, 3):
            qr = quad_r_moment(s, alpha)
            assert qr.value == pytest.approx(r_moment(s, alpha).as_float(), rel=1e-12)
            assert abs(qr.value - r_moment(s, alpha).as_float()) <= 10 * qr.error_estimate + 1e-13
            qp = quad_p_moment(s, alpha)
            assert qp.value == pytest.approx(p_moment(s, alpha).as_float(), rel=1e-12)


def test_position_wavefunction_normalized():
    for D, n, l in [(3, 1, 0), (3, 3, 1), (4, 2, 1), (6, 3, 0)]:
        s = make_state(D, n, l, 1.0)
        val, _ = quad(lambda r: float(radial_position(s, r) ** 2 * r ** (D - 1)), 0, np.inf, limit=200)
        assert val == pytest.approx(1.0, rel=1e-10)


def test_momentum_wavefunction_normalized():
    for D, n, l in [(3, 1, 0), (3, 3, 1), (4, 2, 1), (6, 3, 0)]:
        s = make_state(D, n, l, 1.0)
        val, _ = quad(lambda p: float(radial_momentum(s, p) ** 2 * p ** (D - 1)), 0, np.inf, limit=200)
        assert val == pytest.approx(1.0, rel=1e-10)


def test_norm_constants_positive_exact():
    for D, n, l in [(2, 2, 0), (3, 4, 2), (5, 3, 1)]:
        s = make_state(D, n, l, 1.0)
        assert position_norm_sq(s).to_float() > 0
        assert momentum_norm_sq(s).to_float() > 0


def test_solid_angle():
    assert solid_angle(2).to_float() == pytest.approx(2 * math.pi)
    assert solid_angle(3).to_float() == pytest.approx(4 * math.pi)
    assert solid_angle(4).to_float() == pytest.approx(2 * math.pi ** 2)


def test_entropic_moments_ground_state():
    s = make_state(3, 1, 0, 1.0)
    # W_1 is the density normalization
    assert entropic_moment(s, 1.0) == pytest.approx(1.0, rel=1e-10)
    # W_q of the 3D ground state: (Z^3/pi)^(q-1) / q^3 integrated in closed form
    for q in (1.5, 2.0, 3.0):
        expect = math.pi ** (1 - q) / q ** 3
        assert entropic_moment(s, q) == pytest.approx(expect, rel=1e-9)


def test_entropic_moment_takes_the_exact_norm_once(monkeypatch):
    from hydromoments import oracle

    calls = []

    def counting(state):
        calls.append(state)
        return position_norm_sq(state)

    s = make_state(4, 3, 0, 1.0)
    want = entropic_moment(s, 1.5)
    monkeypatch.setattr(oracle, "position_norm_sq", counting)
    assert entropic_moment(s, 1.5) == want
    assert calls == [s]
    r = np.array([0.5, 2.0, 9.0])
    assert np.array_equal(radial_position(s, r), oracle._radial_position(s, r, oracle._position_amplitude(s)))
