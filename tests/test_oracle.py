"""Quadrature oracle: rules, wavefunctions, norms, and entropic moments."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_genlaguerre

import hydromoments
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
from hydromoments.errors import FloatOverflow, FloatUnderflow, NonpositiveParameters, NotSWave, QuadratureFailure
from hydromoments.oracle import (
    _gauss_laguerre_log,
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


@pytest.mark.parametrize("nu", [7.5, 20.5])
def test_plain_gegenbauer_matches_scipy_at_high_order(nu):
    from scipy.special import eval_gegenbauer

    x = np.linspace(-0.99, 0.99, 41)
    for k in range(31):
        want = eval_gegenbauer(k, nu, x)
        assert np.max(np.abs(gegenbauer(k, nu, x) - want)) <= 1e-12 * np.max(np.abs(want)), k


def test_quadrature_matches_exact_routes():
    for D, n, l in [(2, 3, 1), (3, 4, 0), (5, 3, 2), (8, 2, 1)]:
        s = make_state(D, n, l, 1.0)
        for alpha in (-1, 1, 2, 3):
            qr = quad_r_moment(s, alpha)
            assert qr.value == pytest.approx(r_moment(s, alpha).as_float(), rel=1e-12)
            assert abs(qr.value - r_moment(s, alpha).as_float()) <= 10 * qr.error_estimate + 1e-13
            qp = quad_p_moment(s, alpha)
            assert qp.value == pytest.approx(p_moment(s, alpha).as_float(), rel=1e-12)


def test_quadrature_stays_inside_the_double_range_or_raises():
    # (Z/eta)^alpha is about e^-819, below the double range; the moment is not
    s, alpha = make_state(6, 136, 73, 0.567614), 149.29684922145924
    res, dbl = quad_p_moment(s, alpha), p_moment(s, alpha, mode="float", route="double")
    assert abs(res.value - dbl.value) <= res.error_estimate + dbl.error_estimate
    assert res.value == pytest.approx(7.86807976479973e-262, rel=1e-12)
    for quad_fn, moment, (D, n, l, Z, alpha), error in [
        (quad_p_moment, p_moment, (4, 123, 107, 1.283266, 219.99999947509613), FloatUnderflow),
        (quad_r_moment, r_moment, (8, 113, 90, 1.0, -159.3), FloatUnderflow),
        (quad_p_moment, p_moment, (6, 91, 73, 1.035883, -144.46383508030888), FloatOverflow),
        (quad_r_moment, r_moment, (12, 144, 47, 0.768354, 107.15642452101065), FloatOverflow),
    ]:
        s = make_state(D, n, l, Z)
        with pytest.raises(error):
            quad_fn(s, alpha)
        with pytest.raises(error):  # the float series falls back to the oracle here
            moment(s, alpha, mode="float")


def test_error_bound_of_a_moment_near_the_top_of_the_double_range_is_finite():
    # the Gauss sums are about 2.3e39, so value * |s - s2| overflowed before the division
    s, alpha = make_state(14, 54, 44, 24849.2389908074), 99.6403926883999
    res, dbl = quad_p_moment(s, alpha), p_moment(s, alpha, mode="float", route="double")
    assert res.value == pytest.approx(3.16892500972e300, rel=1e-11)
    assert math.isfinite(res.error_estimate)
    assert abs(res.value - dbl.value) <= res.error_estimate + dbl.error_estimate


def test_jacobi_weight_integral_outside_the_double_range_raises():
    # mu0 = 2^(a+b+1) B(a+1, b+1) is about e^1112 here; math.exp raised a bare OverflowError
    with pytest.raises(FloatOverflow):
        quad_p_moment(make_state(3, 800, 790, 1.0), -1582.999999)


@pytest.mark.parametrize("alpha", [-602.999999, 604.999999])
def test_overflowing_gauss_sum_raises_without_a_warning(alpha):
    # the Gauss sums overflow in np.dot; both true moments lie outside the double
    # range (about e^4861 and e^-2866 by the 5F4 series at 30 digits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((FloatOverflow, FloatUnderflow)):
            quad_p_moment(make_state(3, 600, 300, 1.0), alpha)


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


@pytest.mark.parametrize("D, n, l", [(3, 160, 150), (3, 300, 0), (12, 500, 3)])
def test_position_wavefunction_finite_and_normalized_at_large_n_and_l(D, n, l):
    s = make_state(D, n, l, 1.0)
    b = 2 * l + D - 2
    # R^2 r^(D-1) dr is a degree-2k polynomial against x^(b+1) e^-x in x = 2Zr/eta
    x, log_w = _gauss_laguerre_log(s.k + 2, b + 1.0)
    scale = float(s.eta) / (2 * s.Z)
    r = x * scale
    R = radial_position(s, r)
    assert np.isfinite(R).all()
    norm = np.exp(log_w + x - (b + 1) * np.log(x)) @ (R * R * r ** (D - 1)) * scale
    assert norm == pytest.approx(1.0, rel=1e-12, abs=0)


def _radial_momentum_reference(s, p):
    """M_{n,l}(p) at 30 digits from the exact K'^2 and mpmath's Gegenbauer polynomial."""
    with mpmath.workdps(30):
        K2 = momentum_norm_sq(s)
        pi_pow = mpmath.mpf(K2.pi_pow.numerator) / K2.pi_pow.denominator
        amp = mpmath.sqrt(mpmath.mpf(K2.coeff.numerator) / K2.coeff.denominator * mpmath.pi ** pi_pow)
        t = mpmath.mpf(s.two_eta) / 2 * mpmath.mpf(p) / mpmath.mpf(s.Z)
        y = (1 - t * t) / (1 + t * t)
        return amp * t ** s.l * (1 + t * t) ** (-(s.l + mpmath.mpf(s.D + 1) / 2)) \
            * mpmath.gegenbauer(s.k, mpmath.mpf(s.two_nu) / 2, y)


def test_momentum_wavefunction_at_large_l_is_summed_in_log_space():
    s = make_state(3, 160, 150, 1.0)
    got = radial_momentum(s, [0.1, 10.0])
    want = _radial_momentum_reference(s, 0.1)
    # about 1.5e-128; measured relative error 1.1e-13, the logs being of size ~300
    assert abs(got[0] - want) <= 1e-12 * abs(want)
    # |M(10)| is about 3e-436: a finite underflow, not 0 * inf = nan
    assert _radial_momentum_reference(s, 10.0) != 0 and got[1] == 0.0


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
    assert np.array_equal(radial_position(s, r), oracle._radial_position(s, r, oracle._position_log_amplitude(s)))


def test_wavefunctions_take_a_fraction_charge():
    r = p = np.array([1.0, 2.0])
    s, s_float = make_state(3, 2, 0, Fraction(3, 2)), make_state(3, 2, 0, 1.5)
    for fn, x in ((radial_position, r), (radial_momentum, p)):
        got = fn(s, x)
        assert got.dtype == np.float64
        assert np.array_equal(got, fn(s_float, x))


def _entropic_reference(state, q):
    """W_q of an s state by 30-digit mpmath quadrature of |R|^(2q) r^(D-1),
    split at the zeros of the Laguerre polynomial, with R normalized in
    closed form."""
    D, k, b = state.D, state.k, state.D - 2
    with mpmath.workdps(30):
        q = mpmath.mpf(q)
        coeffs = [mpmath.mpf((-1) ** i * math.comb(k + b, k - i)) / math.factorial(i) for i in range(k, -1, -1)]
        lag = lambda x: mpmath.polyval(coeffs, x)  # L_k^(b)(x)
        zeros = [mpmath.findroot(lag, z) for z in roots_genlaguerre(k, b)[0]] if k else []
        scale = mpmath.mpf(state.eta.numerator) / state.eta.denominator / (2 * mpmath.mpf(state.Z))
        # R = K e^(-x/2) L_k^(b)(x), and int x^(b+1) e^-x L^2 dx = Gamma(k+b+1) (2k+b+1) / k!
        k2 = math.factorial(k) / (scale ** D * mpmath.gamma(k + b + 1) * (2 * k + b + 1))
        body = mpmath.quad(lambda x: (k2 * lag(x) ** 2) ** q * mpmath.exp(-q * x) * x ** (D - 1), [0, *zeros, mpmath.inf])
        omega = 2 * mpmath.pi ** (mpmath.mpf(D) / 2) / mpmath.gamma(mpmath.mpf(D) / 2)
        return float(omega ** (1 - q) * scale ** D * body)


def test_entropic_moment_matches_an_mpmath_reference():
    from hydromoments.verify import grid

    cases = [(D, n, 1.0, 1 + 2 / D) for D, n, l in grid("full") if l == 0]
    cases += [(3, 4, 1.3, 0.6), (5, 3, 0.7, 0.4), (12, 6, 1.0, 1 + 2 / 12)]
    for D, n, Z, q in cases:
        s = make_state(D, n, 0, Z)
        assert entropic_moment(s, q) == pytest.approx(_entropic_reference(s, q), rel=1e-12, abs=0), (D, n, Z, q)


def test_entropic_moment_normalizes_a_rydberg_state():
    assert abs(entropic_moment(make_state(5, 300, 0, 1.0), 1.0) - 1) <= 1e-10


def test_entropic_moment_states_its_domain():
    with pytest.raises(NotSWave):
        entropic_moment(make_state(3, 2, 1, 1.0), 1.5)
    for q in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(NonpositiveParameters):
            entropic_moment(make_state(3, 2, 0, 1.0), q)


def test_entropic_moment_raises_when_its_rules_disagree(monkeypatch):
    from hydromoments import oracle

    rule = oracle._gauss_laguerre_log

    def drifting(m, c):  # the tail weights shift with the rule size
        x, log_w = rule(m, c)
        return x, log_w + 1e-6 * m

    monkeypatch.setattr(oracle, "_gauss_laguerre_log", drifting)
    with pytest.raises(QuadratureFailure):
        entropic_moment(make_state(3, 2, 0, 1.0), 1.5)


def test_uncertainty_suite_leaves_scipy_integrate_unimported():
    src = os.path.dirname(os.path.dirname(hydromoments.__file__))
    code = (
        "import sys\n"
        "from hydromoments import cli\n"
        "assert cli.main(['verify', '--suite', 'uncertainty', '--grid', 'small']) == 0\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
