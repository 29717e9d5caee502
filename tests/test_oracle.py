"""Quadrature oracle: rules, wavefunctions, norms, and entropic moments."""

import ast
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_genlaguerre

import hydromoments
from hydromoments import (
    Space,
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
from hydromoments.errors import (
    DimensionTooSmall, FloatOverflow, FloatUnderflow, NonpositiveParameters, NotSWave, QuadratureFailure,
    UnsupportedArgument,
)
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
from hydromoments.specfun import ExactValue, gamma_exact


def test_gauss_laguerre_exactness():
    # integral of x^j e^{-x} = j!
    x, log_w = gauss_laguerre(6, 0.0)
    w = np.exp(log_w)
    for j in range(12):
        assert np.dot(w, x ** j) == pytest.approx(math.factorial(j), rel=1e-12)


def test_gauss_jacobi_exactness():
    # weight (1-x)^a (1+x)^b on (-1, 1); moment 0 is the beta-type mass
    import mpmath

    a, b = 1.5, 0.5
    x, log_w = gauss_jacobi(5, a, b)
    w = np.exp(log_w)
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
    x, log_w = gauss_laguerre(12, b)
    w = np.exp(log_w)
    for j in range(5):
        q, s = laguerre_orthonormal(j, b, x)
        pj = q * np.exp(s)
        assert np.dot(w, pj * pj) == pytest.approx(1.0, rel=1e-12)
        if j:
            q, s = laguerre_orthonormal(j - 1, b, x)
            pk = q * np.exp(s)
            assert abs(np.dot(w, pj * pk)) < 1e-12


def test_orthonormal_gegenbauer():
    nu = 2.0
    x, log_w = gauss_jacobi(12, nu - 0.5, nu - 0.5)
    w = np.exp(log_w)
    for j in range(5):
        q, s = gegenbauer_orthonormal(j, nu, x)
        pj = q * np.exp(s)
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
        with pytest.raises(error):  # from the oracle where the float series cancels, else its own
            moment(s, alpha, mode="float")


def test_error_bound_of_a_moment_near_the_top_of_the_double_range_is_finite():
    # the Gauss sums are about 2.3e39, so value * |s - s2| overflowed before the division
    s, alpha = make_state(14, 54, 44, 24849.2389908074), 99.6403926883999
    res, dbl = quad_p_moment(s, alpha), p_moment(s, alpha, mode="float", route="double")
    assert res.value == pytest.approx(3.16892500972e300, rel=1e-11)
    assert math.isfinite(res.error_estimate)
    assert abs(res.value - dbl.value) <= res.error_estimate + dbl.error_estimate


def test_jacobi_weight_integral_outside_the_double_range_raises():
    # mu0 = 2^(a+b+1) B(a+1, b+1) is about e^1112 here, and the moment about
    # e^11750; math.exp raised a bare OverflowError
    with pytest.raises(FloatOverflow):
        quad_p_moment(make_state(3, 800, 790, 1.0), -1582.999999)


def test_a_moment_inside_the_double_range_answers_where_its_weight_integral_is_not():
    # the same rules, whose mu0 is about e^1112, for a moment of about 20.5 at
    # Z = 1670; the rules' linear weights raised FloatOverflow here
    s, alpha = make_state(3, 800, 790, 1670.0), -1582.999999
    res, dbl = quad_p_moment(s, alpha), p_moment(s, alpha, mode="float", route="double")
    assert abs(res.value - dbl.value) <= res.error_estimate + dbl.error_estimate


# Peak-normalised, the Gauss sums of these rules underflowed to 0, and
# float p_moment raised ValueError from math.log(0) or, at 3D 2000 800,
# returned nan at alpha = 0.5 after an overflow warning.
LARGE_K_STATES = [(3, 1200, 240), (3, 2000, 800), (40, 1200, 300)]


@pytest.mark.parametrize("D, n, l", LARGE_K_STATES)
def test_momentum_quadrature_at_large_k_is_within_its_bound_of_the_exact_moment(D, n, l):
    s = make_state(D, n, l, 1.0)
    for alpha in (1, 2, 3):
        exact = p_moment(s, alpha, mode="exact").value.to_float()
        for res in (quad_p_moment(s, float(alpha)), p_moment(s, float(alpha), mode="float")):
            assert abs(res.value - exact) <= res.error_estimate, (alpha, res, exact)
    for res in (quad_p_moment(s, 0.5), p_moment(s, 0.5, mode="float")):
        assert 0 < res.value < math.inf and 0 <= res.error_estimate < math.inf, res


def test_wavefunctions_at_no_points_are_empty():
    # the recurrence's overflow guard reduced a zero-size array: radial_position
    # raised a bare ValueError on an empty input
    s = make_state(3, 5, 1, 1.0)
    for wavefunction in (radial_position, radial_momentum):
        assert wavefunction(s, []).shape == (0,)


def test_momentum_wavefunction_near_p_0_at_large_k_is_finite():
    # the Gegenbauer recurrence overflowed at y near 1
    assert np.isfinite(radial_momentum(make_state(3, 2000, 800, 1.0), [1e-4])).all()


@pytest.mark.parametrize("alpha", [-602.999999, 604.999999])
def test_overflowing_gauss_sum_raises_without_a_warning(alpha):
    # unscaled, the Gauss sums overflowed in np.dot and both cells raised
    # FloatOverflow; the true moments are about e^4861 and e^-2866 (the 5F4
    # series at 30 digits), so only the first lies above the double range
    error = FloatUnderflow if alpha > 0 else FloatOverflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            quad_p_moment(make_state(3, 600, 300, 1.0), alpha)


@pytest.mark.parametrize("n", [80, 160])
def test_near_edge_node_rounding_is_in_the_bound(n):
    # almost all the weight sits on one node next to x = 1, so rounding the
    # nodes moves the Gauss sum by about k^2 eps; the bound missed it by 2.1x at
    # n = 160.  The exact-sum double route, within its own bound of the true
    # value, stands in for it.
    s, alpha = make_state(2, n, 0, 1.0), -1.999999
    res, dbl = quad_p_moment(s, alpha), p_moment(s, alpha, mode="float", route="double")
    assert abs(res.value - dbl.value) + dbl.error_estimate <= res.error_estimate


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
    x, log_w = gauss_laguerre(s.k + 2, b + 1.0)
    scale = float(s.eta) / (2 * s.Z)
    r = x * scale
    R = radial_position(s, r)
    assert np.isfinite(R).all()
    norm = np.exp(log_w + x - (b + 1) * np.log(x)) @ (R * R * r ** (D - 1)) * scale
    assert norm == pytest.approx(1.0, rel=1e-12, abs=0)


def test_position_wavefunction_is_positive_at_the_origin_for_s_states():
    # R_n0(0) = 2 n^(-3/2) at 3D, Z = 1; n = 2 and 4 came out negative, as the
    # orthonormal Laguerre polynomial's leading coefficient is positive and L_k's is (-1)^k/k!
    for n in range(1, 5):
        assert radial_position(make_state(3, n, 0, 1.0), [0.0])[0] == pytest.approx(2 * n ** -1.5, rel=1e-14)


@pytest.mark.parametrize("D, n, l", [(3, 2, 0), (3, 3, 0), (3, 4, 1), (4, 5, 2), (6, 6, 0), (2, 7, 3)])
def test_position_wavefunction_matches_its_laguerre_form(D, n, l):
    # R = K x^l e^(-x/2) L_k^(2l+D-2)(x) at x = 2Zr/eta, with K^2 = position_norm_sq, sign included
    s = make_state(D, n, l, 1.0)
    r = np.array([0.05, 0.7, 2.3, 5.5, 13.0, 30.0])
    got = radial_position(s, r)
    with mpmath.workdps(30):
        K2 = position_norm_sq(s)
        amp = mpmath.sqrt(mpmath.mpf(K2.coeff.numerator) / K2.coeff.denominator)
        for ri, gi in zip(r, got):
            x = 2 * mpmath.mpf(ri) / (mpmath.mpf(s.two_eta) / 2)
            want = amp * x ** l * mpmath.exp(-x / 2) * mpmath.laguerre(s.k, 2 * l + D - 2, x)
            assert abs(gi - want) <= 1e-12 * abs(amp), (D, n, l, ri)


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
    assert solid_angle(np.int64(5)) == solid_angle(5)


@pytest.mark.parametrize("D, error", [
    (2.5, UnsupportedArgument), ("3", UnsupportedArgument), (True, UnsupportedArgument),
    (3.0, UnsupportedArgument), (1, DimensionTooSmall), (0, DimensionTooSmall), (-4, DimensionTooSmall),
])
def test_solid_angle_checks_D_as_make_state_does(D, error):
    # 2.5 raised AttributeError, '3' TypeError, and True returned 2
    with pytest.raises(error):
        solid_angle(D)
    with pytest.raises(error):
        make_state(D, 1, 0, 1.0)


def test_entropic_moments_ground_state():
    s = make_state(3, 1, 0, 1.0)
    # W_1 is the density normalization
    assert entropic_moment(s, 1.0) == pytest.approx(1.0, rel=1e-10)
    # W_q of the 3D ground state: (Z^3/pi)^(q-1) / q^3 integrated in closed form
    for q in (1.5, 2.0, 3.0):
        expect = math.pi ** (1 - q) / q ** 3
        assert entropic_moment(s, q) == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("q", ["2", True])
def test_entropic_moment_refuses_an_order_that_is_not_a_real_number(q):
    # "2" raised a bare TypeError, and True returned W_1
    with pytest.raises(UnsupportedArgument, match="real number"):
        entropic_moment(make_state(3, 1, 0, 1.0), q)


def test_entropic_moment_keeps_its_value_without_the_exact_norm():
    # 0.0011787266575962437 when the exact K^2 and Omega_D entered its logs
    assert entropic_moment(make_state(4, 3, 0, 1.0), 1.5) == pytest.approx(0.0011787266575962437, rel=1e-13, abs=0)


_EXACT_NAMES = {"gamma_exact", "gamma_ratio_doubled", "ExactValue", "Fraction"}
_EXACT_REFERENCES = {"position_norm_sq", "momentum_norm_sq", "solid_angle"}


def _exact_names(node):
    """The exact-arithmetic names a node uses: gamma_exact,
    gamma_ratio_doubled, ExactValue, Fraction and math.factorial."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _EXACT_NAMES:
            found.append(sub.id)
        elif isinstance(sub, ast.Attribute) and (sub.attr in _EXACT_NAMES or sub.attr == "factorial"):
            found.append(sub.attr)
    return found


def test_only_the_exact_references_build_exact_numbers():
    """In the oracle only its three exact references name exact arithmetic,
    and nothing in the package calls them: the float paths take elementary
    amplitudes and ln Omega_D from logs."""
    src = Path(hydromoments.__file__).parent
    tree = ast.parse((src / "oracle.py").read_text())
    naming = [
        f"{getattr(node, 'name', type(node).__name__)}: {name}"
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "name", None) not in _EXACT_REFERENCES
        for name in _exact_names(node)
    ]
    assert naming == []
    callers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in _EXACT_REFERENCES:
                    callers.append(f"{path.name}:{node.lineno} {name}")
    assert callers == []


def _log_exact(v):
    """ln of a positive ExactValue, from its integers."""
    return math.log(v.coeff.numerator) - math.log(v.coeff.denominator) + float(v.pi_pow) * math.log(math.pi)


def _gamma(z2):
    """Gamma(z2/2) as an ExactValue, from gamma_exact's triple."""
    num, den, two_pi = gamma_exact(z2)
    return ExactValue(Fraction(num, den), Fraction(two_pi, 2))


def test_wavefunction_amplitudes_are_the_exact_norms():
    """ln A and ln A' are half the log of K^2 Gamma(k+b+1)/k!, b = 2l+D-2, and
    of K'^2 h_k, h_k = pi 2^(1-2nu) Gamma(k+2nu) / (k! (k+nu) Gamma(nu)^2) the
    squared norm of C_k^(nu), both built exactly."""
    from hydromoments import oracle

    for D in range(2, 13):
        for n in range(1, 12):
            for l in range(n):
                for Z in (1.0, 0.37, 2.5):
                    s = make_state(D, n, l, Z)
                    k, nu = s.k, s.nu
                    position = position_norm_sq(s) * _gamma(2 * (k + 2 * l + D - 1)) / math.factorial(k)
                    h_k = (
                        ExactValue(Fraction(2) ** (1 - s.two_nu), 1) * _gamma(2 * (k + s.two_nu))
                        / (ExactValue(math.factorial(k) * (k + nu)) * _gamma(s.two_nu) ** 2)
                    )
                    for space, exact in ((Space.POSITION, position), (Space.MOMENTUM, momentum_norm_sq(s) * h_k)):
                        assert abs(oracle._log_amplitude(s, space) - 0.5 * _log_exact(exact)) <= 1e-13, (s, space)


def test_wavefunctions_answer_at_two_hundred_thousand():
    # both built the exact k! = 199,999! for 0.5-0.8 s, then raised ExactTooLarge;
    # at the origin |R| = 2 n^(-3/2) and |M| = sqrt(32/pi) n^(5/2), measured
    # within 3e-9 and 1.3e-7 after 199,999 recurrence steps
    n = 200_000
    s = make_state(3, n, 0, 1.0)
    R = radial_position(s, [0.0, 1.0, 1e5])
    M = radial_momentum(s, [0.0, 1e-6, 1e-5])
    assert np.isfinite(R).all() and np.isfinite(M).all()
    assert (R != 0).all() and (M != 0).all()
    assert R[0] == pytest.approx(2 * n ** -1.5, rel=1e-8)
    assert abs(M[0]) == pytest.approx(math.sqrt(32 / math.pi) * n ** 2.5, rel=1e-6)


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


@pytest.mark.parametrize("D, n", [(1_401, 1), (2_001, 1), (10_001, 1), (2_001, 2), (2_001, 3)])
def test_entropic_moment_normalizes_a_state_of_large_dimension(D, n):
    # the weight integral mu0 of the Jacobi rule on [0, z_1], built even at k = 0
    # where that panel is empty, left the double range: FloatOverflow from D = 1,050
    assert abs(entropic_moment(make_state(D, n, 0, 1.0), 1.0) - 1) <= 1e-10


def test_entropic_moment_past_the_rule_budget_still_raises():
    with pytest.raises(QuadratureFailure, match="5028-node.*budget"):
        entropic_moment(make_state(10_001, 2, 0, 1.0), 1.0)


def test_entropic_moment_states_its_domain():
    with pytest.raises(NotSWave):
        entropic_moment(make_state(3, 2, 1, 1.0), 1.5)
    for q in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(NonpositiveParameters):
            entropic_moment(make_state(3, 2, 0, 1.0), q)


def test_entropic_moment_raises_when_its_rules_disagree(monkeypatch):
    from hydromoments import oracle

    rule = oracle.gauss_laguerre

    def drifting(m, c):  # the tail weights shift with the rule size
        x, log_w = rule(m, c)
        return x, log_w + 1e-6 * m

    monkeypatch.setattr(oracle, "gauss_laguerre", drifting)
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
