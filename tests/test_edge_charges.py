"""Every float path at the edges of the accepted charge range [2^-1022,
sys.float_info.max]: each call returns finite values, moments inside the
double range, or raises a HydromomentsError; a series and the quadrature
oracle that both answer agree within the sum of their bounds.  Each space's
scale, (Z/eta)^alpha or (eta/2Z)^alpha, enters as ln Z and ln eta taken
alone, so no product of Z leaves the range before its log is taken."""

import math
import sys

import numpy as np
import pytest

from hydromoments import (
    Space,
    entropic_moment,
    highD,
    make_state,
    p_moment,
    p_moment_circular,
    quad_p_moment,
    quad_r_moment,
    r_moment,
    r_moment_ground,
    reflect,
    rydberg_inverse_p,
)
from hydromoments.errors import (
    FloatOverflow,
    HydromomentsError,
    NonpositiveCharge,
    ParameterOutOfRange,
    UnsupportedArgument,
)
from hydromoments.oracle import momentum_norm_sq, radial_momentum, radial_position

TINY, MAX = sys.float_info.min, sys.float_info.max
CHARGES = (TINY, 1e-300, 1e300, MAX)
STATES = ((3, 1, 0), (3, 2, 0), (3, 3, 1), (3, 3, 2), (5, 4, 1), (16, 1, 0))
ORDERS = (-1.5, -0.5, 0.5, 1.5, 2.5)


def _answer(call, *args, **kwargs):
    """The call's MomentResult, or None for a library error."""
    try:
        return call(*args, **kwargs)
    except HydromomentsError:
        return None


def _in_range(res):
    return res is None or (
        TINY <= res.value < math.inf and 0 <= res.error_estimate < math.inf
    )


def _agree(a, b):
    if a is None or b is None:
        return True
    return abs(a.value - b.value) <= a.error_estimate + b.error_estimate


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("Z", CHARGES, ids=("2^-1022", "1e-300", "1e300", "max"))
def test_every_float_path_answers_in_range_or_raises(Z):
    answered = 0
    for D, n, l in STATES:
        s = make_state(D, n, l, Z)
        lo, hi = s.momentum_interval()
        for a in ORDERS:
            if lo < a < hi:
                single = _answer(p_moment, s, a, mode="float")
                double = _answer(p_moment, s, a, mode="float", route="double")
                quad = _answer(quad_p_moment, s, a)
                moments = [single, double, quad]
                if lo < 2 - a < hi:
                    moments.append(_answer(reflect, s, 2 - a, mode="float"))
                    assert _agree(moments[-1], double), (s, a)
                if s.is_circular:
                    moments.append(_answer(p_moment_circular, s, a, mode="float"))
                    assert _agree(moments[-1], double), (s, a)
                assert _agree(single, quad) and _agree(double, quad), (s, a)
                assert all(map(_in_range, moments)), (s, a, moments)
                answered += sum(m is not None for m in moments)
            series, quad = _answer(r_moment, s, a, mode="float"), _answer(quad_r_moment, s, a)
            assert _in_range(series) and _in_range(quad) and _agree(series, quad), (s, a)
            if n == 1:
                ground = _answer(r_moment_ground, D, Z, a, mode="float")
                assert _in_range(ground) and _agree(ground, series), (s, a)
            answered += (series is not None) + (quad is not None)
            for space in Space:
                est = _answer(highD, s, a, space)
                assert est is None or all(map(math.isfinite, (est.leading, est.corrected))), (s, a)
        if l == 0:
            w = _answer(entropic_moment, s, 1.5)
            assert w is None or TINY <= w < math.inf, (s, w)
        for radial in (radial_position, radial_momentum):
            values = _answer(radial, s, [0.0, 0.5, 1.0, 2.0])
            assert values is None or np.isfinite(values).all(), (s, radial)
    assert answered > 60  # 78 on each charge: most of the orders here stay in range


@pytest.mark.filterwarnings("error")
def test_the_cells_that_broke_at_the_edges():
    s = make_state(3, 3, 1, MAX)  # 2Z overflowed in the position scale
    quad, series = quad_r_moment(s, 0.5), r_moment(s, 0.5)
    assert series.value == 2.573260932292107e-154
    assert abs(quad.value - series.value) <= quad.error_estimate + series.error_estimate
    ground, series = r_moment_ground(3, MAX, 0.5), r_moment(make_state(3, 1, 0, MAX), 0.5)
    assert series.value == 8.763416136871392e-155
    assert abs(ground.value - series.value) <= ground.error_estimate + series.error_estimate
    # (eta/Z)^(2 alpha - 2) alone exceeds the range; the reflected moment does not
    s = make_state(3, 2000, 1999, 2.3e-308)
    refl, direct = reflect(s, 1.5, mode="float"), p_moment(s, 0.5, mode="float")
    assert direct.value == 3.39084716420523e-156
    assert abs(direct.value - 3.39084716420239e-156) <= direct.error_estimate  # 40-digit 5F4 form
    assert abs(refl.value - direct.value) <= refl.error_estimate + direct.error_estimate
    # W_1.5 grows as Z^1.5, beyond the range; it raised a bare ValueError
    with pytest.raises(FloatOverflow):
        entropic_moment(make_state(3, 2, 0, MAX), 1.5)


@pytest.mark.filterwarnings("error")
def test_wavefunctions_at_edge_charges():
    # both returned nan with a RuntimeWarning: t = eta p / Z and x = 2Zr/eta
    # left the range before their logs were taken
    assert radial_momentum(make_state(3, 3, 1, 1e-300), 1.0) == 0.0
    assert radial_position(make_state(3, 3, 1, MAX), 1.0) == 0.0
    # at Z = 1 both match the direct product of their factors
    s = make_state(3, 3, 1, 1.0)
    p = np.array([0.25, 1.0, 3.0])
    t = s.two_eta / 2 * p
    y = (1 - t * t) / (1 + t * t)
    # M_{3,1}(p) = K' t (1+t^2)^-3 C_1^(2)(y) with C_1^(2)(y) = 4y
    want = math.sqrt(momentum_norm_sq(s).to_float()) * t * (1 + t * t) ** -3 * 4 * y
    assert np.allclose(radial_momentum(s, p), want, rtol=1e-13, atol=0)
    # ln p is taken of |p|, and M(-p) = (-1)^l M(p) as before; a radius is nonnegative
    assert np.array_equal(radial_momentum(s, -p), -radial_momentum(s, p))
    with pytest.raises(UnsupportedArgument):
        radial_position(s, [1.0, -1.0])
    # a wavefunction value beyond the double range is a library error, not inf
    with pytest.raises(FloatOverflow):
        radial_position(make_state(3, 3, 1, 1e300), 1e-300)


def test_asymptotic_estimates_at_edge_charges():
    s = make_state(16, 1, 0, MAX)
    assert highD(s, 0.5, Space.MOMENTUM).leading == pytest.approx(math.sqrt(2 * (MAX / 16)), rel=1e-12)
    assert highD(s, 0.5, Space.POSITION).leading == pytest.approx(16 / math.sqrt(4 * MAX), rel=1e-12)
    # the charge is checked as a state's: 0 and -1 raised ZeroDivisionError and
    # returned -10.0, 1e-320 returned inf
    for family in ("circular", "nS"):
        with pytest.raises(NonpositiveCharge):
            rydberg_inverse_p(10, 0, family)
        with pytest.raises(NonpositiveCharge):
            rydberg_inverse_p(10, -1, family)
        with pytest.raises(ParameterOutOfRange):
            rydberg_inverse_p(10, 1e-320, family)
    assert rydberg_inverse_p(10, MAX, "circular").leading == pytest.approx(10 / MAX, rel=1e-13)
