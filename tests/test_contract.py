"""The error contract as one property: every public float call either returns
finite values inside the normal double range or raises a HydromomentsError.

The Rydberg and high-dimensional regimes leave the double range easily, since
<r^alpha> grows like n^(2 alpha) and the characteristic moments like D^(2 alpha)
and D^(-alpha), so the draws reach far outside it on both sides."""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from hydromoments import (
    MomentResult,
    Space,
    highD,
    make_state,
    p_moment,
    p_moment_circular,
    quad_p_moment,
    quad_r_moment,
    r_moment,
    r_moment_ground,
    reflect,
    rydberg_circular_p,
    rydberg_p,
    rydberg_r,
)
from hydromoments.errors import HydromomentsError

TINY = sys.float_info.min  # the smallest normal double
MAX_POSITION_ORDER = 3000.0


def _orders(lo, hi):
    """Orders across (lo, hi) and within 1e-6 to 1 of either end."""
    return st.one_of(
        st.floats(lo, hi, exclude_min=True, exclude_max=True),
        st.floats(1e-6, 1.0).map(lambda e: lo + e),
        st.floats(1e-6, 1.0).map(lambda e: hi - e),
    )


@st.composite
def _cases(draw, n_max, circular=False):
    """A state with n <= n_max and Z = 10^u, |u| <= 6, with a momentum and a
    position order from its domains."""
    D = draw(st.integers(2, 40))
    n = draw(st.integers(1, n_max))
    l = n - 1 if circular else draw(st.integers(0, n - 1))
    s = make_state(D, n, l, 10.0 ** draw(st.floats(-6.0, 6.0)))
    return s, draw(_orders(*s.momentum_interval())), draw(_orders(s.position_lower_bound(), MAX_POSITION_ORDER))


def _check(call, *args):
    try:
        res = call(*args)
    except HydromomentsError:
        return
    if isinstance(res, MomentResult):
        assert math.isfinite(res.value) and res.value >= TINY, (call.__name__, args, res)
        assert math.isfinite(res.error_estimate), (call.__name__, args, res)
    else:
        assert math.isfinite(res.leading) and res.leading >= TINY, (call.__name__, args, res)
        assert math.isfinite(res.corrected), (call.__name__, args, res)


# the closed forms and estimates run at n <= 300, the quadrature and float series at n <= 60
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_cases(300), _cases(300, circular=True), _cases(60))
def test_every_call_returns_a_normal_double_or_raises(large, circular, small):
    s, p_alpha, r_alpha = large
    _check(r_moment_ground, s.D, s.Z, r_alpha, "float")
    _check(rydberg_r, s, r_alpha)
    _check(rydberg_p, s, p_alpha)
    _check(highD, s, p_alpha, Space.MOMENTUM)
    _check(highD, s, r_alpha, Space.POSITION)
    s, p_alpha, _ = circular
    _check(p_moment_circular, s, p_alpha, "float")
    _check(rydberg_circular_p, s, p_alpha)
    s, p_alpha, r_alpha = small
    _check(quad_p_moment, s, p_alpha)
    _check(quad_r_moment, s, r_alpha)
    _check(p_moment, s, p_alpha, "float")
    _check(p_moment, s, p_alpha, "float", "double")
    lo, hi = s.momentum_interval()
    if lo < 2 - p_alpha < hi:
        _check(reflect, s, p_alpha, "float")
    _check(r_moment, s, r_alpha, "float")
