"""The error contract as two properties: every public float call either
returns finite values inside the normal double range or raises a
HydromomentsError, and every float moment lies within its error_estimate of
the benchmark's independent mpmath reference (`bench/reference.py`, read
here and not changed) or raises FloatOverflow or FloatUnderflow.

The Rydberg and high-dimensional regimes leave the double range easily, since
<r^alpha> grows like n^(2 alpha) and the characteristic moments like D^(2 alpha)
and D^(-alpha), so the draws reach far outside it on both sides."""

import math
import os
import sys

import mpmath
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
from hydromoments.errors import FloatOverflow, FloatUnderflow, HydromomentsError

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import reference  # noqa: E402

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


REF_DIGITS = 30


def _near_edges(lo, hi):
    """Orders across (lo, hi) and within 1e-6 to 1 of either end, the
    distance drawn log-uniform."""
    edge = st.floats(-6.0, 0.0).map(lambda u: 10.0 ** u)
    return st.one_of(
        st.floats(lo, hi, exclude_min=True, exclude_max=True),
        edge.map(lambda e: lo + e),
        edge.map(lambda e: hi - e),
    )


@st.composite
def _value_cases(draw):
    """A state of D 2-12 and n <= 60 with Z = 10^u, |u| <= 6, a momentum and
    a position order from its domains, a circular state with a momentum order,
    and a ground-state position order."""
    D = draw(st.integers(2, 12))
    n = draw(st.integers(1, 60))
    Z = 10.0 ** draw(st.floats(-6.0, 6.0))
    s = make_state(D, n, draw(st.integers(0, n - 1)), Z)
    n_c = draw(st.integers(1, 60))
    c = make_state(D, n_c, n_c - 1, Z)
    lo = s.position_lower_bound()
    return (
        s,
        draw(_near_edges(*s.momentum_interval())),
        draw(_near_edges(lo, -lo + 20.0)),
        c,
        draw(_near_edges(*c.momentum_interval())),
        draw(_near_edges(-D, D + 20.0)),
    )


def _error_over_bound(res, ref) -> float:
    """|value - ref| / error_estimate."""
    with mpmath.workdps(60):
        return float(abs(mpmath.mpf(res.value) - ref) / res.error_estimate)


# about 4 s: up to five 30-digit references and nine float results an example
@settings(max_examples=400, deadline=None, derandomize=True)
@given(_value_cases())
def test_every_float_moment_lies_within_its_error_estimate(case):
    s, p_alpha, r_alpha, c, c_alpha, g_alpha = case
    P, R = Space.MOMENTUM, Space.POSITION
    checks = [
        ("single", p_moment, (s, p_alpha, "float"), (s, P, p_alpha)),
        ("hyp5f4", p_moment, (s, p_alpha, "float", "hyp5f4"), (s, P, p_alpha)),
        ("double", p_moment, (s, p_alpha, "float", "double"), (s, P, p_alpha)),
        ("quad_p", quad_p_moment, (s, p_alpha), (s, P, p_alpha)),
        ("r_3F2", r_moment, (s, r_alpha, "float"), (s, R, r_alpha)),
        ("quad_r", quad_r_moment, (s, r_alpha), (s, R, r_alpha)),
        ("circular", p_moment_circular, (c, c_alpha, "float"), (c, P, c_alpha)),
        ("ground", r_moment_ground, (s.D, s.Z, g_alpha, "float"), (make_state(s.D, 1, 0, s.Z), R, g_alpha)),
    ]
    lo, hi = s.momentum_interval()
    if lo < 2 - p_alpha < hi:
        with mpmath.workprec(256):  # exactly 2 - alpha, the order reflect answers
            reflected = mpmath.mpf(2) - mpmath.mpf(p_alpha)
        checks.append(("reflect", reflect, (s, p_alpha, "float"), (s, P, reflected)))
    refs = {}
    for path, call, args, (state, space, alpha) in checks:
        try:
            res = call(*args)
        except (FloatOverflow, FloatUnderflow):
            continue
        key = (state, space, alpha)
        if key not in refs:
            refs[key] = reference.moment(space.value, state.D, state.n, state.l, state.Z, alpha, REF_DIGITS)
        ratio = _error_over_bound(res, refs[key])
        assert ratio <= 1, (path, args, res.method, ratio)
