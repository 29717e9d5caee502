"""The `double` route's inner sums square one integer polynomial in one
big-integer product (Kronecker substitution), and its outer sum takes the
Gamma ratio's numerator once.  These check the square against a schoolbook
convolution of the same coefficients, and pin the float route's values and
bounds on a fixed sweep with one SHA-256, so that a change that only makes
the route faster must leave every float result bit-identical.
"""

import hashlib
import math

from hydromoments import make_state, p_moment
from hydromoments.momom import _double_sum_parts


def _schoolbook_square(state):
    """(h*h)_s for s = 0..2k and W^2, from the h_i of the docstring of
    `_double_sum_parts`, one product h_i h_j at a time."""
    k, D, l = state.k, state.D, state.l
    A, two_b = state.n + l + D - 2, 2 * l + D
    h = [
        math.comb(k, i) * math.prod(2 * (A + m) for m in range(i)) * math.prod(two_b + 2 * m for m in range(i, k))
        for i in range(k + 1)
    ]
    squares = [sum(h[i] * h[s - i] for i in range(max(0, s - k), min(s, k) + 1)) for s in range(2 * k + 1)]
    return squares, math.prod(two_b + 2 * m for m in range(k)) ** 2


def _states():
    for D in range(2, 13):
        for n in range(1, 12):
            for l in range(n):
                yield make_state(D, n, l, 1.0)
    yield make_state(3, 200, 0, 1.0)


def test_the_packed_square_is_the_schoolbook_convolution():
    for s in _states():
        assert _double_sum_parts(s) == _schoolbook_square(s), (s.D, s.n, s.l)


# SHA-256 of (value, error_estimate, method) of float `double` on the sweep
# below, taken before the square replaced the O(k^2) loop of products
FLOAT_DIGEST = "cc45ef8cb1f7bc30b8e90be2c4669e3850e57374a21b0992f788231dfd8ed321"
FLOAT_CELLS = 8_712


def _float_cells():
    for D in range(2, 13):
        for n in range(1, 12):
            for l in range(n):
                for Z in (0.5, 1.0, 3.0):
                    s = make_state(D, n, l, Z)
                    lo, hi = s.momentum_interval()
                    for alpha in (lo + 0.375, -0.7, 1.3, hi - 0.625):
                        yield s, alpha


def test_float_double_values_and_bounds_are_bit_identical():
    digest, cells = hashlib.sha256(), 0
    for s, alpha in _float_cells():
        r = p_moment(s, alpha, mode="float", route="double")
        digest.update(f"{r.value!r} {r.error_estimate!r} {r.method.value}\n".encode())
        cells += 1
    assert (cells, digest.hexdigest()) == (FLOAT_CELLS, FLOAT_DIGEST)
