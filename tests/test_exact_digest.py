"""One SHA-256 over every exact moment of a fixed grid, pinned.

A change that only makes an exact route faster must leave every ExactValue
bit-identical.  This hashes, in a fixed order, the decimal numerator,
denominator and pi power of

- momentum by the `single`, `hyp5f4` and `double` routes and by `reflect`
  at every integer order in the domain;
- position by `r_moment` at the orders lo+1 to lo+12 above the lower bound;

on D 2-7, n <= 7, every l and Z in {1, 3/8, 5/2}, and compares the hash
with the one these routes gave before the 5F4's own exact loop replaced the
generic kernel on the `single` route.
"""

import hashlib

from hydromoments import make_state, p_moment, r_moment, reflect

DIGEST = "5293f9faef062ee76d2bc3ad5f5b174fc4f60656f4a921aeb9276bc87afcb006"
CELLS = 42_336


def _exact_values():
    for D in range(2, 8):
        for n in range(1, 8):
            for l in range(n):
                for Z in (1.0, 0.375, 2.5):
                    s = make_state(D, n, l, Z)
                    lo, hi = s.momentum_interval()
                    for a in range(lo + 1, hi):
                        for route in ("single", "hyp5f4", "double"):
                            yield p_moment(s, a, mode="exact", route=route).value
                        yield reflect(s, a, mode="exact").value
                    for a in range(lo + 1, lo + 13):
                        yield r_moment(s, a, mode="exact").value


def test_exact_values_are_bit_identical():
    digest, cells = hashlib.sha256(), 0
    for v in _exact_values():
        digest.update(f"{v.coeff.numerator} {v.coeff.denominator} {v.pi_pow}\n".encode())
        cells += 1
    assert (cells, digest.hexdigest()) == (CELLS, DIGEST)
