"""Independent mpmath reference values and the output checks built on them.

The moments are evaluated from their terminating hypergeometric forms with
``mpmath.hyper`` and mpmath gamma functions; nothing here imports
hydromoments.  Each value is computed at two working precisions that must
agree before it is accepted, and the precision doubles until they do.

  <r^a> = eta^(a-1) / (2^(a+1) Z^a) * G(2L+a+3) / G(2L+2)
          * 3F2(-k, -a-1, a+2; 2L+2, 1; 1)
  <p^a> = (Z/eta)^a * 2^(1-2nu) sqrt(pi) (k+nu) G(k+2nu) G(nu+(a+1)/2) G(nu+(3-a)/2)
          / (k! G(nu+1/2)^2 G(nu+1) G(nu+3/2))
          * 5F4(-k, k+2nu, nu, nu+(a+1)/2, nu+(3-a)/2; 2nu, nu+1/2, nu+1, nu+3/2; 1)

with eta = n + (D-3)/2, L = l + (D-3)/2, nu = L + 1 and k = n - l - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from workloads import in_domain

EXACT_DIGITS = 40        # an exact value must match the reference to this many digits
FLOAT_REF_DIGITS = 20    # reference digits for checking float results
FLOAT_DIGITS_CAP = 17    # a double carries no more significant digits
_MAX_DPS = 4000


def _position(D, n, l, Z, alpha):
    k = n - l - 1
    eta = n + mpf(D - 3) / 2
    L = l + mpf(D - 3) / 2
    a = mpf(alpha)
    series = mpmath.hyper([-k, -a - 1, a + 2], [2 * L + 2, 1], 1)
    return (
        eta ** (a - 1) / (2 ** (a + 1) * mpf(Z) ** a)
        * mpmath.gamma(2 * L + a + 3) / mpmath.gamma(2 * L + 2)
        * series
    )


def _momentum(D, n, l, Z, alpha):
    k = n - l - 1
    eta = n + mpf(D - 3) / 2
    nu = l + mpf(D - 1) / 2
    a = mpf(alpha)
    series = mpmath.hyper(
        [-k, k + 2 * nu, nu, nu + (a + 1) / 2, nu + (3 - a) / 2],
        [2 * nu, nu + mpf(1) / 2, nu + 1, nu + mpf(3) / 2],
        1,
    )
    pref = (
        (mpf(Z) / eta) ** a * 2 ** (1 - 2 * nu) * mpmath.sqrt(mpmath.pi) * (k + nu)
        * mpmath.gamma(k + 2 * nu)
        * mpmath.gamma(nu + (a + 1) / 2)
        * mpmath.gamma(nu + (3 - a) / 2)
        / (
            mpmath.factorial(k)
            * mpmath.gamma(nu + mpf(1) / 2) ** 2
            * mpmath.gamma(nu + 1)
            * mpmath.gamma(nu + mpf(3) / 2)
        )
    )
    return pref * series


def moment(space: str, D: int, n: int, l: int, Z: float, alpha, digits: int) -> mpf:
    """<r^alpha> or <p^alpha> to `digits` significant digits: two working
    precisions 20 digits apart must agree, else the precision doubles."""
    fn = _momentum if space == "p" else _position
    dps = digits + 10
    while dps <= _MAX_DPS:
        with mp.workdps(dps):
            lo = fn(D, n, l, Z, alpha)
        with mp.workdps(dps + 20):
            hi = fn(D, n, l, Z, alpha)
            if hi != 0 and abs(hi - lo) <= abs(hi) * mpf(10) ** (-digits - 1):
                return hi
        dps *= 2
    raise ArithmeticError(f"reference for {space} D={D} n={n} l={l} alpha={alpha} did not settle")


def references(cells) -> list:
    """One reference per cell (None for out-of-domain cells): 45 digits
    for integer orders, 20 for real ones."""
    out = []
    for space, D, n, l, Z, alpha in cells:
        if not in_domain(space, D, l, alpha):
            out.append(None)
        elif isinstance(alpha, int):
            out.append(moment(space, D, n, l, Z, alpha, EXACT_DIGITS + 5))
        else:
            out.append(moment(space, D, n, l, Z, alpha, FLOAT_REF_DIGITS))
    return out


def exact_value(num: str, den: str, pi_num: str, pi_den: str) -> mpf:
    return mpf(int(num)) / int(den) * mpmath.pi ** (mpf(int(pi_num)) / int(pi_den))


@dataclass
class Verdict:
    """Outcome of checking one output.

    ``failed``: the operation counts as failed: an exception on an
    in-domain cell, or a float whose true error exceeds its own
    error_estimate.  ``wrong``: a broken guarantee that makes the whole run
    incorrect: an exact value that differs from the reference, or an
    out-of-domain order that was not rejected with OrderOutOfDomain; a
    wrong output also counts as failed.  ``digits``: correct significant
    digits (exact values count as EXACT_DIGITS, the precision they are
    checked to).
    """

    failed: bool = False
    wrong: bool = False
    rel_err: float | None = None
    err_over_bound: float | None = None
    digits: float | None = None
    why: str = ""

    def __post_init__(self):
        self.failed = self.failed or self.wrong


def check(cell, output, ref) -> Verdict:
    """Check one library output against its reference.

    ``output`` is what the worker recorded: ``["x", num, den, pi_num,
    pi_den, method]`` for an exact value, ``["f", value, error_estimate,
    method]`` for a float, ``["e", type_name, is_hydromoments_error,
    is_order_out_of_domain]`` for an exception.
    """
    kind = output[0]
    if ref is None:
        if kind == "e" and output[3]:
            return Verdict()
        return Verdict(wrong=True, why="out-of-domain order not rejected with OrderOutOfDomain")
    if kind == "e":
        return Verdict(failed=True, why=f"raised {output[1]}")
    with mp.workdps(60):
        if kind == "x":
            value = exact_value(*output[1:5])
            rel = abs(value - ref) / abs(ref)
            if rel > mpf(10) ** -EXACT_DIGITS:
                return Verdict(wrong=True, rel_err=float(rel), why="exact value differs from the reference")
            return Verdict(rel_err=float(rel), digits=float(EXACT_DIGITS))
        value, bound = output[1], output[2]
        if not math.isfinite(value):
            return Verdict(failed=True, why="non-finite value")
        err = abs(mpf(value) - ref)
        rel = float(err / abs(ref))
        ratio = float(err / bound) if bound > 0 else math.inf
    digits = FLOAT_DIGITS_CAP if rel == 0 else min(FLOAT_DIGITS_CAP, -math.log10(rel))
    if ratio > 1:
        return Verdict(failed=True, rel_err=rel, err_over_bound=ratio, digits=digits,
                       why="error above its error_estimate")
    return Verdict(rel_err=rel, err_over_bound=ratio, digits=digits)
