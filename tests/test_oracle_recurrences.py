"""The oracle builds its Gegenbauer polynomials from the Jacobi coefficient
table and runs one log-scaled Laguerre recurrence for both the Christoffel
weights and the position integrand.  Both must give, bit for bit, what the
earlier inline recurrences gave; copies of those are kept here."""

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from hydromoments import make_state, quad_r_moment
from hydromoments.oracle import (
    _EPS,
    _gauss_laguerre_log,
    _laguerre_recurrence,
    gauss_jacobi,
    gegenbauer_orthonormal,
)
from hydromoments.specfun import log_gamma

ORDERS = (-1.7, -0.5, 0.3, 1.5, 2.9, 6.25)
MOMENTUM_ORDERS = (-0.9, 0.5, 1.3, 2.7)


def _states(D):
    """n <= 40 plus n = 160, l in {0, n//2, n-1}."""
    for n in [*range(1, 41), 160]:
        for l in sorted({0, n // 2, n - 1}):
            yield make_state(D, n, l, 1.0)


def _gegenbauer_inline(k, nu, x):
    x = np.asarray(x, dtype=float)
    a = nu - 0.5
    log_mu0 = (
        (2 * a + 1) * math.log(2.0) + 2 * log_gamma(a + 1) - log_gamma(2 * a + 2)
    )
    p_prev = np.zeros_like(x)
    p = np.full_like(x, math.exp(-0.5 * log_mu0))
    for j in range(k):
        ab = 2 * a
        s = 2 * j + ab
        if j == 0:
            beta_next = 4 * (1 + a) ** 2 / ((ab + 2) ** 2 * (ab + 3))
        else:
            beta_next = (
                4 * (j + 1) * (j + 1 + a) ** 2 * (j + 1 + ab)
                / ((s + 2) ** 2 * (s + 3) * (s + 1))
            )
        if j == 0:
            beta_this = 0.0
        elif j == 1:
            beta_this = 4 * (1 + a) ** 2 / ((ab + 2) ** 2 * (ab + 3))
        else:
            beta_this = (
                4 * j * (j + a) ** 2 * (j + ab) / (s * s * (s + 1) * (s - 1))
            )
        p, p_prev = (x * p - math.sqrt(beta_this) * p_prev) / math.sqrt(beta_next), p
    return p


def _laguerre_log_values(k, b, x):
    x = np.asarray(x, dtype=float)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0)
    scale = np.full_like(x, -0.5 * log_gamma(b + 1))
    for j in range(k):
        beta_next = math.sqrt((j + 1) * (j + 1 + b))
        beta_this = math.sqrt(j * (j + b)) if j else 0.0
        p, p_prev = ((x - (2 * j + b + 1)) * p - beta_this * p_prev) / beta_next, p
        big = np.abs(p) > 1e120
        if big.any():
            c = np.where(big, np.abs(p), 1.0)
            scale += np.log(c)
            p = p / c
            p_prev = p_prev / c
    with np.errstate(divide="ignore"):
        return np.log(np.abs(p)) + scale


@lru_cache(maxsize=256)
def _gauss_laguerre_log_inline(m, c):
    alphas, betas = _laguerre_recurrence(m, c)
    nodes = eigh_tridiagonal(alphas, np.sqrt(betas), eigvals_only=True)
    x = np.asarray(nodes, dtype=float)
    q_prev = np.zeros_like(x)
    q = np.ones_like(x)
    scale = np.full_like(x, -0.5 * log_gamma(c + 1))
    log_s = 2 * (np.log(np.abs(q)) + scale)
    for j in range(m - 1):
        beta_next = math.sqrt((j + 1) * (j + 1 + c))
        beta_this = math.sqrt(j * (j + c)) if j else 0.0
        q, q_prev = ((x - (2 * j + c + 1)) * q - beta_this * q_prev) / beta_next, q
        big = np.abs(q) > 1e120
        if big.any():
            f = np.where(big, np.abs(q), 1.0)
            scale += np.log(f)
            q = q / f
            q_prev = q_prev / f
        with np.errstate(divide="ignore"):
            log_s = np.logaddexp(log_s, 2 * (np.log(np.abs(q)) + scale))
    return x, -log_s


def _quad_r_moment_inline(state, alpha):
    alpha = float(alpha)
    b = 2 * state.l + state.D - 2
    m = state.k + 7
    log_scale = alpha * (math.log(float(state.eta)) - math.log(2 * state.Z))
    scale = math.exp(log_scale)
    scale_rel = 4 * _EPS * (abs(log_scale) + 1)  # exp_sum's bound on the scale factor

    def run(mm):
        x, logw = _gauss_laguerre_log_inline(mm, b + 1 + alpha)
        logp = _laguerre_log_values(state.k, b, x)
        return scale * float(np.exp(2 * logp + logw).sum()) / (2 * float(state.eta))

    value = run(m)
    value2 = run(m + 8)
    err = abs(value - value2) + (50 * (state.k + 1) * _EPS + scale_rel) * abs(value)
    return value, err


def test_gegenbauer_matches_inline_recurrence_bit_for_bit():
    checked = 0
    for D in range(2, 13):
        for i, state in enumerate(_states(D)):
            nu = float(state.nu)
            alpha = MOMENTUM_ORDERS[(i + D) % len(MOMENTUM_ORDERS)]
            a, b = nu + (alpha - 1) / 2, nu - (alpha - 1) / 2
            # the nodes quad_p_moment evaluates at, plus the ends and a grid
            x = np.concatenate([
                gauss_jacobi(state.k + 7, a, b)[0],
                gauss_jacobi(state.k + 15, a, b)[0],
                np.linspace(-1.0, 1.0, 9),
            ])
            got = gegenbauer_orthonormal(state.k, nu, x)
            assert np.array_equal(got, _gegenbauer_inline(state.k, nu, x)), (D, state.n, state.l)
            checked += 1
    assert checked > 1000


def test_quad_r_moment_matches_inline_recurrences_bit_for_bit():
    for D in range(2, 13):
        for i, state in enumerate(_states(D)):
            alpha = ORDERS[(i + D) % len(ORDERS)]
            res = quad_r_moment(state, alpha)
            assert (res.value, res.error_estimate) == _quad_r_moment_inline(state, alpha), (
                D, state.n, state.l, alpha
            )


def test_christoffel_rule_matches_inline_recurrence_bit_for_bit():
    for m in (1, 2, 7, 47, 168):
        for c in (0.0, 0.3, 2.5, 17.0, 160.9):
            x, log_w = _gauss_laguerre_log(m, c)
            x0, log_w0 = _gauss_laguerre_log_inline(m, c)
            assert np.array_equal(x, x0) and np.array_equal(log_w, log_w0), (m, c)
