"""The oracle builds its Gegenbauer polynomials from the Jacobi coefficient
table, and its Gauss-Laguerre rules from one ?stevd call and one rescaled
recurrence whose Christoffel sum is added in linear space.  The rescaled
Gegenbauer pair must lie within a set tolerance of a 50-digit orthonormal
Gegenbauer at the nodes quadrature evaluates it at.  A copy of the earlier
inline Laguerre recurrence is kept here: the Laguerre nodes must equal its
bit for bit, the log-weights must lie within a set tolerance of a 50-digit
Christoffel sum and, up to one ulp, at least as close to it as their
logaddexp fold, and <r^alpha> must agree with its within the two error
estimates.  The moments sum rule pairs of k+1 and k+2 nodes; a copy of the
earlier pair of k+7 and k+15 nodes must agree with them within the two
error estimates, and the one Christoffel pass that weights both Laguerre
rules must match a separate pass per rule."""

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from hydromoments import make_state, oracle, quad_p_moment, quad_r_moment
from hydromoments.errors import FloatOverflow, FloatUnderflow, QuadratureFailure
from hydromoments.oracle import (
    _EPS,
    gauss_laguerre,
    _jacobi_log_mu0_terms,
    _laguerre_nodes,
    _laguerre_recurrence,
    gauss_jacobi,
    gegenbauer_orthonormal,
    laguerre_orthonormal,
)
from hydromoments.specfun import exp_sum, log_gamma

ORDERS = (-1.7, -0.5, 0.3, 1.5, 2.9, 6.25)
MOMENTUM_ORDERS = (-0.9, 0.5, 1.3, 2.7)


def _states(D):
    """n <= 40 plus n = 160, l in {0, n//2, n-1}."""
    for n in [*range(1, 41), 160]:
        for l in sorted({0, n // 2, n - 1}):
            yield make_state(D, n, l, 1.0)


def _gegenbauer_reference(k, nu, x):
    """The orthonormal Gegenbauer C~_k at the nodes x, by its three-term
    recurrence in 50-digit decimal arithmetic, from 50-digit mpmath roots and
    C~_0 = mu0^(-1/2)."""
    with mpmath.workdps(50):
        a = mpmath.mpf(nu) - mpmath.mpf(1) / 2
        roots = []
        for j in range(1, k + 1):
            s = 2 * j + 2 * a
            if j == 1:
                beta = 4 * (1 + a) ** 2 / ((2 * a + 2) ** 2 * (2 * a + 3))
            else:
                beta = 4 * j * (j + a) ** 2 * (j + 2 * a) / (s * s * (s + 1) * (s - 1))
            roots.append(Decimal(str(mpmath.sqrt(beta))))
        p0 = Decimal(str(1 / mpmath.sqrt(2 ** (2 * a + 1) * mpmath.gamma(a + 1) ** 2 / mpmath.gamma(2 * a + 2))))
    with localcontext() as ctx:
        ctx.prec = 50
        out = []
        for xi in x:
            xi, p_prev, p = Decimal(float(xi)), Decimal(0), p0
            for j in range(k):
                p, p_prev = (xi * p - (roots[j - 1] * p_prev if j else 0)) / roots[j], p
            out.append(p)
        return out


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
    scale, scale_rel = exp_sum([log_scale])  # math.exp(log_scale), and exp_sum's bound on it

    def run(mm):
        x, logw = _gauss_laguerre_log_inline(mm, b + 1 + alpha)
        logp = _laguerre_log_values(state.k, b, x)
        return scale * float(np.exp(2 * logp + logw).sum()) / (2 * float(state.eta))

    value = run(m)
    value2 = run(m + 8)
    err = abs(value - value2) + (50 * (state.k + 1) * _EPS + scale_rel) * abs(value)
    return value, err


# Worst error measured on these states: 1.2e-13 of the largest |C~_k| at the
# nodes, where C~_0 = mu0^(-1/2) is exponentiated from ln mu0 of about -500
# (n = 160, l = 159).
GEGENBAUER_TOL = 1e-12


def test_gegenbauer_pair_matches_a_50_digit_orthonormal_gegenbauer():
    checked = 0
    for D in range(2, 13):
        for i, state in enumerate(_states(D)):
            nu = float(state.nu)
            alpha = MOMENTUM_ORDERS[(i + D) % len(MOMENTUM_ORDERS)]
            a, b = (nu - 0.5) + alpha / 2, (nu + 0.5) - alpha / 2
            # the nodes quad_p_moment evaluates at, plus the ends and a grid
            x = np.concatenate([
                gauss_jacobi(state.k + 1, a, b)[0],
                gauss_jacobi(state.k + 2, a, b)[0],
                np.linspace(-1.0, 1.0, 9),
            ])
            q, s = gegenbauer_orthonormal(state.k, nu, x)
            ref = _gegenbauer_reference(state.k, nu, x)
            err = max(abs(float(r - Decimal(float(v)))) for v, r in zip(q * np.exp(s), ref))
            assert err <= GEGENBAUER_TOL * float(max(map(abs, ref))), (D, state.n, state.l, err)
            checked += 1
    assert checked > 1000


def test_quad_r_moment_agrees_with_inline_recurrences_within_error_estimates():
    for D in range(2, 13):
        for i, state in enumerate(_states(D)):
            alpha = ORDERS[(i + D) % len(ORDERS)]
            res = quad_r_moment(state, alpha)
            value, err = _quad_r_moment_inline(state, alpha)
            assert abs(res.value - value) <= res.error_estimate + err, (D, state.n, state.l, alpha)


RULES = [(m, c) for m in (1, 2, 8, 47, 160) for c in (-1 + 5e-7, 0.3, 17.0, 300.0)]


def test_laguerre_rule_nodes_match_inline_copy_bit_for_bit():
    for m in (1, 2, 7, 47, 168):
        for c in (-1 + 5e-7, 0.0, 0.3, 2.5, 17.0, 160.9, 300.0):
            assert np.array_equal(gauss_laguerre(m, c)[0], _gauss_laguerre_log_inline(m, c)[0]), (m, c)


def _christoffel_log_weights(m, c, x):
    """-ln sum_j p_j(x_i)^2 at the given nodes, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        c = mpmath.mpf(c)
        diag = [2 * j + c + 1 for j in range(m)]
        roots = [mpmath.sqrt((j + 1) * (j + 1 + c)) for j in range(m)]
        p0 = mpmath.exp(-mpmath.loggamma(c + 1) / 2)
        out = []
        for xi in x:
            xi = mpmath.mpf(float(xi))
            p_prev, p, total = mpmath.mpf(0), p0, p0 * p0
            for j in range(m - 1):
                p, p_prev = ((xi - diag[j]) * p - (roots[j - 1] if j else 0) * p_prev) / roots[j], p
                total += p * p
            out.append(-mpmath.log(total))
        return out


# Worst error measured over RULES: 1.6e-13 in a log-weight, at m = 160, c = 0.3.
LOG_WEIGHT_TOL = 5e-13


@pytest.mark.parametrize("m, c", RULES)
def test_laguerre_log_weights_match_a_50_digit_christoffel_sum(m, c):
    """Each log-weight is within LOG_WEIGHT_TOL of the 50-digit sum at the same
    node, and the rule's worst error is no larger than the inline logaddexp
    fold's, up to one unit in the last place of its largest log-weight."""
    x, log_w = gauss_laguerre(m, c)
    ref = _christoffel_log_weights(m, c, x)
    err = max(abs(float(r - v)) for r, v in zip(ref, log_w))
    err_inline = max(abs(float(r - v)) for r, v in zip(ref, _gauss_laguerre_log_inline(m, c)[1]))
    assert err <= LOG_WEIGHT_TOL, (m, c, err)
    assert err <= err_inline + np.spacing(np.abs(log_w).max()), (m, c, err, err_inline)


def test_a_lapack_error_raises_quadrature_failure(monkeypatch):
    def failing(d, e, *args, **kwargs):
        return np.zeros(len(d)), np.zeros((1, 1)), 5

    monkeypatch.setattr(oracle, "_STEVD", failing)
    with pytest.raises(QuadratureFailure, match="info=5"):
        gauss_laguerre(12, 0.5)


def test_one_christoffel_pass_weights_both_laguerre_rules():
    for m, c in RULES:
        alphas, betas = _laguerre_recurrence(m + 1, c)
        x, x2 = _laguerre_nodes(alphas[:m], betas[:m - 1]), _laguerre_nodes(alphas, betas)
        log_w = oracle._christoffel_log_weights(alphas, betas, log_gamma(c + 1), np.concatenate((x, x2)))
        for nodes, got, rule in ((x, log_w[:m], gauss_laguerre(m, c)), (x2, log_w[m:], gauss_laguerre(m + 1, c))):
            assert np.array_equal(nodes, rule[0]), (m, c, len(nodes))
            assert np.abs(got - rule[1]).max() <= LOG_WEIGHT_TOL, (m, c, len(nodes))


def _quad_p_k7_k15(state, alpha):
    """quad_p_moment with the earlier rule pair of k+7 and k+15 nodes."""
    nu = float(state.nu)
    a, b = (nu - 0.5) + alpha / 2, (nu + 0.5) - alpha / 2
    sums = []
    for m in (state.k + 7, state.k + 15):
        x, log_w = gauss_jacobi(m, a, b)
        q, s = gegenbauer_orthonormal(state.k, nu, x)
        vals = q * np.exp(s)
        sums.append(float(np.dot(np.exp(log_w), vals * vals)))
    s, s2 = sums
    value, rel = exp_sum([alpha * (math.log(state.Z) - math.log(float(state.eta))), math.log(s)])
    _, mu0_rel = exp_sum(_jacobi_log_mu0_terms(a, b))
    return value, value * abs(s - s2) / s + (50 * (state.k + 1) * _EPS + rel + mu0_rel) * value


def _quad_r_k7_k15(state, alpha):
    """quad_r_moment with the earlier rule pair of k+7 and k+15 nodes, each
    weighted by its own Christoffel pass."""
    b = 2 * state.l + state.D - 2
    eta = float(state.eta)
    log_sums = []
    for m in (state.k + 7, state.k + 15):
        x, log_w = gauss_laguerre(m, b + 1 + alpha)
        q, q_scale = laguerre_orthonormal(state.k, b, x)
        with np.errstate(divide="ignore"):
            log_p = np.log(np.abs(q)) + q_scale
        log_terms = 2 * log_p + log_w
        terms = np.exp(log_terms - log_terms.max())
        size = np.where(terms > 0, np.abs(log_w) + 2 * np.abs(log_p), 0.0)
        log_sums.append((float(log_terms.max()), math.log(terms.sum()), float(np.dot(terms, size) / terms.sum())))
    (top, log_s, size), (top2, log_s2, _) = log_sums
    value, rel = exp_sum([alpha * (math.log(eta) - math.log(2 * state.Z)), top, log_s, -math.log(2 * eta)])
    drift = abs(math.expm1(top2 + log_s2 - top - log_s))
    return value, (drift + 50 * (state.k + 1) * _EPS + rel + 4 * _EPS * size) * value


def _pair_orders(lo, hi, i):
    """Orders within 1e-6 of each edge and across the domain; position
    orders, which have no upper edge (hi is None), run up to -lo."""
    top = -lo if hi is None else hi
    inner = MOMENTUM_ORDERS if hi is not None else ORDERS
    return (lo + 1e-6, inner[i % len(inner)], lo + 0.61 * (top - lo), top - 1e-6)


@pytest.mark.parametrize("space", ["p", "r"])
def test_k1_k2_rule_pair_agrees_with_the_k7_k15_pair(space):
    new, old = (quad_p_moment, _quad_p_k7_k15) if space == "p" else (quad_r_moment, _quad_r_k7_k15)
    checked = out_of_range = 0
    for D in range(2, 13):
        for i, state in enumerate(_states(D)):
            if space == "p":
                lo, hi = state.momentum_interval()
            else:
                lo, hi = state.position_lower_bound(), None
            for alpha in _pair_orders(lo, hi, i + D):
                try:
                    res = new(state, alpha)
                except (FloatOverflow, FloatUnderflow) as exc:
                    with pytest.raises(type(exc)):
                        old(state, alpha)
                    out_of_range += 1
                    continue
                value, err = old(state, alpha)
                assert abs(res.value - value) <= res.error_estimate + err, (D, state.n, state.l, alpha)
                checked += 1
    assert checked > 4500 and out_of_range < 100
