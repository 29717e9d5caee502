"""Independent quadrature oracle.

Evaluates <r^alpha> and <p^alpha> directly from the radial wavefunctions by
Gaussian quadrature whose nodes/weights come from the Golub-Welsch
eigenproblem, so nothing here shares code with the hypergeometric routes.
Both integrands reduce to (orthonormal polynomial)^2 against a classical
weight, which makes the rules mathematically exact at k+1 nodes and keeps
magnitudes bounded at large n.  Entropic moments use adaptive quadrature.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NonpositiveParameters, QuadratureFailure
from .posmom import Method, MomentResult
from .specfun import ExactValue, gamma_exact, log_gamma
from .states import HydrogenicState, Space

_EPS = 2.0 ** -53
_rule_lock = threading.Lock()


def _laguerre_recurrence(m: int, b: float):
    """Three-term coefficients for weight x^b e^{-x} on (0, inf)."""
    if b <= -1:
        raise NonpositiveParameters(f"Laguerre exponent must exceed -1, got {b}")
    j = np.arange(m, dtype=float)
    alphas = 2 * j + b + 1
    betas = j[1:] * (j[1:] + b)
    return alphas, betas


def _jacobi_recurrence(m: int, a: float, b: float):
    """Three-term coefficients for weight (1-x)^a (1+x)^b on (-1, 1)."""
    if a <= -1 or b <= -1:
        raise NonpositiveParameters(f"Jacobi exponents must exceed -1, got {a}, {b}")
    alphas = np.empty(m)
    betas = np.empty(max(m - 1, 0))
    ab = a + b
    alphas[0] = (b - a) / (ab + 2)
    for j in range(1, m):
        s = 2 * j + ab
        alphas[j] = (b * b - a * a) / (s * (s + 2))
        if j == 1:
            betas[0] = 4 * (1 + a) * (1 + b) / ((ab + 2) ** 2 * (ab + 3))
        else:
            betas[j - 1] = (
                4 * j * (j + a) * (j + b) * (j + ab)
                / (s * s * (s + 1) * (s - 1))
            )
    return alphas, betas


def _golub_welsch(alphas, betas, log_mu0: float):
    try:
        nodes, vecs = eigh_tridiagonal(alphas, np.sqrt(betas))
    except Exception as exc:  # pragma: no cover
        raise QuadratureFailure(f"tridiagonal eigensolve failed: {exc}") from exc
    weights = math.exp(log_mu0) * vecs[0, :] ** 2
    return nodes, weights


@lru_cache(maxsize=256)
def _gauss_laguerre_cached(m: int, b: float):
    alphas, betas = _laguerre_recurrence(m, b)
    return _golub_welsch(alphas, betas, log_gamma(b + 1))


def _laguerre_log_values(k: int, b: float, x):
    """log |p_k(x)| for the orthonormal Laguerre p_k, with per-node rescaling
    so values far outside the oscillatory region do not overflow."""
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
def _gauss_laguerre_log_cached(m: int, c: float):
    """Nodes and log-weights for weight x^c e^{-x}, weights via the
    Christoffel function 1/sum_j q_j(x_i)^2 for tail-robust relative
    accuracy."""
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


@lru_cache(maxsize=256)
def _gauss_jacobi_cached(m: int, a: float, b: float):
    alphas, betas = _jacobi_recurrence(m, a, b)
    log_mu0 = (
        (a + b + 1) * math.log(2.0)
        + log_gamma(a + 1)
        + log_gamma(b + 1)
        - log_gamma(a + b + 2)
    )
    return _golub_welsch(alphas, betas, log_mu0)


def gauss_laguerre(m: int, b: float):
    with _rule_lock:
        return _gauss_laguerre_cached(m, float(b))


def gauss_jacobi(m: int, a: float, b: float):
    with _rule_lock:
        return _gauss_jacobi_cached(m, float(a), float(b))


def laguerre_orthonormal(k: int, b: float, x):
    """p_k(x), orthonormal against x^b e^{-x} on (0, inf)."""
    x = np.asarray(x, dtype=float)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, math.exp(-0.5 * log_gamma(b + 1)))
    for j in range(k):
        beta_next = math.sqrt((j + 1) * (j + 1 + b))
        beta_this = math.sqrt(j * (j + b)) if j else 0.0
        p, p_prev = ((x - (2 * j + b + 1)) * p - beta_this * p_prev) / beta_next, p
    return p


def gegenbauer_orthonormal(k: int, nu: float, x):
    """C~_k(x), orthonormal against (1-x^2)^(nu-1/2) on (-1, 1)."""
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


def gegenbauer(k: int, nu: float, x):
    """Plain Gegenbauer polynomial C_k^(nu)(x)."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    c_prev = np.ones_like(x)
    c = 2 * nu * x
    for j in range(1, k):
        c, c_prev = (2 * (j + nu) * x * c - (j + 2 * nu - 1) * c_prev) / (j + 1), c
    return c


def _rule_size(k: int, extra: int = 6) -> int:
    # exactness needs k+1 nodes; the margin exposes rounding drift
    return k + 1 + extra


def quad_r_moment(state: HydrogenicState, alpha: float, nodes: int | None = None) -> MomentResult:
    """<r^alpha> from the position density by generalized Gauss-Laguerre."""
    alpha = float(alpha)
    b = 2 * state.l + state.D - 2  # Laguerre index of the radial polynomial
    m = nodes or _rule_size(state.k)
    scale = math.exp(alpha * (math.log(float(state.eta)) - math.log(2 * state.Z)))

    def run(mm):
        with _rule_lock:
            x, logw = _gauss_laguerre_log_cached(mm, b + 1 + alpha)
        logp = _laguerre_log_values(state.k, b, x)
        return scale * float(np.exp(2 * logp + logw).sum()) / (2 * float(state.eta))

    value = run(m)
    value2 = run(m + 8)
    err = abs(value - value2) + 50 * (state.k + 1) * _EPS * abs(value)
    return MomentResult(value, err, Method.QUADRATURE, Space.POSITION, alpha, state)


def quad_p_moment(state: HydrogenicState, alpha: float, nodes: int | None = None) -> MomentResult:
    """<p^alpha> from the momentum density by Gauss-Jacobi."""
    alpha = float(alpha)
    nu = float(state.nu)
    m = nodes or _rule_size(state.k)
    a, b = nu + (alpha - 1) / 2, nu - (alpha - 1) / 2
    x, w = gauss_jacobi(m, a, b)
    vals = gegenbauer_orthonormal(state.k, nu, x)
    scale = math.exp(alpha * (math.log(state.Z) - math.log(float(state.eta))))
    value = scale * float(np.dot(w, vals * vals))
    x2, w2 = gauss_jacobi(m + 8, a, b)
    v2 = gegenbauer_orthonormal(state.k, nu, x2)
    value2 = scale * float(np.dot(w2, v2 * v2))
    err = abs(value - value2) + 50 * (state.k + 1) * _EPS * abs(value)
    return MomentResult(value, err, Method.QUADRATURE, Space.MOMENTUM, alpha, state)


def position_norm_sq(state: HydrogenicState) -> ExactValue:
    """K^2 in R(r) = K (2Zr/eta)^l e^{-Zr/eta} L_k^{(2L+1)}(2Zr/eta)."""
    eta = state.eta
    return (
        ExactValue((2 * state.Z_exact / eta) ** state.D)
        * ExactValue(Fraction(math.factorial(state.k), 1) / (2 * eta))
        / gamma_exact(state.n + state.l + state.D - 2)
    )


def momentum_norm_sq(state: HydrogenicState) -> ExactValue:
    """K'^2 in M(p) = K' (eta p/Z)^l (1 + (eta p/Z)^2)^{-(L+2)} C_k^(nu)(y),
    y = (1 - (eta p/Z)^2) / (1 + (eta p/Z)^2)."""
    eta, nu = state.eta, state.nu
    return (
        ExactValue((eta / state.Z_exact) ** state.D)
        * ExactValue(Fraction(2) ** (4 * state.l + 2 * state.D - 1))
        * ExactValue(Fraction(math.factorial(state.k)) * eta, Fraction(-1))
        * gamma_exact(nu) ** 2
        / gamma_exact(state.n + state.l + state.D - 2)
    )


def _position_amplitude(state: HydrogenicState) -> float:
    """The constant factor of R_{n,l}(r) in front of the orthonormal Laguerre
    polynomial."""
    b = 2 * state.l + state.D - 2
    logk2 = math.log(position_norm_sq(state).to_float())
    # orthonormal Laguerre carries 1/||L||; restore the conventional scale
    lognorm = 0.5 * (log_gamma(state.k + b + 1) - log_gamma(state.k + 1))
    return math.exp(0.5 * logk2 + lognorm)


def _radial_position(state: HydrogenicState, r, amp: float):
    """R_{n,l}(r) given its amplitude from _position_amplitude."""
    r = np.asarray(r, dtype=float)
    x = 2 * state.Z * r / (state.two_eta / 2)  # float(eta), without building the Fraction
    b = 2 * state.l + state.D - 2
    return amp * x ** state.l * np.exp(-x / 2) * laguerre_orthonormal(state.k, b, x)


def radial_position(state: HydrogenicState, r):
    """Radial position wavefunction R_{n,l}(r)."""
    return _radial_position(state, r, _position_amplitude(state))


def radial_momentum(state: HydrogenicState, p):
    """Radial momentum wavefunction M_{n,l}(p)."""
    p = np.asarray(p, dtype=float)
    t = float(state.eta) * p / state.Z
    y = (1 - t * t) / (1 + t * t)
    nu = float(state.nu)
    amp = math.exp(0.5 * math.log(momentum_norm_sq(state).to_float()))
    return amp * t ** state.l * (1 + t * t) ** (-(state.l + (state.D - 1) / 2 + 1)) \
        * gegenbauer(state.k, nu, y)


def solid_angle(D: int) -> ExactValue:
    """Surface of the unit (D-1)-sphere: 2 pi^(D/2) / Gamma(D/2)."""
    return ExactValue(Fraction(2), Fraction(D, 2)) / gamma_exact(Fraction(D, 2))


def entropic_moment(state: HydrogenicState, q: float) -> float:
    """W_q for s states: Omega_D^(1-q) * integral R^(2q) r^(D-1) dr."""
    from scipy.integrate import quad

    omega = solid_angle(state.D).to_float()
    scale = float(state.eta) / (2 * state.Z)
    amp = _position_amplitude(state)  # exact norm, once per call rather than per point

    def integrand(u):
        r = u * scale
        rr = _radial_position(state, r, amp) ** 2
        return float(rr ** q * r ** (state.D - 1)) * scale

    total = 0.0
    cuts = [0.0, 1.0, 10.0, 50.0, 200.0 + 4.0 * state.n ** 2]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part, _ = quad(integrand, lo, hi, limit=200)
        total += part
    tail, _ = quad(integrand, cuts[-1], np.inf, limit=200)
    return omega ** (1 - q) * (total + tail)
