"""Independent quadrature oracle.

Evaluates <r^alpha> and <p^alpha> directly from the radial wavefunctions by
Gaussian quadrature whose nodes/weights come from the Golub-Welsch
eigenproblem, so nothing here shares code with the hypergeometric routes.
Gauss-Jacobi rules solve it with LAPACK's MRRR driver ?stemr (Dhillon &
Parlett, 2004), called through a handle resolved once; the weights it drops
to 0 come from the Christoffel function instead.  Gauss-Laguerre rules
take their nodes from ?stevd (eigenvalues only, through a second handle) and
their weights from the Christoffel function 1/sum_j p_j(x_i)^2, summed in
linear space over one rescaled recurrence pass; the log-weights lie within
1.6e-13 of 50-digit sums for m <= 160 and c <= 300.

Both moment integrands reduce to (orthonormal polynomial of degree k)^2
against a classical weight, so a Gauss rule of k+1 nodes is exact.  Each
moment is summed by a pair of exact rules, of k+1 and k+2 nodes: their
difference measures rounding drift, not truncation.  The two Laguerre rules
share one Christoffel pass of degree k+1, whose extra term p_{k+1}^2
vanishes at the smaller rule's nodes up to second order in their rounding.
Each moment passes its Gauss sum s and a bound on s, |s - s2| plus the
roundings both rules share, to `posmom.rounded`, which adds the scale's logs
and exponentiates them with ln s in one `specfun.exp_sum`, so a moment inside
the double range is returned even when its scale is not, and one outside it
raises FloatUnderflow or FloatOverflow; so does a Jacobi weight integral mu0
outside it.  The Gauss sums are taken relative to their largest term or
polynomial value, so they cannot overflow.
Entropic moments integrate |R|^(2q), which is not a polynomial, with Gauss
rules between the zeros of R; they keep rules of m and m+8 nodes, whose
difference does measure truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ExactTooLarge, NonpositiveParameters, NotSWave, QuadratureFailure, UnsupportedArgument
from .posmom import Method, MomentResult, rounded
from .specfun import _EPS, ExactValue, exp_sum, gamma_exact, log_gamma, require_cost
from .states import HydrogenicState, Space, finite_order

# At x >= 2^64, e^(-x/2) puts R_{n,l} below the double range unless k + l
# or D exceeds 10^15; x is clipped there, where the recurrence stays finite
_X_FAR = 2.0 ** 64
_STEMR = get_lapack_funcs("stemr", dtype=np.float64)
_STEVD = get_lapack_funcs("stevd", dtype=np.float64)


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
    """Nodes and weights from the Jacobi matrix by ?stemr, which needs the
    off-diagonal padded to length m and overwrites it."""
    m = len(alphas)
    off = np.zeros(m)
    off[:-1] = np.sqrt(betas)
    found, nodes, vecs, info = _STEMR(alphas, off, 0, 0.0, 0.0, 0, 0, lwork=18 * m, liwork=10 * m)
    if info or found < m:
        raise QuadratureFailure(f"?stemr returned info={info} with {found} of {m} eigenpairs")
    w = exp_sum([log_mu0])[0] * vecs[0] ** 2
    # MRRR sets each eigenvector to 0 outside the support it computes, which drops
    # some weights far below eps mu0 that the other weights keep to full relative
    # accuracy; the Christoffel function 1/sum_j p_j^2 gives those back
    lost = w == 0
    if lost.any():
        _, scale, total = _scaled_recurrence(alphas, betas, -0.5 * log_mu0, nodes[lost])
        w[lost] = np.exp(-(np.log(total) + 2 * scale))
    return nodes, w


def _scaled_recurrence(alphas, betas, log_p0: float, x):
    """The orthonormal polynomial p_k of the three-term table (alphas, betas),
    k = len(alphas) - 1, at the nodes x as (q, s, total) with p_k(x) = q e^s,
    and the Christoffel sum sum_{j<=k} p_j(x)^2 = total e^(2s); p_0 = e^log_p0.
    Each node is rescaled on its own, so values far outside the oscillatory
    region do not overflow."""
    alphas, roots = alphas.tolist(), np.sqrt(betas).tolist()
    q_prev = np.zeros_like(x)
    q = np.ones_like(x)
    total = np.ones_like(x)
    scale = np.full_like(x, log_p0)
    for j in range(len(roots)):
        beta_this = roots[j - 1] if j else 0.0
        q, q_prev = ((x - alphas[j]) * q - beta_this * q_prev) / roots[j], q
        total += q * q
        # |q| > 1e120 implies total > 1e240, so one reduction guards the common case
        if total.max() > 1e240:
            big = np.abs(q) > 1e120
            f = np.where(big, np.abs(q), 1.0)
            scale = scale + np.log(f)
            q = q / f
            q_prev = q_prev / f
            total = total / (f * f)
    return q, scale, total


def _laguerre_scaled(k: int, b: float, x):
    """_scaled_recurrence for the orthonormal Laguerre polynomials against x^b e^{-x}."""
    return _scaled_recurrence(*_laguerre_recurrence(k + 1, b), -0.5 * log_gamma(b + 1), x)


def _laguerre_nodes(m: int, c: float):
    """Nodes of the m-point Gauss rule for x^c e^{-x}, by ?stevd (eigenvalues only)."""
    alphas, betas = _laguerre_recurrence(m, c)
    if m == 1:  # ?stevd rejects a 1x1 matrix
        return alphas
    x, _, info = _STEVD(alphas, np.sqrt(betas), compute_v=0)
    if info:
        raise QuadratureFailure(f"?stevd returned info={info} for a {m}-node Laguerre rule")
    return x


def _laguerre_log_weights(m: int, c: float, x):
    """-ln sum_{j<=m} p_j(x)^2 against x^c e^{-x}: the log-weights of the Gauss
    rule whose nodes x are the zeros of p_{m+1}, summed in linear space on the
    rescaled recurrence values for tail-robust relative accuracy."""
    _, scale, total = _laguerre_scaled(m, c, x)
    return -(np.log(total) + 2 * scale)


def _gauss_laguerre_log(m: int, c: float):
    """Nodes and log-weights for weight x^c e^{-x}; the weights are the
    Christoffel function 1/sum_j p_j(x_i)^2."""
    x = _laguerre_nodes(m, c)
    return x, _laguerre_log_weights(m - 1, c, x)


def gauss_laguerre(m: int, b: float):
    """Nodes and weights of the m-point Gauss rule for x^b e^{-x} on (0, inf)."""
    x, log_w = _gauss_laguerre_log(m, float(b))
    return x, np.exp(log_w)


def _jacobi_log_mu0_terms(a: float, b: float) -> list[float]:
    """The log terms of mu0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2),
    the integral of (1-x)^a (1+x)^b over (-1, 1)."""
    return [(a + b + 1) * math.log(2.0), log_gamma(a + 1), log_gamma(b + 1), -log_gamma(a + b + 2)]


def _require_rule(m: int, instead: str) -> None:
    """Price an m-node Gauss-Jacobi rule before anything is built: ?stemr's m
    eigenvectors take 8 m^2 bytes, and at m = 4,000 they took 1.5 s and
    123 MB, so past the budget, above m = 2,401, raise QuadratureFailure."""
    try:  # the 64 m^2 bits of the eigenvectors, at about 1,000 passes (measured)
        require_cost(64 * m * m, 1024, instead)
    except ExactTooLarge as e:
        raise QuadratureFailure(f"a {m}-node Gauss-Jacobi rule: {e}") from None


def gauss_jacobi(m: int, a: float, b: float):
    """Nodes and weights of the m-point Gauss rule for (1-x)^a (1+x)^b on
    (-1, 1), priced first by `_require_rule`."""
    _require_rule(m, 'an integer order in mode="exact"')
    a, b = float(a), float(b)
    alphas, betas = _jacobi_recurrence(m, a, b)
    return _golub_welsch(alphas, betas, sum(_jacobi_log_mu0_terms(a, b)))


def laguerre_orthonormal(k: int, b: float, x):
    """p_k(x), orthonormal against x^b e^{-x} on (0, inf)."""
    q, s, _ = _laguerre_scaled(k, float(b), np.asarray(x, dtype=float))
    return q * np.exp(s)


def gegenbauer_orthonormal(k: int, nu: float, x):
    """C~_k(x), orthonormal against (1-x^2)^(nu-1/2) on (-1, 1)."""
    x = np.asarray(x, dtype=float)
    a = nu - 0.5
    # the symmetric Jacobi table has zero diagonal, so only the betas enter
    _, betas = _jacobi_recurrence(k + 1, a, a)
    roots = np.sqrt(betas).tolist()
    log_mu0 = (
        (2 * a + 1) * math.log(2.0) + 2 * log_gamma(a + 1) - log_gamma(2 * a + 2)
    )
    p_prev = np.zeros_like(x)
    p = np.full_like(x, math.exp(-0.5 * log_mu0))
    for j in range(k):
        beta_this = roots[j - 1] if j else 0.0
        p, p_prev = (x * p - beta_this * p_prev) / roots[j], p
    return p


def _gegenbauer_log_norm_sq(k: int, nu: float) -> float:
    """ln h_k, h_k = pi 2^(1-2nu) Gamma(k+2nu) / (k! (k+nu) Gamma(nu)^2), the
    squared norm of C_k^(nu)."""
    return (
        math.log(math.pi) + (1 - 2 * nu) * math.log(2.0) + log_gamma(k + 2 * nu)
        - log_gamma(k + 1) - math.log(k + nu) - 2 * log_gamma(nu)
    )


def gegenbauer(k: int, nu: float, x):
    """Plain Gegenbauer polynomial C_k^(nu)(x) = sqrt(h_k) C~_k(x)."""
    return math.exp(0.5 * _gegenbauer_log_norm_sq(k, nu)) * gegenbauer_orthonormal(k, nu, x)


def _rule_size(k: int) -> int:
    """k+1 nodes make a Gauss rule exact for a degree-2k integrand."""
    return k + 1


def quad_r_moment(state: HydrogenicState, alpha: float) -> MomentResult:
    """<r^alpha> from the position density by generalized Gauss-Laguerre rules
    of m = k+1 and m+1 nodes, weighted by one Christoffel pass."""
    alpha = finite_order(alpha, Space.POSITION)
    b = 2 * state.l + state.D - 2  # Laguerre index of the radial polynomial
    m = _rule_size(state.k)
    c = b + 1 + alpha  # the rules' weight is x^c e^{-x}
    x = np.concatenate((_laguerre_nodes(m, c), _laguerre_nodes(m + 1, c)))
    # the (m+1)-node rule's Christoffel sum runs to p_m, which vanishes at the
    # m-node rule's nodes, so one pass weights both rules
    logw = _laguerre_log_weights(m, c, x)
    q, q_scale, _ = _laguerre_scaled(state.k, b, x)
    with np.errstate(divide="ignore"):
        logp = np.log(np.abs(q)) + q_scale
    log_terms = 2 * logp + logw
    top = log_terms.max()  # the sums are taken relative to e^top, so no term leaves the double range
    terms = np.exp(log_terms - top)
    s, s2 = float(terms[:m].sum()), float(terms[m:].sum())
    # each term is exp of logs of size |ln w| + 2|ln p| that cancel; their rounding
    # is a relative error of a few ulps of that size, shared by both rules and so
    # unseen by |s - s2|
    size = np.where(terms[:m] > 0, np.abs(logw[:m]) + 2 * np.abs(logp[:m]), 0.0)
    bound = abs(s - s2) + 50 * (state.k + 1) * _EPS * s + 4 * _EPS * float(np.dot(terms[:m], size))
    logs = [float(top), -math.log(state.two_eta)]
    return rounded(logs, s, bound, Method.QUADRATURE, Space.POSITION, alpha, state)


def quad_p_moment(state: HydrogenicState, alpha: float) -> MomentResult:
    """<p^alpha> from the momentum density by Gauss-Jacobi rules of m = k+1 and
    m+1 nodes, both exact for the degree-2k integrand, so |s - s2| measures
    rounding drift.  Their Gegenbauer values come from one recurrence pass and
    are divided by their peak, so each Gauss sum stays below mu0; the scale
    (Z/eta)^alpha and the peak squared are exponentiated with ln of the sum.
    The bound adds 2 k^2 eps s for the nodes' rounding, which both rules
    share: by Markov's inequality |p'| <= k^2 max |p| on [-1, 1]."""
    alpha = finite_order(alpha, Space.MOMENTUM)
    nu = state.two_nu / 2  # float(nu), without building the Fraction
    k, m = state.k, _rule_size(state.k)
    # exact where a or b nears -1: there the moment is as sensitive to a+1 or
    # b+1 as 1/(a+1) or 1/(b+1), and nu + (alpha - 1)/2 would round it
    a, b = (nu - 0.5) + alpha / 2, (nu + 0.5) - alpha / 2
    x, w = gauss_jacobi(m, a, b)
    x2, w2 = gauss_jacobi(m + 1, a, b)
    vals = gegenbauer_orthonormal(k, nu, np.concatenate((x, x2)))
    peak = float(np.abs(vals).max())
    sq = (vals / peak) ** 2
    s, s2 = float(np.dot(w, sq[:m])), float(np.dot(w2, sq[m:]))
    # both rules scale their weights by mu0 = exp(log mu0), so |s - s2| cannot
    # see the rounding of log mu0's terms
    _, mu0_rel = exp_sum(_jacobi_log_mu0_terms(a, b))
    bound = abs(s - s2) + ((50 * (k + 1) + 2 * k * k) * _EPS + mu0_rel) * s
    return rounded([2 * math.log(peak)], s, bound, Method.QUADRATURE, Space.MOMENTUM, alpha, state)


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


def _log(v: ExactValue) -> float:
    """ln of a positive exact value, from its integer numerator and denominator."""
    return math.log(v.coeff.numerator) - math.log(v.coeff.denominator) + float(v.pi_pow) * math.log(math.pi)


def _position_log_amplitude(state: HydrogenicState) -> float:
    """ln of the factor of R_{n,l}(r) in front of the orthonormal Laguerre polynomial."""
    b = 2 * state.l + state.D - 2
    # orthonormal Laguerre carries 1/||L||; restore the conventional scale
    return 0.5 * (_log(position_norm_sq(state)) + log_gamma(state.k + b + 1) - log_gamma(state.k + 1))


def _log_radial(state: HydrogenicState, x, log_amp: float):
    """The sign and ln|R_{n,l}| at x = 2Zr/eta, given log_amp from _position_log_amplitude."""
    q, s, _ = _laguerre_scaled(state.k, 2 * state.l + state.D - 2, x)
    with np.errstate(divide="ignore"):  # 0 * log 0 would be nan: l log x enters only for l > 0
        log_r = log_amp - x / 2 + np.log(np.abs(q)) + s + (state.l * np.log(x) if state.l else 0)
    return np.sign(q), log_r


def _signed_exp(sign, log_v):
    """sign e^log_v, 0 where it underflows; exp_sum raises FloatOverflow past the range."""
    top = float(np.max(log_v, initial=-np.inf))
    if top > 0:
        exp_sum([top])
    return sign * np.exp(log_v)


def _radial_position(state: HydrogenicState, r, log_amp: float):
    """R_{n,l}(r) given its log-amplitude from _position_log_amplitude, with
    x = 2Zr/eta formed from ln r and the position scale's logs."""
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise UnsupportedArgument("a radius must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):  # x = 0 at r = 0, inf past the range
        x = np.exp(np.log(r) - math.fsum(state.scale_logs(1, Space.POSITION)))
    return _signed_exp(*_log_radial(state, np.minimum(x, _X_FAR), log_amp))


def radial_position(state: HydrogenicState, r):
    """Radial position wavefunction R_{n,l}(r)."""
    return _radial_position(state, r, _position_log_amplitude(state))


def radial_momentum(state: HydrogenicState, p):
    """Radial momentum wavefunction M_{n,l}(p).  Its factors are summed as logs
    and exponentiated once, so at large l it underflows only where M does.
    t = eta p / Z enters only as ln t, from ln p and the momentum scale's
    logs, and y = (1 - t^2) / (1 + t^2) = -tanh(ln t)."""
    p = np.asarray(p, dtype=float)
    nu, l = state.two_nu / 2, state.l
    log_amp = 0.5 * (_log(momentum_norm_sq(state)) + _gegenbauer_log_norm_sq(state.k, nu))
    with np.errstate(divide="ignore"):  # y = 1 at p = 0; 0 * ln 0 would be nan, so l ln t only for l > 0
        log_t = np.log(np.abs(p)) + math.fsum(state.scale_logs(-1, Space.MOMENTUM))
        c = gegenbauer_orthonormal(state.k, nu, -np.tanh(log_t))
        log_m = log_amp - (l + (state.D + 1) / 2) * np.logaddexp(0.0, 2 * log_t) + np.log(np.abs(c)) \
            + (l * log_t if l else 0)
    return _signed_exp(np.sign(c) * np.sign(p) ** l, log_m)


def solid_angle(D: int) -> ExactValue:
    """Surface of the unit (D-1)-sphere: 2 pi^(D/2) / Gamma(D/2)."""
    return ExactValue(Fraction(2), Fraction(D, 2)) / gamma_exact(Fraction(D, 2))


def entropic_moment(state: HydrogenicState, q: float) -> float:
    """W_q = Omega_D^(1-q) * integral |R|^(2q) r^(D-1) dr of an s state.  In x = 2Zr/eta,
    a Gauss-Jacobi rule on each panel between 0 and the zeros of R takes the factors
    x^(D-1) and |x - z|^(2q) at its ends as weight, and a Gauss-Laguerre rule in
    x = z_k + t/q the tail.  Raises QuadratureFailure if m and m+8 nodes differ by 1e-10."""
    if state.l:
        raise NotSWave(f"entropic moments implemented for l = 0, got l={state.l}")
    if not 0 < q < math.inf:
        raise NonpositiveParameters(f"entropic order q must be positive and finite, got {q}")
    q, D, k = float(q), state.D, state.k
    ends = np.concatenate(([0.0], _laguerre_nodes(k, D - 2) if k else []))
    panels = ((ends[:-1][:1], ends[1:2], D - 1), (ends[1:-1], ends[2:], 2 * q))  # [0, z_1], [z_j, z_j+1]
    c = 2 * q if k else D - 1  # the tail's factor at its left end
    log_amp = _position_log_amplitude(state)  # exact norm, once per call rather than per rule

    def run(m):
        """ln of the integral over x by m-node rules."""
        t, log_w = _gauss_laguerre_log(m, c)
        xs, logs = [ends[-1] + t / q], [log_w - c * np.log(t) + t - math.log(q)]
        for left, right, b in panels:
            t, w = gauss_jacobi(m, 2 * q, b)
            h = (right - left)[:, None] / 2
            xs.append((left[:, None] + h * (1 + t)).ravel())
            logs.append((np.log(h * w) - 2 * q * np.log1p(-t) - b * np.log1p(t)).ravel())
        x, lv = np.concatenate(xs), np.concatenate(logs)
        lv += 2 * q * _log_radial(state, x, log_amp)[1] + (D - 1) * np.log(x)
        return lv.max() + math.log(np.exp(lv - lv.max()).sum())

    # in Python floats, which reach inf rather than warn past the double range;
    # any width past 2^62 is far past the budget, and both runs are priced
    # before either builds a rule
    width = q * float(np.diff(ends).max(initial=0.0)) / 2
    m = 20 + int(min(width, 2.0 ** 62))
    _require_rule(m + 8, "a smaller q")
    log_int, log_int2 = run(m), run(m + 8)
    if abs(log_int - log_int2) > 1e-10:
        raise QuadratureFailure(f"W_{q:g} rules of {m} and {m + 8} nodes differ by {abs(log_int - log_int2):.2g}")
    return exp_sum([(1 - q) * _log(solid_angle(D)), *state.scale_logs(D, Space.POSITION), log_int2])[0]
