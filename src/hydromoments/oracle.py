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
1.6e-13 of 50-digit sums for m <= 160 and c <= 300.  Every rule keeps its
weights as logs, and both polynomial families come from one rescaled
recurrence as pairs (q, s), value q e^s, so none leaves the double range.

Each moment takes its order through `states.require_order`, so an order
where the moment diverges raises OrderOutOfDomain before a rule is built.
Both moment integrands reduce to (orthonormal polynomial of degree k)^2
against a classical weight, so a Gauss rule of k+1 nodes is exact.  Each
moment is summed by a pair of exact rules, of k+1 and k+2 nodes: their
difference measures rounding drift, not truncation.  The two Laguerre rules
share one Christoffel pass of degree k+1, whose extra term p_{k+1}^2
vanishes at the smaller rule's nodes up to second order in their rounding.
Both moments sum their pair in logs by `_pair_sum`, relative to the largest
term, and pass the sum s and a bound on s, |s - s2| plus the roundings both
rules share, to `posmom.rounded`, which adds the scale's logs and
exponentiates them with ln s in one `specfun.exp_sum`, so a moment inside the
double range is returned even when its scale or a rule's mass mu0 is not,
and one outside it raises FloatUnderflow or FloatOverflow.
Entropic moments integrate |R|^(2q), which is not a polynomial, with Gauss
rules between the zeros of R; they keep rules of m and m+8 nodes, whose
difference does measure truncation.
No float path builds an exact number: `position_norm_sq`, `momentum_norm_sq`
and `solid_angle` are exact references only, each one Gamma ratio priced
by `gamma_ratio_doubled`; the first two state their scale's power first.
"""

from __future__ import annotations

import math
import reprlib
import sys
from fractions import Fraction
from numbers import Real

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ExactTooLarge, NonpositiveParameters, NotSWave, QuadratureFailure, UnsupportedArgument
from .posmom import Method, MomentResult, rounded
from .specfun import (_EPS, ExactValue, exp_sum, exp_sum_rel, gamma_ratio_doubled, log_gamma, require_cost,
                      solid_angle_logs)
from .states import HydrogenicState, Space, make_state, require_order

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
    """Nodes and log-weights ln(mu0 v_0^2) from the Jacobi matrix by
    ?stemr, which needs the off-diagonal padded to length m and overwrites it."""
    m = len(alphas)
    off = np.zeros(m)
    off[:-1] = np.sqrt(betas)
    found, nodes, vecs, info = _STEMR(alphas, off, 0, 0.0, 0.0, 0, 0, lwork=18 * m, liwork=10 * m)
    if info or found < m:
        raise QuadratureFailure(f"?stemr returned info={info} with {found} of {m} eigenpairs")
    # MRRR sets each eigenvector to 0 outside the support it computes, which drops
    # some weights far below eps mu0 that the other weights keep to full relative
    # accuracy; the Christoffel function 1/sum_j p_j^2 gives those back
    w = vecs[0] ** 2  # also 0 where |v_0| < 1e-162; the Christoffel function gives those back too
    lost = w == 0
    log_w = log_mu0 + np.log(w + lost)  # ln 1, not ln 0, until replaced below
    if lost.any():
        log_w[lost] = _christoffel_log_weights(alphas, betas, log_mu0, nodes[lost])
    return nodes, log_w


def _scaled_recurrence(alphas, betas, log_p0: float, x):
    """The orthonormal polynomial p_k of the three-term table (alphas, betas),
    k = len(alphas) - 1, at the nodes x as (q, s, total) with p_k(x) = q e^s,
    and the Christoffel sum sum_{j<=k} p_j(x)^2 = total e^(2s); p_0 = e^log_p0.
    Each node is rescaled on its own, so values far outside the oscillatory
    region do not overflow."""
    alphas, roots = alphas.tolist(), np.sqrt(betas).tolist()
    q_prev, q = np.zeros(x.shape), np.ones(x.shape)
    total, scale = q.copy(), np.full(x.shape, log_p0)
    for j in range(len(roots)):
        beta_this = roots[j - 1] if j else 0.0
        q, q_prev = ((x - alphas[j]) * q - beta_this * q_prev) / roots[j], q
        total += q * q
        # |q| > 1e120 implies total > 1e240, so one reduction (0 for no nodes) guards the common case
        if total.max(initial=0.0) > 1e240:
            big = np.abs(q) > 1e120
            f = np.where(big, np.abs(q), 1.0)
            scale = scale + np.log(f)
            q = q / f
            q_prev = q_prev / f
            total = total / (f * f)
    return q, scale, total


def _laguerre_nodes(alphas, betas):
    """Nodes of the Gauss rule of a Laguerre table, by ?stevd (eigenvalues only)."""
    if len(alphas) == 1:  # ?stevd rejects a 1x1 matrix
        return alphas
    x, _, info = _STEVD(alphas, np.sqrt(betas), compute_v=0)
    if info:
        raise QuadratureFailure(f"?stevd returned info={info} for a {len(alphas)}-node Laguerre rule")
    return x


def _christoffel_log_weights(alphas, betas, log_mu0: float, x):
    """-ln sum_{j<m} p_j(x)^2 for the m-entry table of a weight of mass mu0: its Gauss rule's
    log-weights at its nodes x, summed in linear space on the rescaled values for tail-robust accuracy."""
    _, scale, total = _scaled_recurrence(alphas, betas, -0.5 * log_mu0, x)
    return -(np.log(total) + 2 * scale)


def gauss_laguerre(m: int, c: float):
    """Nodes and log-weights of the m-point Gauss rule for x^c e^{-x} on
    (0, inf); the weights are the Christoffel function 1/sum_j p_j(x_i)^2."""
    table = _laguerre_recurrence(m, c)
    x = _laguerre_nodes(*table)
    return x, _christoffel_log_weights(*table, log_gamma(c + 1), x)


def _jacobi_log_mu0_terms(a: float, b: float) -> list[float]:
    """The log terms of mu0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2),
    the integral of (1-x)^a (1+x)^b over (-1, 1)."""
    return [(a + b + 1) * math.log(2.0), log_gamma(a + 1), log_gamma(b + 1), -log_gamma(a + b + 2)]


def _require_rule(rule: str, bits: int, passes: int, instead: str) -> None:
    """Price a Gauss rule before anything of it is built; past the budget raise QuadratureFailure."""
    try:
        require_cost(bits, passes, instead)
    except ExactTooLarge as e:
        raise QuadratureFailure(f"a {rule}: {e}") from None


def _require_jacobi(m: int, instead: str) -> None:
    """Price an m-node Gauss-Jacobi rule: ?stemr's m eigenvectors, 8 m^2 bytes, took 1.5 s and
    123 MB at m = 4,000; their 64 m^2 bits at about 1,000 passes (measured) pass the budget above m = 2,401."""
    _require_rule(f"{m}-node Gauss-Jacobi rule", 64 * m * m, 1024, instead)


def gauss_jacobi(m: int, a: float, b: float):
    """Nodes and log-weights of the m-point Gauss rule for (1-x)^a (1+x)^b on
    (-1, 1), priced first by `_require_jacobi`.  The weights stay logs, so a
    rule is built even where their sum mu0 leaves the double range."""
    _require_jacobi(m, 'an integer order in mode="exact"')
    a, b = float(a), float(b)
    return _golub_welsch(*_jacobi_recurrence(m, a, b), sum(_jacobi_log_mu0_terms(a, b)))


def laguerre_orthonormal(k: int, b: float, x):
    """p~_k(x), orthonormal against x^b e^{-x} on (0, inf), as the rescaled
    pair (q, s) with p~_k(x) = q e^s."""
    b, x = float(b), np.asarray(x, dtype=float)
    q, s, _ = _scaled_recurrence(*_laguerre_recurrence(k + 1, b), -0.5 * log_gamma(b + 1), x)
    return q, s


def gegenbauer_orthonormal(k: int, nu: float, x):
    """C~_k(x), orthonormal against (1-x^2)^(nu-1/2) on (-1, 1), as the
    rescaled pair (q, s) with C~_k(x) = q e^s: `_scaled_recurrence` on the
    symmetric Jacobi table, whose diagonal is 0."""
    a, x = nu - 0.5, np.asarray(x, dtype=float)
    q, s, _ = _scaled_recurrence(*_jacobi_recurrence(k + 1, a, a), -0.5 * sum(_jacobi_log_mu0_terms(a, a)), x)
    return q, s


def _gegenbauer_log_norm(k: int, nu: float) -> float:
    """ln h_k = ln(pi 2^(1-2nu) Gamma(k+2nu) / (k! (k+nu) Gamma(nu)^2)), the
    squared norm of C_k^(nu), so C_k^(nu) = sqrt(h_k) C~_k."""
    return (
        math.log(math.pi) + (1 - 2 * nu) * math.log(2.0) + log_gamma(k + 2 * nu)
        - log_gamma(k + 1) - math.log(k + nu) - 2 * log_gamma(nu)
    )


def gegenbauer(k: int, nu: float, x):
    """Plain Gegenbauer polynomial C_k^(nu)(x) = sqrt(h_k) C~_k(x), summed as
    logs and exponentiated once by `_signed_exp`."""
    q, s = gegenbauer_orthonormal(k, nu, x)
    with np.errstate(divide="ignore"):  # ln 0 at a zero of C_k
        return _signed_exp(np.sign(q), 0.5 * _gegenbauer_log_norm(k, nu) + s + np.log(np.abs(q)))


def _pair_sum(q, q_scale, log_w, m: int):
    """(top, s, bound): the Gauss sum e^top s of p^2, p = q e^q_scale, by the
    m-node rule of the m- and (m+1)-node rules whose values and log-weights are
    concatenated, taken relative to the largest term, and a bound on s that
    covers its drift |s - s2| and the roundings both rules share."""
    with np.errstate(divide="ignore"):
        log_p2 = 2 * (np.log(np.abs(q)) + q_scale)
    log_terms = log_p2 + log_w
    top = log_terms.max()
    terms = np.exp(log_terms - top)
    s, s2 = float(np.add.reduce(terms[:m])), float(np.add.reduce(terms[m:]))
    # each term is exp of logs of size |ln w| + |ln p^2| that cancel; their rounding
    # is a relative error of a few ulps of that size, shared by both rules and so
    # unseen by |s - s2|
    size = np.where(terms[:m] > 0, np.abs(log_w[:m]) + np.abs(log_p2[:m]), 0.0)
    return float(top), s, abs(s - s2) + 50 * m * _EPS * s + 4 * _EPS * float(np.dot(terms[:m], size))


def quad_r_moment(state: HydrogenicState, alpha: float) -> MomentResult:
    """<r^alpha> from the position density by generalized Gauss-Laguerre rules
    of m = k+1 and m+1 nodes, weighted by one Christoffel pass."""
    alpha = require_order(state, alpha, Space.POSITION)
    b = 2 * state.l + state.D - 2  # Laguerre index of the radial polynomial
    m = state.k + 1  # k+1 nodes make a Gauss rule exact for the degree-2k integrand
    c = b + 1 + alpha  # the rules' weight is x^c e^{-x}
    # ?stevd and about 2m recurrence steps over the 2m+1 nodes took 0.49 s at m = 2,500
    # (x86-64): their 64 (2m+1) bits at about 450 m passes, past the budget above m = 2,561
    _require_rule(f"{m}-node Gauss-Laguerre rule pair", 64 * (2 * m + 1), 450 * m, 'an integer order in mode="exact"')
    # the m-node rule's table starts the (m+1)-node rule's, whose Christoffel sum runs to
    # p_m, which vanishes at the m-node rule's nodes: one table and one pass serve both.
    # At huge orders (from 1e100 at 3D n = 5) the table or a square can leave the double range
    try:
        with np.errstate(over="raise", invalid="raise"):
            alphas, betas = _laguerre_recurrence(m + 1, c)
            x = np.concatenate((_laguerre_nodes(alphas[:m], betas[:m - 1]), _laguerre_nodes(alphas, betas)))
            q, q_scale = laguerre_orthonormal(state.k, b, x)
            top, s, bound = _pair_sum(q, q_scale, _christoffel_log_weights(alphas, betas, log_gamma(c + 1), x), m)
    except FloatingPointError:
        raise QuadratureFailure(f"the Gauss-Laguerre rule pair at order {alpha:.6g} leaves the double range") from None
    return rounded([top, -math.log(state.two_eta)], s, bound, Method.QUADRATURE, Space.POSITION, alpha, state)


def quad_p_moment(state: HydrogenicState, alpha: float) -> MomentResult:
    """<p^alpha> from the momentum density by Gauss-Jacobi rules of m = k+1 and
    m+1 nodes, both exact for the degree-2k integrand, so |s - s2| measures
    rounding drift.  Their Gegenbauer values come from one recurrence pass,
    and the sums are taken in logs by `_pair_sum`, as `quad_r_moment`'s are.
    The bound adds 2 k^2 eps s for the nodes' rounding, which both rules
    share (by Markov's inequality |p'| <= k^2 max |p| on [-1, 1]), and the
    rounding of ln mu0's terms, which both rules' log-weights carry."""
    alpha = require_order(state, alpha, Space.MOMENTUM)
    nu = state.two_nu / 2  # float(nu), without building the Fraction
    k, m = state.k, state.k + 1
    # exact where a or b nears -1: there the moment is as sensitive to a+1 or
    # b+1 as 1/(a+1) or 1/(b+1), and nu + (alpha - 1)/2 would round it
    a, b = (nu - 0.5) + alpha / 2, (nu + 0.5) - alpha / 2
    _require_jacobi(m + 1, 'an integer order in mode="exact"')  # the larger rule, before either is built
    x, log_w = gauss_jacobi(m, a, b)
    x2, log_w2 = gauss_jacobi(m + 1, a, b)
    q, q_scale = gegenbauer_orthonormal(k, nu, np.concatenate((x, x2)))
    top, s, bound = _pair_sum(q, q_scale, np.concatenate((log_w, log_w2)), m)
    bound += (2 * k * k * _EPS + exp_sum_rel(_jacobi_log_mu0_terms(a, b))) * s
    return rounded([top], s, bound, Method.QUADRATURE, Space.MOMENTUM, alpha, state)


def position_norm_sq(state: HydrogenicState) -> ExactValue:
    """K^2 in R(r) = K (2Zr/eta)^l e^{-Zr/eta} L_k^{(2L+1)}(2Zr/eta): (2Z/eta)^D
    k! / (2 eta Gamma(k+2nu)), its power priced first."""
    k, t, D = state.k, state.two_nu, state.D
    bits = state.scale_bits(D)
    require_cost(bits, 11 * (bits >> 6), 'mode="float"')
    num, den, _ = gamma_ratio_doubled((2 * k + 2,), (2 * k + 2 * t,))
    return ExactValue.reduced((2 * state.Z_exact / state.eta) ** D * Fraction(num, den * state.two_eta), 0)


def momentum_norm_sq(state: HydrogenicState) -> ExactValue:
    """K'^2 in M(p) = K' (eta p/Z)^l (1 + (eta p/Z)^2)^{-(L+2)} C_k^(nu)(y),
    y = (1 - (eta p/Z)^2) / (1 + (eta p/Z)^2): (eta/Z)^D 2^(4l+2D-1) k! eta
    Gamma(nu)^2 / (pi Gamma(k+2nu)), its power and 2^(4l+2D-2) priced first."""
    k, t, D = state.k, state.two_nu, state.D
    bits = state.scale_bits(D) + 4 * state.l + 2 * D
    require_cost(bits, 11 * (bits >> 6), 'mode="float"')
    num, den, two_pi = gamma_ratio_doubled((t, t, 2 * k + 2), (2 * k + 2 * t,))
    coeff = (state.eta / state.Z_exact) ** D * Fraction(state.two_eta * num << (4 * state.l + 2 * D - 2), den)
    return ExactValue.reduced(coeff, two_pi - 2)


def _log_amplitude(state: HydrogenicState, space: Space) -> float:
    """ln of the radial wavefunction's factor in front of its orthonormal
    polynomial.  Against p~_k for x^b e^{-x}, b = 2l+D-2, it is
    K^2 Gamma(k+b+1)/k! = (2Z/eta)^D/(2 eta), as k+b+1 = n+l+D-2; against
    C~_k, K'^2 h_k = (eta/Z)^D 2^(2l+D+1), as k+2nu = n+l+D-2 and k+nu = eta."""
    if space is Space.POSITION:
        return -0.5 * (math.fsum(state.scale_logs(state.D, space)) + math.log(state.two_eta))
    return 0.5 * (math.fsum(state.scale_logs(-state.D, space)) + (2 * state.l + state.D + 1) * math.log(2.0))


def _log_radial(state: HydrogenicState, x):
    """The sign and ln|R_{n,l}| at x = 2Zr/eta.  The orthonormal p~_k has a
    positive leading coefficient and L_k^(2L+1) the sign (-1)^k, so R's sign
    is (-1)^k that of p~_k.

    Past X = _X_FAR, beyond every zero z_i of p~_k, the recurrence runs at X
    and ln|p~_k| goes on as k ln(x/X): the rest, sum_i ln((1 - z_i/x) /
    (1 - z_i/X)), is below k z_k/X.  Only the entropic tail at tiny q reaches
    such x, where a step of the recurrence would overflow."""
    k = state.k
    q, s = laguerre_orthonormal(k, 2 * state.l + state.D - 2, np.minimum(x, _X_FAR))
    log_amp = _log_amplitude(state, Space.POSITION)
    with np.errstate(divide="ignore"):  # 0 * log 0 would be nan: l log x enters only for l > 0
        log_r = log_amp - x / 2 + np.log(np.abs(q)) + s + (state.l * np.log(x) if state.l else 0)
    if k:
        log_r += k * np.log(np.maximum(x, _X_FAR) / _X_FAR)
    return (-np.sign(q) if k & 1 else np.sign(q)), log_r


def _real_points(v, what: str) -> np.ndarray:
    """v as a float array: UnsupportedArgument for a value that is not a
    real number, a bool or nan included.  An int or Fraction is compared
    with the double range before float() could overflow."""
    a = np.asarray(v)
    real = a.dtype.kind in "iuf" or a.dtype.kind == "O" and all(
        isinstance(e, float) or isinstance(e, Real) and not isinstance(e, bool) and abs(e) <= sys.float_info.max
        for e in a.flat
    )
    if not real:
        raise UnsupportedArgument(f"{what} must be real numbers in the double range, got {reprlib.repr(v)}")
    a = a.astype(float)
    if np.isnan(a).any():
        raise UnsupportedArgument(f"{what} must not be nan")
    return a


def _signed_exp(sign, log_v):
    """sign e^log_v, 0 where it underflows; exp_sum raises FloatOverflow past the range."""
    top = float(np.max(log_v, initial=-np.inf))
    if top > 0:
        exp_sum([top])
    return sign * np.exp(log_v)


def radial_position(state: HydrogenicState, r):
    """Radial position wavefunction R_{n,l}(r) = K (2Zr/eta)^l e^(-Zr/eta)
    L_k^(2L+1)(2Zr/eta), with the sign of L_k, so R_{n,0}(0) > 0, and with
    x = 2Zr/eta formed from ln r and the position scale's logs.

    The values carry no error bound.  The Laguerre recurrence drifts with k:
    at 3D nS n = 200,000, |R(0)| is 3e-9 relative off 2 n^(-3/2)."""
    r = _real_points(r, "a radius")
    if (r < 0).any():
        raise UnsupportedArgument("a radius must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):  # x = 0 at r = 0, inf past the range
        x = np.exp(np.log(r) - math.fsum(state.scale_logs(1, Space.POSITION)))
    return _signed_exp(*_log_radial(state, np.minimum(x, _X_FAR)))


def radial_momentum(state: HydrogenicState, p):
    """Radial momentum wavefunction M_{n,l}(p).  Its factors are summed as logs
    and exponentiated once, so at large l it underflows only where M does.
    t = eta p / Z enters only as ln t, from ln p and the momentum scale's
    logs, and y = (1 - t^2) / (1 + t^2) = -tanh(ln t).

    The values carry no error bound.  The Gegenbauer recurrence drifts with
    k, most near y = 1: at 3D nS n = 200,000, |M(0)| is 1.7e-7 relative off
    sqrt(32/pi) n^(5/2)."""
    p = _real_points(p, "a momentum")
    nu, l = state.two_nu / 2, state.l
    log_amp = _log_amplitude(state, Space.MOMENTUM)
    with np.errstate(divide="ignore"):  # y = 1 at p = 0; 0 * ln 0 would be nan, so l ln t only for l > 0
        # ln t is clipped at 2^64, where M < e^(log_amp - 2^64) underflows, so p = +-inf gives 0
        log_t = np.minimum(np.log(np.abs(p)) + math.fsum(state.scale_logs(-1, Space.MOMENTUM)), _X_FAR)
        q, s = gegenbauer_orthonormal(state.k, nu, -np.tanh(log_t))
        log_m = log_amp - (l + (state.D + 1) / 2) * np.logaddexp(0.0, 2 * log_t) + np.log(np.abs(q)) + s \
            + (l * log_t if l else 0)
    return _signed_exp(np.sign(q) * np.sign(p) ** l, log_m)


def solid_angle(D: int) -> ExactValue:
    """Surface of the unit (D-1)-sphere: 2 pi^(D/2) / Gamma(D/2)."""
    D = make_state(D, 1, 0, 1.0).D  # checked as a state's D is
    num, den, two_pi = gamma_ratio_doubled((), (D,))
    return ExactValue.reduced(Fraction(2 * num, den), D + two_pi)


def entropic_moment(state: HydrogenicState, q: float) -> float:
    """W_q = Omega_D^(1-q) * integral |R|^(2q) r^(D-1) dr of an s state.  In x = 2Zr/eta,
    a Gauss-Jacobi rule on each panel between 0 and the zeros of R takes the factors
    x^(D-1) and |x - z|^(2q) at its ends as weight, and a Gauss-Laguerre rule in
    x = z_k + t/q the tail.  Raises QuadratureFailure if m and m+8 nodes differ by 1e-10."""
    if state.l:
        raise NotSWave(f"entropic moments implemented for l = 0, got l={state.l}")
    if isinstance(q, bool) or not isinstance(q, Real):
        raise UnsupportedArgument(f"entropic order q must be a real number and not a bool, got {q!r}")
    if not 0 < q < math.inf:
        raise NonpositiveParameters(f"entropic order q must be positive and finite, got {q}")
    q, D, k = float(q), state.D, state.k
    ends = np.concatenate(([0.0], _laguerre_nodes(*_laguerre_recurrence(k, D - 2)) if k else []))
    # [0, z_1] from k = 1 and [z_j, z_j+1] from k = 2: an empty panel would still build a rule
    panels = ((ends[:1], ends[1:2], D - 1), (ends[1:-1], ends[2:], 2 * q))[:min(k, 2)]
    c = 2 * q if k else D - 1  # the tail's factor at its left end

    def run(m):
        """ln of the integral over x by m-node rules, their weights kept as logs:
        mu0 of the rule on [0, z_1] leaves the double range from D of about 1,050."""
        t, log_w = gauss_laguerre(m, c)
        xs, logs = [ends[-1] + t / q], [log_w - c * np.log(t) + t - math.log(q)]
        for left, right, b in panels:
            t, log_w = gauss_jacobi(m, 2 * q, b)
            h = (right - left)[:, None] / 2
            xs.append((left[:, None] + h * (1 + t)).ravel())
            logs.append((np.log(h) + log_w - 2 * q * np.log1p(-t) - b * np.log1p(t)).ravel())
        x, lv = np.concatenate(xs), np.concatenate(logs)
        lv += 2 * q * _log_radial(state, x)[1] + (D - 1) * np.log(x)
        return lv.max() + math.log(np.exp(lv - lv.max()).sum())

    # in Python floats, which reach inf rather than warn past the double range;
    # any width past 2^62 is far past the budget, and both runs are priced
    # before either builds a rule
    width = q * float(np.diff(ends).max(initial=0.0)) / 2
    m = 20 + int(min(width, 2.0 ** 62))
    _require_jacobi(m + 8, "a smaller q")
    log_int, log_int2 = run(m), run(m + 8)
    if abs(log_int - log_int2) > 1e-10:
        raise QuadratureFailure(f"W_{q:g} rules of {m} and {m + 8} nodes differ by {abs(log_int - log_int2):.2g}")
    return exp_sum([*((1 - q) * t for t in solid_angle_logs(D)), *state.scale_logs(D, Space.POSITION), log_int2])[0]
