"""Asymptotic estimators for extreme regimes.

Rydberg (n -> infinity) and high-dimensional (D -> infinity) limits of the
radial moments.  Every order passes `states.require_order`, so estimates are
returned only where the moment converges: an order it rejects is re-raised
as OrderOutOfRegime, an OrderOutOfDomain, and a bool or a non-real order
raises UnsupportedArgument.  Accuracy claims (the empirical convergence
orders) live in the test suite only.  Each
estimate is exponentiated from its logarithms by `specfun.exp_sum`, so one
outside the double range raises FloatOverflow or FloatUnderflow, and values
may differ in their last digits from the same power taken directly.

The high-D corrected forms are resummed so their remainder is genuinely
O(1/D^2): the printed first-order factors are regrouped around eta and nu
instead of D, which absorbs the stray O(1/D) cross terms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NotCircular, OrderOutOfDomain, OrderOutOfRegime, UnsupportedArgument
from .specfun import EULER_GAMMA, exp_sum, log_gamma
from .states import HydrogenicState, Space, make_state, require_order


class Regime(enum.Enum):
    RYDBERG = "rydberg"
    HIGHD = "highd"


@dataclass(frozen=True)
class AsymptoticEstimate:
    leading: float
    corrected: float  # equals leading when no correction term is known
    regime: Regime
    constraints: str


def _exp_times(terms, c: float = 1.0) -> float:
    """c exp(sum(terms)) from one exp_sum over the terms and ln|c|, so it
    raises FloatOverflow or FloatUnderflow outside the double range; 0.0
    when c is 0."""
    if c == 0:
        return 0.0
    return math.copysign(exp_sum([*terms, math.log(abs(c))])[0], c)


def _order(state: HydrogenicState, alpha, space: Space) -> float:
    """`require_order`'s float of alpha, with an order where the moment in
    space diverges re-raised as OrderOutOfRegime."""
    try:
        return require_order(state, alpha, space)
    except OrderOutOfDomain as exc:
        raise OrderOutOfRegime(str(exc)) from None


def gamma_ratio_asym(x: float, a: float, b: float) -> float:
    """Two-term large-x estimate of Gamma(x+a)/Gamma(x+b)."""
    return x ** (a - b) * (1 + (a - b) * (a + b - 1) / (2 * x))


def rydberg_r(state: HydrogenicState, alpha: float) -> AsymptoticEstimate:
    """Leading n -> infinity form of <r^alpha> at fixed l, D."""
    alpha = _order(state, alpha, Space.POSITION)
    eta = float(state.eta)
    L = float(state.L)
    if alpha > -1.5:
        value = _exp_times([
            alpha * (2 * math.log(eta) - math.log(state.Z)),
            (alpha + 1) * math.log(2.0),
            log_gamma(alpha + 1.5),
            -0.5 * math.log(math.pi),
            -log_gamma(alpha + 2),
        ])
        return AsymptoticEstimate(value, value, Regime.RYDBERG, "alpha > -3/2")
    beta = -alpha  # below 2L+3 = D+2l, where the moment converges
    if not beta > 1.5:
        raise OrderOutOfRegime(f"negative-branch order needs -alpha > 3/2, got {beta}")
    value = _exp_times([
        beta * math.log(state.Z),
        -3 * math.log(eta),
        log_gamma(2 * L - beta + 3),
        -log_gamma(2 * L + beta),
        (3 * beta - 5) * math.log(2.0),
        log_gamma(beta - 1.5),
        -0.5 * math.log(math.pi),
        -log_gamma(beta - 1),
    ])
    return AsymptoticEstimate(value, value, Regime.RYDBERG, "3/2 < -alpha < 2L+3")


def rydberg_p(state: HydrogenicState, alpha: float) -> AsymptoticEstimate:
    """Leading n -> infinity form of <p^alpha>, valid only on -1 < alpha < 3."""
    alpha = _order(state, alpha, Space.MOMENTUM)
    if not -1 < alpha < 3:
        raise OrderOutOfRegime(f"Rydberg momentum order must lie in (-1, 3), got {alpha}")
    value = _exp_times([
        alpha * (math.log(state.Z) - math.log(state.n)),
        math.log(2 / math.pi),
        log_gamma((alpha + 1) / 2),
        log_gamma((3 - alpha) / 2),
    ])
    return AsymptoticEstimate(value, value, Regime.RYDBERG, "-1 < alpha < 3")


def rydberg_circular_p(state: HydrogenicState, alpha: float) -> AsymptoticEstimate:
    """Rydberg circular-state <p^alpha> (D=3 form), with 1/n correction."""
    if not state.is_circular:
        raise NotCircular(f"state has l={state.l}, n={state.n}")
    alpha = _order(state, alpha, Space.MOMENTUM)
    n = state.n
    scale = [alpha * (math.log(state.Z) - math.log(n))]
    leading = _exp_times(scale)
    corrected = _exp_times(scale, 1 + alpha * (alpha - 2) / (4 * n))
    return AsymptoticEstimate(leading, corrected, Regime.RYDBERG, "circular, n large")


def rydberg_inverse_p(n: int, Z: float, family: str) -> AsymptoticEstimate:
    """Large-n <p^{-1}> for 3D circular or nS states; n and Z are checked as
    a state's are.  The printed nS expression omits Z; the 1/Z prefactor is
    restored to keep the exact scaling."""
    if family not in ("circular", "nS"):
        raise UnsupportedArgument(f"family must be 'circular' or 'nS', got {family!r}")
    state = make_state(3, n, n - 1 if family == "circular" else 0, Z)
    inverse_z = [-math.log(state.Z)]
    if family == "circular":
        leading = _exp_times(inverse_z, n)
        corrected = _exp_times(inverse_z, n + 0.75)  # (n/Z)(1 + 3/4n)
        return AsymptoticEstimate(leading, corrected, Regime.RYDBERG, "circular, D=3")
    base = [math.log(4 * n / math.pi), *inverse_z]
    leading = _exp_times(base, math.log(4 * n) + EULER_GAMMA - 0.5)
    # the only next-order term the exact values support is -1/(12 n^2)
    corrected = _exp_times(base, math.log(4 * n) + EULER_GAMMA - 0.5 - 1 / (12 * n * n))
    return AsymptoticEstimate(leading, corrected, Regime.RYDBERG, "l=0, D=3")


def highD(state: HydrogenicState, alpha: float, space: Space) -> AsymptoticEstimate:
    """D -> infinity estimates at fixed (n, l).  Leading values are the
    characteristic moments (D^2/4Z)^alpha and (2Z/D)^alpha."""
    alpha = _order(state, alpha, space)
    D, n, l = state.D, state.n, state.l
    if space is Space.MOMENTUM:
        lo, hi = state.momentum_interval()
        leading = _exp_times([alpha * math.log(2.0), alpha * math.log(state.Z), -alpha * math.log(D)])
        eta = float(state.eta)
        nu = float(state.nu)
        corrected = _exp_times(
            [alpha * (math.log(state.Z) - math.log(eta))],
            1 + alpha * (alpha - 2) * (2 * n - 2 * l - 1) / (4 * nu),
        )
        return AsymptoticEstimate(leading, corrected, Regime.HIGHD, f"{lo} < alpha < {hi}")
    leading = _exp_times([2 * alpha * math.log(D), -alpha * math.log(4.0), -alpha * math.log(state.Z)])
    M = D + 2 * l - 1
    k = state.k
    eta = float(state.eta)
    # symmetric-shift base absorbs the first-order gamma-ratio term; the
    # series factor keeps two orders of the terminating hypergeometric tail
    series = (
        1
        + k * (alpha + 1) * (alpha + 2) / M
        + k * (k - 1) * alpha * (alpha + 1) * (alpha + 2) * (alpha + 3)
        / (4 * M * (M + 1))
    )
    corrected = _exp_times(
        [(alpha - 1) * math.log(eta), (alpha + 1) * math.log((M + alpha / 2) / 2), -alpha * math.log(state.Z)],
        series,
    )
    return AsymptoticEstimate(leading, corrected, Regime.HIGHD, f"alpha > {state.position_lower_bound()}")
