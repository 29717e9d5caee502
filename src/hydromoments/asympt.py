"""Asymptotic estimators for extreme regimes.

Rydberg (n -> infinity) and high-dimensional (D -> infinity) limits of the
radial moments.  Estimates are returned unconditionally; accuracy claims
(the empirical convergence orders) live in the test suite only.

The high-D corrected forms are resummed so their remainder is genuinely
O(1/D^2): the printed first-order factors are regrouped around eta and nu
instead of D, which absorbs the stray O(1/D) cross terms.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import FloatOverflow, FloatUnderflow, OrderOutOfRegime, UnsupportedArgument
from .specfun import EULER_GAMMA, log_gamma
from .states import HydrogenicState, Space


class Regime(enum.Enum):
    RYDBERG = "rydberg"
    HIGHD = "highd"


@dataclass(frozen=True)
class AsymptoticEstimate:
    leading: float
    corrected: float  # equals leading when no correction term is known
    regime: Regime
    constraints: str


def _power(x: float, a: float) -> float:
    """x ** a, raising FloatOverflow above the double range and FloatUnderflow
    where a nonzero base's power falls below the smallest normal double."""
    try:
        value = x ** a
    except OverflowError:
        raise FloatOverflow(f"{x:.6g} ** {a:.6g} exceeds the double range") from None
    if x and abs(value) < sys.float_info.min:
        raise FloatUnderflow(f"{x:.6g} ** {a:.6g} is below the double range")
    return value


def gamma_ratio_asym(x: float, a: float, b: float) -> float:
    """Two-term large-x estimate of Gamma(x+a)/Gamma(x+b)."""
    return x ** (a - b) * (1 + (a - b) * (a + b - 1) / (2 * x))


def rydberg_r(state: HydrogenicState, alpha: float) -> AsymptoticEstimate:
    """Leading n -> infinity form of <r^alpha> at fixed l, D."""
    alpha = float(alpha)
    eta = float(state.eta)
    L = float(state.L)
    if alpha > -1.5:
        value = _power(eta * eta / state.Z, alpha) * math.exp(
            (alpha + 1) * math.log(2.0)
            + log_gamma(alpha + 1.5)
            - 0.5 * math.log(math.pi)
            - log_gamma(alpha + 2)
        )
        return AsymptoticEstimate(value, value, Regime.RYDBERG, "alpha > -3/2")
    beta = -alpha
    if not 1.5 < beta < 2 * L + 3:
        raise OrderOutOfRegime(
            f"negative-branch order needs 3/2 < {beta} < 2L+3 = {2 * L + 3}"
        )
    value = (
        _power(state.Z, beta)
        / eta ** 3
        * math.exp(
            log_gamma(2 * L - beta + 3)
            - log_gamma(2 * L + beta)
            + (3 * beta - 5) * math.log(2.0)
            + log_gamma(beta - 1.5)
            - 0.5 * math.log(math.pi)
            - log_gamma(beta - 1)
        )
    )
    return AsymptoticEstimate(value, value, Regime.RYDBERG, "3/2 < -alpha < 2L+3")


def rydberg_p(state: HydrogenicState, alpha: float) -> AsymptoticEstimate:
    """Leading n -> infinity form of <p^alpha>, valid only on -1 < alpha < 3."""
    alpha = float(alpha)
    if not -1 < alpha < 3:
        raise OrderOutOfRegime(f"Rydberg momentum order must lie in (-1, 3), got {alpha}")
    value = (state.Z / state.n) ** alpha * (2 / math.pi) * math.exp(
        log_gamma((alpha + 1) / 2) + log_gamma((3 - alpha) / 2)
    )
    return AsymptoticEstimate(value, value, Regime.RYDBERG, "-1 < alpha < 3")


def rydberg_circular_p(state: HydrogenicState, alpha: float) -> AsymptoticEstimate:
    """Rydberg circular-state <p^alpha> (D=3 form), with 1/n correction."""
    alpha = float(alpha)
    n = state.n
    leading = (state.Z / n) ** alpha
    corrected = leading * (1 + alpha * (alpha - 2) / (4 * n))
    return AsymptoticEstimate(leading, corrected, Regime.RYDBERG, "circular, n large")


def rydberg_inverse_p(n: int, Z: float, family: str) -> AsymptoticEstimate:
    """Large-n <p^{-1}> for 3D circular or nS states.  The printed nS
    expression omits Z; the 1/Z prefactor is restored to keep the exact
    scaling."""
    if family == "circular":
        leading = n / Z
        corrected = leading * (1 + 3 / (4 * n))
        return AsymptoticEstimate(leading, corrected, Regime.RYDBERG, "circular, D=3")
    if family == "nS":
        base = 4 * n / (math.pi * Z)
        leading = base * (math.log(4 * n) + EULER_GAMMA - 0.5)
        # the only next-order term the exact values support is -1/(12 n^2)
        corrected = base * (math.log(4 * n) + EULER_GAMMA - 0.5 - 1 / (12 * n * n))
        return AsymptoticEstimate(leading, corrected, Regime.RYDBERG, "l=0, D=3")
    raise UnsupportedArgument(f"family must be 'circular' or 'nS', got {family!r}")


def highD(state: HydrogenicState, alpha: float, space: Space) -> AsymptoticEstimate:
    """D -> infinity estimates at fixed (n, l).  Leading values are the
    characteristic moments (D^2/4Z)^alpha and (2Z/D)^alpha."""
    alpha = float(alpha)
    D, n, l = state.D, state.n, state.l
    if not alpha > -D - 2 * l:
        raise OrderOutOfRegime(f"order {alpha} must exceed {-D - 2 * l}")
    if space is Space.MOMENTUM:
        leading = _power(2 * state.Z / D, alpha)
        eta = float(state.eta)
        nu = float(state.nu)
        corrected = _power(state.Z / eta, alpha) * (
            1 + alpha * (alpha - 2) * (2 * n - 2 * l - 1) / (4 * nu)
        )
        return AsymptoticEstimate(leading, corrected, Regime.HIGHD, f"alpha > {-D - 2 * l}")
    leading = _power(D * D / (4 * state.Z), alpha)
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
    corrected = (
        _power(eta, alpha - 1)
        * _power((M + alpha / 2) / 2, alpha + 1)
        / _power(state.Z, alpha)
        * series
    )
    return AsymptoticEstimate(leading, corrected, Regime.HIGHD, f"alpha > {-D - 2 * l}")
