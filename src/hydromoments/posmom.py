"""Position expectation values <r^alpha>.

Two routes: the general terminating-3F2 formula (valid for any real order
above -D-2l) and the tabulated closed forms for alpha in
{1, 2, -1, -2, -3, -4, -6}.  Integer orders evaluate exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CancellationOverflow, OrderOutOfDomain, SingularDenominator, UnsupportedArgument
from .specfun import (
    ExactValue,
    HypSumSpec,
    exp_sum,
    gamma_ratio_exact,
    hyp_sum,
    is_integral,
    log_gamma,
    pochhammer,
)
from .states import HydrogenicState, MomentOrder, Space, check_order, make_state


# Relative error-bound threshold above which float routes defer to quadrature.
CANCELLATION_LIMIT = 2e-11


class Method(enum.Enum):
    HYP3F2 = "hyp3f2"
    HYP5F4 = "hyp5f4"
    SINGLE_SUM = "single_sum"
    DOUBLE_SUM = "double_sum"
    CLOSED_FORM = "closed_form"
    REFLECTION = "reflection"
    QUADRATURE = "quadrature"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class MomentResult:
    value: ExactValue | float
    error_estimate: float
    method: Method
    space: Space
    alpha: float
    state: HydrogenicState

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, ExactValue)

    def as_float(self) -> float:
        if isinstance(self.value, ExactValue):
            return self.value.to_float()
        return self.value


def resolve_mode(alpha, mode: str) -> str:
    """The evaluation mode, "exact" or "float", for a mode argument of
    "auto", "exact" or "float".  "auto" picks exact for integer orders;
    exact needs an integer order."""
    if mode == "auto":
        return "exact" if is_integral(alpha) else "float"
    if mode not in ("exact", "float"):
        raise UnsupportedArgument(f"mode must be 'auto', 'exact' or 'float', got {mode!r}")
    if mode == "exact" and not is_integral(alpha):
        raise UnsupportedArgument(f"exact mode needs an integer order, got {alpha!r}")
    return mode


def _require_position_order(state: HydrogenicState, alpha: float):
    if not check_order(state, MomentOrder(alpha, Space.POSITION)):
        raise OrderOutOfDomain(
            f"position order {alpha} outside "
            f"({state.position_lower_bound()}, inf) for D={state.D}, l={state.l}"
        )


def r_moment(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """<r^alpha> via the hypergeometric-3F2 formula."""
    _require_position_order(state, float(alpha))
    mode = resolve_mode(alpha, mode)
    k = state.k
    L = state.L
    eta = state.eta

    if mode == "exact":
        a = int(round(float(alpha)))
        # Gamma(2L+a+3)/Gamma(2L+2) as a Pochhammer symbol of |a+1| factors;
        # 2L+2 = 2l+D-1 is an integer and the order check keeps 2L+a+3 >= 1
        if a >= -1:
            ratio = pochhammer(2 * L + 2, a + 1)
        else:
            ratio = 1 / pochhammer(2 * L + a + 3, -a - 1)
        pref = ExactValue(eta ** (a - 1) / (Fraction(2) ** (a + 1) * state.Z_exact ** a) * ratio)
        spec = HypSumSpec(
            top=(-k, Fraction(-a - 1), Fraction(a + 2)),
            bottom=(2 * L + 2, Fraction(1)),
            terms=k + 1,
        )
        value = pref * hyp_sum(spec, "exact")
        return MomentResult(value, 0.0, Method.HYP3F2, Space.POSITION, float(alpha), state)

    alpha = float(alpha)
    pref, pref_rel = exp_sum([
        (alpha - 1) * math.log(float(eta)),
        -(alpha + 1) * math.log(2.0),
        -alpha * math.log(state.Z),
        log_gamma(float(2 * L) + alpha + 3),
        -log_gamma(float(2 * L + 2)),
    ])
    spec = HypSumSpec(
        top=(-k, -alpha - 1, alpha + 2),
        bottom=(float(2 * L + 2), 1.0),
        terms=k + 1,
    )
    try:
        s, bound = hyp_sum(spec, "float")
        value = pref * s
        err = pref * bound + (pref_rel + 4 * 2.0 ** -52) * abs(value)
    except CancellationOverflow:
        value, err = math.nan, math.inf
    if err > CANCELLATION_LIMIT * abs(value) or value <= 0 or not math.isfinite(value):
        from . import oracle

        return oracle.quad_r_moment(state, alpha)
    return MomentResult(value, err, Method.HYP3F2, Space.POSITION, alpha, state)


_CLOSED_ALPHAS = (1, 2, -1, -2, -3, -4, -6)


def r_moment_closed(state: HydrogenicState, alpha: int) -> MomentResult:
    """Tabulated exact closed forms for alpha in {1, 2, -1, -2, -3, -4, -6}."""
    if alpha not in _CLOSED_ALPHAS:
        raise OrderOutOfDomain(f"no closed form for position order {alpha}")
    _require_position_order(state, alpha)
    eta = state.eta
    L = state.L
    Z = state.Z_exact
    half = Fraction(1, 2)

    if alpha == 1:
        coeff = (3 * eta ** 2 - L * (L + 1)) / (2 * Z)
    elif alpha == 2:
        coeff = eta ** 2 * (5 * eta ** 2 + 1 - 3 * L * (L + 1)) / (2 * Z ** 2)
    elif alpha == -1:
        coeff = Z / eta ** 2
    elif alpha == -2:
        coeff = _over(Z ** 2 / eta ** 3, (L + half,))
    elif alpha == -3:
        coeff = _over(Z ** 3 / eta ** 3, (L, L + half, L + 1))
    elif alpha == -4:
        coeff = _over(
            Z ** 4 * (3 * eta ** 2 - L * (L + 1)) / (2 * eta ** 5),
            (L - half, L, L + half, L + 1, L + Fraction(3, 2)),
        )
    else:  # alpha == -6
        num = (
            35 * eta ** 2 * (eta ** 2 - 1)
            - 30 * eta ** 2 * (L + 2) * (L - 1)
            + 3 * (L + 2) * (L + 1) * L * (L - 1)
        )
        coeff = _over(
            Z ** 6 * num / (8 * eta ** 7),
            (
                L - Fraction(3, 2), L - 1, L - half, L,
                L + half, L + 1, L + Fraction(3, 2), L + 2, L + Fraction(5, 2),
            ),
        )
    return MomentResult(
        ExactValue(coeff), 0.0, Method.CLOSED_FORM, Space.POSITION, float(alpha), state
    )


def _over(numerator: Fraction, factors) -> Fraction:
    for f in factors:
        if f == 0:
            raise SingularDenominator(f"denominator factor {f} vanishes")
        numerator /= f
    return numerator


def r_moment_ground(D: int, Z: float, alpha, mode: str = "auto") -> MomentResult:
    """Ground-state <r^alpha> = ((D-1)/4Z)^alpha Gamma(D+alpha)/Gamma(D)."""
    state = make_state(D, 1, 0, Z)
    if not float(alpha) > -D:
        raise OrderOutOfDomain(f"ground-state position order must exceed {-D}")
    if resolve_mode(alpha, mode) == "exact":
        a = int(round(float(alpha)))
        scale = Fraction(D - 1, 4) / state.Z_exact
        value = ExactValue(scale ** a) * gamma_ratio_exact(D + a, D)
        return MomentResult(value, 0.0, Method.CLOSED_FORM, Space.POSITION, float(alpha), state)
    alpha = float(alpha)
    value, rel = exp_sum([
        alpha * math.log(D - 1), -alpha * math.log(4.0 * Z), log_gamma(D + alpha), -log_gamma(D)
    ])
    return MomentResult(
        value, (rel + 8 * 2.0 ** -52) * value, Method.CLOSED_FORM, Space.POSITION, alpha, state
    )
