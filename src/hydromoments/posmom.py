"""Position expectation values <r^alpha>.

Two routes: the general terminating-3F2 formula (valid for any real order
above -D-2l) and the tabulated closed forms for alpha in
{1, 2, -1, -2, -3, -4, -6}.  Integer orders evaluate exactly.  The scale
(eta/2Z)^alpha comes from `HydrogenicState`; `series_or_quadrature`, the one
fallback rule of both spaces, applies it to every float series.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OrderOutOfDomain, UnsupportedArgument
from .specfun import (
    ExactValue,
    HypSumSpec,
    exp_sum,
    gamma_ratio_doubled,
    hyp_sum,
    is_integral,
    log_gamma,
    pochhammer,
)
from .states import HydrogenicState, Space, make_state, require_order


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
    exact needs an integer order.  A bool is not an order."""
    if isinstance(alpha, bool):
        raise UnsupportedArgument(f"a bool is not an order, got {alpha!r}")
    if mode == "auto":
        return "exact" if is_integral(alpha) else "float"
    if mode not in ("exact", "float"):
        raise UnsupportedArgument(f"mode must be 'auto', 'exact' or 'float', got {mode!r}")
    if mode == "exact" and not is_integral(alpha):
        raise UnsupportedArgument(f"exact mode needs an integer order, got {alpha!r}")
    return mode


def series_or_quadrature(
    evaluate, state: HydrogenicState, alpha: float, method: Method, space: Space
) -> MomentResult:
    """The float series `evaluate(state, alpha) -> (logs, s, bound)`, with
    the log terms of its Z-free prefactor, its sum in their units and an
    absolute bound on that sum, times the space's scale at alpha, as
    exp(sum(logs) + scale logs + ln s) from one `exp_sum` with error
    (bound/s + exp_sum's rel) * value.  The one fallback rule: the quadrature
    oracle answers iff s is not positive (nan if a term overflowed) or bound
    exceeds CANCELLATION_LIMIT * s.  FloatOverflow and FloatUnderflow come
    only from that exp_sum, so they mean the moment itself, and propagate."""
    logs, s, bound = evaluate(state, alpha)
    if not (s > 0 and bound <= CANCELLATION_LIMIT * s):
        from . import oracle  # oracle imports this module

        if space is Space.POSITION:
            return oracle.quad_r_moment(state, alpha)
        return oracle.quad_p_moment(state, alpha)
    value, rel = exp_sum([*logs, *state.scale_logs(alpha, space), math.log(s)])
    return MomentResult(value, (bound / s + rel) * value, method, space, alpha, state)


def _r_series_float(state: HydrogenicState, alpha: float) -> tuple[list[float], float, float]:
    """The float 3F2 series of <r^alpha> as (logs of its prefactor without
    (eta/2Z)^alpha, sum, bound)."""
    k, t = state.k, state.two_nu  # 2L+2, read without building the Fraction L
    logs = [
        -math.log(state.two_eta),  # 1/(2 eta)
        log_gamma((t + 1) + alpha),  # 2L+alpha+3, rounded once
        -log_gamma(float(t)),
    ]
    spec = HypSumSpec(
        top=(-k, -alpha - 1, alpha + 2),
        bottom=(float(t), 1.0),
        terms=k + 1,
    )
    s, bound = hyp_sum(spec, "float")
    return logs, s, bound + 4 * 2.0 ** -52 * abs(s)


def r_moment(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """<r^alpha> via the hypergeometric-3F2 formula."""
    alpha_f = require_order(state, alpha, Space.POSITION)
    mode = resolve_mode(alpha, mode)

    if mode == "exact":
        a = int(round(alpha_f))
        k = state.k
        t = state.two_nu  # 2L+2, an integer
        # Gamma(2L+a+3)/Gamma(2L+2) as a Pochhammer symbol of |a+1| factors;
        # the order check keeps 2L+a+3 >= 1
        if a >= -1:
            ratio = pochhammer(t, a + 1)
            num, den = ratio.numerator, ratio.denominator
        else:
            ratio = pochhammer(t + a + 1, -a - 1)
            num, den = ratio.denominator, ratio.numerator
        spec = HypSumSpec(top=(-k, -a - 1, a + 2), bottom=(t, 1), terms=k + 1)
        series = hyp_sum(spec, "exact").coeff
        # eta^(a-1) / (2^(a+1) Z^a) = (eta/2Z)^a / (2eta)
        sn, sd = state.scale(a, Space.POSITION)
        value = ExactValue(Fraction(num * series.numerator * sn, den * series.denominator * sd * state.two_eta))
        return MomentResult(value, 0.0, Method.HYP3F2, Space.POSITION, alpha_f, state)

    return series_or_quadrature(_r_series_float, state, alpha_f, Method.HYP3F2, Space.POSITION)


_CLOSED_ALPHAS = (1, 2, -1, -2, -3, -4, -6)


def r_moment_closed(state: HydrogenicState, alpha: int) -> MomentResult:
    """Tabulated exact closed forms for alpha in {1, 2, -1, -2, -3, -4, -6}."""
    if alpha not in _CLOSED_ALPHAS:
        raise OrderOutOfDomain(f"no closed form for position order {alpha}")
    require_order(state, alpha, Space.POSITION)
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
        coeff = Z ** 2 / eta ** 3 / (L + half)
    elif alpha == -3:
        coeff = Z ** 3 / eta ** 3 / (L * (L + half) * (L + 1))
    elif alpha == -4:
        coeff = (
            Z ** 4 * (3 * eta ** 2 - L * (L + 1)) / (2 * eta ** 5)
            / ((L - half) * L * (L + half) * (L + 1) * (L + Fraction(3, 2)))
        )
    else:  # alpha == -6
        num = (
            35 * eta ** 2 * (eta ** 2 - 1)
            - 30 * eta ** 2 * (L + 2) * (L - 1)
            + 3 * (L + 2) * (L + 1) * L * (L - 1)
        )
        # over (L - 3/2)(L - 1) ... (L + 5/2), nine factors in steps of 1/2
        coeff = Z ** 6 * num / (8 * eta ** 7) / math.prod(L + Fraction(j, 2) for j in range(-3, 6))
    return MomentResult(
        ExactValue(coeff), 0.0, Method.CLOSED_FORM, Space.POSITION, float(alpha), state
    )


def r_moment_ground(D: int, Z: float, alpha, mode: str = "auto") -> MomentResult:
    """Ground-state <r^alpha> = ((D-1)/4Z)^alpha Gamma(D+alpha)/Gamma(D); (D-1)/4Z = eta/2Z."""
    state = make_state(D, 1, 0, Z)
    alpha_f = require_order(state, alpha, Space.POSITION)
    if resolve_mode(alpha, mode) == "exact":
        a = int(round(alpha_f))
        sn, sd = state.scale(a, Space.POSITION)
        num, den, _ = gamma_ratio_doubled((2 * (D + a),), (2 * D,))  # the order check keeps D+a >= 1
        value = ExactValue(Fraction(sn * num, sd * den))
        return MomentResult(value, 0.0, Method.CLOSED_FORM, Space.POSITION, alpha_f, state)
    value, rel = exp_sum([*state.scale_logs(alpha_f, Space.POSITION), log_gamma(D + alpha_f), -log_gamma(D)])
    return MomentResult(
        value, (rel + 8 * 2.0 ** -52) * value, Method.CLOSED_FORM, Space.POSITION, alpha_f, state
    )
