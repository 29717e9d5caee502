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

from .errors import CancellationOverflow, FloatUnderflow, OrderOutOfDomain, UnsupportedArgument
from .specfun import (
    ExactValue,
    HypSumSpec,
    exp_sum,
    gamma_ratio_exact,
    hyp_sum,
    is_integral,
    log_gamma,
    pochhammer,
    ratio_power,
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
    """The float series `evaluate(state, alpha) -> (value, err)` as a result,
    or the quadrature oracle's when the series overflows, its bound exceeds
    CANCELLATION_LIMIT relative to its value, its value is not positive and
    finite, or it raises FloatUnderflow: a series prefactor can fall below
    the double range where the moment does not, and the oracle raises
    FloatUnderflow itself where the moment does too.  FloatOverflow
    propagates."""
    try:
        value, err = evaluate(state, alpha)
    except (CancellationOverflow, FloatUnderflow):
        value, err = math.nan, math.inf
    if err > CANCELLATION_LIMIT * abs(value) or value <= 0 or not math.isfinite(value):
        from . import oracle  # oracle imports this module

        if space is Space.POSITION:
            return oracle.quad_r_moment(state, alpha)
        return oracle.quad_p_moment(state, alpha)
    return MomentResult(value, err, method, space, alpha, state)


def _r_series_float(state: HydrogenicState, alpha: float) -> tuple[float, float]:
    """The float 3F2 value of <r^alpha> and its error bound."""
    k, t = state.k, state.two_nu  # 2L+2, read without building the Fraction L
    pref, pref_rel = exp_sum([
        (alpha - 1) * math.log(state.two_eta / 2),
        -(alpha + 1) * math.log(2.0),
        -alpha * math.log(state.Z),
        log_gamma((t + 1) + alpha),  # 2L+alpha+3, rounded once
        -log_gamma(float(t)),
    ])
    spec = HypSumSpec(
        top=(-k, -alpha - 1, alpha + 2),
        bottom=(float(t), 1.0),
        terms=k + 1,
    )
    s, bound = hyp_sum(spec, "float")
    value = pref * s
    return value, pref * bound + (pref_rel + 4 * 2.0 ** -52) * abs(value)


def r_moment(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """<r^alpha> via the hypergeometric-3F2 formula."""
    require_order(state, float(alpha), Space.POSITION)
    mode = resolve_mode(alpha, mode)

    if mode == "exact":
        a = int(round(float(alpha)))
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
        # eta^(a-1) / (2^(a+1) Z^a) = (2eta)^(a-1) / (4 Z)^a, with Z = z_num / z_den
        z_num, z_den = state.Z.as_integer_ratio()
        en, ed = ratio_power(state.two_eta, 1, a - 1)
        zn, zd = ratio_power(z_den, 4 * z_num, a)
        value = ExactValue(Fraction(
            num * series.numerator * en * zn, den * series.denominator * ed * zd
        ))
        return MomentResult(value, 0.0, Method.HYP3F2, Space.POSITION, float(alpha), state)

    return series_or_quadrature(_r_series_float, state, float(alpha), Method.HYP3F2, Space.POSITION)


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
    """Ground-state <r^alpha> = ((D-1)/4Z)^alpha Gamma(D+alpha)/Gamma(D)."""
    state = make_state(D, 1, 0, Z)
    require_order(state, float(alpha), Space.POSITION)
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
