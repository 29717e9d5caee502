"""Position expectation values <r^alpha>.

Two routes: the general terminating-3F2 formula (valid for any real order
above -D-2l) and the tabulated closed forms for alpha in
{1, 2, -1, -2, -3, -4, -6}.  Integer orders evaluate exactly; real orders
sum the 3F2 in compensated floating point (`specfun.hyp_sum`); at an integer
order a both sum only its min(k, a+1)+1 (a >= -1) or min(k, -a-2)+1 nonzero
terms, the length `specfun.HypSumSpec` reads off its parameters.  The scale
(eta/2Z)^alpha comes from `HydrogenicState`.  `exact` builds every generic
exact result of both spaces from unreduced Z-free integers, applying the
scale and reducing once; `rounded`, its float twin, builds every float
result of both spaces under `specfun.exp_sum`'s one error model, and
`series_or_quadrature`, the one fallback rule, hands it every float series:
the 3F2 here, and the momentum series, whose single sum runs in 128-bit
fixed point and reports an infinite bound where its cancellation exceeds
CANCELLATION_LIMIT.  An exact position moment states its cost, the rising
product, the scale's power and the series, to `specfun.require_cost`
before it builds them, and raises ExactTooLarge past the one budget.
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
    require_cost,
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


def rounded(
    logs, s: float, bound: float, method: Method, space: Space, alpha: float, state: HydrogenicState
) -> MomentResult:
    """The one assembler of every float series, closed form and quadrature:
    exp(sum(logs) + the scale's logs at alpha + ln s) from one `exp_sum`,
    with error (bound/s + its rel) * value, for the logs of a Z-free
    prefactor, a sum s > 0 in its units and an absolute bound on s before it
    was rounded.  Range errors come only from that exp_sum."""
    value, rel = exp_sum([*logs, *state.scale_logs(alpha, space), math.log(s)])
    return MomentResult(value, (bound / s + rel) * value, method, space, alpha, state)


def exact(
    num: int, den: int, two_pi: int, method: Method, space: Space, a: int, state: HydrogenicState
) -> MomentResult:
    """The one assembler of every generic exact moment, `rounded`'s twin:
    num/den * pi^(two_pi/2) times the space's scale at the integer order a,
    for the unreduced integers of a Z-free prefactor and sum, reduced once
    into one Fraction, from which the ExactValue is built without a second
    coercion."""
    sn, sd = state.scale(a, space)
    value = ExactValue.reduced(Fraction(num * sn, den * sd), two_pi)
    return MomentResult(value, 0.0, method, space, float(a), state)


def series_or_quadrature(
    evaluate, state: HydrogenicState, alpha: float, method: Method, space: Space
) -> MomentResult:
    """The float series `evaluate(state, alpha) -> (logs, s, bound)`, with
    the log terms of its Z-free prefactor, its sum in their units and an
    absolute bound on that sum, times the space's scale at alpha, as
    `rounded` assembles it.  The one fallback rule: the quadrature oracle
    answers iff s is not positive (nan if a term overflowed) or bound exceeds
    CANCELLATION_LIMIT * s.  A range error therefore never triggers it."""
    logs, s, bound = evaluate(state, alpha)
    if not (s > 0 and bound <= CANCELLATION_LIMIT * s):
        from . import oracle  # oracle imports this module

        if space is Space.POSITION:
            return oracle.quad_r_moment(state, alpha)
        return oracle.quad_p_moment(state, alpha)
    return rounded(logs, s, bound, method, space, alpha, state)


def _r_series_float(state: HydrogenicState, alpha: float) -> tuple[list[float], float, float]:
    """The float 3F2 series of <r^alpha> as (logs of its prefactor without
    (eta/2Z)^alpha, sum, the sum's bound from `hyp_sum`)."""
    k, t = state.k, state.two_nu  # 2L+2, read without building the Fraction L
    logs = [
        -math.log(state.two_eta),  # 1/(2 eta)
        log_gamma((t + 1) + alpha),  # 2L+alpha+3, rounded once
        -log_gamma(float(t)),
    ]
    spec = HypSumSpec(top=(-2 * k, -2 * alpha - 2, 2 * alpha + 4), bottom=(2 * t, 2))
    s, bound = hyp_sum(spec, "float")
    return logs, s, bound


def _r_series_exact(state: HydrogenicState, a: int) -> tuple[int, int, int]:
    """<r^a> without (eta/2Z)^a: Gamma(2L+a+3) / (2eta Gamma(2L+2)) times the
    exact 3F2 series, as an unreduced (numerator, denominator, twice the pi
    power).  ExactTooLarge comes before any order-driven factor is built."""
    k, t = state.k, state.two_nu  # 2L+2, an integer
    spec = HypSumSpec(top=(-2 * k, -2 * a - 2, 2 * a + 4), bottom=(2 * t, 2))
    # the rising product's |a+1| factors (mean below t + a/2 + 1/2), the scale's
    # power and the series (each step takes five factors below m, j+1 and 2)
    f, m = abs(a + 1), max(2 * k, 2 * abs(a) + 4, 2 * t) + 2 * spec.terms
    bits = f * ((2 * t + a).bit_length() - 1) + 1 + state.scale_bits(a)
    bits += spec.terms * (5 * m.bit_length() + spec.terms.bit_length() + 1)
    require_cost(bits, 6 * f + 16 * spec.terms + 11 * (bits >> 6), 'mode="float"')
    # Gamma(2L+a+3)/Gamma(2L+2) as a Pochhammer symbol of |a+1| factors;
    # the order check keeps 2L+a+3 >= 1
    if a >= -1:
        ratio = pochhammer(t, a + 1)
        num, den = ratio.numerator, ratio.denominator
    else:
        ratio = pochhammer(t + a + 1, -a - 1)
        num, den = ratio.denominator, ratio.numerator
    s_num, s_den = hyp_sum(spec, "exact")
    return num * s_num, den * s_den * state.two_eta, 0


def r_moment(state: HydrogenicState, alpha, mode: str = "auto") -> MomentResult:
    """<r^alpha> via the hypergeometric-3F2 formula.  An exact order whose
    cost would pass `specfun.COST_BUDGET` raises ExactTooLarge."""
    alpha_f = require_order(state, alpha, Space.POSITION)
    if resolve_mode(alpha, mode) == "exact":
        a = int(round(alpha_f))
        return exact(*_r_series_exact(state, a), Method.HYP3F2, Space.POSITION, a, state)
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
    D = state.D  # an int, whatever Integral D was given as
    alpha_f = require_order(state, alpha, Space.POSITION)
    if resolve_mode(alpha, mode) == "exact":
        a = int(round(alpha_f))
        # the rising product's |a| doubled factors, of mean below 2D+a and each
        # with a 2 below it, and the scale's power; the order check keeps D+a >= 1
        bits = abs(a) * (4 * D + 2 * a).bit_length() + state.scale_bits(a)
        require_cost(bits, 6 * abs(a) + 11 * (bits >> 6), 'mode="float"')
        ratio = gamma_ratio_doubled((2 * (D + a),), (2 * D,))
        return exact(*ratio, Method.CLOSED_FORM, Space.POSITION, a, state)
    logs = [log_gamma(D + alpha_f), -log_gamma(D)]
    return rounded(logs, 1.0, 0.0, Method.CLOSED_FORM, Space.POSITION, alpha_f, state)
