"""Heisenberg-like uncertainty inequality checkers.

Each checker evaluates one position-momentum bound with the library's own
moment routines (and the quadrature oracle for entropic moments) and returns
a structured report.  Rigorous bounds carry satisfied flags meant for hard
assertions; the Daubechies-Thakkar family is semiclassical and its reports
are findings, not guarantees.  Every constant, power and product is one
`specfun.exp_sum` over its logs, so none leaves the double range unreported.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import NonpositiveParameters, OrderOutOfDomain, UnsupportedArgument
from .momom import p_moment
from .posmom import r_moment
from .specfun import exp_sum, is_integral, log_gamma, solid_angle_logs
from .states import HydrogenicState, Space, require_order


class InequalityName(enum.Enum):
    HEISENBERG_GENERAL = "HeisenbergGeneral"
    HEISENBERG_D2_OVER_4 = "HeisenbergD2over4"
    SPHERICAL_L = "SphericalL"
    HEISENBERG_3D = "Heisenberg3D"
    HEISENBERG_3D_AB = "Heisenberg3Dab"
    PITT_BECKNER = "PittBeckner"
    KINETIC_BOUND = "KineticBound"
    DAUBECHIES_THAKKAR = "DaubechiesThakkar"
    DAUBECHIES_THAKKAR_3D = "DaubechiesThakkar3D"
    FERMION_PRODUCT = "FermionProduct"
    FERMION_PRODUCT_3D = "FermionProduct3D"


@dataclass(frozen=True)
class InequalityReport:
    name: InequalityName
    lhs: float
    rhs: float
    ratio: float
    satisfied: bool
    params: dict
    rigorous: bool = True
    siblings: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "name": self.name.value,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "satisfied": self.satisfied,
            "rigorous": self.rigorous,
            "params": {k: str(v) for k, v in self.params.items()},
            "siblings": [s.to_dict() for s in self.siblings],
        }


def _report(name, lhs, rhs, params, orientation_ge=True, rigorous=True, siblings=()):
    satisfied = lhs >= rhs if orientation_ge else lhs <= rhs
    return InequalityReport(
        name=name, lhs=lhs, rhs=rhs, ratio=lhs / rhs, satisfied=satisfied,
        params=params, rigorous=rigorous, siblings=tuple(siblings),
    )


def _exp(terms) -> float:
    """exp(sum(terms)) from one exp_sum."""
    return exp_sum(terms)[0]


def _dim_logs(D: int, c: float) -> list[float]:
    """The log terms of one bracket of the general Heisenberg product: the
    c-dependent dimensional constant e D^{2/c} Gamma(1+D/2)^{2/D} / ((ce)^{2/c}
    Gamma(1+D/c)^{2/D})."""
    return [1.0, 2 / c * (math.log(D) - math.log(c) - 1), 2 / D * (log_gamma(1 + D / 2) - log_gamma(1 + D / c))]


def heisenberg_general(state: HydrogenicState, a: float, b: float) -> InequalityReport:
    """<r^a>^{2/a} <p^b>^{2/b} against the dimensional product bound, with
    the classic D^2/4, (l+D/2)^2 and 3D variants attached as siblings."""
    require_order(state, a, Space.POSITION)
    require_order(state, b, Space.MOMENTUM)
    if a <= 0 or b <= 0:
        raise NonpositiveParameters("both orders must be positive")
    D = state.D
    ra = r_moment(state, a, mode="float").as_float()
    pb = p_moment(state, b, mode="float").as_float()
    log_ra, log_pb = math.log(ra), math.log(pb)
    lhs = _exp([2 / a * log_ra, 2 / b * log_pb])
    rhs = _exp([*_dim_logs(D, a), *_dim_logs(D, b)])
    params = {"state": state, "a": a, "b": b}

    r2 = ra if a == 2 else r_moment(state, 2, mode="float").as_float()
    p2 = pb if b == 2 else p_moment(state, 2, mode="float").as_float()
    r2p2 = _exp([math.log(r2), math.log(p2)])
    sib = [
        _report(InequalityName.HEISENBERG_D2_OVER_4, r2p2, D * D / 4, params),
        _report(InequalityName.SPHERICAL_L, r2p2, (state.l + D / 2) ** 2, params),
    ]
    if D == 3:
        # (pi a b / (16 Gamma(3/a) Gamma(3/b)))^{1/3} (3/a)^{1/a} (3/b)^{1/b} e^{1-1/a-1/b}
        rhs3 = _exp([
            (math.log(math.pi * a * b / 16) - log_gamma(3 / a) - log_gamma(3 / b)) / 3,
            math.log(3 / a) / a, math.log(3 / b) / b, 1 - 1 / a - 1 / b,
        ])
        sib.append(_report(InequalityName.HEISENBERG_3D, _exp([log_ra / a, log_pb / b]), rhs3, params))
        if a == b:
            # ((27 pi / (16 a Gamma(3/a)))^{1/3} (a e/3)^{1-2/a})^a; the 3D
            # ground state violates it for every a < 2 (ratio 0.83 at a = 1),
            # so below a = 2 it is a finding, not a guarantee
            log_c = (math.log(27 * math.pi / (16 * a)) - log_gamma(3 / a)) / 3
            rhs3ab = _exp([a * log_c, (a - 2) * (math.log(a / 3) + 1)])
            sib.append(_report(
                InequalityName.HEISENBERG_3D_AB, _exp([log_ra, log_pb]), rhs3ab, params, rigorous=a >= 2
            ))
    return _report(InequalityName.HEISENBERG_GENERAL, lhs, rhs, params, siblings=sib)


def pitt_beckner(state: HydrogenicState, alpha: float) -> InequalityReport:
    """<p^alpha> >= 2^alpha [Gamma((D+alpha)/4)/Gamma((D-alpha)/4)]^2
    <r^{-alpha}> for 0 <= alpha < D."""
    require_order(state, alpha, Space.MOMENTUM)
    require_order(state, -alpha, Space.POSITION)
    D = state.D
    if not 0 <= alpha < D:
        raise OrderOutOfDomain(f"need 0 <= alpha < D = {D}, got {alpha}")
    pa = p_moment(state, alpha, mode="float").as_float()
    rma = r_moment(state, -alpha, mode="float").as_float()
    rhs = _exp([
        alpha * math.log(2.0),
        2 * (log_gamma((D + alpha) / 4) - log_gamma((D - alpha) / 4)),
        math.log(rma),
    ])
    params = {"state": state, "alpha": alpha}
    sib = []
    if alpha == 2:  # then pa = <p^2> and rma = <r^-2>
        sib.append(
            _report(
                InequalityName.KINETIC_BOUND, pa / 2, (D - 2) ** 2 / 8 * rma, params
            )
        )
    return _report(InequalityName.PITT_BECKNER, pa, rhs, params, siblings=sib)


def _momentum_space_logs(D: int, k: float) -> list[float]:
    """The log terms of K_D(k) = D/(k+D) 2^k pi^{k/2} Gamma(1+D/2)^{k/D}, for k > -D."""
    if not k + D > 0:
        raise NonpositiveParameters(f"K_D(k) needs k > -D = {-D}, got {k}")
    return [math.log(D / (k + D)), k * math.log(2.0), k / 2 * math.log(math.pi), k / D * log_gamma(1 + D / 2)]


def momentum_space_constant(D: int, k: float) -> float:
    """K_D(k) = D/(k+D) (2 pi)^k Gamma(1+D/2)^{k/D} / pi^{k/2}."""
    return _exp(_momentum_space_logs(D, k))


def _require_counts(**counts) -> None:
    """Refuse a count (q spin states, N particles) that is not an integer >= 1."""
    for name, value in counts.items():
        if not is_integral(value):
            raise UnsupportedArgument(f"{name} must be a positive integer, got {value!r}")
        if value < 1:
            raise NonpositiveParameters(f"{name} must be a positive integer, got {value}")


def daubechies_thakkar(
    state: HydrogenicState, k: float, q: int = 2
) -> InequalityReport:
    """Semiclassical <p^k> vs K_D(k) q^{-k/D} W_{1+k/D}; orientation flips
    for k < 0.  D=3, q=2 emits the c_k variant as a sibling."""
    from . import oracle

    _require_counts(q=q)
    require_order(state, k, Space.MOMENTUM)
    if k == 0:
        raise OrderOutOfDomain(f"momentum order {k} invalid for the state")
    D = state.D
    w = oracle.entropic_moment(state, 1 + k / D)  # raises NotSWave for l != 0
    pk = p_moment(state, k, mode="float").as_float()
    log_w = math.log(w)
    rhs = _exp([*_momentum_space_logs(D, k), -k / D * math.log(q), log_w])
    params = {"state": state, "k": k, "q": q}
    sib = []
    if D == 3 and q == 2:
        # c_k w with c_k = 3 (3 pi^2)^{k/3} / (k+3)
        ck_w = _exp([math.log(3 / (k + 3)), k / 3 * math.log(3 * math.pi ** 2), log_w])
        sib.append(
            _report(
                InequalityName.DAUBECHIES_THAKKAR_3D, pk, ck_w, params,
                orientation_ge=k > 0, rigorous=False,
            )
        )
    return _report(
        InequalityName.DAUBECHIES_THAKKAR, pk, rhs, params,
        orientation_ge=k > 0, rigorous=False, siblings=sib,
    )


def _fermion_logs(D: int, alpha: float, k: float) -> list[float]:
    """The log terms of F(D, alpha, k) = t^t alpha^{1+2k/D} (Omega_D B)^{-k/D}
    (k^k / (t alpha + k)^{t alpha + k})^{1/alpha}, t = 1 + k/D, B = B(D/alpha,
    2 + D/k), with ln Omega_D one log per term of `solid_angle_logs`."""
    if alpha <= 0 or k <= 0:
        raise NonpositiveParameters("alpha and k must be positive")
    beta_log = log_gamma(D / alpha) + log_gamma(2 + D / k) - log_gamma(D / alpha + 2 + D / k)
    t = 1 + k / D
    s = t * alpha + k
    return [
        t * math.log(t), (1 + 2 * k / D) * math.log(alpha),
        *(-k / D * term for term in solid_angle_logs(D)),
        -k / D * beta_log, (k * math.log(k) - s * math.log(s)) / alpha,
    ]


def fermion_factor(D: int, alpha: float, k: float) -> float:
    """F(D, alpha, k): the variational factor multiplying K_D(k)."""
    return _exp(_fermion_logs(D, alpha, k))


def fermion_product(
    state: HydrogenicState, alpha: float, k: float, q: int = 2, N: int = 1
) -> InequalityReport:
    """<r^alpha>^{k/alpha} <p^k> >= K_D(k) F(D,alpha,k) q^{-k/D}
    N^{1+k(1/alpha+1/D)}."""
    _require_counts(q=q, N=N)
    require_order(state, alpha, Space.POSITION)
    require_order(state, k, Space.MOMENTUM)
    D = state.D
    # K_D(k) F(D, alpha, k) first: it rejects alpha <= 0 before k / alpha
    script_f = [*_fermion_logs(D, alpha, k), *_momentum_space_logs(D, k)]
    ra = r_moment(state, alpha, mode="float").as_float()
    pk = p_moment(state, k, mode="float").as_float()
    lhs = _exp([k / alpha * math.log(ra), math.log(pk)])
    rhs = _exp([*script_f, -k / D * math.log(q), (1 + k * (1 / alpha + 1 / D)) * math.log(N)])
    params = {"state": state, "alpha": alpha, "k": k, "q": q, "N": N}
    sib = []
    if D == 3 and q == 2:
        rhs3 = _exp([*script_f, -k / 3 * math.log(2.0), (k / alpha + (k + 3) / 3) * math.log(N)])
        sib.append(_report(InequalityName.FERMION_PRODUCT_3D, lhs, rhs3, params))
    return _report(InequalityName.FERMION_PRODUCT, lhs, rhs, params, siblings=sib)
