"""Verification suites, shared by `hydromoments verify` and the acceptance tests.

Each suite takes a list of (D, n, l) states, evaluated at Z = 1, and returns
a `SuiteResult`: its number of comparisons and failures, the worst relative
deviation it measured and the findings that do not fail it.  The library
functions are looked up as module attributes at call time, so a wrapper
that rebinds them sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .asympt import rydberg_p
from .momom import p_moment, reflect
from .oracle import quad_p_moment, quad_r_moment
from .posmom import Method, r_moment
from .states import make_state
from .uncertainty import daubechies_thakkar, fermion_product, heisenberg_general, pitt_beckner


@dataclass(frozen=True)
class SuiteResult:
    checks: int
    fails: int
    worst: float = 0.0
    findings: tuple[str, ...] = ()


def grid(size: str) -> list[tuple[int, int, int]]:
    """The states of `verify --grid`: "small" is D in {2, 3, 4, 6} with
    n <= 3, "full" is D 2-8 with n <= 5, all l."""
    if size == "small":
        return [(D, n, l) for D in (2, 3, 4, 6) for n in range(1, 4) for l in range(n)]
    return [(D, n, l) for D in range(2, 9) for n in range(1, 6) for l in range(n)]


def routes(states) -> SuiteResult:
    """At every integer momentum order the hyp5f4 and double routes equal
    the single route exactly.  `single` sums the 5F4 with its own integer
    loop and `hyp5f4` with the generic exact kernel, on one prefactor, so
    that comparison checks the two kernels; `double` shares neither."""
    checks = fails = 0
    for D, n, l in states:
        state = make_state(D, n, l, 1.0)
        lo, hi = state.momentum_interval()
        for alpha in range(lo + 1, hi):
            base = p_moment(state, alpha, mode="exact", route="single").value
            for route in ("hyp5f4", "double"):
                checks += 1
                fails += p_moment(state, alpha, mode="exact", route=route).value != base
    return SuiteResult(checks, fails)


def reflection(states) -> SuiteResult:
    """At every integer order alpha in the domain, `reflect` equals the
    double route's <p^{2-alpha}> exactly: the domain (lo, hi) has
    lo + hi = 2, so 2 - alpha is in it too.  The single route at
    2 - alpha would share every line with `reflect`: the 5F4's parameters are
    symmetric under alpha <-> 2 - alpha."""
    checks = fails = 0
    for D, n, l in states:
        state = make_state(D, n, l, 1.0)
        lo, hi = state.momentum_interval()
        for alpha in range(lo + 1, hi):
            checks += 1
            direct = p_moment(state, 2 - alpha, mode="exact", route="double")
            fails += reflect(state, alpha, mode="exact").value != direct.value
    return SuiteResult(checks, fails)


def oracle(states) -> SuiteResult:
    """At three seeded real orders per state and space, the float series
    is within 1e-10 of the quadrature oracle.  Where the series fell back to
    the oracle itself, the two sides are the same computation: that order is
    not counted and is reported as a finding."""
    rng = random.Random(20240817)
    worst = 0.0
    checks = fails = 0
    findings = []
    for D, n, l in states:
        state = make_state(D, n, l, 1.0)
        lo, hi = state.momentum_interval()
        for _ in range(3):
            cases = (
                (p_moment, quad_p_moment, rng.uniform(lo + 0.25, hi - 0.25)),
                (r_moment, quad_r_moment, rng.uniform(lo + 0.25, lo + 6.0)),
            )
            for series, quad, alpha in cases:
                res = series(state, alpha, mode="float")
                if res.method is Method.QUADRATURE:
                    findings.append(
                        f"not compared: {res.space.value} at D={D} n={n} l={l} alpha={alpha!r}"
                        " fell back to the quadrature oracle"
                    )
                    continue
                dev = abs(res.as_float() / quad(state, alpha).value - 1)
                worst = max(worst, dev)
                checks += 1
                fails += dev > 1e-10
    return SuiteResult(checks, fails, worst, tuple(findings))


def asymptotics(states) -> SuiteResult:
    """For 3D nS states and alpha in {0.5, 1.5, 2.5}, the deviation of the
    corrected Rydberg estimate of <p^alpha> shrinks over n = 20, 40, 80.
    These fixed states ignore `states`."""
    checks = fails = 0
    worst = 0.0
    for alpha in (0.5, 1.5, 2.5):
        prev = None
        for n in (20, 40, 80):
            state = make_state(3, n, 0, 1.0)
            ex = p_moment(state, alpha, mode="float").as_float()
            dev = abs(ex / rydberg_p(state, alpha).corrected - 1)
            checks += 1
            fails += prev is not None and dev >= prev
            prev = dev
        worst = max(worst, prev)
    return SuiteResult(checks, fails, worst)


def uncertainty(states) -> SuiteResult:
    """The order-2 Heisenberg-like, Pitt-Beckner (D > 2), fermion-product and
    Daubechies-Thakkar (l = 0) inequalities and their siblings.  A violated
    rigorous bound fails; a violated conjectured one is a finding."""
    checks = fails = 0
    findings = []
    for D, n, l in states:
        state = make_state(D, n, l, 1.0)
        tops = [heisenberg_general(state, 2, 2)]
        if D > 2:
            tops.append(pitt_beckner(state, 2))
        tops.append(fermion_product(state, 2, 2))
        if l == 0:
            tops.append(daubechies_thakkar(state, 2))
        for rep in (rep for top in tops for rep in (top, *top.siblings)):
            checks += 1
            if rep.satisfied:
                continue
            if rep.rigorous:
                fails += 1
            else:
                findings.append(f"soft violation: {rep.name.value} at D={D} n={n} l={l} ratio={rep.ratio:.6g}")
    return SuiteResult(checks, fails, findings=tuple(findings))


# Suite name -> suite, in the order `verify --suite all` runs them.
SUITES = {
    "routes": routes,
    "reflection": reflection,
    "oracle": oracle,
    "asymptotics": asymptotics,
    "uncertainty": uncertainty,
}
