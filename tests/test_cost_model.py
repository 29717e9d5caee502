"""One cost model: every exact route, `double` in both modes, the
Gauss-Jacobi rule and the Gauss-Laguerre rule pair state their cost to
`specfun.require_cost` before they build anything, and that function is the
only reader of the one budget.  Every Gamma ratio is stated once, by
`specfun.gamma_ratio_doubled`, and a route states only what it builds itself.
A call either answers or raises a HydromomentsError at once, with a message
that names a cheaper route or mode."""

import ast
import math
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import hydromoments
from hydromoments import (
    make_state,
    mean_momentum,
    p_moment,
    p_moment_circular,
    quad_p_moment,
    quad_r_moment,
    r_moment,
    r_moment_ground,
    reflect,
)
from hydromoments import momom, oracle, posmom, specfun
from hydromoments.errors import ExactTooLarge, QuadratureFailure
from hydromoments.specfun import ExactValue

SRC = Path(hydromoments.__file__).parent


def test_one_function_reads_the_budget():
    """COST_BUDGET is read inside `specfun.require_cost` and nowhere else in
    the package, and the size limits it replaced are gone.  Gamma's cost
    has one statement: `gamma_bits` is called by `gamma_ratio_doubled` and,
    for the inner sums' products with the Gamma numerator, by
    `momom._double_sum_size`; `gamma_exact` only by `gamma_ratio_doubled`."""
    uses = {"COST_BUDGET": [], "gamma_bits": [], "gamma_exact": []}
    leftovers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for f in functions:
            names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(f)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            for name in uses.keys() & names:
                uses[name].append(f"{path.name}:{f.name}")
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("EXACT_BITS", "maxsize", "_require_exact_size", "_quotient_bits"):
                leftovers.append(f"{path.name}:{node.lineno} {name}")
    assert uses == {
        "COST_BUDGET": ["specfun.py:require_cost"],
        "gamma_bits": ["momom.py:_double_sum_size", "specfun.py:gamma_ratio_doubled"],
        "gamma_exact": ["specfun.py:gamma_ratio_doubled"],
    }
    assert leftovers == []


def _nS(n):
    return make_state(3, n, 0, 1.0)


def _circular(n):
    return make_state(3, n, n - 1, 1.0)


FAST_RAISES = {
    "single nS n=20,000": lambda: p_moment(_nS(20_000), 3, mode="exact"),
    "single nS n=200,000": lambda: p_moment(_nS(200_000), 3, mode="exact"),
    "hyp5f4 nS n=20,000": lambda: p_moment(_nS(20_000), 3, mode="exact", route="hyp5f4"),
    "hyp5f4 nS n=200,000": lambda: p_moment(_nS(200_000), 3, mode="exact", route="hyp5f4"),
    "reflect nS n=20,000": lambda: reflect(_nS(20_000), 3, mode="exact"),
    "reflect nS n=200,000": lambda: reflect(_nS(200_000), 3, mode="exact"),
    "double exact nS n=1,000": lambda: p_moment(_nS(1_000), 3, mode="exact", route="double"),
    "double exact nS n=10,000": lambda: p_moment(_nS(10_000), 3, mode="exact", route="double"),
    "double float nS n=1,000": lambda: p_moment(_nS(1_000), 0.3, mode="float", route="double"),
    "double float nS n=10,000": lambda: p_moment(_nS(10_000), 0.3, mode="float", route="double"),
    "single D=300,000": lambda: p_moment(make_state(300_000, 5, 0, 1.0), 3, mode="exact"),
    "single D=300,001": lambda: p_moment(make_state(300_001, 5, 0, 1.0), 3, mode="exact"),
    "double D=300,000": lambda: p_moment(make_state(300_000, 5, 0, 1.0), 3, mode="exact", route="double"),
    "double D=300,001": lambda: p_moment(make_state(300_001, 5, 0, 1.0), 3, mode="exact", route="double"),
    "circular n=500,000": lambda: p_moment_circular(_circular(500_000), 3),
    "mean_momentum circular n=500,000": lambda: mean_momentum(_circular(500_000)),
    "solid_angle D=10^7+1": lambda: oracle.solid_angle(10 ** 7 + 1),
    "appendix_constants D=10^7+1": lambda: momom.appendix_constants(make_state(10 ** 7 + 1, 1, 0, 1.0)),
    "position_norm_sq D=10^7+1": lambda: oracle.position_norm_sq(make_state(10 ** 7 + 1, 1, 0, 1.0)),
    "momentum_norm_sq D=10^7+1": lambda: oracle.momentum_norm_sq(make_state(10 ** 7 + 1, 1, 0, 1.0)),
    "appendix_integral_circular_exact n=5*10^6": lambda: momom.appendix_integral_circular_exact(_circular(5 * 10 ** 6)),
    "r_moment order 10^8": lambda: r_moment(make_state(3, 2, 0, 1.0), 10 ** 8),
    "double D=2*10^19": lambda: p_moment(make_state(2 * 10 ** 19, 1, 0, 1.0), 1, route="double"),
}


@pytest.mark.parametrize("call", FAST_RAISES.values(), ids=FAST_RAISES.keys())
def test_a_call_beyond_the_budget_raises_at_once(call):
    # each of these ran for more than 5 s, most of them for hours, before
    # the cost was stated
    t0 = time.perf_counter()
    with pytest.raises(ExactTooLarge, match='budget.*use (mode="float"|route="single")'):
        call()
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("D", [30_000, 30_001])
def test_large_dimensions_under_the_budget_still_answer(D):
    s = make_state(D, 5, 0, 1.0)
    single = p_moment(s, 3, mode="exact")
    assert single.is_exact
    assert p_moment(s, 3, mode="exact", route="double").value == single.value


def test_appendix_constants_at_a_million_answer_at_once():
    # math.factorial(999,999) took 7.5 s, unpriced, before Gamma(eta+L+1) raised
    t0 = time.perf_counter()
    k_mean, k_inv = momom.appendix_constants(_nS(10 ** 6))
    assert time.perf_counter() - t0 < 0.1
    assert k_mean == ExactValue(Fraction(1, 500_000), -1)
    assert k_inv == ExactValue(2_000_000, -1)


@pytest.mark.parametrize("D", [30_000, 30_001])
def test_double_estimate_bounds_what_its_inner_sums_build(D):
    """The `double` route states at least the bits that `_double_sum_parts`
    builds and at most 1.25 times as many, at even D, where Gamma(A)^2 /
    Gamma(B)^2 pairs into rising products, and at odd D, where nothing
    pairs and both Gammas are factorials."""
    s = make_state(D, 5, 0, 1.0)
    bits, _ = momom._double_sum_size(s, 2 * s.l + D + 3, 1)
    nums, den, _ = momom._double_sum_parts(s)
    built = max(x.bit_length() for x in nums) + den.bit_length()
    assert built <= bits <= 1.25 * built


def _record_statements(monkeypatch, modules):
    """module name -> the bits each call to its `require_cost` states, in order."""
    stated = {}
    for module in modules:
        monkeypatch.setattr(module, "require_cost", lambda bits, products, instead, name=module.__name__:
                            stated.setdefault(name, []).append(bits))
    return stated


@pytest.mark.parametrize("D", [30_000, 30_001])
def test_exact_double_states_at_least_what_it_builds(monkeypatch, D):
    """Exact `double` makes two statements, each at least what its own
    builder builds: momom's covers k! and the inner sums, measured on a unit
    Gamma ratio, and `gamma_ratio_doubled`'s covers the one ratio of the
    prefactor's Gammas and the inner sums' Gamma(A)^2/Gamma(B)^2, in which
    one Gamma(A) cancels.  Together they cover the inner sums as built."""
    s = make_state(D, 5, 0, 1.0)
    stated = _record_statements(monkeypatch, (momom, specfun))
    ratio = momom.gamma_ratio_doubled
    ratios = []
    monkeypatch.setattr(momom, "gamma_ratio_doubled", lambda *args: ratios.append(ratio(*args)) or ratios[-1])
    momom._double_sum_exact(s, 3)
    [own], [gamma] = stated.pop("hydromoments.momom"), stated.pop("hydromoments.specfun")
    assert stated == {}
    [(gn, gd, _)] = ratios
    assert gamma >= gn.bit_length() + gd.bit_length()
    x, two_a = 2 * s.l + D, 2 * (s.n + s.l + D - 2)
    nums, den, _ = momom._double_sum_parts(s, (x - 1, x + 3), (two_a,))
    built = max(v.bit_length() for v in nums) + den.bit_length() + math.factorial(s.k).bit_length()
    assert own + gamma >= built
    monkeypatch.setattr(momom, "gamma_ratio_doubled", lambda *args: (1, 1, 0))
    nums, den, _ = momom._double_sum_parts(s, (x - 1, x + 3), (two_a,))
    assert own >= max(v.bit_length() for v in nums) + den.bit_length() + math.factorial(s.k).bit_length()


def _built_bits(v: int) -> int:
    """The bits of a built integer; a 1 is no build."""
    return v.bit_length() if v > 1 else 0


def test_each_gamma_ratio_states_its_build_once(monkeypatch):
    """Each `gamma_ratio_doubled` call makes exactly one `specfun.require_cost`
    call, before it builds, and `gamma_exact` makes none.  The bits stated
    are at least those of the rising products and factorials it builds, over
    every exact caller: the single, circular and double momentum routes at
    every integer order in the domain, odd and even, the ground-state
    position moment, the appendix constants and the oracle's references,
    on D 2-12 and n <= 11."""
    ratio, gamma_exact, prod = specfun.gamma_ratio_doubled, specfun.gamma_exact, math.prod
    stated = _record_statements(monkeypatch, (specfun,)).setdefault("hydromoments.specfun", [])
    built, reached = [], {"product": 0, "factorial": 0}

    def exact(z2):
        calls = len(stated)
        num, den, two_pi = gamma_exact(z2)
        assert len(stated) == calls, z2  # gamma_exact states nothing
        built.append((len(stated), _built_bits(num * den)))  # (m-1)! at z2 = 2m, (2m)!/m! at z2 = 2m+1
        reached["factorial"] += 1
        return num, den, two_pi

    def product(factors):
        value = prod(factors)
        built.append((len(stated), _built_bits(value)))
        reached["product"] += 1
        return value

    checked = []

    def checked_ratio(top2, bottom2, *instead):
        stated.clear()
        built.clear()
        value = ratio(top2, bottom2, *instead)
        assert len(stated) == 1, (top2, bottom2)
        assert all(before == 1 for before, _ in built), (top2, bottom2)  # stated before each build
        assert stated[0] >= sum(bits for _, bits in built), (top2, bottom2, stated[0], built)
        checked.append(stated[0])
        return value

    monkeypatch.setattr(specfun, "gamma_exact", exact)
    monkeypatch.setattr(math, "prod", product)
    for module in (momom, posmom, oracle):
        monkeypatch.setattr(module, "gamma_ratio_doubled", checked_ratio)
    for D in range(2, 13):
        oracle.solid_angle(D)
        for a in range(1 - D, 16):
            r_moment_ground(D, 1.0, a, mode="exact")
        for n in range(1, 12):
            for l in range(n):
                s = make_state(D, n, l, 1.0)
                momom.appendix_constants(s)
                oracle.position_norm_sq(s)
                oracle.momentum_norm_sq(s)
                lo, hi = s.momentum_interval()
                for a in range(lo + 1, hi):
                    p_moment(s, a, mode="exact")
                    p_moment(s, a, mode="exact", route="double")
                    if s.is_circular:
                        p_moment_circular(s, a, mode="exact")
                if s.is_circular:
                    momom.appendix_integral_circular_exact(s)
    assert len(checked) > 40_000 and min(reached.values()) > 40_000


def _no_rule_is_built(monkeypatch):
    fail = lambda *args: pytest.fail("the rule was built")  # noqa: E731
    monkeypatch.setattr(oracle, "_jacobi_recurrence", fail)
    monkeypatch.setattr(oracle, "_golub_welsch", fail)
    monkeypatch.setattr(oracle, "gauss_laguerre", fail)


@pytest.mark.parametrize("m", [2_402, 50_001])
def test_a_gauss_jacobi_rule_beyond_the_budget_raises_before_it_is_built(monkeypatch, m):
    # ?stemr's m x m eigenvectors take 8 m^2 bytes: 20 GB at m = 50,001
    _no_rule_is_built(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(QuadratureFailure, match=f"{m}-node.*budget"):
        oracle.gauss_jacobi(m, 0.5, 1.5)
    assert time.perf_counter() - t0 < 0.1


def test_a_momentum_fallback_prices_its_rule_pair_before_either_is_built(monkeypatch):
    # at 3D nS n = 2,401 the 2,401-node rule took 0.47 s before the 2,402-node rule raised
    monkeypatch.setattr(oracle, "_golub_welsch", lambda *args: pytest.fail("a rule was built"))
    t0 = time.perf_counter()
    with pytest.raises(QuadratureFailure, match="2402-node Gauss-Jacobi.*budget"):
        quad_p_moment(_nS(2_401), 0.3)
    assert time.perf_counter() - t0 < 0.1


def test_a_momentum_fallback_at_large_n_raises_before_its_rule(monkeypatch):
    _no_rule_is_built(monkeypatch)
    with pytest.raises(QuadratureFailure, match="budget"):
        quad_p_moment(_nS(50_000), 0.3)


@pytest.mark.parametrize("n", [2_562, 50_000])
def test_a_position_fallback_at_large_n_raises_before_its_rules(monkeypatch, n):
    # the m = n node Gauss-Laguerre pair took 0.49 s at m = 2,500 and over
    # 108 s at m = 50,000; the largest pair under the budget has 2,561 nodes
    monkeypatch.setattr(oracle, "_laguerre_recurrence", lambda *args: pytest.fail("a rule was built"))
    t0 = time.perf_counter()
    with pytest.raises(QuadratureFailure, match=f"{n}-node Gauss-Laguerre.*budget"):
        quad_r_moment(_nS(n), 0.3)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("q", [3_000, 1e308, 2 ** 53 + 1])
def test_an_entropic_moment_beyond_the_budget_raises_before_its_rules(monkeypatch, q):
    # at q = 3,000 a 5,216-node Laguerre rule took 0.7-0.9 s before the Jacobi
    # rule's budget raised; 1e308 overflowed numpy, 2^53+1 ran out of memory
    _no_rule_is_built(monkeypatch)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="node.*budget.*a smaller q"):
            oracle.entropic_moment(make_state(3, 3, 0, 1.0), q)
    assert time.perf_counter() - t0 < 0.1


class _Built(Exception):
    pass


def test_the_largest_rule_under_the_budget_is_built(monkeypatch):
    # float_grid reaches n = 170; every rule up to 2,401 nodes is built
    x, w = oracle.gauss_jacobi(171, 0.5, 1.5)
    assert len(x) == len(w) == 171
    monkeypatch.setattr(oracle, "_jacobi_recurrence", lambda *args: (_ for _ in ()).throw(_Built()))
    with pytest.raises(_Built):
        oracle.gauss_jacobi(2_401, 0.5, 1.5)
    monkeypatch.setattr(oracle, "_laguerre_recurrence", lambda *args: (_ for _ in ()).throw(_Built()))
    with pytest.raises(_Built):
        quad_r_moment(_nS(2_561), 0.3)
