"""One cost model: every exact route, `double` in both modes and the
Gauss-Jacobi rule state their cost to `specfun.require_cost` before they
build anything, and that function is the only reader of the one budget.
A call either answers or raises a HydromomentsError at once, with a message
that names a cheaper route or mode."""

import ast
import math
import time
import warnings
from pathlib import Path

import pytest

import hydromoments
from hydromoments import (
    make_state,
    mean_momentum,
    p_moment,
    p_moment_circular,
    quad_p_moment,
    r_moment,
    reflect,
)
from hydromoments import momom, oracle
from hydromoments.errors import ExactTooLarge, QuadratureFailure

SRC = Path(hydromoments.__file__).parent


def test_one_function_reads_the_budget():
    """COST_BUDGET is read inside `specfun.require_cost` and nowhere else in
    the package, and the size limits it replaced are gone."""
    readers, leftovers = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for f in functions:
            if any(isinstance(node, (ast.Name, ast.Attribute)) and "COST_BUDGET" in (
                    getattr(node, "id", None), getattr(node, "attr", None)) for node in ast.walk(f)):
                readers.append(f"{path.name}:{f.name}")
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("EXACT_BITS", "maxsize", "_require_exact_size"):
                leftovers.append(f"{path.name}:{node.lineno} {name}")
    assert readers == ["specfun.py:require_cost"]
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


@pytest.mark.parametrize("D", [30_000, 30_001])
def test_exact_double_states_at_least_what_it_builds(monkeypatch, D):
    """Exact mode prices k! and its prefactor's Gammas as if they were built
    apart from the inner sums' ratio; built in it, where one Gamma(A)
    cancels, they still cost no more than that statement."""
    s = make_state(D, 5, 0, 1.0)
    stated = []
    monkeypatch.setattr(momom, "require_cost", lambda bits, products, instead: stated.append(bits))
    momom._double_sum_exact(s, 3)
    x, two_a = 2 * s.l + D, 2 * (s.n + s.l + D - 2)
    nums, den, _ = momom._double_sum_parts(s, (x - 1, x + 3), (two_a,))
    built = max(v.bit_length() for v in nums) + den.bit_length() + math.factorial(s.k).bit_length()
    assert stated[0] >= built


def _no_rule_is_built(monkeypatch):
    fail = lambda *args: pytest.fail("the rule was built")  # noqa: E731
    monkeypatch.setattr(oracle, "_jacobi_recurrence", fail)
    monkeypatch.setattr(oracle, "_golub_welsch", fail)
    monkeypatch.setattr(oracle, "_gauss_laguerre_log", fail)


@pytest.mark.parametrize("m", [2_402, 50_001])
def test_a_gauss_jacobi_rule_beyond_the_budget_raises_before_it_is_built(monkeypatch, m):
    # ?stemr's m x m eigenvectors take 8 m^2 bytes: 20 GB at m = 50,001
    _no_rule_is_built(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(QuadratureFailure, match=f"{m}-node.*budget"):
        oracle.gauss_jacobi(m, 0.5, 1.5)
    assert time.perf_counter() - t0 < 0.1


def test_a_momentum_fallback_at_large_n_raises_before_its_rule(monkeypatch):
    _no_rule_is_built(monkeypatch)
    with pytest.raises(QuadratureFailure, match="budget"):
        quad_p_moment(_nS(50_000), 0.3)


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
