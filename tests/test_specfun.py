"""Exact arithmetic, gamma family, half-integer digamma, and hypergeometric summation."""

import ast
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hydromoments.errors import (
    ExactTooLarge,
    FloatOverflow,
    FloatUnderflow,
    NonpositiveArgument,
    NonTerminating,
    ParameterOutOfRange,
    PoleInBottomParameter,
    UnsupportedArgument,
)
import hydromoments
from hydromoments import specfun
from hydromoments.specfun import (
    SQRT_PI,
    ExactValue,
    HypSumSpec,
    digamma_half_exact,
    digamma_half_float,
    exp_sum,
    gamma_exact,
    gamma_ratio_doubled,
    hyp_sum,
    hyp_sum_doubled,
    is_integral,
    log_gamma,
    pochhammer,
)
from hydromoments import p_moment, p_moment_circular, r_moment, r_moment_ground, reflect
from hydromoments.states import Space, make_state


class TestExactValue:
    def test_arithmetic(self):
        a = ExactValue(Fraction(3, 4), Fraction(1, 2))
        b = ExactValue(Fraction(2), Fraction(1, 2))
        assert a * b == ExactValue(Fraction(3, 2), Fraction(1))
        assert a / b == ExactValue(Fraction(3, 8))
        assert a + a == ExactValue(Fraction(3, 2), Fraction(1, 2))
        assert a - a == ExactValue(Fraction(0))
        assert (-a).coeff == Fraction(-3, 4)
        assert a ** 2 == ExactValue(Fraction(9, 16), Fraction(1))

    def test_zero_canonicalized(self):
        z = ExactValue(Fraction(0), Fraction(3, 2))
        assert z.pi_pow == 0
        assert z + SQRT_PI == SQRT_PI

    def test_reduced_keeps_the_invariants_of_the_coerced_form(self):
        # inside and outside the table of pi powers for |two_pi| <= 8
        for coeff in (Fraction(0), Fraction(-3, 4), Fraction(5)):
            for two_pi in range(-20, 21):
                v, coerced = ExactValue.reduced(coeff, two_pi), ExactValue(coeff, Fraction(two_pi, 2))
                assert v == coerced and hash(v) == hash(coerced) and repr(v) == repr(coerced)
                assert (v.pi_pow.numerator, v.pi_pow.denominator) == (coerced.pi_pow.numerator, coerced.pi_pow.denominator)
                assert type(v.pi_pow) is Fraction and v.pi_pow.denominator in (1, 2)
                assert v.pi_pow == (two_pi / 2 if coeff else 0)

    def test_mixed_pi_addition_rejected(self):
        with pytest.raises(UnsupportedArgument):
            ExactValue(1) + SQRT_PI

    def test_scalar_coercion(self):
        assert 2 * SQRT_PI == ExactValue(Fraction(2), Fraction(1, 2))
        assert (1 / ExactValue(Fraction(1, 3))).coeff == 3

    def test_to_float(self):
        assert SQRT_PI.to_float() == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert ExactValue(Fraction(7, 2)).to_float() == 3.5

    def test_quarter_pi_power_rejected(self):
        with pytest.raises(UnsupportedArgument):
            ExactValue(Fraction(1), Fraction(1, 4))


def _gamma(z2):
    """Gamma(z2/2) as an ExactValue, from gamma_exact's triple."""
    num, den, two_pi = gamma_exact(z2)
    return ExactValue(Fraction(num, den), Fraction(two_pi, 2))


class TestGamma:
    def test_integers(self):
        assert _gamma(2) == ExactValue(1)
        assert _gamma(10) == ExactValue(Fraction(24))
        assert gamma_exact(10) == (24, 1, 0)

    def test_half_integers(self):
        assert _gamma(1) == SQRT_PI
        assert _gamma(7) == ExactValue(Fraction(15, 8), Fraction(1, 2))
        assert gamma_exact(7) == (15, 8, 1)

    def test_matches_mpmath(self):
        for num in range(1, 30):
            g_num, g_den, _ = gamma_exact(num)
            assert math.gcd(g_num, g_den) == 1, num  # in lowest terms
            v = _gamma(num).to_float()
            assert v == pytest.approx(float(mpmath.gamma(num / 2)), rel=1e-14)

    def test_ratio(self):
        # Gamma(9/2) / Gamma(5/2) = 35/4
        num, den, two_pi = gamma_ratio_doubled((9,), (5,))
        assert (Fraction(num, den), two_pi) == (Fraction(35, 4), 0)

    def test_ratio_of_doubled_arguments(self):
        # Gamma(7/2) Gamma(2) / Gamma(3/2) = 15/4; Gamma(1/2) / Gamma(3) = sqrt(pi) / 2
        num, den, two_pi = gamma_ratio_doubled((7, 4), (3,))
        assert (Fraction(num, den), two_pi) == (Fraction(15, 4), 0)
        num, den, two_pi = gamma_ratio_doubled((1,), (6,))
        assert (Fraction(num, den), two_pi) == (Fraction(1, 2), 1)
        for top, bottom in [((9, 2, 5), (5, 8)), ((1, 3), (4,)), ((), (7, 1))]:
            num, den, two_pi = gamma_ratio_doubled(top, bottom)
            want = ExactValue(1)
            for x in top:
                want = want * _gamma(x)
            for x in bottom:
                want = want / _gamma(x)
            assert ExactValue(Fraction(num, den), Fraction(two_pi, 2)) == want
        with pytest.raises(NonpositiveArgument):
            gamma_ratio_doubled((3,), (0,))

    @settings(max_examples=300, deadline=None)
    @given(
        top=st.lists(st.integers(1, 200), max_size=4),
        bottom=st.lists(st.integers(1, 200), max_size=4),
    )
    def test_ratio_of_doubled_arguments_is_the_product_of_gammas(self, top, bottom):
        num, den, two_pi = gamma_ratio_doubled(top, bottom)
        want = ExactValue(1)
        for x in top:
            want = want * _gamma(x)
        for x in bottom:
            want = want / _gamma(x)
        assert ExactValue(Fraction(num, den), Fraction(two_pi, 2)) == want

    @settings(max_examples=100, deadline=None)
    @given(
        top=st.lists(st.integers(-200, 200), max_size=4),
        bottom=st.lists(st.integers(-200, 200), max_size=4),
    )
    def test_ratio_of_doubled_arguments_rejects_nonpositive_ones(self, top, bottom):
        assume(min(top + bottom, default=1) < 1)
        with pytest.raises(NonpositiveArgument):
            gamma_ratio_doubled(top, bottom)

    @pytest.mark.parametrize("top, bottom", [((4,), (0,)), ((0,), (4,)), ((3, 2), (-1, 6)), ((-2,), ())])
    def test_a_nonpositive_argument_raises_even_where_it_would_pair(self, top, bottom):
        with pytest.raises(NonpositiveArgument):
            gamma_ratio_doubled(top, bottom)

    def test_a_plain_int_reads_as_its_fraction(self):
        # gamma_exact checks nothing: its one caller checks every argument
        for z2 in (0, -3, -6):
            for top, bottom in (((z2,), ()), ((), (z2,))):
                with pytest.raises(NonpositiveArgument):
                    gamma_ratio_doubled(top, bottom)

    def test_nonpositive_rejected(self):
        for z2 in (0, -1):
            for top, bottom in (((z2,), ()), ((), (z2,))):
                with pytest.raises(NonpositiveArgument):
                    gamma_ratio_doubled(top, bottom)


class TestDigamma:
    def test_half_exact_decomposition(self):
        # psi(n + 1/2) = r_n - gamma - 2 ln 2
        for n in (1, 2, 5, 10):
            r = float(digamma_half_exact(n))
            expect = float(mpmath.digamma(n + 0.5) + mpmath.euler + 2 * mpmath.log(2))
            assert r == pytest.approx(expect, rel=1e-13)

    def test_half_float_is_within_its_bound(self):
        # the series' remainder lies below its first omitted term from n = 1 on
        for n in (*range(1, 40), 1001, 40_000, 10 ** 9, 10 ** 300):
            for c in (Fraction(0), Fraction(2 * n * n, 4 * n * n - 1), Fraction(1)):
                value, bound = digamma_half_float(n, c)
                with mpmath.workdps(40):
                    N = mpmath.mpf(n)
                    r = mpmath.digamma(N + mpmath.mpf(1) / 2) + mpmath.euler + 2 * mpmath.log(2)
                    assert abs(value - (r - mpmath.mpf(c.numerator) / c.denominator)) <= bound, (n, c)
        assert digamma_half_float(2000, Fraction(0))[1] < 1e-14
        with pytest.raises(NonpositiveArgument):
            digamma_half_float(0, Fraction(0))


def test_is_integral():
    for x in (3, -2, Fraction(4, 2), 5.0, np.int64(3), np.int32(-2), np.uint8(7)):
        assert is_integral(x), x
    for x in (True, False, Fraction(1, 2), 0.5, np.float64(0.5), "3"):
        assert not is_integral(x), x


def _rising(a, j):
    """(a)_j on Fractions, one factor at a time."""
    prod = Fraction(1)
    for i in range(j):
        prod *= a + i
    return prod


def test_pochhammer():
    assert pochhammer(5, 0) == 1
    assert pochhammer(1, 4) == 24


def test_pochhammer_of_an_int_is_the_same_fraction():
    for a in range(-6, 12):
        for j in range(8):
            got = pochhammer(a, j)
            assert type(got) is int and got == _rising(Fraction(a), j)
    assert pochhammer(7, 3) == 504
    assert pochhammer(-3, 5) == 0


def test_ratio_power():
    # an integer ratio's power is the state's scale: Z/eta = 2/3 at 2eta = 3, Z = 1
    s = make_state(2, 2, 0, 1)
    assert s.scale(4, Space.MOMENTUM) == (16, 81)
    assert s.scale(0, Space.MOMENTUM) == (1, 1)
    assert s.scale(-2, Space.MOMENTUM) == (9, 4)


class TestHypSum:
    """Every spec carries its parameters doubled: 2 a_i on top, 2 b_i below."""

    def test_termination_validation(self):
        with pytest.raises(NonTerminating):
            HypSumSpec(top=(3.0, 4.0), bottom=(6.0,))
        with pytest.raises(PoleInBottomParameter):
            HypSumSpec(top=(-6, 2.0), bottom=(-4,))

    def test_odd_nonpositive_doubled_bottom_is_not_a_pole(self):
        # 2b = -3: b = -3/2 is a half-integer, so (b)_j never vanishes
        spec = HypSumSpec(top=(-6, 2), bottom=(-3,))
        assert Fraction(*hyp_sum(spec, "exact")) == _hyp_sum_reference((-6, 2), (-3,), 4)

    def test_a_bottom_zero_past_the_end_is_no_pole(self):
        # 2a = -4 ends the series after 3 terms, before 2b = -6 would vanish
        spec = HypSumSpec(top=(-12, -4), bottom=(-6,))
        assert spec.terms == 3
        assert Fraction(*hyp_sum(spec, "exact")) == _hyp_sum_reference((-12, -4), (-6,), 3)

    def test_gauss_chu_vandermonde(self):
        # 2F1(-k, b; c; 1) = (c-b)_k / (c)_k, here with b = 3/2 and c = 7/2
        k, b2, c2 = 5, 3, 7
        spec = HypSumSpec(top=(-2 * k, b2), bottom=(c2,))
        expect = _rising(Fraction(c2 - b2, 2), k) / _rising(Fraction(c2, 2), k)
        assert Fraction(*hyp_sum(spec, "exact")) == expect

    def test_float_tracks_exact_with_bound(self):
        # top (-6, -5/2, 7/2), bottom (4, 1)
        spec = HypSumSpec(top=(-12, -5, 7), bottom=(8, 2))
        exact = float(Fraction(*hyp_sum(spec, "exact")))
        value, bound = hyp_sum(spec, "float")
        assert abs(value - exact) <= bound + 1e-15 * abs(exact)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(0, 12),
        b2=st.integers(1, 40),  # twice the second top parameter
        c2=st.integers(2, 60),  # twice the bottom parameter
    )
    def test_property_float_within_bound_of_exact(self, k, b2, c2):
        spec = HypSumSpec(top=(-2 * k, b2), bottom=(c2,))
        exact = float(Fraction(*hyp_sum(spec, "exact")))
        value, bound = hyp_sum(spec, "float")
        assert abs(value - exact) <= bound + 1e-14 * abs(exact) + 1e-300


def _hyp_sum_reference(top2, bottom2, terms):
    """Term-by-term Fraction sum at the halved parameters: each term is the
    previous times the ratio."""
    top = [Fraction(a, 2) for a in top2]
    bottom = [Fraction(b, 2) for b in bottom2]
    term = total = Fraction(1)
    for j in range(terms - 1):
        for a in top:
            term *= a + j
        for b in bottom:
            term /= b + j
        term /= j + 1
        total += term
    return total


@st.composite
def _exact_specs(draw):
    """Doubled parameters: top starts at -2k; an even doubled bottom
    parameter in (-2k, 0] is a pole, an odd one never is."""
    k = draw(st.integers(0, 30))
    n_top = draw(st.sampled_from((2, 3, 5)))
    n_bottom = draw(st.sampled_from((1, 2, 4)))
    top = [-2 * k] + draw(st.lists(st.integers(-40, 80), min_size=n_top - 1, max_size=n_top - 1))
    pole_free = st.integers(-40, 80).filter(lambda b: not (b % 2 == 0 and -2 * k < b <= 0))
    bottom = draw(st.lists(pole_free, min_size=n_bottom, max_size=n_bottom))
    return top, bottom, k + 1


@st.composite
def _early_ending_specs(draw):
    """Doubled parameters whose top starts at -2k while a later one, -2m with
    m < k, vanishes first; no other top parameter is even in (-2m, 0], and no
    bottom one even in (-2k, 0], so the k+1-term sum is defined."""
    k = draw(st.integers(1, 30))
    m = draw(st.integers(0, k - 1))
    others = st.integers(-40, 80).filter(lambda x: not (x % 2 == 0 and -2 * m < x <= 0))
    rest = draw(st.lists(others, min_size=0, max_size=3))
    rest.insert(draw(st.integers(0, len(rest))), -2 * m)
    pole_free = st.integers(-40, 80).filter(lambda b: not (b % 2 == 0 and -2 * k < b <= 0))
    bottom = draw(st.lists(pole_free, min_size=1, max_size=4))
    return [-2 * k, *rest], bottom, m, k


class TestHypSumExactKernel:
    @settings(max_examples=300, deadline=None)
    @given(spec=_exact_specs())
    def test_matches_term_by_term_fractions(self, spec):
        top, bottom, terms = spec
        got = hyp_sum(HypSumSpec(top=tuple(top), bottom=tuple(bottom)), "exact")
        assert Fraction(*got) == _hyp_sum_reference(top, bottom, terms)

    @settings(max_examples=300, deadline=None)
    @given(spec=_exact_specs())
    def test_doubled_core_matches_term_by_term_fractions(self, spec):
        top, bottom, terms = spec
        num, den = hyp_sum_doubled(top, bottom, terms)
        assert Fraction(num, den) == _hyp_sum_reference(top, bottom, terms)

    @settings(max_examples=100, deadline=None)
    @given(spec=_exact_specs())
    def test_exact_hyp_sum_is_the_unreduced_kernel_pair(self, spec):
        top, bottom, _ = spec
        spec = HypSumSpec(top=tuple(top), bottom=tuple(bottom))
        assert hyp_sum(spec, "exact") == hyp_sum_doubled(top, bottom, spec.terms)

    @pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (5, 4), (2, 4), (5, 1), (3, 1)])
    def test_top_and_bottom_of_different_lengths(self, p, q):
        # the common denominator enters the term ratio as d^(q-p)
        top = (-14,) + tuple(2 * i + 3 for i in range(p - 1))
        bottom = tuple(2 * i + 5 for i in range(q))
        got = hyp_sum(HypSumSpec(top=top, bottom=bottom), "exact")
        assert Fraction(*got) == _hyp_sum_reference(top, bottom, 8)

    @settings(max_examples=300, deadline=None)
    @given(spec=_early_ending_specs())
    def test_a_later_top_parameter_that_vanishes_first_sets_the_length(self, spec):
        top, bottom, m, k = spec
        s = HypSumSpec(top=tuple(top), bottom=tuple(bottom))
        assert s.terms == m + 1
        full = _hyp_sum_reference(top, bottom, k + 1)
        assert Fraction(*hyp_sum(s, "exact")) == full
        value, bound = hyp_sum(s, "float")
        assert abs(value - float(full)) <= bound + 1e-14 * abs(float(full)) + 1e-300

    def test_rejects_non_half_integer_parameters(self):
        # 2a = 2/3: a = 1/3 is not a half-integer
        with pytest.raises(UnsupportedArgument):
            hyp_sum(HypSumSpec(top=(-4, Fraction(2, 3)), bottom=(2,)), "exact")


EPS = 2.0 ** -53
LOG_FLOOR = 8  # exp_sum charges each log term t an error of 4 eps (|t| + LOG_FLOOR)


def _log_term_errors(pairs):
    """|log_gamma(x) - ln Gamma(x*)| over 4 eps (|log_gamma(x)| + LOG_FLOOR)
    for (x, x*) pairs: x the double the library passes, x* the Fraction it
    stands for, so the rounding of x counts."""
    out = []
    with mpmath.workdps(30):
        for x, exact in pairs:
            v = log_gamma(x)
            true = mpmath.loggamma(mpmath.mpf(exact.numerator) / exact.denominator)
            out.append(abs(float(mpmath.mpf(v) - true)) / (4 * EPS * (abs(v) + LOG_FLOOR)))
    return out


def _near_edges(rng, lo, hi):
    """An order across (lo, hi), or within 1e-7 to 1 of either end."""
    if rng.random() < 0.7:
        return float(rng.uniform(lo, hi))
    side, step = (lo, 1) if rng.random() < 0.5 else (hi, -1)
    return float(side + step * 10 ** rng.uniform(-7, 0))


def _rounded_sums(rng, count):
    """(x, x*) pairs of the log-gamma arguments that the float paths form
    from orders across their domains and near the edges, for 2nu = t, D and
    l: the momentum quotient, the double route, the Jacobi weight integral,
    the position series and the ground state."""
    out = []
    for _ in range(count):
        t, D, l = (int(v) for v in rng.integers((1, 2, 0), (400, 40, 200)))
        alpha = _near_edges(rng, -t - 1, t + 3)
        nu, f = t / 2, Fraction(alpha)
        a, b = (nu - 0.5) + alpha / 2, (nu + 0.5) - alpha / 2
        r_alpha, g_alpha = _near_edges(rng, -t - 1, 3 * t), _near_edges(rng, -D, 300)
        out += [
            (nu + (alpha + 1) / 2, Fraction(t, 2) + (f + 1) / 2),
            (nu + (3 - alpha) / 2, Fraction(t, 2) + (3 - f) / 2),
            (l + (D - alpha) / 2 + 1, l + (D - f) / 2 + 1),
            (l + (D + alpha) / 2, l + (D + f) / 2),
            (a + 1, Fraction(a) + 1),
            (b + 1, Fraction(b) + 1),
            (a + b + 2, Fraction(a) + Fraction(b) + 2),
            ((t + 1) + r_alpha, t + 1 + Fraction(r_alpha)),
            (D + g_alpha, D + Fraction(g_alpha)),
        ]
    return [(x, e) for x, e in out if 0 < x <= 1e6 and e > 0]


class TestExpSum:
    def test_value_and_relative_bound(self):
        terms = [math.lgamma(200.5), -math.lgamma(150.0), 30 * math.log(0.7)]
        value, rel = exp_sum(terms)
        with mpmath.workdps(40):
            ref = mpmath.exp(
                mpmath.loggamma(mpmath.mpf(401) / 2) - mpmath.loggamma(150) + 30 * mpmath.log(mpmath.mpf(0.7))
            )
            assert abs(value - ref) <= rel * abs(ref)
        assert rel == pytest.approx(4 * EPS * (sum(abs(t) for t in terms) + LOG_FLOOR * len(terms) + 1), abs=0)

    def test_log_gamma_stays_within_the_per_term_charge(self):
        """The model's premise: log_gamma at log-uniform doubles in
        (1e-8, 1e6] and around its zeros at 1 and 2 stays within 0.8 of the
        charge (a margin of 1.25), and at the rounded sums the float paths
        form, whose rounding moves the argument, within the charge."""
        rng = np.random.default_rng(2026)
        floats = [*np.exp(rng.uniform(math.log(1e-8), math.log(1e6), 3000)), *rng.uniform(0.5, 3.0, 1000)]
        assert max(_log_term_errors((float(x), Fraction(float(x))) for x in floats)) <= 0.8
        assert max(_log_term_errors(_rounded_sums(rng, 600))) <= 1.0

    def test_overflow_is_a_library_error(self):
        with pytest.raises(FloatOverflow):
            exp_sum([400.0, 400.0])
        with pytest.raises(FloatOverflow):  # math.exp(inf) is inf, not an OverflowError
            exp_sum([-800.0, math.inf])

    def test_underflow_is_a_library_error(self):
        assert exp_sum([-708.0])[0] == math.exp(-708.0)  # 3.3e-308, a normal double
        with pytest.raises(FloatUnderflow):  # 1.2e-308, subnormal
            exp_sum([-709.0])
        with pytest.raises(FloatUnderflow):
            exp_sum([-800.0, -800.0])
        with pytest.raises(FloatUnderflow):  # math.exp(-inf) is 0
            exp_sum([800.0, -math.inf])


def test_log_gamma_beyond_the_double_range_is_a_library_error():
    # math.lgamma raised a bare OverflowError above about 2.5e305
    assert log_gamma(1e305) == math.lgamma(1e305)
    with pytest.raises(FloatOverflow):
        log_gamma(1e306)
    s = make_state(3, 10 ** 306, 10 ** 306 - 1, 1.0)
    with pytest.raises(FloatOverflow):
        r_moment(s, 0.5, mode="float")
    with pytest.raises(FloatOverflow):
        p_moment(s, 0.5, mode="float")
    with pytest.raises(FloatOverflow):
        r_moment_ground(10 ** 306, 1.0, 0.5)


@pytest.mark.parametrize("call", [
    lambda s: r_moment(s, 0.5, mode="float"),
    lambda s: p_moment(s, 0.5, mode="float"),
    lambda s: p_moment_circular(s, 0.5, mode="float"),
    lambda s: reflect(s, 0.5, mode="float"),
])
def test_a_dimension_beyond_the_double_range_is_a_library_error(call):
    # D = 10^309 raised a bare OverflowError in every float path; the
    # largest accepted 2eta reaches a range error instead
    with pytest.raises(ParameterOutOfRange, match="2 eta"):
        call(make_state(10 ** 309, 1, 0, 1.0))
    edge = make_state(int(sys.float_info.max) + 1, 1, 0, 1.0)
    assert edge.two_eta == sys.float_info.max
    with pytest.raises(FloatOverflow):
        call(edge)


def test_ground_state_beyond_the_double_range_is_a_library_error():
    with pytest.raises(ParameterOutOfRange, match="2 eta"):
        r_moment_ground(10 ** 309, 1.0, 0.5)
    with pytest.raises(FloatOverflow):
        r_moment_ground(int(sys.float_info.max) + 1, 1.0, 0.5)


def test_gamma_beyond_the_factorial_limit_is_a_library_error():
    # math.factorial raised a bare OverflowError past sys.maxsize, reached by
    # exact momentum at huge D, and ran for seconds at 10^6; the one budget
    # prices the factorial first, in `gamma_ratio_doubled`, gamma_exact's one caller
    for z2 in (2 * (sys.maxsize + 2), sys.maxsize + 2, 2 * 10 ** 6, 10 ** 6 + 1):
        for top, bottom in (((z2,), ()), ((), (z2,))):
            t0 = time.perf_counter()
            with pytest.raises(ExactTooLarge, match='budget.*mode="float"'):
                gamma_ratio_doubled(top, bottom)
            assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ExactTooLarge, match="budget"):
        p_moment(make_state(2 * 10 ** 19, 1, 0, 1.0), 1)


def test_gamma_exact_is_priced_by_its_factorial(monkeypatch):
    """An unpaired Gamma costs the bits of its factorial, 8 passes per 64 of
    them, stated by `gamma_ratio_doubled` against the one budget, on top or
    bottom: at one bit-pass below it a value raises, at it the value builds."""
    bits = 20_000 * ((40_001).bit_length() + 1)  # (2m-1)!! < (2m+1)^m over 2^m, m = 20,000
    cost = bits * 8 * (bits >> 6)
    for top, bottom, two_pi in (((40_001,), (), 1), ((), (40_001,), -1)):
        monkeypatch.setattr(specfun, "COST_BUDGET", cost - 1)
        with pytest.raises(ExactTooLarge):
            gamma_ratio_doubled(top, bottom)
        monkeypatch.setattr(specfun, "COST_BUDGET", cost)
        assert gamma_ratio_doubled(top, bottom)[2] == two_pi


_CACHES = {"lru_cache", "cache", "cached_property"}


def test_no_module_keeps_a_functools_cache():
    """No module of the package imports or applies functools' lru_cache,
    cache or cached_property: every exact value is built per call, so none
    is held between calls without a bound."""
    found = []
    for path in sorted(Path(hydromoments.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in _CACHES]
    assert found == []


def test_half_integer_gamma_is_bit_identical_to_the_factorial_quotient(monkeypatch):
    """Gamma(m + 1/2)/sqrt(pi) = (2m)!/(4^m m!), reduced, for m in 0-2,000 and
    at m = 20,000.  The build runs no gcd at all: the triple is in lowest
    terms as built."""
    real_gcd = math.gcd
    for m in [*range(2001), 20_000]:
        gcds = []
        monkeypatch.setattr(math, "gcd", lambda *args: gcds.append(args) or real_gcd(*args))
        num, den, two_pi = gamma_exact(2 * m + 1)
        monkeypatch.undo()
        old = Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
        assert (num, den) == (old.numerator, old.denominator), m
        assert two_pi == 1
        assert gcds == [], m


def test_to_float_raises_below_the_normal_double_range():
    assert ExactValue(Fraction(0)).to_float() == 0.0
    assert ExactValue(Fraction(1, 2 ** 1022)).to_float() == 2.0 ** -1022
    with pytest.raises(FloatUnderflow):
        ExactValue(Fraction(1, 2 ** 1023)).to_float()
    with pytest.raises(FloatUnderflow):
        ExactValue(Fraction(-1, 3 * 2 ** 1100), Fraction(2)).to_float()
