"""Exact arithmetic, gamma family, half-integer digamma, and hypergeometric summation."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hydromoments.errors import (
    FloatOverflow,
    FloatUnderflow,
    NonpositiveArgument,
    NonTerminating,
    PoleInBottomParameter,
    UnsupportedArgument,
)
from hydromoments.specfun import (
    EXACT_ONE,
    SQRT_PI,
    ExactValue,
    HypSumSpec,
    digamma_half_exact,
    exp_sum,
    gamma_exact,
    gamma_ratio_doubled,
    hyp_sum,
    hyp_sum_doubled,
    is_integral,
    pochhammer,
)
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

    def test_mixed_pi_addition_rejected(self):
        with pytest.raises(UnsupportedArgument):
            EXACT_ONE + SQRT_PI

    def test_scalar_coercion(self):
        assert 2 * SQRT_PI == ExactValue(Fraction(2), Fraction(1, 2))
        assert (1 / ExactValue(Fraction(1, 3))).coeff == 3

    def test_to_float(self):
        assert SQRT_PI.to_float() == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert ExactValue(Fraction(7, 2)).to_float() == 3.5

    def test_quarter_pi_power_rejected(self):
        with pytest.raises(UnsupportedArgument):
            ExactValue(Fraction(1), Fraction(1, 4))


class TestGamma:
    def test_integers(self):
        assert gamma_exact(1) == EXACT_ONE
        assert gamma_exact(5) == ExactValue(Fraction(24))

    def test_half_integers(self):
        assert gamma_exact(Fraction(1, 2)) == SQRT_PI
        assert gamma_exact(Fraction(7, 2)) == ExactValue(Fraction(15, 8), Fraction(1, 2))

    def test_matches_mpmath(self):
        for num in range(1, 30):
            v = gamma_exact(Fraction(num, 2)).to_float()
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
            want = EXACT_ONE
            for x in top:
                want = want * gamma_exact(Fraction(x, 2))
            for x in bottom:
                want = want / gamma_exact(Fraction(x, 2))
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
        want = EXACT_ONE
        for x in top:
            want = want * gamma_exact(Fraction(x, 2))
        for x in bottom:
            want = want / gamma_exact(Fraction(x, 2))
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

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveArgument):
            gamma_exact(0)
        with pytest.raises(NonpositiveArgument):
            gamma_exact(Fraction(-1, 2))
        with pytest.raises(UnsupportedArgument):
            gamma_exact(Fraction(1, 3))


class TestDigamma:
    def test_half_exact_decomposition(self):
        # psi(n + 1/2) = r_n - gamma - 2 ln 2
        for n in (1, 2, 5, 10):
            r = float(digamma_half_exact(n))
            expect = float(mpmath.digamma(n + 0.5) + mpmath.euler + 2 * mpmath.log(2))
            assert r == pytest.approx(expect, rel=1e-13)


def test_is_integral():
    for x in (3, -2, Fraction(4, 2), 5.0, np.int64(3), np.int32(-2), np.uint8(7)):
        assert is_integral(x), x
    for x in (True, False, Fraction(1, 2), 0.5, np.float64(0.5), "3"):
        assert not is_integral(x), x


def test_pochhammer():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(5, 0) == 1
    assert pochhammer(2.5, 2, "float") == pytest.approx(8.75)


def test_pochhammer_of_an_int_is_the_same_fraction():
    for a in range(-6, 12):
        for j in range(8):
            got = pochhammer(a, j)
            assert type(got) is Fraction and got == pochhammer(Fraction(a), j)
    assert pochhammer(7, 3) == Fraction(504)
    assert pochhammer(-3, 5) == 0


def test_ratio_power():
    # an integer ratio's power is the state's scale: Z/eta = 2/3 at 2eta = 3, Z = 1
    s = make_state(2, 2, 0, 1)
    assert s.scale(4, Space.MOMENTUM) == (16, 81)
    assert s.scale(0, Space.MOMENTUM) == (1, 1)
    assert s.scale(-2, Space.MOMENTUM) == (9, 4)


class TestHypSum:
    def test_termination_validation(self):
        with pytest.raises(NonTerminating):
            HypSumSpec(top=(1.5, 2.0), bottom=(3.0,), terms=4)
        with pytest.raises(PoleInBottomParameter):
            HypSumSpec(top=(-3, 1.0), bottom=(-2,), terms=4)

    def test_gauss_chu_vandermonde(self):
        # 2F1(-k, b; c; 1) = (c-b)_k / (c)_k
        k, b, c = 5, Fraction(3, 2), Fraction(7, 2)
        spec = HypSumSpec(top=(-k, b), bottom=(c,), terms=k + 1)
        expect = pochhammer(c - b, k) / pochhammer(c, k)
        assert hyp_sum(spec, "exact") == ExactValue(expect)

    def test_float_tracks_exact_with_bound(self):
        spec = HypSumSpec(
            top=(-6, Fraction(-5, 2), Fraction(7, 2)),
            bottom=(4, Fraction(1)),
            terms=7,
        )
        exact = hyp_sum(spec, "exact").to_float()
        value, bound = hyp_sum(spec, "float")
        assert abs(value - exact) <= bound + 1e-15 * abs(exact)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(0, 12),
        b2=st.integers(1, 40),  # twice the second top parameter
        c2=st.integers(2, 60),  # twice the bottom parameter
    )
    def test_property_float_within_bound_of_exact(self, k, b2, c2):
        spec = HypSumSpec(
            top=(-k, Fraction(b2, 2)), bottom=(Fraction(c2, 2),), terms=k + 1
        )
        exact = hyp_sum(spec, "exact").to_float()
        value, bound = hyp_sum(spec, "float")
        assert abs(value - exact) <= bound + 1e-14 * abs(exact) + 1e-300


def _hyp_sum_reference(top, bottom, terms):
    """Term-by-term Fraction sum: each term is the previous times the ratio."""
    term = total = Fraction(1)
    for j in range(terms - 1):
        for a in top:
            term *= a + j
        for b in bottom:
            term /= b + j
        term /= j + 1
        total += term
    return total


def _half_integer(lo, hi):
    return st.integers(2 * lo, 2 * hi).map(lambda m: Fraction(m, 2))


@st.composite
def _exact_specs(draw):
    k = draw(st.integers(0, 30))
    n_top = draw(st.sampled_from((2, 3, 5)))
    n_bottom = draw(st.sampled_from((1, 2, 4)))
    top = [Fraction(-k)] + draw(st.lists(_half_integer(-20, 40), min_size=n_top - 1, max_size=n_top - 1))
    # integral bottom parameters in (-k, 0] are poles; half-odd ones never are
    pole_free = _half_integer(-20, 40).filter(lambda b: not (b.denominator == 1 and -k < b <= 0))
    bottom = draw(st.lists(pole_free, min_size=n_bottom, max_size=n_bottom))
    return top, bottom, k + 1


class TestHypSumExactKernel:
    @settings(max_examples=300, deadline=None)
    @given(spec=_exact_specs())
    def test_matches_term_by_term_fractions(self, spec):
        top, bottom, terms = spec
        got = hyp_sum(HypSumSpec(top=tuple(top), bottom=tuple(bottom), terms=terms), "exact")
        assert got == ExactValue(_hyp_sum_reference(top, bottom, terms))

    @settings(max_examples=300, deadline=None)
    @given(spec=_exact_specs())
    def test_doubled_core_matches_term_by_term_fractions(self, spec):
        top, bottom, terms = spec
        num, den = hyp_sum_doubled([int(2 * a) for a in top], [int(2 * b) for b in bottom], terms)
        assert Fraction(num, den) == _hyp_sum_reference(top, bottom, terms)

    @pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (5, 4), (2, 4), (5, 1), (3, 1)])
    def test_top_and_bottom_of_different_lengths(self, p, q):
        # the common denominator enters the term ratio as d^(q-p)
        top = (-7,) + tuple(Fraction(2 * i + 3, 2) for i in range(p - 1))
        bottom = tuple(Fraction(2 * i + 5, 2) for i in range(q))
        got = hyp_sum(HypSumSpec(top=top, bottom=bottom, terms=8), "exact")
        assert got == ExactValue(_hyp_sum_reference(top, bottom, 8))

    def test_rejects_non_half_integer_parameters(self):
        with pytest.raises(UnsupportedArgument):
            hyp_sum(HypSumSpec(top=(-2, Fraction(1, 3)), bottom=(1,), terms=3), "exact")


class TestExpSum:
    def test_value_and_relative_bound(self):
        terms = [math.lgamma(200.5), -math.lgamma(150.0), 30 * math.log(0.7)]
        value, rel = exp_sum(terms)
        with mpmath.workdps(40):
            ref = mpmath.exp(
                mpmath.loggamma(mpmath.mpf(401) / 2) - mpmath.loggamma(150) + 30 * mpmath.log(mpmath.mpf(0.7))
            )
            assert abs(value - ref) <= rel * abs(ref)
        assert rel == pytest.approx(4 * 2.0 ** -53 * (sum(abs(t) for t in terms) + 1))

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


def test_to_float_raises_below_the_normal_double_range():
    assert ExactValue(Fraction(0)).to_float() == 0.0
    assert ExactValue(Fraction(1, 2 ** 1022)).to_float() == 2.0 ** -1022
    with pytest.raises(FloatUnderflow):
        ExactValue(Fraction(1, 2 ** 1023)).to_float()
    with pytest.raises(FloatUnderflow):
        ExactValue(Fraction(-1, 3 * 2 ** 1100), Fraction(2)).to_float()
