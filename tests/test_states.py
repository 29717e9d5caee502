"""State construction, derived symbols, and domain predicates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hydromoments import HydrogenicState, MomentOrder, Space, check_order, make_state
from hydromoments.errors import (
    DimensionTooSmall,
    NonpositiveCharge,
    ParameterOutOfRange,
    QuantumNumberOutOfRange,
    UnsupportedArgument,
)


def test_derived_symbols_3d():
    s = make_state(3, 4, 2, 1.0)
    assert s.eta == 4
    assert s.L == 2
    assert s.nu == 3
    assert s.k == 1
    assert not s.is_circular


def test_derived_symbols_even_dimension_are_half_integers():
    s = make_state(4, 3, 1, 1.0)
    assert s.eta == Fraction(7, 2)
    assert s.L == Fraction(3, 2)
    assert s.nu == Fraction(5, 2)
    assert s.k == 1


def test_circular_flag():
    assert make_state(5, 3, 2, 1.0).is_circular
    assert not make_state(5, 3, 1, 1.0).is_circular


def test_invalid_states():
    with pytest.raises(DimensionTooSmall):
        make_state(1, 1, 0, 1.0)
    with pytest.raises(QuantumNumberOutOfRange):
        make_state(3, 0, 0, 1.0)
    with pytest.raises(QuantumNumberOutOfRange):
        make_state(3, 2, 2, 1.0)
    with pytest.raises(QuantumNumberOutOfRange):
        make_state(3, 2, -1, 1.0)
    with pytest.raises(NonpositiveCharge):
        make_state(3, 1, 0, 0.0)


def test_momentum_interval_is_open():
    s = make_state(3, 2, 1, 1.0)
    lo, hi = s.momentum_interval()
    assert (lo, hi) == (-5, 7)
    assert not check_order(s, MomentOrder(lo, Space.MOMENTUM))
    assert not check_order(s, MomentOrder(hi, Space.MOMENTUM))
    assert check_order(s, MomentOrder(lo + 0.5, Space.MOMENTUM))
    assert check_order(s, MomentOrder(hi - 0.5, Space.MOMENTUM))


def test_position_domain():
    s = make_state(3, 2, 1, 1.0)
    assert s.position_lower_bound() == -5
    assert not check_order(s, MomentOrder(-5, Space.POSITION))
    assert check_order(s, MomentOrder(-4.5, Space.POSITION))
    assert check_order(s, MomentOrder(100.0, Space.POSITION))


def test_z_exact_is_binary_exact():
    s = make_state(3, 1, 0, 1.5)
    assert s.Z_exact == Fraction(3, 2)


def test_state_is_frozen_and_hashable():
    s = make_state(3, 2, 0, 1.0)
    assert s == HydrogenicState(3, 2, 0, 1.0)
    assert hash(s) == hash(HydrogenicState(3, 2, 0, 1.0))


def test_doubled_symbols_are_integers():
    for D in range(2, 9):
        for n in (1, 2, 7):
            for l in range(n):
                s = make_state(D, n, l, 1.0)
                assert type(s.two_nu) is int and s.two_nu == 2 * s.nu
                assert type(s.two_eta) is int and s.two_eta == 2 * s.eta


@pytest.mark.parametrize(
    "args",
    [(3.5, 2, 0, 1.0), (3.0, 2, 0, 1.0), (3, True, 0, 1.0), (3, 2, False, 1.0), (3, "2", 0, 1.0),
     (3, 2, 0, "1"), (3, 2, 0, True), (3, 2, 0, 1 + 0j)],
)
def test_argument_of_the_wrong_type_is_rejected(args):
    with pytest.raises(UnsupportedArgument):
        make_state(*args)


def test_charge_must_be_finite():
    with pytest.raises(ParameterOutOfRange):
        make_state(3, 2, 0, math.inf)
    for Z in (-math.inf, math.nan):
        with pytest.raises(NonpositiveCharge):
            make_state(3, 2, 0, Z)


def test_integral_and_rational_arguments_are_accepted():
    s = make_state(np.int64(4), np.int64(3), np.int64(1), Fraction(3, 2))
    assert type(s.D) is int and type(s.n) is int and type(s.l) is int
    assert s == make_state(4, 3, 1, Fraction(3, 2))
    assert s.Z_exact == Fraction(3, 2)
    assert make_state(3, 1, 0, 2).Z_exact == 2
