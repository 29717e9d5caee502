"""State construction, derived symbols, and domain predicates."""

import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from hydromoments import (
    HydrogenicState,
    MomentOrder,
    Space,
    check_order,
    make_state,
    p_moment,
    p_moment_circular,
    r_moment,
    r_moment_ground,
    reflect,
)
from hydromoments.states import require_order
from hydromoments.errors import (
    DimensionTooSmall,
    NonpositiveCharge,
    OrderOutOfDomain,
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


@pytest.mark.parametrize("alpha", [-5, 7, -4.5, 6.5, 100.0, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("space", list(Space))
def test_require_order_raises_exactly_where_check_order_fails(space, alpha):
    s = make_state(3, 2, 1, 1.0)
    if check_order(s, MomentOrder(alpha, space)):
        assert require_order(s, alpha, space) == float(alpha)
    else:
        with pytest.raises(OrderOutOfDomain, match=f"{'position' if space is Space.POSITION else 'momentum'} order"):
            require_order(s, alpha, space)


def test_z_exact_is_binary_exact():
    s = make_state(3, 1, 0, 1.5)
    assert s.Z_exact == Fraction(3, 2)


def test_state_is_frozen_and_hashable():
    s = make_state(3, 2, 0, 1.0)
    assert s == HydrogenicState(3, 2, 0, 1.0)
    assert hash(s) == hash(HydrogenicState(3, 2, 0, 1.0))


def test_derived_integers_stay_out_of_eq_hash_and_repr():
    # two_eta, two_nu and k are fields computed once in __post_init__
    s = make_state(5, 4, 1, 1.5)
    assert (s.two_eta, s.two_nu, s.k) == (10, 6, 2)
    assert [f.name for f in dataclasses.fields(s) if f.compare] == ["D", "n", "l", "Z"]
    assert repr(s) == "HydrogenicState(D=5, n=4, l=1, Z=1.5)"
    assert hash(s) == hash((5, 4, 1, 1.5)) == hash(HydrogenicState(np.int64(5), 4, 1, 1.5))
    t = dataclasses.replace(s, n=7, D=np.int32(6))
    assert (t.D, t.two_eta, t.two_nu, t.k) == (6, 17, 7, 5) and type(t.two_eta) is int
    with pytest.raises(ValueError):  # init=False: replace cannot set them apart from the labels
        dataclasses.replace(s, k=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.k = 0


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


@pytest.mark.parametrize(
    "Z", [Fraction(1, 10 ** 400), 10 ** 400, 1e-320, 2.0 ** -1023], ids=["1/10^400", "10^400", "1e-320", "2^-1023"]
)
def test_charge_must_lie_in_the_normal_double_range(Z):
    with pytest.raises(ParameterOutOfRange, match="normal double range"):
        make_state(3, 2, 0, Z)


def test_charges_at_the_edges_of_the_normal_double_range_are_accepted():
    for Z in (2.0 ** -1022, Fraction(1, 2 ** 1022), sys.float_info.max, int(sys.float_info.max)):
        assert make_state(3, 2, 0, Z).Z == Z


@pytest.mark.parametrize(
    "alpha", [10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)], ids=["10^400", "-10^400", "10^400/3"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda a: p_moment(make_state(3, 4, 1, 1.0), a),
        lambda a: r_moment(make_state(3, 4, 1, 1.0), a),
        lambda a: reflect(make_state(3, 4, 1, 1.0), a),
        lambda a: p_moment_circular(make_state(3, 4, 3, 1.0), a),
        lambda a: r_moment_ground(3, 1.0, a),
    ],
    ids=["p_moment", "r_moment", "reflect", "p_moment_circular", "r_moment_ground"],
)
def test_orders_beyond_the_double_range_are_out_of_domain(call, alpha):
    with pytest.raises(OrderOutOfDomain):
        call(alpha)


def test_an_order_that_is_not_a_real_number_is_rejected():
    s = make_state(3, 2, 1, 1.0)
    for space in Space:
        with pytest.raises(UnsupportedArgument):
            require_order(s, "3", space)


def test_integral_and_rational_arguments_are_accepted():
    s = make_state(np.int64(4), np.int64(3), np.int64(1), Fraction(3, 2))
    assert type(s.D) is int and type(s.n) is int and type(s.l) is int
    assert s == make_state(4, 3, 1, Fraction(3, 2))
    assert s.Z_exact == Fraction(3, 2)
    assert make_state(3, 1, 0, 2).Z_exact == 2
