"""One gate for every moment order: each public function that takes an order
passes it through `states.require_order` before any work that depends on it.

The table below is checked against `hydromoments.__all__`: a public function
with a parameter named like an order must have an entry, so a new entry
point cannot skip the gate unseen.  For every entry, a bool raises
UnsupportedArgument, nan and an order outside the domain raise
OrderOutOfDomain (OrderOutOfRegime, one of them, from an estimator), and
wherever the int order gives an exact value, its float gives the same one."""

import inspect
import math

import pytest

import hydromoments
from hydromoments import (
    MomentOrder,
    Space,
    check_order,
    daubechies_thakkar,
    fermion_product,
    heisenberg_general,
    highD,
    make_state,
    p_moment,
    p_moment_circular,
    p_moment_double_sum,
    p_moment_even_closed,
    pitt_beckner,
    quad_p_moment,
    quad_r_moment,
    r_moment,
    r_moment_closed,
    r_moment_ground,
    reflect,
    rydberg_circular_p,
    rydberg_p,
    rydberg_r,
)
from hydromoments.errors import HydromomentsError, OrderOutOfDomain, OrderOutOfRegime, UnsupportedArgument

P, R = Space.MOMENTUM, Space.POSITION
# 3D 3d is circular and 3D 1s an s-wave, as some entries need; at eta = 3 a
# float power of Z/eta is not exact
CIRCULAR, S_WAVE = make_state(3, 3, 2, 1.0), make_state(3, 1, 0, 1.0)

ORDER_PARAMS = {"alpha", "a", "b", "k", "order"}
# public functions with a parameter of such a name that is not a moment order
NOT_ORDERS = {"gamma_ratio_asym"}  # a and b shift the arguments of a Gamma ratio

# (function, order parameter) -> [(state, space, call(order)), ...]
GATED = {
    ("p_moment", "alpha"): [(CIRCULAR, P, lambda a: p_moment(CIRCULAR, a))],
    ("p_moment_double_sum", "alpha"): [(CIRCULAR, P, lambda a: p_moment_double_sum(CIRCULAR, a))],
    ("p_moment_even_closed", "alpha"): [(CIRCULAR, P, lambda a: p_moment_even_closed(CIRCULAR, a))],
    ("p_moment_circular", "alpha"): [(CIRCULAR, P, lambda a: p_moment_circular(CIRCULAR, a))],
    ("reflect", "alpha"): [(CIRCULAR, P, lambda a: reflect(CIRCULAR, a))],
    ("r_moment", "alpha"): [(CIRCULAR, R, lambda a: r_moment(CIRCULAR, a))],
    ("r_moment_closed", "alpha"): [(CIRCULAR, R, lambda a: r_moment_closed(CIRCULAR, a))],
    ("r_moment_ground", "alpha"): [(S_WAVE, R, lambda a: r_moment_ground(3, 1.0, a))],
    ("quad_p_moment", "alpha"): [(CIRCULAR, P, lambda a: quad_p_moment(CIRCULAR, a))],
    ("quad_r_moment", "alpha"): [(CIRCULAR, R, lambda a: quad_r_moment(CIRCULAR, a))],
    ("rydberg_r", "alpha"): [(CIRCULAR, R, lambda a: rydberg_r(CIRCULAR, a))],
    ("rydberg_p", "alpha"): [(CIRCULAR, P, lambda a: rydberg_p(CIRCULAR, a))],
    ("rydberg_circular_p", "alpha"): [(CIRCULAR, P, lambda a: rydberg_circular_p(CIRCULAR, a))],
    ("highD", "alpha"): [(CIRCULAR, space, lambda a, space=space: highD(CIRCULAR, a, space)) for space in Space],
    ("check_order", "order"): [
        (CIRCULAR, space, lambda a, space=space: check_order(CIRCULAR, MomentOrder(a, space))) for space in Space
    ],
    ("heisenberg_general", "a"): [(CIRCULAR, R, lambda a: heisenberg_general(CIRCULAR, a, 2.0))],
    ("heisenberg_general", "b"): [(CIRCULAR, P, lambda b: heisenberg_general(CIRCULAR, 2.0, b))],
    ("pitt_beckner", "alpha"): [(CIRCULAR, P, lambda a: pitt_beckner(CIRCULAR, a))],
    ("daubechies_thakkar", "k"): [(S_WAVE, P, lambda k: daubechies_thakkar(S_WAVE, k))],
    ("fermion_product", "alpha"): [(CIRCULAR, R, lambda a: fermion_product(CIRCULAR, a, 2.0))],
    ("fermion_product", "k"): [(CIRCULAR, P, lambda k: fermion_product(CIRCULAR, 2.0, k))],
}
ESTIMATORS = {"rydberg_r", "rydberg_p", "rydberg_circular_p", "highD"}
EXACT = {
    "p_moment", "p_moment_double_sum", "p_moment_even_closed", "p_moment_circular", "reflect",
    "r_moment", "r_moment_closed", "r_moment_ground",
}

CASES = [(name, param, *entry) for (name, param), entries in GATED.items() for entry in entries]
IDS = [f"{name}-{param}-{space.value}" for name, param, _, space, _ in CASES]


def _out_of_domain(state, space):
    """The edges of the open domain, where the moment diverges."""
    if space is R:
        return [state.position_lower_bound(), state.position_lower_bound() - 1.5]
    return list(state.momentum_interval())


def test_every_public_function_that_takes_an_order_is_in_the_table():
    found = set()
    for name in hydromoments.__all__:
        fn = getattr(hydromoments, name)
        if inspect.isfunction(fn) and name not in NOT_ORDERS:
            found |= {(name, p) for p in inspect.signature(fn).parameters if p in ORDER_PARAMS}
    assert found == set(GATED)


@pytest.mark.parametrize("name, param, state, space, call", CASES, ids=IDS)
def test_a_bool_is_not_an_order(name, param, state, space, call):
    for order in (True, False):
        with pytest.raises(UnsupportedArgument, match="not a bool"):
            call(order)


@pytest.mark.parametrize("name, param, state, space, call", CASES, ids=IDS)
def test_nan_and_orders_outside_the_domain_are_out_of_domain(name, param, state, space, call):
    expected = OrderOutOfRegime if name in ESTIMATORS else OrderOutOfDomain
    for order in [math.nan, *_out_of_domain(state, space)]:
        if name == "check_order":
            assert check_order(state, MomentOrder(order, space)) is False
            continue
        with pytest.raises(expected, match=f"{space.name.lower()} order"):
            call(order)


@pytest.mark.parametrize("name, param, state, space, call", CASES, ids=IDS)
def test_a_float_integer_order_gives_the_exact_value_of_the_int(name, param, state, space, call):
    exact = 0
    for a in range(_out_of_domain(state, space)[0] + 1, 7):
        try:
            res = call(a)
        except HydromomentsError as exc:
            with pytest.raises(type(exc)):
                call(float(a))
            continue
        if getattr(res, "is_exact", False):
            assert call(float(a)).value == res.value, a
            exact += 1
    assert exact > 0 or name not in EXACT
