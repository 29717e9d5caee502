"""Uncertainty-inequality checkers: structure, known constants, domains."""

import json
import math

import mpmath
import pytest

from hydromoments import (
    InequalityName,
    daubechies_thakkar,
    fermion_product,
    heisenberg_general,
    make_state,
    pitt_beckner,
)
from hydromoments import uncertainty
from hydromoments.errors import FloatOverflow, NonpositiveParameters, NotSWave, OrderOutOfDomain
from hydromoments.uncertainty import fermion_factor, momentum_space_constant


def test_heisenberg_general_classic_case():
    s = make_state(3, 1, 0, 1.0)
    rep = heisenberg_general(s, 2, 2)
    # <r^2><p^2> = 3 * 1 against D^2/4 = 9/4
    assert rep.lhs == pytest.approx(3.0, rel=1e-12)
    assert rep.rhs == pytest.approx(9.0 / 4, rel=1e-12)
    assert rep.satisfied and rep.rigorous
    names = {sib.name for sib in rep.siblings}
    assert InequalityName.HEISENBERG_D2_OVER_4 in names
    assert InequalityName.SPHERICAL_L in names
    assert InequalityName.HEISENBERG_3D in names
    assert InequalityName.HEISENBERG_3D_AB in names
    assert all(sib.satisfied for sib in rep.siblings)


def test_heisenberg_general_rejects_nonpositive_orders():
    s = make_state(3, 1, 0, 1.0)
    with pytest.raises(NonpositiveParameters):
        heisenberg_general(s, -1, 2)


def test_heisenberg_unequal_orders():
    rep = heisenberg_general(make_state(5, 3, 1, 1.0), 1.0, 3.0)
    assert rep.satisfied
    assert rep.ratio >= 1


def test_pitt_beckner_ground_state():
    s = make_state(3, 1, 0, 1.0)
    rep = pitt_beckner(s, 2.0)
    # <p^2> = 1 vs 4 [Gamma(5/4)/Gamma(1/4)]^2 <r^-2> = 1/2
    assert rep.lhs == pytest.approx(1.0, rel=1e-12)
    assert rep.rhs == pytest.approx(0.5, rel=1e-10)
    assert rep.satisfied
    kin = [s_ for s_ in rep.siblings if s_.name is InequalityName.KINETIC_BOUND]
    assert len(kin) == 1
    assert kin[0].lhs == pytest.approx(0.5, rel=1e-12)
    assert kin[0].rhs == pytest.approx(0.25, rel=1e-12)


def test_pitt_beckner_computes_each_moment_once(monkeypatch):
    calls = []
    for name in ("p_moment", "r_moment"):
        def counted(*args, _fn=getattr(uncertainty, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(uncertainty, name, counted)
    rep = pitt_beckner(make_state(3, 2, 0, 1.0), 2)
    assert sorted(calls) == ["p_moment", "r_moment"]
    assert [sib.name for sib in rep.siblings] == [InequalityName.KINETIC_BOUND]


def test_heisenberg_general_computes_each_moment_once(monkeypatch):
    calls = []
    for name in ("p_moment", "r_moment"):
        def counted(*args, _fn=getattr(uncertainty, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(uncertainty, name, counted)
    s = make_state(3, 2, 0, 1.0)
    rep = heisenberg_general(s, 2, 2)
    assert sorted(calls) == ["p_moment", "r_moment"]
    # at b = 1, <p^2> is a moment of its own
    calls.clear()
    other = heisenberg_general(s, 2, 1)
    assert [sib.lhs for sib in other.siblings[:2]] == [sib.lhs for sib in rep.siblings[:2]]
    assert sorted(calls) == ["p_moment", "p_moment", "r_moment"]


def test_pitt_beckner_domain():
    with pytest.raises(OrderOutOfDomain):
        pitt_beckner(make_state(3, 1, 0, 1.0), 3.5)


def test_momentum_space_constant():
    # K_3(2) = 3/5 * (2 pi)^2 * Gamma(5/2)^(2/3) / pi
    expect = 3 / 5 * (2 * math.pi) ** 2 * math.gamma(2.5) ** (2 / 3) / math.pi
    assert momentum_space_constant(3, 2) == pytest.approx(expect, rel=1e-13)


def test_daubechies_thakkar_hydrogen_ground():
    rep = daubechies_thakkar(make_state(3, 1, 0, 1.0), 2)
    assert not rep.rigorous
    assert rep.satisfied
    assert rep.rhs / rep.lhs == pytest.approx(0.578, abs=0.01)
    sib = [s_ for s_ in rep.siblings if s_.name is InequalityName.DAUBECHIES_THAKKAR_3D]
    assert len(sib) == 1 and not sib[0].rigorous


def test_daubechies_thakkar_negative_order_flips():
    rep = daubechies_thakkar(make_state(3, 1, 0, 1.0), -1)
    assert rep.satisfied  # lhs <= rhs orientation
    assert rep.lhs <= rep.rhs


def test_daubechies_thakkar_requires_s_wave():
    with pytest.raises(NotSWave):
        daubechies_thakkar(make_state(3, 2, 1, 1.0), 2)
    with pytest.raises(OrderOutOfDomain):
        daubechies_thakkar(make_state(3, 1, 0, 1.0), 0)


def test_fermion_product_reference_constant():
    rep = fermion_product(make_state(3, 1, 0, 1.0), 2.0, 2.0)
    assert rep.rhs == pytest.approx(1.17005, rel=1e-5)
    assert rep.lhs == pytest.approx(3.0, rel=1e-12)
    assert rep.satisfied
    k3f = momentum_space_constant(3, 2) * fermion_factor(3, 2.0, 2.0)
    assert k3f == pytest.approx(1.8573340775, rel=1e-9)


def test_fermion_product_parameters():
    s = make_state(3, 1, 0, 1.0)
    with pytest.raises(NonpositiveParameters):
        fermion_product(s, 2.0, 2.0, N=0)
    with pytest.raises(NonpositiveParameters):
        fermion_factor(3, -1.0, 2.0)


def test_reports_serialize_to_json():
    rep = heisenberg_general(make_state(4, 2, 1, 1.0), 2, 2)
    blob = json.dumps(rep.to_dict())
    parsed = json.loads(blob)
    assert parsed["name"] == "HeisenbergGeneral"
    assert parsed["satisfied"] is True
    assert isinstance(parsed["siblings"], list)



def _dim_factor_reference(D, c):
    """One bracket of the general Heisenberg bound at 30 digits."""
    with mpmath.workdps(30):
        D, c, e = mpmath.mpf(D), mpmath.mpf(c), mpmath.e
        return e * D ** (2 / c) * mpmath.gamma(1 + D / 2) ** (2 / D) / (
            (c * e) ** (2 / c) * mpmath.gamma(1 + D / c) ** (2 / D)
        )


def test_constants_and_products_are_taken_from_logs():
    # D^(2/c) alone exceeds the double range at c = 0.01 and raised a bare
    # OverflowError; the bracket is about e^6.2
    rep = heisenberg_general(make_state(1000, 1, 0, 1.0), 0.01, 2)
    want = _dim_factor_reference(1000, 0.01) * _dim_factor_reference(1000, 2)
    assert rep.rhs == pytest.approx(float(want), rel=1e-11)
    assert rep.satisfied
    # (2 pi)^300 and <r^2>^150 raised a bare OverflowError; the product itself
    # lies beyond the double range
    with pytest.raises(FloatOverflow):
        fermion_product(make_state(500, 1, 0, 250.0), 2, 300)
    # D/(k+D) divided by zero at k = -D
    with pytest.raises(NonpositiveParameters):
        momentum_space_constant(3, -3)
