"""Weight derivation, table matching, Euler field, central charges."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from orbimf.grading import (
    GradingError,
    VariableWeights,
    WeightSystem,
    central_charge,
    check_weight_system,
    euler_check,
    weights_from_potential,
)
from orbimf.polyring import VarTable, parse_poly


def _load_potentials():
    text = resources.files("orbimf").joinpath("data/potentials.json").read_text()
    return json.loads(text)


def _poly(entry):
    vt = VarTable(tuple(entry["vars"]), ring_vars=tuple(entry["vars"]))
    return parse_poly(entry["poly"], vt), vt


def test_weights_q10():
    vt = VarTable(("x", "y", "z"), ring_vars=("x", "y", "z"))
    w = weights_from_potential(parse_poly("x^4 + y^3 + x*z^2", vt), ("x", "y", "z"))
    assert w.as_dict() == {"x": Fraction(1, 2), "y": Fraction(2, 3), "z": Fraction(3, 4)}


def test_weights_e12_and_charge():
    vt = VarTable(("x", "y", "z"), ring_vars=("x", "y", "z"))
    w = weights_from_potential(parse_poly("x^7 + y^3 + z^2", vt), ("x", "y", "z"))
    assert w.as_dict() == {"x": Fraction(2, 7), "y": Fraction(2, 3), "z": Fraction(1)}
    assert central_charge(w) == Fraction(22, 21) == Fraction(44, 42)


def test_weights_single_square():
    vt = VarTable(("x",), ring_vars=("x",))
    w = weights_from_potential(parse_poly("x^2", vt), ("x",))
    assert w.as_dict() == {"x": Fraction(1)}


def test_weights_e14_v1():
    vt = VarTable(("x", "y", "z"), ring_vars=("x", "y", "z"))
    w = weights_from_potential(parse_poly("x^4*z + y^3 + z^2", vt), ("x", "y", "z"))
    assert set(w.as_dict().values()) == {Fraction(1, 4), Fraction(2, 3), Fraction(1)}
    assert check_weight_system(w, WeightSystem(8, 3, 12, 24))


def test_check_weight_system_q10_assignment():
    vw = VariableWeights.of({"x": Fraction(1, 2), "y": Fraction(2, 3), "z": Fraction(3, 4)})
    assert check_weight_system(vw, WeightSystem(9, 8, 6, 24))


def test_check_weight_system_wrong_h():
    vw = VariableWeights.of({"x": Fraction(1, 2), "y": Fraction(2, 3), "z": Fraction(3, 4)})
    assert not check_weight_system(vw, WeightSystem(9, 8, 6, 25))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_weight_system_agrees_with_every_assignment(data):
    # weights drawn from a few small fractions and the system's own, so
    # repeated weights and partial matches are common
    h = data.draw(st.integers(2, 8), label="h")
    triple = data.draw(st.tuples(*[st.integers(1, h - 1)] * 3).filter(lambda t: gcd(*t) == 1), label="a")
    ws = WeightSystem(*triple, h)
    targets = ws.normalized_weights()
    pool = sorted({t for t in targets if t <= 1} | {Fraction(1, 3), Fraction(1, 2), Fraction(1)})
    weights = data.draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3), label="weights")
    vw = VariableWeights(tuple(zip(("x", "y", "z"), weights)))
    some_assignment = any(tuple(weights) == perm for perm in permutations(targets))
    assert check_weight_system(vw, ws) == some_assignment


def test_inhomogeneous_rejected():
    vt = VarTable(("x",), ring_vars=("x",))
    with pytest.raises(GradingError):
        weights_from_potential(parse_poly("x^2 + x", vt), ("x",))
    assert not euler_check(parse_poly("x^2 + x", vt), VariableWeights.of({"x": Fraction(1)}))


def test_euler_q12_v2():
    vt = VarTable(("x", "y", "z"), ring_vars=("x", "y", "z"))
    p = parse_poly("x^5 + y^3 + x*z^2", vt)
    vw = VariableWeights.of({"x": Fraction(2, 5), "y": Fraction(2, 3), "z": Fraction(4, 5)})
    assert euler_check(p, vw)


def test_central_charge_unit_weights():
    vw = VariableWeights.of({"x": Fraction(1), "y": Fraction(1), "z": Fraction(1)})
    assert central_charge(vw) == 0


def test_combine_disjoint_and_overlap():
    a = VariableWeights.of({"x": Fraction(1, 2)})
    b = VariableWeights.of({"u": Fraction(1, 3)})
    assert a.combine(b).as_dict() == {"x": Fraction(1, 2), "u": Fraction(1, 3)}
    with pytest.raises(GradingError):
        a.combine(a)


def test_weight_system_invariants():
    with pytest.raises(GradingError):
        WeightSystem(2, 4, 6, 12)  # gcd 2
    with pytest.raises(GradingError):
        WeightSystem(9, 8, 24, 24)  # weight not below h
    with pytest.raises(GradingError):
        WeightSystem(0, 1, 1, 2)


@pytest.mark.parametrize("key", sorted(_load_potentials()))
def test_every_table_potential(key):
    entry = _load_potentials()[key]
    p, vt = _poly(entry)
    vw = weights_from_potential(p, tuple(entry["vars"]))
    assert euler_check(p, vw)
    ws = WeightSystem(*entry["weight_system"])
    assert check_weight_system(vw, ws)
    assert central_charge(vw) == Fraction(ws.h + 2, ws.h)


def test_charges_equal_within_pairs():
    data = _load_potentials()
    groups = {}
    for key, entry in data.items():
        base = re.sub(r"v\d$", "", key)
        p, vt = _poly(entry)
        groups.setdefault(base, []).append(
            central_charge(weights_from_potential(p, tuple(entry["vars"])))
        )
    for base, charges in groups.items():
        assert len(set(charges)) == 1, base
