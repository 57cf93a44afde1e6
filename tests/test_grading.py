"""Weight derivation, table matching, Euler field, central charges."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources
from itertools import permutations
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbimf.grading import (
    GradingError,
    VariableWeights,
    WeightSystem,
    central_charge,
    check_weight_system,
    euler_check,
    weights_from_potential,
)
from orbimf.polyring import Poly, VarTable, parse_poly


def _load_potentials():
    text = resources.files("orbimf").joinpath("data/potentials.json").read_text()
    return json.loads(text)


def _weights(**weights):
    return VariableWeights(tuple(weights.items()))


def _poly(entry):
    vt = VarTable(tuple(entry["vars"]), ring_vars=tuple(entry["vars"]))
    return parse_poly(entry["poly"], vt), vt


def test_weights_q10():
    vt = VarTable(("x", "y", "z"), ring_vars=("x", "y", "z"))
    w = weights_from_potential(parse_poly("x^4 + y^3 + x*z^2", vt), ("x", "y", "z"))
    assert dict(w.weights) == {"x": Fraction(1, 2), "y": Fraction(2, 3), "z": Fraction(3, 4)}


def test_weights_e12_and_charge():
    vt = VarTable(("x", "y", "z"), ring_vars=("x", "y", "z"))
    w = weights_from_potential(parse_poly("x^7 + y^3 + z^2", vt), ("x", "y", "z"))
    assert dict(w.weights) == {"x": Fraction(2, 7), "y": Fraction(2, 3), "z": Fraction(1)}
    assert central_charge(w) == Fraction(22, 21) == Fraction(44, 42)


def test_weights_single_square():
    vt = VarTable(("x",), ring_vars=("x",))
    w = weights_from_potential(parse_poly("x^2", vt), ("x",))
    assert dict(w.weights) == {"x": Fraction(1)}


def test_weights_e14_v1():
    vt = VarTable(("x", "y", "z"), ring_vars=("x", "y", "z"))
    w = weights_from_potential(parse_poly("x^4*z + y^3 + z^2", vt), ("x", "y", "z"))
    assert set(dict(w.weights).values()) == {Fraction(1, 4), Fraction(2, 3), Fraction(1)}
    assert check_weight_system(w, WeightSystem(8, 3, 12, 24))


def test_check_weight_system_q10_assignment():
    vw = _weights(x=Fraction(1, 2), y=Fraction(2, 3), z=Fraction(3, 4))
    assert check_weight_system(vw, WeightSystem(9, 8, 6, 24))


def test_check_weight_system_wrong_h():
    vw = _weights(x=Fraction(1, 2), y=Fraction(2, 3), z=Fraction(3, 4))
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
    assert not euler_check(parse_poly("x^2 + x", vt), _weights(x=Fraction(1)))


def test_euler_q12_v2():
    vt = VarTable(("x", "y", "z"), ring_vars=("x", "y", "z"))
    p = parse_poly("x^5 + y^3 + x*z^2", vt)
    vw = _weights(x=Fraction(2, 5), y=Fraction(2, 3), z=Fraction(4, 5))
    assert euler_check(p, vw)


def test_central_charge_unit_weights():
    vw = _weights(x=Fraction(1), y=Fraction(1), z=Fraction(1))
    assert central_charge(vw) == 0


def test_duplicate_variable_rejected():
    # one weight table names each variable once; the catalog keeps the two
    # sides' variables apart at load
    with pytest.raises(GradingError):
        VariableWeights((("x", Fraction(1, 2)), ("x", Fraction(1, 3))))


def test_weight_system_invariants():
    with pytest.raises(GradingError):
        WeightSystem(2, 4, 6, 12)  # gcd 2
    with pytest.raises(GradingError):
        WeightSystem(9, 8, 24, 24)  # weight not below h
    with pytest.raises(GradingError):
        WeightSystem(0, 1, 1, 2)


def _euler_follows_from_the_solve(w: Poly, names) -> bool:
    """Whether `weights_from_potential` solves `w`; when it does, assert
    that its weights give every monomial of `w` degree 2, which is Euler's
    identity term by term, and that `euler_check` agrees."""
    try:
        vw = weights_from_potential(w, names)
    except GradingError:
        return False
    weights = [wt for _, wt in vw.weights]
    idx = [w.vt.index(n) for n in names]
    for mono in w.monomials():
        assert sum(map(mul, (mono[i] for i in idx), weights)) == 2, mono
    assert euler_check(w, vw)
    return True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_euler_identity_follows_from_the_weight_solve(data):
    # a sum of monomials of weighted degree 2 at weights a_i/h, maybe with
    # one arbitrary monomial that spoils it; whenever the weights solve,
    # Euler's identity holds, so the grading stage need not check it
    names = ("x", "y", "z")
    vt = VarTable(names, ring_vars=names)
    h = data.draw(st.integers(2, 12), label="h")
    a1, a2, a3 = data.draw(st.tuples(*[st.integers(1, h)] * 3), label="a")
    firsts = ((i, j) for i in range(2 * h // a1 + 1) for j in range((2 * h - i * a1) // a2 + 1))
    degree_two = [(i, j, r // a3) for i, j in firsts if (r := 2 * h - i * a1 - j * a2) % a3 == 0]
    assume(degree_two)
    monos = data.draw(st.lists(st.sampled_from(degree_two), min_size=1, max_size=6, unique=True), label="monomials")
    extra = data.draw(st.none() | st.tuples(*[st.integers(0, 4)] * 3), label="extra")
    coeffs = st.integers(-5, 5).filter(bool)
    terms = {mono: Fraction(data.draw(coeffs)) for mono in monos + ([extra] if extra else [])}
    _euler_follows_from_the_solve(Poly(vt, terms), names)


@pytest.mark.parametrize("key", sorted(_load_potentials()))
def test_every_table_potential(key):
    entry = _load_potentials()[key]
    p, vt = _poly(entry)
    assert _euler_follows_from_the_solve(p, tuple(entry["vars"]))
    vw = weights_from_potential(p, tuple(entry["vars"]))
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
