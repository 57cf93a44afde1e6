"""Supertrace, cofactor lifts, residues, and quantum dimensions."""

from __future__ import annotations

import itertools
import json
import random
import shutil
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from orbimf import residue
from orbimf._groebner import groebner_basis, reducer
from orbimf.catalog import load_catalog
from orbimf.grading import weights_from_potential
from orbimf.matfac import build_8x8, generator_degrees
from orbimf.polyring import Poly, VarTable, format_poly, parse_poly
from orbimf.residue import (
    ResidueError,
    cofactor_lift,
    derivative_matrix_product,
    derivative_supertrace,
    grothendieck_residue,
    qdim_left,
    qdim_pair,
    qdim_right,
    supertrace,
)

DEMO_DIR = Path(__file__).parent / "data" / "demo"
_POTENTIALS = json.loads(resources.files("orbimf").joinpath("data/potentials.json").read_text())


def _ring(*names):
    vt = VarTable(tuple(names), ring_vars=tuple(names))
    return vt


def test_supertrace_signs():
    vt = _ring("x")
    z = Poly.zero(vt)
    rows = []
    for i in range(8):
        row = [z] * 8
        row[i] = Poly.const(vt, i + 1)
        rows.append(tuple(row))
    # rows 1..4 count positively, rows 5..8 negatively
    assert supertrace(tuple(rows)) == Poly.const(vt, (1 + 2 + 3 + 4) - (5 + 6 + 7 + 8))


def _bound_exponents(w: Poly, names):
    """floor(2c / w_i) + 1, 2c = sum(2 - 2 w_j) the Hessian's weighted degree."""
    weights = [x for _, x in weights_from_potential(w, tuple(names)).weights]
    hessian = sum(2 - 2 * x for x in weights)
    return tuple(int(hessian / x) + 1 for x in weights)


def _assert_cofactor_identities(w: Poly, names, lift):
    # sum_j h_ij f_j = v_i^N_i on every row
    f = [w.partial(n) for n in names]
    for i, name in enumerate(names):
        acc = Poly.zero(w.vt)
        for j in range(3):
            acc = acc + lift.matrix[i][j] * f[j]
        assert acc == parse_poly(f"{name}^{lift.exponents[i]}", w.vt)


def test_diagonal_lift_is_scaled_identity():
    # 2c = 44/21 with weights (2/7, 2/3, 1) puts the powers at (8, 4, 3),
    # each a monomial multiple of its own partial; at the smallest powers
    # (6, 2, 1) the lift is the scaled identity
    names = ("x", "y", "z")
    vt = _ring(*names)
    w = parse_poly("x^7 + y^3 + z^2", vt)
    lift = cofactor_lift(w, names)
    assert lift.exponents == _bound_exponents(w, names) == (8, 4, 3)
    _assert_cofactor_identities(w, names, lift)
    smallest = cofactor_lift(w, names, exponents=(6, 2, 1))
    for got, diagonal in ((lift, ("1/7*x^2", "1/3*y^2", "1/2*z^2")), (smallest, ("1/7", "1/3", "1/2"))):
        for i in range(3):
            for j in range(3):
                assert format_poly(got.matrix[i][j]) == (diagonal[i] if i == j else "0")


def test_lift_handles_coupled_denominators():
    # x^4*z + y^3 + z^2 mixes x and z in two partials; the solved lift
    # must still express pure powers, at the bound and at the smallest ones
    names = ("x", "y", "z")
    vt = _ring(*names)
    w = parse_poly("x^4*z + y^3 + z^2", vt)
    lift = cofactor_lift(w, names)
    assert lift.exponents == _bound_exponents(w, names) == (9, 4, 3)
    _assert_cofactor_identities(w, names, lift)
    _assert_cofactor_identities(w, names, cofactor_lift(w, names, exponents=(7, 2, 2)))


def test_lift_rejects_inhomogeneous_denominators():
    names = ("x", "y", "z")
    vt = _ring(*names)
    w = parse_poly("x^3 + x^4 + y^3 + z^2", vt)
    with pytest.raises(ResidueError):
        cofactor_lift(w, names)


# the smallest powers with a certificate on each table potential;
# through `exponents=` they give a second lift, independent of the one
# at the weight bound
SHIPPED_LIFT_EXPONENTS = {
    "E12": (6, 2, 1), "E13": (9, 3, 1), "E14v1": (7, 2, 2), "E14v2": (7, 2, 1),
    "Q10": (4, 2, 3), "Q11": (6, 3, 3), "Q12v1": (5, 2, 3), "Q12v2": (5, 2, 3),
    "S11": (4, 3, 4), "S12": (6, 4, 4), "U12v1": (3, 2, 2), "U12v2": (3, 3, 3),
    "U12v3": (3, 3, 3), "W12v1": (4, 3, 2), "W12v2": (4, 3, 1), "W13v1": (7, 4, 2),
    "W13v2": (7, 4, 1), "Z11": (5, 5, 1), "Z12": (7, 5, 1), "Z13v1": (6, 5, 2),
    "Z13v2": (6, 5, 1),
}


def test_lift_exponents_of_every_shipped_potential():
    # every table potential lifts at the weight bound, and so at its
    # smallest powers, which lie at or below it; both lifts integrate the
    # Hessian to the Milnor number prod(2/w_i - 1)
    assert set(_POTENTIALS) == set(SHIPPED_LIFT_EXPONENTS)
    for key, obj in _POTENTIALS.items():
        names = tuple(obj["vars"])
        w = parse_poly(obj["poly"], _ring(*names))
        bound = cofactor_lift(w, names)
        smallest = cofactor_lift(w, names, exponents=SHIPPED_LIFT_EXPONENTS[key])
        assert bound.exponents == _bound_exponents(w, names), key
        assert all(a <= b for a, b in zip(smallest.exponents, bound.exponents)), key
        mu = 1
        for _, x in weights_from_potential(w, names).weights:
            mu *= 2 / x - 1
        for lift in (bound, smallest):
            _assert_cofactor_identities(w, names, lift)
            assert grothendieck_residue(_hessian(w, names), w, names, lift=lift) == Poly.const(w.vt, mu), key


def test_cofactor_lift_solves_each_row_once(count_calls):
    # one certificate solve per row, at the weight bound
    solves = count_calls(residue, "_solve_power_certificate")
    for key, obj in _POTENTIALS.items():
        names = tuple(obj["vars"])
        lift = cofactor_lift(parse_poly(obj["poly"], _ring(*names)), names)
        assert [args[4:] for args in solves] == list(enumerate(lift.exponents)), key
        solves.clear()


def test_lift_rejects_non_isolated_potential():
    # x^3*y + x^2*y^2 = x^2*y*(x + y) is singular along the whole y-axis,
    # so no power of y lies in the Jacobian ideal
    names = ("x", "y", "z")
    w = parse_poly("x^3*y + x^2*y^2 + z^2", _ring(*names))
    with pytest.raises(ResidueError, match="power of y"):
        cofactor_lift(w, names)


def test_socle_residue_values():
    names = ("x", "y", "z")
    vt = _ring(*names)
    w = parse_poly("x^7 + y^3 + z^2", vt)
    # the socle monomial x^5*y carries 1/(7*3*2); everything of other
    # weight, and everything reducible, drops to zero
    assert grothendieck_residue(parse_poly("x^5*y", vt), w, names) == Poly.const(
        vt, Fraction(1, 42)
    )
    for text in ("1", "x^5", "y^2", "x^12*y^4*z^2"):
        assert grothendieck_residue(parse_poly(text, vt), w, names).is_zero()


def test_residue_linearity():
    names = ("x", "y", "z")
    vt = _ring(*names)
    w = parse_poly("x^7 + y^3 + z^2", vt)
    g1 = parse_poly("x^5*y + 3*x^2", vt)
    g2 = parse_poly("2*x^5*y - z", vt)
    combo = g1.scale(2) + g2.scale(-5)
    lhs = grothendieck_residue(combo, w, names)
    rhs = grothendieck_residue(g1, w, names).scale(2) + grothendieck_residue(
        g2, w, names
    ).scale(-5)
    assert lhs == rhs


def test_residue_independent_of_lift():
    # raising every certificate exponent by one produces a genuinely
    # different cofactor matrix; the residue must not notice
    rng = random.Random(2718)
    for poly_text in ("x^4*z + y^3 + z^2", "x^3*y + y^2*z + z^2*x"):
        names = ("x", "y", "z")
        vt = _ring(*names)
        w = parse_poly(poly_text, vt)
        l1 = cofactor_lift(w, names)
        l2 = cofactor_lift(w, names, exponents=tuple(n + 1 for n in l1.exponents))
        assert l1.matrix != l2.matrix
        for _ in range(10):
            g = Poly.zero(vt)
            for _ in range(4):
                mono = "*".join(
                    f"{n}^{rng.randrange(0, 3)}" for n in names
                ).replace("^0", "^1")  # keep it simple, powers 1..2
                g = g + parse_poly(mono, vt).scale(rng.randrange(-9, 10) or 1)
            assert grothendieck_residue(g, w, names, lift=l1) == grothendieck_residue(
                g, w, names, lift=l2
            )


def test_identity_defect_has_unit_qdims():
    demo = load_catalog(DEMO_DIR)["DEMOv1_DEMOv2"]
    m = build_8x8(demo.six())
    one = Poly.const(demo.vt, 1)
    assert qdim_left(m, demo.potential_in(), demo.potential_out()) == one
    assert qdim_right(m, demo.potential_in(), demo.potential_out()) == one


def test_e14_qdims_are_parameter_free():
    entry = load_catalog()["E14v1_E14v2"]
    m = build_8x8(entry.six())
    left = qdim_left(m, entry.potential_in(), entry.potential_out())
    right = qdim_right(m, entry.potential_in(), entry.potential_out())
    assert format_poly(left) == "-1/4*c^7"
    assert format_poly(right) == "c"


def test_qdim_results_live_in_parameters_only(shipped_work):
    for entry in load_catalog().values():
        for value in shipped_work(entry.id).qdims.values():
            assert all(v in entry.parameters for v in value.support_vars()), entry.id


def _free_of(p: Poly, zero) -> Poly:
    """The terms of p whose exponent is 0 on every variable in `zero`."""
    idx = [p.vt.index(n) for n in zero]
    return Poly(p.vt, {m: c for m, c in p.terms() if not any(m[i] for i in idx)})


def _bound_lifts(entry):
    """By side, the weight-bound lift of the potential it integrates against."""
    return {side: cofactor_lift(w, w.support_vars()) for side, w in (("left", entry.potential_out()),
                                                                     ("right", entry.potential_in()))}


def _graded_cases():
    """(label, factorization, source potential, target potential) of every
    shipped entry and of the Q12 slices at a4 = 2 and at a5 = 2."""
    catalog = load_catalog()
    cases = [(entry.id, build_8x8(entry.six()), entry.potential_in(), entry.potential_out()) for entry in catalog.values()]
    q12 = catalog["Q12v1_Q12v2"]
    for name in ("a4", "a5"):
        fixed = {name: Poly.const(q12.vt, 2)}
        six = [d.substitute(fixed) for d in q12.six()]
        cases.append((f"Q12 {name} = 2", build_8x8(six), q12.potential_in(), q12.potential_out()))
    return cases


def _reads_slices(m, v_in: Poly, w_out: Poly) -> bool:
    """The condition on which `qdim_pair` reads each side's slice, from
    `generator_degrees` in units of 1/D: every generator has one degree,
    parameters weighing 0, the degrees sum to 6, and the source and target
    weights have equal sums."""
    sources, targets = v_in.support_vars(), w_out.support_vars()
    weights = weights_from_potential(v_in, sources).weights + weights_from_potential(w_out, targets).weights
    d, ints, degrees = generator_degrees(m, weights)
    return (degrees is not None and sum(degrees) == 6 * d
            and sum(ints[n] for n in sources) == sum(ints[n] for n in targets))


# (left slice, right slice, whole supertrace) term counts on each shipped entry
SLICE_TERMS = {
    "E14v1_E14v2": (8, 5, 92), "Q12v1_Q12v2": (84, 9, 450), "U12v1_U12v3": (38, 12, 198), "U12v2_U12v3": (38, 12, 198),
    "W12v1_W12v2": (12, 5, 80), "W13v1_W13v2": (310, 13, 1229), "Z13v1_Z13v2": (15, 11, 167),
}


def test_graded_slices_match_full_product_and_separate_sides(shipped_work):
    # on every shipped entry and both Q12 slices the three grading
    # conditions hold; each side's slice is the sixfold 8x8 product's
    # supertrace restricted to the terms free of the other side, and the
    # pair is each side's residue of the whole product
    assert set(load_catalog()) == set(SLICE_TERMS)
    for label, m, v_in, w_out in _graded_cases():
        sources, targets = v_in.support_vars(), w_out.support_vars()
        assert _reads_slices(m, v_in, w_out), label
        full = supertrace(derivative_matrix_product(m, sources + targets))
        left, right = derivative_supertrace(m, sources + targets, (sources, targets))
        assert left == _free_of(full, sources), label
        assert right == _free_of(full, targets), label
        if label in SLICE_TERMS:
            assert (len(left.nums), len(right.nums), len(full.nums)) == SLICE_TERMS[label]
        pair = shipped_work(label).qdims if label in SLICE_TERMS else qdim_pair(m, v_in, w_out)
        assert pair["left"] == grothendieck_residue(full, w_out, targets), label
        assert pair["right"] == grothendieck_residue(full, v_in, sources), label


def _w12_on_z11(tmp_path):
    """W12 with its out side set to Z11, in a copy of the packaged catalog:
    central charges 11/10 in and 16/15 out, and d15 = z + w + a1*u*x +
    a2*x^2 has terms of weighted degree 1, 31/30 and 16/15."""
    shutil.copytree(Path(residue.__file__).parent / "data", tmp_path, dirs_exist_ok=True)
    path = tmp_path / "W12.json"
    data = json.loads(path.read_text())
    data["ring_vars_out"]["potential"] = "Z11"
    path.write_text(json.dumps(data))
    return load_catalog(tmp_path)["W12v1_W12v2"]


def test_ungraded_factorization_reads_the_whole_determinant(count_calls, tmp_path):
    # E14 with d15 + 1, and W12 on Z11: in neither does d15 have one
    # degree, so both residues read the whole determinant, formed once,
    # and give the values they had when a parameter could take a degree
    # (the constant leaves E14's Jacobian, and so both residues, unchanged)
    e14 = load_catalog()["E14v1_E14v2"]
    six = list(e14.six())
    six[0] = six[0] + Poly.const(e14.vt, 1)
    w12 = _w12_on_z11(tmp_path)
    cases = [
        (build_8x8(six), e14.potential_in(), e14.potential_out(), ("-1/4*c^7", "c")),
        (build_8x8(w12.six()), w12.potential_in(), w12.potential_out(), ("0", "-2*a1 + b1 - b2")),
    ]
    for m, v_in, w_out, values in cases:
        sources, targets = v_in.support_vars(), w_out.support_vars()
        weights = weights_from_potential(v_in, sources).weights + weights_from_potential(w_out, targets).weights
        assert generator_degrees(m, weights)[2] is None
        assert not _reads_slices(m, v_in, w_out)
        products = count_calls(residue, "derivative_supertrace")
        pair = qdim_pair(m, v_in, w_out)
        assert [args[2] for args in products] == [((),)]
        full = supertrace(derivative_matrix_product(m, sources + targets))
        assert pair["left"] == grothendieck_residue(full, w_out, targets)
        assert pair["right"] == grothendieck_residue(full, v_in, sources)
        assert (format_poly(pair["left"]), format_poly(pair["right"])) == values


def _smallest_power_lift(side, w: Poly):
    """The lift of `w` at its table potential's SHIPPED_LIFT_EXPONENTS,
    carried onto the entry's variables through the side's renaming."""
    table_vars = _POTENTIALS[side.potential_key]["vars"]
    back = {v: k for k, v in side.renaming.items()}
    names = w.support_vars()
    exponents = SHIPPED_LIFT_EXPONENTS[side.potential_key]
    return cofactor_lift(w, names, exponents=tuple(exponents[table_vars.index(back[n])] for n in names))


def test_smallest_power_lifts_give_the_same_quantum_dimensions(shipped_work):
    # all fourteen catalog sides, each integrated through the lift at the
    # smallest powers over its slice: the slice holds every term that
    # lift reads too
    for entry in load_catalog().values():
        work = shipped_work(entry.id)
        sides = {"left": (entry.side_out, entry.potential_out()), "right": (entry.side_in, entry.potential_in())}
        lifts = {side: _smallest_power_lift(rec, w) for side, (rec, w) in sides.items()}
        assert lifts != _bound_lifts(entry), entry.id
        sources, targets = entry.potential_in().support_vars(), entry.potential_out().support_vars()
        slices = dict(zip(("left", "right"), derivative_supertrace(work.m, sources + targets, (sources, targets))))
        for side, (_, w) in sides.items():
            s = slices[side]
            got = grothendieck_residue(s, w, lifts[side].vars, lift=lifts[side])
            assert got == work.qdims[side], (entry.id, side)


def test_qdim_pair_solves_six_rows(count_calls):
    # two lifts of three rows each per entry: 42 solves over the catalog
    solves = count_calls(residue, "_solve_power_certificate")
    for entry in load_catalog().values():
        qdim_pair(build_8x8(entry.six()), entry.potential_in(), entry.potential_out())
    assert len(solves) == 42


def test_qdim_pair_forms_each_lift_determinant_once(count_calls):
    # the residue reads each lift's det(H), formed with the lift
    dets = count_calls(residue, "_determinant")
    for entry in load_catalog().values():
        before = len(dets)
        qdim_pair(build_8x8(entry.six()), entry.potential_in(), entry.potential_out())
        assert len(dets) - before == 2, entry.id


def test_derivative_supertrace_differentiates_in_integers(count_calls):
    # the Jacobian is formed from each generator's integer terms, with no
    # Fraction partial, for the whole determinant and for both slices
    entries = list(load_catalog().values())
    partials = count_calls(Poly, "partial")
    for entry in entries:
        sources, targets = entry.potential_in().support_vars(), entry.potential_out().support_vars()
        derivative_supertrace(build_8x8(entry.six()), sources + targets, ((), sources, targets))
    assert not partials


def test_cofactor_lift_makes_no_fraction_after_its_weight_solve(monkeypatch):
    # with its weights given, a lift runs on integer weights in units of
    # their common denominator
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    for key, obj in _POTENTIALS.items():
        names = tuple(obj["vars"])
        w = parse_poly(obj["poly"], _ring(*names))
        weights = weights_from_potential(w, names)
        monkeypatch.setattr(Fraction, "__new__", counted)
        cofactor_lift(w, names, weights=weights)
        monkeypatch.undo()
        assert not made, key


# -- the Clifford supertrace identity behind derivative_supertrace ------


def _gamma_maps():
    """Each G_k = build_8x8 of the k-th unit vector as a signed partial
    permutation: per row, its one nonzero cell (column, sign) or None."""
    vt = VarTable(("t",))
    maps = []
    for k in range(6):
        rows = build_8x8([Poly.const(vt, int(i == k)) for i in range(6)]).matrix
        cells = [[(j, p.constant_value()) for j, p in enumerate(row) if not p.is_zero()] for row in rows]
        assert all(len(c) <= 1 and all(abs(s) == 1 for _, s in c) for c in cells)
        maps.append([c[0] if c else None for c in cells])
    return maps


def _levi_civita(k):
    if len(set(k)) < len(k):
        return 0
    inversions = sum(1 for i in range(len(k)) for j in range(i + 1, len(k)) if k[i] > k[j])
    return -1 if inversions % 2 else 1


def test_clifford_supertrace_is_levi_civita():
    # str(G_k1 ... G_k6) = eps(k1..k6) on all 6^6 index tuples: the
    # identity that makes the supertrace a 6x6 Jacobian determinant
    maps = _gamma_maps()
    found = {}

    def extend(prefix, state):  # state[i]: where row i of the product so far sits
        if len(prefix) == 6:
            found[prefix] = sum(
                (s if i < 4 else -s) for i, cell in enumerate(state) if cell for j, s in [cell] if j == i
            )
            return
        for k, g in enumerate(maps):
            step = [cell and g[cell[0]] for cell in state]
            extend(prefix + (k,), [nxt and (nxt[0], cell[1] * nxt[1]) for cell, nxt in zip(state, step)])

    extend((), [(i, 1) for i in range(8)])
    assert len(found) == 6**6
    assert all(value == _levi_civita(k) for k, value in found.items())



# -- the packed-integer determinant against the whole 8x8 product ------

_DET_VT = VarTable(("x", "y", "z", "u", "v", "w"), ring_vars=("x", "y", "z", "u", "v", "w"))
_DET_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def _det_generators(draw):
    """Six generators, the k-th carrying a power of the k-th variable (or,
    now and then, nothing) besides up to two random terms, so that most
    Jacobians are nonsingular while many of their entries are zero.  Tall
    draws mix in exponents of 24-40, so that products of six entries can
    exceed 127 in one variable, more than an 8-bit field can hold."""
    tall = draw(st.booleans())
    exponents = st.one_of(st.integers(0, 3), st.integers(24, 40)) if tall else st.integers(0, 4)
    monomials = st.tuples(*[exponents] * 6)
    six = []
    for k in range(6):
        terms = draw(st.dictionaries(monomials, _DET_COEFFS, max_size=2))
        if draw(st.integers(0, 11)):
            diagonal = draw(monomials.filter(lambda e: e[k]))
            terms[diagonal] = terms.get(diagonal, 0) + draw(_DET_COEFFS)
        six.append(Poly(_DET_VT, terms))
    return six


@settings(deadline=None, max_examples=25)
@given(_det_generators(), st.sets(st.sampled_from(_DET_VT.names)))
@example(
    [
        parse_poly(text, _DET_VT)
        for text in ("x^26/3 - 2/5*y", "x^25*y^2 + 1/2", "x^25*z^2", "x^25*u^2 - 7/4*w^3", "x^25*v^2", "x^25*w^2/6")
    ],
    {"y", "u"},
)
def test_packed_determinant_matches_full_product(six, zero):
    # random generators with mixed denominators and zero Jacobian entries;
    # the example's determinant holds x^150, past an 8-bit field.  From one
    # packing, the whole determinant is the whole product's supertrace, and
    # the slice free of a drawn set of variables, the empty set among them,
    # is that supertrace restricted to the terms free of them
    order = _DET_VT.names
    m = build_8x8(six)
    full = supertrace(derivative_matrix_product(m, order))
    zero = tuple(sorted(zero, key=order.index))
    assert derivative_supertrace(m, order, ((), zero)) == [full, _free_of(full, zero)]


# -- the one-coefficient residue against the whole product g*det(H) --

_RES_VT = VarTable(("x", "y", "z", "a", "b"), ring_vars=("x", "y", "z"), param_vars=("a", "b"))
_LIFTS = {}


def _lift(key: str, raised: bool):
    """The weight-bound lift of a shipped potential, or one with every power
    raised by one, whose determinant has more terms."""
    if (key, raised) not in _LIFTS:
        w = parse_poly(_POTENTIALS[key]["poly"], _RES_VT)
        lift = cofactor_lift(w, ("x", "y", "z"))
        if raised:
            lift = cofactor_lift(w, ("x", "y", "z"), exponents=tuple(n + 1 for n in lift.exponents))
        _LIFTS[key, raised] = (w, lift)
    return _LIFTS[key, raised]


def _residue_by_full_product(g: Poly, lift) -> Poly:
    """The coefficient of v^(N-1) in the whole product g*det(H)."""
    key = tuple(n - 1 for n in lift.exponents) + (0, 0)
    groups = (g * lift.determinant).coefficients_wrt(("x", "y", "z"))
    return groups.get(key, Poly.zero(_RES_VT))


_RES_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


@st.composite
def _residue_cases(draw):
    """A lift and a g whose terms in the v_i lie at v^(N-1)/m for terms m
    of det(H) or stay near it, so that most draws have a nonzero residue
    that several terms of det(H) contribute to."""
    w, lift = _lift(draw(st.sampled_from(sorted(_POTENTIALS))), draw(st.booleans()))
    near = [tuple(n - 1 - e for n, e in zip(lift.exponents, m)) for m in lift.determinant.monomials()]
    ring = st.one_of(
        st.sampled_from([m for m in near if min(m) >= 0]),
        st.tuples(*[st.integers(0, n) for n in lift.exponents]),
    )
    monos = st.tuples(ring, st.integers(0, 2), st.integers(0, 2)).map(lambda t: t[0] + t[1:])
    return Poly(_RES_VT, draw(st.dictionaries(monos, _RES_COEFFS, max_size=12))), w, lift


@settings(deadline=None, max_examples=60)
@given(_residue_cases())
def test_residue_matches_coefficient_of_the_full_product(case):
    g, w, lift = case
    got = grothendieck_residue(g, w, ("x", "y", "z"), lift=lift)
    assert got == _residue_by_full_product(g, lift)
    assert not set(got.support_vars()) & {"x", "y", "z"}


# -- a second residue route: the socle of the Jacobian algebra ---------


def _hessian(w: Poly, names) -> Poly:
    h = [[w.partial(a).partial(b) for b in names] for a in names]
    return (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )


def _standard_monomials(basis, names):
    """Exponent triples on `names` that no lead monomial of the basis
    divides, inside the box that the pure-power leads bound."""
    vt = basis[0].vt
    idx = [vt.index(n) for n in names]
    leads = [tuple(b.leading_monomial()[i] for i in idx) for b in basis]
    box = [min(m[k] for m in leads if not any(e for j, e in enumerate(m) if j != k)) for k in range(3)]
    return [
        e for e in itertools.product(*(range(n) for n in box))
        if not any(all(a <= b for a, b in zip(m, e)) for m in leads)
    ]


def _socle_residue(g: Poly, w: Poly, names) -> Poly:
    """Res[g dv/(dW)] from the Jacobian algebra Q[v]/(dW) alone: with W of
    weighted degree 2, its standard monomials number mu = prod(2/w_i - 1)
    (Milnor-Orlik), exactly one of them, s, has the Hessian's weighted
    degree sum(2 - 2 w_i), and Res[hess W] = mu.  A standard monomial of
    any other degree has residue zero, so Res[g] = mu * c(g) / c(hess W),
    c the coefficient of s in the normal form."""
    vt = g.vt
    weights = dict(weights_from_potential(w, tuple(names)).weights)
    basis = groebner_basis([w.partial(n) for n in names])
    standard = _standard_monomials(basis, names)
    mu = 1
    for n in names:
        mu *= 2 / weights[n] - 1
    assert len(standard) == mu
    socle_degree = sum(2 - 2 * weights[n] for n in names)
    socle = [e for e in standard if sum(k * weights[n] for k, n in zip(e, names)) == socle_degree]
    assert len(socle) == 1
    key = [0] * len(vt)
    for n, k in zip(names, socle[0]):
        key[vt.index(n)] = k
    nf = reducer(basis)
    zero = Poly.zero(vt)
    c_g = nf(g).coefficients_wrt(names).get(tuple(key), zero)
    c_hess = nf(_hessian(w, names)).coefficients_wrt(names)[tuple(key)].constant_value()
    return c_g.scale(mu / c_hess)


def test_quantum_dimensions_match_the_socle_route(shipped_work):
    # all fourteen catalog quantum dimensions, read off the Jacobian
    # algebra's socle instead of a cofactor lift
    for entry in load_catalog().values():
        work = shipped_work(entry.id)
        v_in, w_out = entry.potential_in(), entry.potential_out()
        sources, targets = v_in.support_vars(), w_out.support_vars()
        s = supertrace(derivative_matrix_product(work.m, sources + targets))
        assert _socle_residue(s, w_out, targets) == work.qdims["left"], entry.id
        assert _socle_residue(s, v_in, sources) == work.qdims["right"], entry.id


@settings(deadline=None, max_examples=40)
@given(_residue_cases())
def test_residue_matches_the_socle_route(case):
    # random numerators on every shipped potential, through either lift
    g, w, lift = case
    names = ("x", "y", "z")
    assert grothendieck_residue(g, w, names, lift=lift) == _socle_residue(g, w, names)
