"""Constraint derivation, ideal comparison, families, and qdim matching."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbimf import _groebner
from orbimf._groebner import BudgetExceeded, normal_form
from orbimf.catalog import SolutionFamily, load_catalog
from orbimf.constraints import (
    ConstraintSet,
    EntryWork,
    _gcd,
    _squarefree_part,
    bruteforce_family_oracle,
    compare_printed,
    compare_qdims,
    computed_qdim,
    derive_constraints,
    eliminate_linear,
    groebner,
    ideal_compare,
    nonvanishing_check,
    verify_family,
)
from orbimf.matfac import build_8x8
from orbimf.numberfield import reduce as quotient_reduce
from orbimf.polyring import Poly, VarTable, format_poly, parse_poly

from conftest import as_sympy, qdim_passes, uni_divides


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


# -- derivation ----------------------------------------------------------

DERIVED = {
    "E14v1_E14v2": ("c^8 + 4",),
    "U12v1_U12v3": (
        "a2^2*b2 - a2*b2^2 - 1",
        "a1^2*b1 - a1*b1^2 - 1",
        "a2^2*b1 + 2*a1*a2*b2 - 2*a2*b1*b2 - a1*b2^2",
        "2*a1*a2*b1 - a2*b1^2 + a1^2*b2 - 2*a1*b1*b2",
    ),
    "U12v2_U12v3": (
        "a2^2*b1 + 2*a1*a2*b2 - 2*a2*b1*b2 - a1*b2^2 - 1",
        "a1^2*b1 - a1*b1^2 - 1",
        "a2^2*b2 - a2*b2^2",
        "2*a1*a2*b1 - a2*b1^2 + a1^2*b2 - 2*a1*b1*b2",
    ),
    "W12v1_W12v2": (
        "2*a1*b1 - b1^2 - 2*a1*b2 + 2*b1*b2 - b2^2 + 2*a2",
        "a1^2 - a1*b1",
        "4*a1^3*b1 - 4*a1^2*b1^2 + a1*b1^3 + 4*a1^2*b1*b2 - 2*a1*b1^2*b2"
        " + a1*b1*b2^2 + 4*a1^2*a2 - 2*a1*a2*b1 + 2*a1*a2*b2 + a2^2 + 1",
    ),
    "Z13v1_Z13v2": ("c*d^3 - 1", "c^6 + 4"),
}

SHAPES = {
    # (terms, total degree) per generator, for the entries whose texts
    # are too long to inline
    "W13v1_W13v2": ((10, 3), (13, 4), (18, 4), (42, 6)),
    "Q12v1_Q12v2": ((2, 2), (5, 3), (10, 3), (18, 4), (16, 4), (23, 5)),
}


def test_derived_generators_frozen(catalog):
    for eid, texts in DERIVED.items():
        cs = derive_constraints(catalog[eid], build_8x8(catalog[eid].six()))
        assert cs.texts() == texts, eid
    for eid, shapes in SHAPES.items():
        cs = derive_constraints(catalog[eid], build_8x8(catalog[eid].six()))
        got = tuple((len(list(g.monomials())), g.total_degree()) for g in cs.generators)
        assert got == shapes, eid


def test_epsilon_is_plus_one_everywhere(catalog):
    for entry in catalog.values():
        assert derive_constraints(entry, build_8x8(entry.six())).epsilon == 1, entry.id


@pytest.mark.parametrize("entry_id", sorted({**DERIVED, **SHAPES}))
def test_derived_basis_reduces_the_square_residual_to_zero(shipped_work, entry_id):
    # the contract the potential stage relies on: with the sign found,
    # every ring-monomial coefficient of square - eps*(W_out - W_in) lies
    # in the derived ideal, so the identity holds on its variety
    work = shipped_work(entry_id)
    entry = work.entry
    difference = entry.potential_out() - entry.potential_in()
    residual = work.m.scalar - difference.scale(Fraction(work.derived.epsilon))
    coefficients = [c for c in residual.coefficients_wrt(entry.vt.ring_vars).values() if not c.is_zero()]
    assert coefficients
    reduce = work.reducer_for(work.derived)
    assert all(reduce(c).is_zero() for c in coefficients)


def test_constraint_set_normalizes_and_dedupes():
    vt = VarTable(("x", "y"), param_vars=("x", "y"))
    gens = [
        parse_poly("2*x - 4*y", vt),
        parse_poly("-x + 2*y", vt),
        parse_poly("0", vt),
    ]
    cs = ConstraintSet.from_polys(gens, epsilon=-1)
    assert cs.texts() == ("x - 2*y",)
    assert cs.epsilon == -1


def test_constraint_set_takes_only_a_sign_as_epsilon():
    vt = VarTable(("x", "y"), param_vars=("x", "y"))
    gens = (parse_poly("x - 2*y", vt),)
    for eps in (None, 1, -1):
        assert ConstraintSet(gens, eps).epsilon == eps
    # an old positional label such as "paper" would otherwise be the sign
    for bad in ("paper", "derived", 0, 2):
        with pytest.raises(ValueError, match="epsilon must be None, 1 or -1"):
            ConstraintSet(gens, bad)


# -- ideal comparison ----------------------------------------------------


def test_two_way_equality_where_it_holds_raw(shipped_work):
    for eid in ("E14v1_E14v2", "U12v1_U12v3", "U12v2_U12v3", "Z13v1_Z13v2", "W13v1_W13v2"):
        work = shipped_work(eid)
        cmp_ = ideal_compare(work, work.printed, work.derived)
        assert cmp_.a_in_b and cmp_.b_in_a, eid
        assert cmp_.equal
        assert not cmp_.failing_a and not cmp_.failing_b


def test_w12_needs_one_linear_elimination(shipped_work):
    work = shipped_work("W12v1_W12v2")
    derived = work.derived
    printed = work.printed
    raw = ideal_compare(work, printed, derived)
    # the derived system still carries the determined parameter a2
    assert raw.a_in_b and not raw.b_in_a
    reduced, solved = eliminate_linear(derived, "a2")
    assert format_poly(solved) == "-a1*b1 + 1/2*b1^2 + a1*b2 - b1*b2 + 1/2*b2^2"
    assert reduced.texts() == printed.texts()
    assert ideal_compare(work, printed, reduced).equal


def test_ideal_compare_shares_one_basis_for_identical_generators(catalog, count_calls):
    calls = count_calls(_groebner, "groebner_basis")
    work = EntryWork(catalog["W12v1_W12v2"])
    derived = work.derived
    same = ideal_compare(work, derived, ConstraintSet(derived.generators))
    assert len(calls) == 1
    assert same.equal and not same.failing_a and not same.failing_b


@pytest.mark.parametrize("entry_id, reduces", [("E14v1_E14v2", False), ("W12v1_W12v2", True)])
def test_compare_printed_reduces_only_distinct_generator_sets(catalog, count_calls, entry_id, reduces):
    # E14 prints its derived generators, so each inclusion holds by the
    # identity; W12 prints 2 generators for 3 derived and still reduces
    work = EntryWork(catalog[entry_id])
    work.is_unit(work.derived)
    reductions = count_calls(_groebner, "_reduce_by")
    cmp_ = compare_printed(work)
    assert bool(reductions) == reduces
    assert cmp_.equal != reduces and cmp_.a_in_b and not cmp_.vacuous


def test_ideal_compare_reports_failing_generators_on_w12(catalog, count_calls):
    calls = count_calls(_groebner, "groebner_basis")
    work = EntryWork(catalog["W12v1_W12v2"])
    derived = work.derived
    printed = work.printed
    cmp_ = ideal_compare(work, printed, derived)
    assert len(calls) == 2
    assert cmp_.failing_a == ()
    printed_basis = groebner(printed)
    outside = tuple(
        g for g in derived.generators if not normal_form(g, printed_basis).is_zero()
    )
    assert outside and cmp_.failing_b == outside
    assert all("a2" in g.support_vars() for g in cmp_.failing_b)


def test_eliminate_linear_requires_linear_occurrence(catalog):
    entry = catalog["E14v1_E14v2"]
    cs = derive_constraints(entry, build_8x8(entry.six()))
    with pytest.raises(ValueError):
        eliminate_linear(cs, "c")  # only c^8 available


def test_groebner_budget_is_enforced(catalog):
    q12 = catalog["Q12v1_Q12v2"]
    cs = derive_constraints(q12, build_8x8(q12.six()))
    with pytest.raises(BudgetExceeded):
        groebner(cs, spair_cap=5)


# -- solution families ----------------------------------------------------


def test_every_shipped_family_satisfies_derived_constraints(catalog, shipped_work):
    seen = []
    for entry in catalog.values():
        work = shipped_work(entry.id)
        for fam in entry.families:
            report = verify_family(work, fam)
            assert report.ok, (entry.id, fam.label, report.failures)
            assert report.checked == len(work.derived.generators)
            seen.append(fam.label)
    assert len(seen) == 12


BROKEN_E14 = SolutionFamily(
    label="broken",
    generators=(("c", "c^4 - 2*c^2 + 1"),),
    bindings={"c": "c"},
    free=("a1", "a2", "a3", "a4", "b1", "b2", "b3"),
    free_defaults={},
    root_choice={"c": ("1", "1")},
)


def test_wrong_minimal_polynomial_is_caught(shipped_work):
    report = verify_family(shipped_work("E14v1_E14v2"), BROKEN_E14)
    assert not report.ok
    assert report.failures


# -- nonvanishing at concrete points --------------------------------------


def test_e14_family_point_certificates(shipped_work):
    work = shipped_work("E14v1_E14v2")
    fam = work.entry.families[0]
    left = nonvanishing_check(work, fam, "left")
    right = nonvanishing_check(work, fam, "right")
    assert left.computed.certificate.status == "nonzero_exact"
    assert left.computed.value == "-1/2*c^3 + c"
    assert left.printed.value == "-1/2*c"
    assert right.computed.value == "c"
    assert right.printed.value == "-c^3 + 2*c"
    assert left.ok and right.ok and left.agree and right.agree


def test_w13_families_vanish_in_the_computed_channel(shipped_work):
    # every shipped W13 family sits on the branch where both invariants
    # are exactly zero, while the printed closed forms stay nonzero
    work = shipped_work("W13v1_W13v2")
    for fam in work.entry.families:
        for side in ("left", "right"):
            nv = nonvanishing_check(work, fam, side)
            assert nv.computed.certificate.status == "zero", (fam.label, side)
            assert nv.printed.certificate.status in ("nonzero_exact", "nonzero_interval")
            assert nv.excluded and not nv.ok and not nv.agree


def test_z13_right_value_matches_printed_at_point(shipped_work):
    work = shipped_work("Z13v1_Z13v2")
    nv = nonvanishing_check(work, work.entry.families[0], "right")
    assert nv.computed.value == nv.printed.value == "-t^2"
    assert nv.ok and nv.agree


W12_DISCARDED = SolutionFamily(
    label="W12 discarded a1=b1=0",
    generators=(("b2", "b2^4 + 4"),),
    bindings={"a1": "0", "b1": "0", "a2": "1/2*b2^2", "b2": "b2"},
    free=(),
    free_defaults={},
    root_choice={"b2": ("1", "1")},
)


def test_w12_discarded_points_lie_on_the_variety(shipped_work):
    report = verify_family(shipped_work("W12v1_W12v2"), W12_DISCARDED)
    assert report.ok


def test_w12_discard_rule_not_reproduced_by_computed_invariant(shipped_work):
    # the printed left formula vanishes at a1=b1=0, which is the stated
    # reason those four solutions were discarded; the residue-computed
    # invariant is nonzero there, so the two channels disagree
    nv = nonvanishing_check(shipped_work("W12v1_W12v2"), W12_DISCARDED, "left")
    assert nv.printed.certificate.status == "zero"
    # a unit modulo b2^4 + 4, so certified by its inverse
    assert nv.computed.certificate.status == "nonzero_exact"
    assert nv.computed.value == "1/4*b2^3"
    assert not nv.agree and not nv.excluded


def test_e14_avoidance_rule_not_reproduced_by_computed_invariant(shipped_work):
    # same story for the locus a3 - b3 + 4c = 0 on an E14 family
    work = shipped_work("E14v1_E14v2")
    nv = nonvanishing_check(work, work.entry.families[0], "left", point={"a3": "-4*c"})
    assert nv.printed.certificate.status == "zero"
    assert nv.computed.certificate.status == "nonzero_exact"
    assert not nv.agree


def _raw_point_value(work, family, side, origin, point):
    """The quantum dimension itself, not its normal form modulo the
    derived ideal, substituted at the family point and reduced in the
    family's quotient ring."""
    ring = work.family_ring(family)
    vt = ring.spec.vt
    free = {
        v: parse_poly(point[v], vt) if v in point else Poly.const(vt, family.default_value(v))
        for v in family.free
    }
    at_point = {p: b.substitute(free) for p, b in ring.bindings.items()}
    poly = work.qdims[side] if origin == "computed" else work.entry.paper_qdim(side)
    return format_poly(quotient_reduce(poly.substitute(at_point), ring.spec))


def _family_points(catalog):
    for entry_id, entry in sorted(catalog.items()):
        for family in entry.families:
            yield entry_id, family, {}
    yield "W12v1_W12v2", W12_DISCARDED, {}
    yield "E14v1_E14v2", catalog["E14v1_E14v2"].families[0], {"a3": "-4*c"}


def test_normal_forms_give_the_raw_values_at_family_points(shipped_work):
    # on a point of the constraint variety a polynomial and its normal
    # form modulo the derived ideal are the same quotient element
    points = list(_family_points(load_catalog()))
    assert len(points) == 14  # 12 shipped families (24 values per origin) and two more points
    for entry_id, family, point in points:
        work = shipped_work(entry_id)
        for side in ("left", "right"):
            nv = nonvanishing_check(work, family, side, point=point)
            for origin, at in (("computed", nv.computed), ("printed", nv.printed)):
                assert at.value == _raw_point_value(work, family, side, origin, point), (
                    entry_id, family.label, side, origin,
                )


def _norm(value: Poly, spec):
    """The iterated resultant Res_t1(m1, ... Res_tk(mk, value)) by sympy:
    nonzero exactly when `value` vanishes at no root of the relations."""
    import sympy

    norm = as_sympy(value)
    for name, mp in zip(spec.generators, spec.minimal_polys):
        norm = sympy.resultant(as_sympy(mp), norm, sympy.Symbol(name))
    return sympy.expand(norm)


def test_exact_certificates_agree_with_the_norm(catalog, shipped_work):
    # an independent route: a value is certified nonzero_exact (by the
    # inverse's linear solve) exactly when its norm is nonzero, and zero
    # exactly when it is 0
    pytest.importorskip("sympy")
    checked = 0
    for entry_id, entry in sorted(catalog.items()):
        work = shipped_work(entry_id)
        for family in entry.families:
            spec = work.family_ring(family).spec
            for side in ("left", "right"):
                nv = nonvanishing_check(work, family, side)
                for at in (nv.computed, nv.printed):
                    value = parse_poly(at.value, spec.vt)
                    status = at.certificate.status if at.certificate else None
                    assert (status == "zero") == value.is_zero(), (entry_id, family.label, side, at)
                    exact = not value.is_zero() and _norm(value, spec) != 0
                    assert (status == "nonzero_exact") == exact, (entry_id, family.label, side, at)
                    checked += 1
    assert checked == 48  # 12 families, two sides, computed and printed


def test_family_off_the_variety_gets_no_values(shipped_work):
    # the normal forms equal the quantum dimensions only on the constraint
    # variety, so a family the families gate rejects is given no value
    work = shipped_work("E14v1_E14v2")
    for side in ("left", "right"):
        nv = nonvanishing_check(work, BROKEN_E14, side)
        for at in (nv.computed, nv.printed):
            assert at.certificate is None and at.value == "?"
            assert at.error == "family does not lie on the constraint variety"
        assert not nv.ok and not nv.excluded and not nv.agree


def test_a_point_with_a_free_variable_left_gets_no_certificate(shipped_work):
    # a3 = b leaves the printed left value 1/8*t^7*b with b free, which
    # certify_value neither inverts nor embeds; the computed value is 0
    work = shipped_work("W13v1_W13v2")
    family = next(f for f in work.entry.families if f.label == "W13 reduced relation t^8+4")
    nv = nonvanishing_check(work, family, "left", point={"a3": "b"})
    assert nv.printed.value == "1/8*t^7*b" and nv.printed.certificate is None
    assert nv.printed.error == "cannot embed element with free variables ['b']"
    assert nv.computed.value == "0" and nv.computed.certificate.status == "zero"


def test_point_values_override_defaults(shipped_work):
    work = shipped_work("E14v1_E14v2")
    nv = nonvanishing_check(work, work.entry.families[0], "left", point={"a3": "8", "b3": "0"})
    assert dict(nv.point)["a3"] == "8"
    # printed -(a3 - b3 + 4c)/8 becomes -1 - c/2
    assert nv.printed.value == "-1/2*c - 1"


# -- qdim comparison -------------------------------------------------------

MATCHES = {
    # (left status, left side, left scalar), (right status, right side, right scalar)
    "E14v1_E14v2": (("unmatched", None, None), ("unit_multiple", "left", Fraction(2))),
    "U12v1_U12v3": (("unmatched", None, None), ("unit_multiple", "left", Fraction(-36))),
    "U12v2_U12v3": (("unmatched", None, None), ("unmatched", None, None)),
    "W12v1_W12v2": (("unmatched", None, None), ("unit_multiple", "left", Fraction(-1))),
    "W13v1_W13v2": (("unmatched", None, None), ("unmatched", None, None)),
    "Z13v1_Z13v2": (("unmatched", None, None), ("unmatched", None, None)),
}

COMPUTED_RIGHT = {
    "E14v1_E14v2": "c",
    "U12v1_U12v3": "-a2*b1 + a1*b2",
    "U12v2_U12v3": "-a2*b1 + a1*b2",
    "W12v1_W12v2": "-2*a1 + b1 - b2",
    "W13v1_W13v2": "-a1*a3 - a3*b + a3*c - a1*f - b*f + c*f",
    "Z13v1_Z13v2": "-c*d",
}


def test_qdim_match_table_frozen(shipped_work):
    for eid, (left, right) in MATCHES.items():
        cq = compare_qdims(shipped_work(eid))
        got = tuple((cq[side].status, cq[side].matched_side, cq[side].scalar) for side in ("left", "right"))
        assert got == (left, right), eid
        assert format_poly(shipped_work(eid).qdims["right"]) == COMPUTED_RIGHT[eid]
    # the one mod-ideal unit match
    w12 = compare_qdims(shipped_work("W12v1_W12v2"))
    assert w12["right"].mod_ideal and w12["left"].status in ("unmatched", "vacuous")
    assert not qdim_passes(w12["right"])
    assert qdim_passes(w12["right"], allow_unit=True)


def test_qdim_product_reduces_to_one(catalog):
    # left and right invariants of one defect multiply to 1 in the
    # parameter quotient; W13 is the exception, carrying the branch
    # factor that separates its two solution components
    expected_w13 = "-a1*d^2 - b*d^2 + c*d^2 + 1"
    for eid in ("E14v1_E14v2", "U12v1_U12v3", "U12v2_U12v3", "W12v1_W12v2", "Z13v1_Z13v2", "W13v1_W13v2"):
        entry = catalog[eid]
        basis = groebner(derive_constraints(entry, build_8x8(entry.six())))
        product = computed_qdim(entry, "left") * computed_qdim(entry, "right")
        nf = normal_form(product, basis)
        if eid == "W13v1_W13v2":
            assert format_poly(nf) == expected_w13
        else:
            assert format_poly(nf) == "1", eid


# -- resultant elimination oracle ------------------------------------------


# y is a spectator: the helpers work on a table wider than the variable
_YX = VarTable(("y", "x"), param_vars=("y", "x"))
_X = Poly.var(_YX, "x")
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# chosen rational roots, each with a multiplicity of 1 to 3
_linear_factors = st.lists(st.tuples(_rationals, st.integers(1, 3)), max_size=3)
# a random cofactor, lowest degree first, with a nonzero top coefficient
_cofactors = st.tuples(st.lists(_rationals, max_size=3), _rationals.filter(bool))


def _product(factors, cofactor) -> Poly:
    low, top = cofactor
    out = Poly(_YX, {(0, e): c for e, c in enumerate([*low, top])})
    for root, mult in factors:
        out = out * (_X - Poly.const(_YX, root)) ** mult
    return out


@settings(max_examples=100, deadline=None)
@given(_linear_factors, _cofactors, _linear_factors, _cofactors)
def test_gcd_and_squarefree_part_match_sympy(fa, ca, fb, cb):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a, b = _product(fa, ca), _product(fb, cb)
    sa, sb = (sympy.Poly(as_sympy(p), x, domain=sympy.QQ) for p in (a, b))
    ours = sympy.Poly(as_sympy(_gcd(a, b)), x, domain=sympy.QQ)
    assert ours == sa.gcd(sb) and ours.LC() == 1
    sqf = sympy.Poly(as_sympy(_squarefree_part(a, "x")), x, domain=sympy.QQ)
    assert sqf.monic() == sa.sqf_part().monic()


def test_oracle_rediscovers_e14_relation(catalog):
    report = bruteforce_family_oracle(catalog["E14v1_E14v2"], {}, keep="c")
    assert not report.inconsistent
    (cand,) = report.candidates
    assert format_poly(cand.minimal_poly) == "c^8 + 4"
    assert cand.fully_satisfied and not cand.refuted


def test_oracle_rediscovers_u12_cube_relations(catalog):
    rep1 = bruteforce_family_oracle(catalog["U12v2_U12v3"], {"a2": 0}, keep="b1")
    assert format_poly(rep1.candidates[0].minimal_poly) == "2*b1^3 - 1"
    rep2 = bruteforce_family_oracle(catalog["U12v2_U12v3"], {"b2": 0}, keep="a1")
    assert format_poly(rep2.candidates[0].minimal_poly) == "2*a1^3 + 1"


def test_oracle_rediscovers_w13_branch_relation(catalog):
    report = bruteforce_family_oracle(
        catalog["W13v1_W13v2"], {"b": 0, "a2": 0, "a3": 1, "g": 0}, keep="d"
    )
    (cand,) = report.candidates
    # d*(4*d^8 + 1): the second factor is the reduced one-parameter
    # relation, the first the degenerate d=0 branch
    assert format_poly(cand.minimal_poly) == "4*d^9 + d"
    target = parse_poly("4*d^8 + 1", cand.minimal_poly.vt)
    assert uni_divides(target, cand.minimal_poly, "d")


def test_oracle_u12v1_composite_candidate(catalog):
    report = bruteforce_family_oracle(catalog["U12v1_U12v3"], {}, keep="a1")
    (cand,) = report.candidates
    assert format_poly(cand.minimal_poly) == "2*a1^7 - a1^4 - a1"
    vt = cand.minimal_poly.vt
    for factor in ("a1", "a1^3 - 1", "2*a1^3 + 1"):
        assert uni_divides(parse_poly(factor, vt), cand.minimal_poly, "a1")


def test_oracle_flags_contradictory_assignment(catalog):
    report = bruteforce_family_oracle(catalog["E14v1_E14v2"], {"c": 1})
    assert report.inconsistent
    assert not report.candidates


def test_oracle_reports_absent_parameter(catalog):
    report = bruteforce_family_oracle(catalog["E14v1_E14v2"], {}, keep="a1")
    assert not report.candidates
    assert any("already absent" in note for note in report.notes)


def test_oracle_degenerates_on_q12(catalog):
    # the projection drops zero resultants and no univariate consequence
    # survives; recorded so the gap is visible, not an error
    report = bruteforce_family_oracle(catalog["Q12v1_Q12v2"], {"a5": 1}, keep="b1")
    assert not report.inconsistent
    assert not report.candidates
    assert any("no univariate consequence" in note for note in report.notes)
