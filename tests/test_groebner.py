"""Groebner bases, ideal membership, and resultants."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from orbimf import _groebner
from orbimf._groebner import (
    BudgetExceeded,
    groebner_basis,
    interreduce,
    normal_form,
    reducer,
    resultant,
)
from orbimf.polyring import Poly, VarTable, _Overflow, degrevlex_key, parse_poly


GOLDEN_DIR = Path(__file__).parent / "golden"


def is_member(p: Poly, basis) -> bool:
    return normal_form(p, basis).is_zero()


def _vt(*names):
    return VarTable(tuple(names), param_vars=tuple(names))


def test_monomial_ideal_membership():
    vt = _vt("x", "y")
    basis = groebner_basis([parse_poly("x^2", vt), parse_poly("x*y", vt)])
    assert is_member(parse_poly("x^2*y", vt), basis)
    assert not is_member(parse_poly("y^2", vt), basis)


def test_x_versus_x_squared():
    vt = _vt("x")
    gx = groebner_basis([parse_poly("x", vt)])
    gx2 = groebner_basis([parse_poly("x^2", vt)])
    assert is_member(parse_poly("x^2", vt), gx)
    assert not is_member(parse_poly("x", vt), gx2)


def test_classic_cyclic_pair():
    vt = _vt("x", "y")
    f = parse_poly("x^2 + y^2 - 1", vt)
    g = parse_poly("x - y", vt)
    basis = groebner_basis([f, g])
    # on the line x=y the circle gives 2y^2 = 1
    assert is_member(parse_poly("2*y^2 - 1", vt), basis)
    assert not is_member(parse_poly("y - 1", vt), basis)


def test_normal_form_is_canonical_representative():
    vt = _vt("x", "y")
    basis = groebner_basis([parse_poly("x^2 - y", vt)])
    p = parse_poly("x^4 + x^2 + 1", vt)
    q = parse_poly("y^2 + y + 1", vt)
    assert normal_form(p, basis) == normal_form(q, basis)


def test_normal_form_linearity_property():
    vt = _vt("x", "y", "z")
    rng = random.Random(11)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 2) for _ in range(3))
            terms[m] = terms.get(m, Fraction(0)) + Fraction(rng.randint(-3, 3))
        return Poly(vt, {m: c for m, c in terms.items() if c})

    basis = groebner_basis([parse_poly("x^2 - y*z", vt), parse_poly("y^2 - z", vt)])
    for _ in range(60):
        p, q = rand_poly(), rand_poly()
        assert normal_form(p + q, basis) == normal_form(p, basis) + normal_form(q, basis)
        assert normal_form(p - normal_form(p, basis), basis).is_zero()


def test_reduced_basis_is_stable_under_input_order():
    vt = _vt("x", "y")
    gens = [parse_poly("x^3 - 2*x*y", vt), parse_poly("x^2*y - 2*y^2 + x", vt)]
    b1 = groebner_basis(gens)
    b2 = groebner_basis(list(reversed(gens)))
    assert b1 == b2
    # textbook reduced basis for this ideal
    expected = {"x^2", "x*y", "y^2 - 1/2*x"}
    assert {str(p) for p in b1} == expected


def test_interreduce_reduces_in_one_pass(monkeypatch):
    vt = _vt("x", "y")
    # a Groebner basis of <x^2, x*y, y^2 - 1/2*x> that is not reduced: the
    # tails of the first two reduce to zero only through the (itself
    # unreduced) second element and the third, and the last is redundant
    gb = [
        parse_poly("x^2 + 3*x*y", vt),
        parse_poly("x*y + 2*y^2 - x", vt),
        parse_poly("2*y^2 - x", vt),
        parse_poly("x^2*y + y^3 - 1/2*x*y", vt),
    ]
    passes = []
    original = _groebner._reduce_by

    def counting(coeffs, divisors):
        passes.append(len(divisors))
        return original(coeffs, divisors)

    monkeypatch.setattr(_groebner, "_reduce_by", counting)
    reduced = interreduce(gb)
    # one reduction per element of the minimal basis, nothing more
    assert passes == [3, 3, 3]
    assert [str(p) for p in reduced] == ["y^2 - 1/2*x", "x*y", "x^2"]
    assert interreduce(reduced) == reduced


@pytest.mark.parametrize("ideal", ["small", "q12_a4_slice"])
def test_groebner_basis_interreduces_its_own_records_once(count_calls, shipped_work, ideal):
    if ideal == "small":
        vt = _vt("x", "y")
        gens = [parse_poly("x^3 - 2*x*y", vt), parse_poly("x^2*y - 2*y^2 + x", vt)]
    else:
        gens = shipped_work("Q12v1_Q12v2").derived.generators
        two = Poly.const(gens[0].vt, 2)
        gens = [g.substitute({"a4": two}) for g in gens]
    interreduced = count_calls(_groebner, "interreduce")
    reductions = count_calls(_groebner, "_reduce_by")
    basis = groebner_basis(gens)
    assert not interreduced
    # the last pass reduces each kept record's tail once, against the kept
    # records only, and those are Buchberger's own records, not rebuilt ones
    final, search = reductions[-len(basis):], reductions[: -len(basis)]
    kept = final[0][1]
    assert len(kept) == len(basis)
    assert all(divisors is kept for _, divisors in final)
    assert search and all(divisors is search[0][1] is not kept for _, divisors in search)
    assert all(any(r is b for b in search[0][1]) for r in kept)


def test_full_q12_basis_matches_stored_sympy_basis(shipped_work):
    # tests/golden/make_groebner_Q12.py wrote the reduced basis with
    # sympy.groebner, which shares no code with orbimf._groebner
    golden = json.loads((GOLDEN_DIR / "groebner_Q12v1_Q12v2.json").read_text())
    gens = shipped_work("Q12v1_Q12v2").derived.generators
    assert [str(g) for g in gens] == golden["generators"]
    basis = groebner_basis(gens)
    assert len(basis) == 143
    assert [str(p) for p in basis] == golden["basis"]


def test_gebauer_moeller_update_pins_the_pairs_reduced(shipped_work):
    # the S-pair budget counts the pairs popped for reduction, and every
    # popped pair is reduced, so the smallest cap under which the W13
    # basis completes is the number of pairs the update kept
    gens = shipped_work("W13v1_W13v2").derived.generators
    assert len(groebner_basis(gens, spair_cap=85)) == len(groebner_basis(gens))
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, spair_cap=84)


@pytest.mark.parametrize("name, pairs", [("a4", 277), ("a5", 254)])
def test_gebauer_moeller_update_pins_the_q12_slice_pairs(shipped_work, name, pairs):
    # the Q12 slices a4 = 2 and a5 = 2, two inputs of the q12-slices
    # benchmark: the pairs kept by the update, counted as in the W13 pin
    gens = shipped_work("Q12v1_Q12v2").derived.generators
    two = Poly.const(gens[0].vt, 2)
    gens = [g.substitute({name: two}) for g in gens]
    assert groebner_basis(gens, spair_cap=pairs) == groebner_basis(gens)
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, spair_cap=pairs - 1)


@st.composite
def _lcm_cases(draw):
    """A layout of 1-7 slots sized for a degree of up to 1200, so its
    fields are often wider than the exponents need, and two packable
    exponent vectors of degree <= 300."""
    n = draw(st.integers(1, 7))
    layout = _groebner._Layout(n + 1, range(1, n + 1), draw(st.integers(0, 1200)))
    limit = min(300, layout.cap)

    def cut(exps):  # keep the total within `limit`
        out = []
        for e in exps:
            out.append(min(e, limit - sum(out)))
        return out

    vectors = st.lists(st.integers(0, limit), min_size=n, max_size=n).map(cut)
    return layout, draw(vectors), draw(vectors)


@settings(max_examples=300, deadline=None)
@given(_lcm_cases())
@example((_groebner._Layout(3, (1, 2), 0), [100, 0], [0, 27]))  # degree 127, the cap
@example((_groebner._Layout(3, (1, 2), 0), [127, 0], [0, 1]))  # degree 128
def test_packed_lcm_is_the_packed_exponentwise_max(case):
    layout, a, b = case
    top = list(map(max, a, b))
    pa, pb = layout.pack_exponents(a), layout.pack_exponents(b)
    if sum(top) > layout.cap:
        with pytest.raises(_Overflow):
            layout.lcm(pa, pb)
    else:
        assert layout.lcm(pa, pb) == layout.pack_exponents(top)


@st.composite
def _pack_cases(draw):
    """A table of 1-13 slots, a layout over a subset of them (empty or
    whole now and then) sized for a degree of 0-300, so that its fields
    are one or two bytes wide, and two monomials supported on the subset
    with degrees of up to 300, some of them past the layout's cap."""
    size = draw(st.integers(1, 13))
    slots = sorted(draw(st.sets(st.integers(0, size - 1))))
    degree = draw(st.integers(0, 300))
    layout = _groebner._Layout(size, slots, degree)
    assert layout.cap >= degree

    def monomial(exps):
        out = [0] * size
        for i, e in zip(slots, exps):
            out[i] = min(e, 300 - sum(out))
        return tuple(out)

    exps = st.lists(st.integers(0, 300), min_size=len(slots), max_size=len(slots)).map(monomial)
    return layout, draw(exps), draw(exps)


@settings(max_examples=300, deadline=None)
@given(_pack_cases())
@example((_groebner._Layout(4, (0, 2), 126), (127, 0, 0, 0), (0, 0, 128, 0)))  # the 8-bit cap, and one past it
@example((_groebner._Layout(4, (0, 2), 127), (127, 0, 0, 0), (0, 0, 128, 0)))  # the first 16-bit layout
def test_packed_monomials_round_trip_in_degrevlex_order(case):
    layout, a, b = case
    packed = []
    for m in (a, b):
        if sum(m) > layout.cap:
            with pytest.raises(_Overflow):
                layout.pack(m)
        else:
            packed.append(layout.pack(m))
            assert layout.unpack(packed[-1]) == m
    if len(packed) == 2:
        pa, pb = packed
        assert (pa < pb, pa == pb) == (degrevlex_key(a) < degrevlex_key(b), a == b)


def test_groebner_basis_matches_sympy_on_w13():
    sympy = pytest.importorskip("sympy")
    from orbimf.catalog import load_catalog
    from orbimf.constraints import derive_constraints
    from orbimf.matfac import build_8x8

    entry = load_catalog()["W13v1_W13v2"]
    gens = derive_constraints(entry, build_8x8(entry.six())).generators
    params = entry.parameters
    syms = sympy.symbols(params)
    local = dict(zip(params, syms))
    exprs = [sympy.sympify(str(g).replace("^", "**"), locals=local) for g in gens]
    theirs = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    # parameters follow the ring variables in the table, in the same order
    offset = len(entry.vt) - len(params)
    ours = groebner_basis(gens)
    assert len(ours) == len(theirs.polys)
    assert {frozenset((m[offset:], c) for m, c in p.terms()) for p in ours} == {
        frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in q.terms()) for q in theirs.polys
    }


# -- the integer reduction kernel against a Fraction reference -----------

XYZ = _vt("x", "y", "z")

_monos = st.tuples(*[st.integers(0, 2)] * 3)
_coeffs = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 2, 3, 4, 5, 6, 7, 12))
)
_polys = st.dictionaries(_monos, _coeffs, min_size=1, max_size=4).map(lambda t: Poly(XYZ, t))
_bases = st.lists(_polys, min_size=1, max_size=3)


def _reference_normal_form(p, basis):
    """Full reduction term by term in Fractions: the largest term left is
    reduced by the first basis element, in list order, whose lead
    divides it, or else moved to the remainder."""
    divisors = [(g.leading_monomial(), g) for g in basis if not g.is_zero()]
    work = dict(p.terms())
    remainder = {}
    while work:
        m = max(work, key=degrevlex_key)
        c = work.pop(m)
        for lm, g in divisors:
            if all(x <= y for x, y in zip(lm, m)):
                q = c / g.coefficient(lm)
                shift = tuple(x - y for x, y in zip(m, lm))
                for gm, gc in g.terms():
                    if gm != lm:
                        t = tuple(x + y for x, y in zip(gm, shift))
                        v = work.get(t, Fraction(0)) - q * gc
                        if v:
                            work[t] = v
                        else:
                            work.pop(t, None)
                break
        else:
            remainder[m] = c
    return Poly(p.vt, remainder)


def _canonical(p):
    return all(
        type(c) is Fraction and c and len(m) == len(p.vt) for m, c in p.terms()
    )


@settings(max_examples=150, deadline=None)
@given(_bases, _polys, _polys)
@example(
    [parse_poly("3/7*x*y - 5/12*z + 1/4", XYZ), parse_poly("-2*y^2 + 1/5*x", XYZ)],
    parse_poly("x^2*y^2 - 1/6*z^2", XYZ),
    parse_poly("1/3*x", XYZ),
)
def test_normal_form_matches_fraction_reference(basis, h, r):
    # h * basis[0] makes terms cancel on the way; the other elements and
    # r keep the remainder nonzero in general
    p = h * basis[0] + r
    nf = normal_form(p, basis)
    assert nf == _reference_normal_form(p, basis)
    assert _canonical(nf)


@settings(max_examples=80, deadline=None)
@given(_polys, _polys)
def test_normal_form_of_a_multiple_is_zero(g, h):
    # a single generator is a Groebner basis, with any lead coefficient
    assert normal_form(h * g, [g]).is_zero()
    assert normal_form(h * g, [g.scale(Fraction(-7, 12))]).is_zero()


@settings(max_examples=80, deadline=None)
@given(_bases, st.lists(_polys, min_size=1, max_size=5))
def test_reducer_agrees_with_normal_form(basis, ps):
    reduce = reducer(basis)
    for p in ps + ps:
        nf = reduce(p)
        assert nf == normal_form(p, basis) == _reference_normal_form(p, basis)
        assert _canonical(nf)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_polys, min_size=1, max_size=6),
    st.integers(0, 6),
    st.lists(_monos, min_size=1, max_size=8),
)
@example([parse_poly("y", XYZ), parse_poly("x", XYZ)], 1, [(1, 0, 0), (1, 1, 0)])
def test_divisor_lookup_is_first_in_list_order(polys, cut, probes):
    cut = min(cut, len(polys))
    leads = [p.leading_monomial() for p in polys]

    def expected(m, n):
        return next((k for k in range(n) if all(a <= b for a, b in zip(leads[k], m))), None)

    # the kernel packs monomials into ints; this layout holds every probe
    layout = _groebner._Layout(3, range(3), 6)

    def packed_record(p):
        return _groebner._record(_groebner._packed(layout, p)[1])

    divisors = _groebner._Divisors(layout, [packed_record(p) for p in polys[:cut]])

    def found(m):
        record = divisors.first(layout.pack(m))
        return None if record is None else next(k for k, r in enumerate(divisors) if r is record)

    # probes hit or miss against the first records, then more are appended:
    # a miss must find a new divisor, a hit keeps its first-in-order record
    for m in probes:
        assert found(m) == expected(m, cut)
    for p in polys[cut:]:
        divisors.append(packed_record(p))
    for m in probes:
        assert found(m) == expected(m, len(polys))


# -- packed monomials: spectator slots, huge exponents, widened fields -----

# s and t are spectators: no generator uses them, so the basis packs only
# the other slots; w carries one exponent above 2^16
SPECTATORS = _vt("s", "x", "t", "y", "z", "w")
_small_monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def _spectator_poly(terms, big=None):
    """A polynomial in x, y, z (and w^big on the first term) over SPECTATORS."""
    out = {}
    for k, ((x, y, z), c) in enumerate(terms):
        m = (0, x, 0, y, z, big if big is not None and k == 0 else 0)
        out[m] = out.get(m, Fraction(0)) + c
    return Poly(SPECTATORS, out)


_small_terms = st.lists(st.tuples(_small_monos, _coeffs), min_size=1, max_size=3)


def _sympy_basis(polys):
    """sympy's reduced basis (grevlex over the table order, monic), built
    on its polynomial rings: exponent tuples, so w^(2^16) costs nothing."""
    from sympy import QQ
    from sympy.polys.groebnertools import groebner
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    R = ring(",".join(SPECTATORS.names), QQ, grevlex)[0]
    theirs = groebner(
        [R({m: QQ(c.numerator, c.denominator) for m, c in p.terms()}) for p in polys], R
    )
    return {
        frozenset((m, Fraction(int(c.numerator), int(c.denominator))) for m, c in q.terms())
        for q in theirs
    }


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_small_terms, min_size=1, max_size=2),
    _small_terms,
    st.integers(2**16 + 1, 2**17),
)
def test_groebner_basis_matches_sympy_with_spectators_and_huge_exponents(small, big_terms, big):
    pytest.importorskip("sympy")
    gens = [_spectator_poly(t) for t in small] + [_spectator_poly(big_terms, big)]
    gens = [g for g in gens if not g.is_zero()]
    basis = groebner_basis(gens)
    assert {frozenset(p.terms()) for p in basis} == _sympy_basis(gens)
    assert all(p.coefficient(p.leading_monomial()) == 1 for p in basis)


def test_groebner_basis_widens_fields_it_outgrows(monkeypatch):
    vt = _vt("x", "y")
    gens = [parse_poly("x^100*y - 1", vt), parse_poly("x*y^100 - 1", vt)]
    caps = []
    original = _groebner._Layout

    def narrow_first(size, slots, degree):
        # the first layout holds the generators (degree 101) but not the
        # lcm x^100*y^100 of their leads, so the basis restarts wider
        layout = original(size, slots, 101 if not caps else degree)
        caps.append(layout.cap)
        return layout

    monkeypatch.setattr(_groebner, "_Layout", narrow_first)
    assert [str(p) for p in groebner_basis(gens)] == ["x^99 - y^99", "x*y^100 - 1", "y^199 - x^98"]
    assert caps[0] < 200 <= caps[1]


def test_reducer_widens_fields_for_a_higher_degree():
    vt = _vt("x", "y")
    reduce = reducer([parse_poly("x - 2", vt)])
    assert reduce(parse_poly("x*y", vt)) == parse_poly("2*y", vt)
    # far above the exponent cap of the records built for a degree-1 basis
    p = parse_poly("x^300*y^70000 + x^2", vt)
    expected = Poly(vt, {(0, 70000): Fraction(2**300), (0, 0): Fraction(4)})
    assert reduce(p) == expected
    assert reduce(parse_poly("x*y", vt)) == parse_poly("2*y", vt)


def test_budget_exceeded():
    vt = _vt("x", "y", "z")
    gens = [
        parse_poly("x^3*y^2 - z^4", vt),
        parse_poly("y^3*z - x^2", vt),
        parse_poly("z^3*x - y^2 + 1", vt),
    ]
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, spair_cap=1)


def test_resultant_univariate_common_root():
    vt = _vt("x")
    p = parse_poly("x^2 - 1", vt)
    q = parse_poly("x - 1", vt)
    assert resultant(p, q, "x").is_zero()
    q2 = parse_poly("x - 3", vt)
    assert resultant(p, q2, "x") == parse_poly("8", vt)


def test_resultant_eliminates_variable():
    vt = _vt("x", "y")
    p = parse_poly("x^2 + y^2 - 5", vt)
    q = parse_poly("x*y - 2", vt)
    r = resultant(p, q, "x")
    assert r.degree_in("x") == 0
    # y^4 - 5y^2 + 4 = (y^2-1)(y^2-4): intersection points have y in {1,-1,2,-2}
    assert r == parse_poly("y^4 - 5*y^2 + 4", vt)


def test_resultant_matches_product_of_root_differences():
    vt = _vt("x")
    # res(f, g) = lc(f)^deg g * prod g(root_i(f)) for monic f
    f = parse_poly("x^2 - 3*x + 2", vt)  # roots 1, 2
    g = parse_poly("x^2 + 1", vt)
    expected = Fraction(2) * Fraction(5)  # g(1)*g(2)
    assert resultant(f, g, "x") == Poly.const(vt, expected)


def test_resultant_degree_zero_cases():
    vt = _vt("x", "y")
    p = parse_poly("y + 2", vt)  # degree 0 in x
    q = parse_poly("x^2 - y", vt)
    assert resultant(p, q, "x") == parse_poly("(y + 2)^2", vt)
