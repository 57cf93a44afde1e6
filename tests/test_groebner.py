"""Groebner bases, ideal membership, and resultants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orbimf import _groebner
from orbimf._groebner import (
    BudgetExceeded,
    groebner_basis,
    interreduce,
    is_member,
    normal_form,
    reducer,
    resultant,
)
from orbimf.polyring import Poly, VarTable, degrevlex_key, parse_poly


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

    divisors = _groebner._Divisors(polys[:cut])

    def found(m):
        record = divisors.first(m)
        return None if record is None else next(k for k, r in enumerate(divisors) if r is record)

    # probes hit or miss against the first records, then more are appended:
    # a miss must find a new divisor, a hit keeps its first-in-order record
    for m in probes:
        assert found(m) == expected(m, cut)
    for p in polys[cut:]:
        divisors.append(_groebner._record(dict(p.terms())))
    for m in probes:
        assert found(m) == expected(m, len(polys))


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
