"""Polynomial core: arithmetic, calculus, parsing, printing."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import same_as_sympy

from orbimf._groebner import groebner_basis, normal_form, reducer
from orbimf.polyring import (
    ParseError,
    Poly,
    PolyError,
    VarTable,
    VarTableMismatch,
    degrevlex_key,
    format_poly,
    parse_poly,
)

VT = VarTable(names=("x", "y", "z", "u", "v", "w"), ring_vars=("x", "y", "z", "u", "v", "w"))


def P(text: str) -> Poly:
    return parse_poly(text, VT)


def random_poly(rng: random.Random, max_terms: int = 4, width: int = 6) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, 3) if i < 3 else 0 for i in range(width))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly(VT, terms)


def test_product_difference_of_squares():
    assert P("x + y") * P("x - y") == P("x^2 - y^2")


def test_product_cube_difference():
    # d25 * d16 pattern: (-v + y)(v^2 + v*y + y^2) = y^3 - v^3
    assert P("-v + y") * P("v^2 + v*y + y^2") == P("y^3 - v^3")


def test_add_zero_identity():
    p = P("3*x^2*y - z/2 + 7")
    assert p + Poly.zero(VT) == p


def test_partial_derivative_quartic_chain():
    p = P("u^3 + u^2*x + u*x^2 + x^3")
    assert p.partial("u") == P("3*u^2 + 2*u*x + x^2")


def test_partial_derivative_missing_variable():
    assert P("x^4 + y^2").partial("w").is_zero()


def test_partial_constant_rule():
    assert P("5/3").partial("x").is_zero()


def test_leibniz_rule_randomized():
    rng = random.Random(7)
    for _ in range(200):
        f = random_poly(rng)
        g = random_poly(rng)
        lhs = (f * g).partial("x")
        rhs = f.partial("x") * g + f * g.partial("x")
        assert lhs == rhs


def test_mixed_partials_commute_randomized():
    rng = random.Random(8)
    for _ in range(200):
        f = random_poly(rng)
        assert f.partial("x").partial("y") == f.partial("y").partial("x")


def test_substitute_expansion():
    p = P("x^2 + y")
    out = p.substitute({"x": P("u + 1"), "y": P("v^2")})
    assert out == P("u^2 + 2*u + v^2 + 1")


def test_substitute_identity_when_unbound():
    p = P("x*z + w")
    assert p.substitute({"x": P("x")}) == p


def test_substitute_missing_target_variable_errors():
    small = VarTable(names=("a",))
    with pytest.raises(PolyError):
        P("x + y").substitute({"x": Poly.var(small, "a")})


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for _ in range(1000):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_pow_matches_repeated_multiplication():
    rng = random.Random(3)
    for _ in range(50):
        p = random_poly(rng, max_terms=3)
        acc = Poly.const(VT, 1)
        for n in range(5):
            assert p ** n == acc
            acc = acc * p


def test_vartable_mismatch_raises():
    other = VarTable(names=("x", "y"))
    with pytest.raises(VarTableMismatch):
        _ = P("x") + Poly.var(other, "x")


# -- the integer product kernel against a Fraction-by-Fraction reference --

_MONOS = st.tuples(*[st.integers(0, 3)] * 3).map(lambda m: m + (0, 0, 0))
_COEFFS = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
_POLYS = st.dictionaries(_MONOS, _COEFFS, max_size=6).map(lambda t: Poly(VT, t))


def _reference_product(pairs) -> dict:
    """sum(x*y for x, y in pairs) with one Fraction product per term pair."""
    out = {}
    for x, y in pairs:
        for m1, c1 in x.terms():
            for m2, c2 in y.terms():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _assert_canonical(p: Poly) -> None:
    """den > 0, no numerator zero, and no factor common to all of them."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1


@settings(deadline=None)
@given(_POLYS, _POLYS)
@example(Poly(VT), P("x + y/2"))
@example(P("3/4*x*y"), P("-2/3*z"))
@example(P("x + y/2"), P("x - y/2"))  # the x*y terms cancel
def test_mul_matches_fraction_reference(a, b):
    product = a * b
    assert dict(product.terms()) == _reference_product([(a, b)])
    assert product == b * a
    _assert_canonical(product)


@settings(deadline=None)
@given(st.lists(st.tuples(_POLYS, _POLYS), max_size=5))
@example([])
@example([(P("x/3"), P("y/5")), (P("-x/5"), P("y/3"))])  # cancels to zero
def test_dot_matches_sum_of_fraction_products(pairs):
    got = Poly.dot(VT, pairs)
    assert dict(got.terms()) == _reference_product(pairs)
    assert got == Poly.dot(VT, [(y, x) for x, y in pairs])
    _assert_canonical(got)


@settings(deadline=None)
@given(_POLYS, _POLYS)
def test_dot_of_a_product_and_its_negation_is_zero(a, b):
    assert Poly.dot(VT, [(a, b), (-a, b)]).is_zero()


def test_dot_over_no_pairs_is_zero():
    assert Poly.dot(VT, []) == Poly.zero(VT)
    assert Poly.dot(VT, iter(())).is_zero()


def test_product_and_dot_reject_mixed_tables():
    other = VarTable(names=("x", "y"))
    with pytest.raises(VarTableMismatch):
        _ = P("x") * Poly.var(other, "x")
    with pytest.raises(VarTableMismatch):
        Poly.dot(VT, [(P("x"), Poly.var(other, "x"))])
    with pytest.raises(VarTableMismatch):
        Poly.dot(VT, [(Poly.zero(other), P("x"))])
    with pytest.raises(VarTableMismatch):
        Poly.dot(other, [(P("x"), P("y"))])


def test_parse_rejects_undeclared_identifier():
    with pytest.raises(ParseError) as err:
        P("x + q")
    assert "q" in str(err.value)
    assert err.value.position == 4


def test_parse_reports_syntax_position():
    with pytest.raises(ParseError) as err:
        P("x + + y")
    assert err.value.position == 4


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        P("2x")
    with pytest.raises(ParseError):
        P("x y")


def test_parse_unary_minus_binds_looser_than_power():
    assert P("-x^2") == Poly.zero(VT) - P("x^2")
    assert P("3 - -x") == P("3 + x")


def test_parse_scalar_division():
    assert P("x/2") == P("x") / 2
    assert P("c_total/4" .replace("c_total", "x")) == P("x") / 4
    assert P("(x + y)/2") == (P("x") + P("y")) / 2
    with pytest.raises(ParseError):
        P("x/0")
    with pytest.raises(ParseError):
        P("x/y")


@pytest.mark.parametrize("text", ["x^\u00b2", "x+1\u00b2", "x^\u0663", "\u00b2", "x/\u0663"])
def test_parse_rejects_non_ascii_digits(text):
    # str.isdigit accepts superscripts and other scripts' digits
    with pytest.raises(ParseError):
        P(text)


def test_parse_nested_fraction_coefficient():
    assert P("-1 - (1/4)*x^8") == Poly.const(VT, -1) - P("x^8") / 4


def test_format_canonical_ordering_degrevlex():
    p = P("y^2 + x*z + x^2 + z + 1")
    # degrevlex with x > y > z: x^2 > x*z? deg equal; rightmost nonzero of
    # difference (x^2 - x*z -> z exponent -1 < 0) so x^2 > x*z; x*z vs y^2:
    # difference (1,-2,1): rightmost nonzero +1 > 0 so x*z < y^2.
    assert format_poly(p) == "x^2 + y^2 + x*z + z + 1"


def test_format_parse_round_trip_randomized():
    rng = random.Random(11)
    for _ in range(300):
        p = random_poly(rng, max_terms=6)
        assert parse_poly(format_poly(p), VT) == p


def test_parse_format_canonicalizes():
    assert format_poly(P("y + x + x")) == "2*x + y"
    assert format_poly(P("x - x")) == "0"
    assert format_poly(P("-3/2*x + 1")) == "-3/2*x + 1"


def test_coefficients_wrt_groups_by_ring_part():
    vt = VarTable(names=("x", "u", "a", "b"), ring_vars=("x", "u"), param_vars=("a", "b"))
    p = parse_poly("a*x^2 + b*x^2 + a*b*u + 3*x^2", vt)
    groups = p.coefficients_wrt(("x", "u"))
    key_x2 = (2, 0, 0, 0)
    key_u = (0, 1, 0, 0)
    assert set(groups) == {key_x2, key_u}
    assert groups[key_x2] == parse_poly("a + b + 3", vt)
    assert groups[key_u] == parse_poly("a*b", vt)


def test_coefficients_wrt_empty_selection_keeps_whole():
    p = P("x + y")
    groups = p.coefficients_wrt(())
    assert list(groups) == [(0,) * 6]
    assert groups[(0,) * 6] == p


def test_degrevlex_key_orders_by_total_degree_first():
    assert degrevlex_key((2, 0, 0)) > degrevlex_key((1, 0, 0))
    assert degrevlex_key((1, 0, 1)) < degrevlex_key((0, 2, 0))


def test_parse_reads_identifiers_through_rename():
    vt = VarTable(names=("x", "y", "z", "u", "v", "w"))
    assert parse_poly("x^2 - 3*y", vt, rename={"x": "u", "y": "w"}) == parse_poly("u^2 - 3*w", vt)
    # a swap: each key stands for the variable it names, not for itself
    assert parse_poly("x^3 + 2*y", vt, rename={"x": "y", "y": "x"}) == parse_poly("y^3 + 2*x", vt)
    # as on the demo catalog's second side, x names u while the table's
    # own x belongs to the first side
    demo = {"x": "u", "y": "v", "z": "w"}
    assert parse_poly("x^2 + y^2 + z^2", vt, rename=demo) == parse_poly("u^2 + v^2 + w^2", vt)
    # an identifier outside the mapping is undeclared, even a table name
    with pytest.raises(ParseError, match="undeclared identifier 'u'"):
        parse_poly("x*u", vt, rename=demo)
    with pytest.raises(ParseError, match="undeclared identifier 'y'"):
        parse_poly("x + y", vt, rename={"x": "u"})
    with pytest.raises(PolyError, match="undeclared variable 'q'"):
        parse_poly("x", vt, rename={"x": "q"})  # a target missing from the table
    with pytest.raises(ParseError, match="undeclared identifier 'x'"):
        parse_poly("x^2 - 3*y", VarTable(names=("u", "v", "w")))  # no rename


def weighted_degrees(p: Poly, weights) -> set:
    """Set of weighted degrees of the terms (weight 0 for absent names)."""
    idx_w = [Fraction(weights.get(n, 0)) for n in p.vt.names]
    return {sum(w * e for w, e in zip(idx_w, m)) for m in p.monomials()}


def test_weighted_degrees():
    w = {"x": Fraction(1, 4), "y": Fraction(2, 3), "z": Fraction(1)}
    assert weighted_degrees(P("x^4*z + y^3 + z^2"), w) == {Fraction(2)}
    assert len(weighted_degrees(P("x + z"), w)) == 2


# -- properties over the whole table: printing, ring axioms, substitution --

_WIDE_MONOS = st.tuples(*[st.integers(0, 3)] * 6)
_WIDE_POLYS = st.dictionaries(_WIDE_MONOS, _COEFFS, max_size=6).map(lambda t: Poly(VT, t))


@settings(deadline=None)
@given(_WIDE_POLYS)
@example(Poly(VT))
@example(P("-1/2*x^3*w + 7/3"))
def test_parse_inverts_format(p):
    assert parse_poly(format_poly(p), VT) == p


def _reference_format(p: Poly) -> str:
    """The printer on one Fraction per term, read through `terms()`."""

    def coefficient(c: Fraction) -> str:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    if p.is_zero():
        return "0"
    chunks = []
    for m, c in sorted(p.terms(), key=lambda t: degrevlex_key(t[0]), reverse=True):
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(p.vt.names, m) if e)
        mag = abs(c)
        body = coefficient(mag) if not mono else mono if mag == 1 else f"{coefficient(mag)}*{mono}"
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    return (body if sign == "+" else f"-{body}") + "".join(f" {s} {b}" for s, b in chunks[1:])


# units, integers and non-integers of either sign, constants among the terms
_PRINT_COEFFS = st.one_of(st.sampled_from((1, -1)), st.integers(-30, 30).filter(bool), _COEFFS)
_PRINT_MONOS = st.one_of(st.just((0,) * 6), _WIDE_MONOS)
_PRINT_POLYS = st.dictionaries(_PRINT_MONOS, _PRINT_COEFFS, max_size=6).map(lambda t: Poly(VT, t))


@settings(deadline=None, max_examples=300)
@given(_PRINT_POLYS)
@example(Poly(VT))
@example(P("-x + y/2 - 1"))  # a unit over a shared denominator of 2
@example(P("-7/3"))
def test_format_matches_fraction_reference(p):
    assert format_poly(p) == _reference_format(p)


@settings(deadline=None)
@given(_WIDE_POLYS, _WIDE_POLYS, _WIDE_POLYS)
@example(P("2/3*x"), P("y + 1"), P("-1/4"))  # one-term factors
def test_ring_axioms(a, b, c):
    zero, one = Poly.zero(VT), Poly.const(VT, 1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a - b) + b == a and (a + (-a)).is_zero()
    for p in (a * b, (a * b) * c, a - b):
        _assert_canonical(p)


def _reference_substitute(p: Poly, bindings) -> dict:
    """sum over the terms c*m of c * prod(image^e), one Fraction product
    per pair of terms; unbound variables map to themselves."""
    out = {}
    for mono, c in p.terms():
        part = {(0,) * len(VT): c}
        for name, e in zip(VT.names, mono):
            image = bindings.get(name, Poly.var(VT, name))
            for _ in range(e):
                part = _reference_product([(Poly(VT, part), image)])
        for m, d in part.items():
            out[m] = out.get(m, Fraction(0)) + d
    return {m: c for m, c in out.items() if c}


@settings(deadline=None)
@given(_POLYS, st.dictionaries(st.sampled_from(("x", "y", "z")), _POLYS, max_size=3))
@example(P("x^2*y/3 - z"), {"x": P("1/2"), "y": P("y/3 - 2/5")})
@example(P("x*y + 1/7"), {"x": P("-y"), "y": P("x")})  # a swap, simultaneous
@example(P("x^3 - 3*y"), {"x": P("0")})
def test_substitute_matches_term_by_term_reference(p, bindings):
    got = p.substitute(bindings)
    assert dict(got.terms()) == _reference_substitute(p, bindings)
    _assert_canonical(got)


_SMALL_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda m: m + (0,) * 4), _COEFFS, max_size=3
).map(lambda t: Poly(VT, t))


@settings(deadline=None, max_examples=60)
@given(_POLYS, _POLYS, _COEFFS, _SMALL_POLYS, _SMALL_POLYS)
@example(P("x/2 + y/2"), P("x/2 - y/2"), Fraction(2), P("x^2/3 - y/6"), P("x*y/4 + 1/2"))
@example(Poly(VT), P("2/3*x"), Fraction(-3, 2), Poly(VT), P("y^2/5"))
def test_every_operation_returns_the_canonical_form(a, b, q, g, h):
    basis = groebner_basis([g, h])
    reduce = reducer(basis)
    results = [
        parse_poly(format_poly(a), VT), parse_poly("(2*x + 6)/4 - y*6/-9", VT),
        a + b, a - b, a * b, Poly.dot(VT, [(a, b), (b, a)]), a.scale(q), a / q, a.partial("x"),
        a.substitute({"x": b, "y": P("y/2")}), *a.coefficients_wrt(["x"]).values(),
        *basis, reduce(a), reduce(a * b), normal_form(b, basis),
    ]
    for r in results:
        _assert_canonical(r)
        again = Poly(VT, dict(r.terms()))
        assert (again.den, again.nums) == (r.den, r.nums) and hash(again) == hash(r)
        back = pickle.loads(pickle.dumps(r))
        assert (back.den, back.nums) == (r.den, r.nums)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


@settings(deadline=None)
@given(_WIDE_POLYS)
def test_pickle_round_trip(p):
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back.vt == p.vt
    assert dict(back.terms()) == dict(p.terms())


# -- the parser against sympy's reading of the same text --

def _exprs(names):
    """Texts in the grammar over `names`: sums of products of factors,
    factors with powers, unary minus and division by nonzero literals."""
    atoms = st.sampled_from(names) | st.integers(0, 12).map(str)

    def extend(inner):
        base = atoms | inner.map(lambda e: f"({e})")
        powered = base | st.builds(lambda b, n: f"{b}^{n}", base, st.integers(0, 3))
        divided = powered | st.builds(lambda f, q: f"{f}/{q}", powered, st.integers(-9, 9).filter(bool))
        factor = divided | divided.map(lambda f: f"-{f}")
        term = st.lists(factor, min_size=1, max_size=3).map("*".join)
        rest = st.lists(st.tuples(st.sampled_from("+-"), term), max_size=2)
        return st.builds(lambda t, r: t + "".join(f" {op} {u}" for op, u in r), term, rest)

    return st.recursive(atoms, extend, max_leaves=6)


def _parse_with_defs(text, defs):
    expanded = {}
    for name, body in defs:
        expanded[name] = parse_poly(body, VT, expanded)
    return parse_poly(text, VT, expanded)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_parse_matches_sympy_expansion(data):
    defs = []
    for name in ("d0", "d1")[: data.draw(st.integers(0, 2))]:
        defs.append((name, data.draw(_exprs(("x", "y", "z") + tuple(n for n, _ in defs)))))
    text = data.draw(_exprs(("x", "y", "z") + tuple(n for n, _ in defs)))
    assert same_as_sympy(_parse_with_defs(text, defs), text, defs)


@pytest.mark.parametrize(
    "text, defs",
    [
        # exponents past 8- and 16-bit fields, so the parse is retried wider
        ("x^70000", ()),
        ("(x*y^3)^30000", ()),
        ("d0^40000 - y", (("d0", "x*y"),)),
        ("(x^5000*y)^4000", ()),
        ("(x + y)^2*z^300 - x/-3", ()),
        ("-(x - 2*y/3)^2/-5 + --z", ()),
        ("d1^2 - d0/-2", (("d0", "x^2 - y/2"), ("d1", "(d0 + z)*d0"))),
    ],
)
def test_parse_matches_sympy_on_chosen_texts(text, defs):
    assert same_as_sympy(_parse_with_defs(text, defs), text, defs)


def test_parse_names_a_def_only_where_the_table_does_not():
    defs = {"k": P("x + 1"), "x": P("y")}
    assert parse_poly("k*x", VT, defs) == P("x^2 + x")
    with pytest.raises(ParseError, match="undeclared identifier 'q'"):
        parse_poly("k*q", VT, defs)
