"""Quotient-ring arithmetic, inversion, and certified enclosures."""

from __future__ import annotations

import functools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orbimf import numberfield
from orbimf.catalog import load_catalog
from orbimf.numberfield import (
    ComplexBox,
    NumberFieldError,
    PrecisionExceeded,
    QuotientSpec,
    ZeroDivisorError,
    certified_root_box,
    certify_value,
    embed_complex,
    invert,
    reduce,
)
from orbimf.polyring import Poly, VarTable, parse_poly


def _spec_c():
    vt = VarTable(("c",), param_vars=("c",))
    mp = parse_poly("c^4 - 2*c^2 + 2", vt)
    return QuotientSpec(vt, ("c",), (mp,))


def _spec_i():
    vt = VarTable(("i",), param_vars=("i",))
    return QuotientSpec(vt, ("i",), (parse_poly("i^2 + 1", vt),))


ROOT_C = {"c": ("1.0986841134678098", "0.45508986056222733")}  # sqrt(1+i)


# -- exact reduction ----------------------------------------------------


def test_reduce_c8_is_minus_four():
    spec = _spec_c()
    assert reduce(parse_poly("c^8", spec.vt), spec) == parse_poly("-4", spec.vt)


def test_reduce_of_minimal_poly_is_zero():
    spec = _spec_c()
    assert reduce(parse_poly("c^4 - 2*c^2 + 2", spec.vt), spec).is_zero()


def test_one_plus_i_fourth_power():
    spec = _spec_i()
    e = reduce(parse_poly("1 + i", spec.vt), spec)
    square = reduce(e * e, spec)
    assert reduce(square * square, spec) == parse_poly("-4", spec.vt)


def test_two_generator_reduction():
    vt = VarTable(("r", "i"), param_vars=("r", "i"))
    spec = QuotientSpec(
        vt,
        ("r", "i"),
        (parse_poly("r^3 - 1/2", vt), parse_poly("i^2 + 1", vt)),
    )
    assert reduce(parse_poly("i^2 * r^3", spec.vt), spec) == parse_poly("-1/2", vt)
    ir = reduce(parse_poly("i*r", spec.vt), spec)
    assert reduce(ir * ir, spec) == parse_poly("-r^2", vt)


def test_spectator_variables_ride_along():
    vt = VarTable(("c", "b"), param_vars=("c", "b"))
    spec = QuotientSpec(vt, ("c",), (parse_poly("c^4 - 2*c^2 + 2", vt),))
    assert reduce(parse_poly("b*c^4 + b", spec.vt), spec) == parse_poly("2*b*c^2 - b", vt)


# the table carries two candidate generators and two spectators; a spec
# takes one or both candidates, so `u` is a spectator too when it is left out
TUSW = VarTable(("t", "u", "s", "w"), param_vars=("t", "u", "s", "w"))

_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def _specs(draw):
    generators = ("t", "u")[: draw(st.integers(1, 2))]
    mps = []
    for name in generators:
        i = TUSW.index(name)
        lower = draw(st.lists(_rationals, min_size=draw(st.integers(1, 8)), max_size=8))
        terms = {tuple(k if j == i else 0 for j in range(4)): c for k, c in enumerate(lower)}
        terms[tuple(len(lower) if j == i else 0 for j in range(4))] = Fraction(1)
        mps.append(Poly(TUSW, terms))
    return QuotientSpec(TUSW, generators, tuple(mps))


# generator exponents run past every degree, spectator exponents stay small
_tusw_monos = st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2), st.integers(0, 2))
_tusw_polys = st.dictionaries(_tusw_monos, _rationals.filter(bool), max_size=6).map(
    lambda t: Poly(TUSW, t)
)


def _sympy_remainder(p, spec):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(TUSW.names)

    def to_sympy(q):
        terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in q.terms()}
        return sympy.Poly.from_dict(terms or {(0, 0, 0, 0): 0}, *syms, domain="QQ")

    _, r = sympy.reduced(
        to_sympy(p), [to_sympy(mp) for mp in spec.minimal_polys], *syms,
        order="grevlex", polys=True,
    )
    return Poly(TUSW, {m: Fraction(int(c.p), int(c.q)) for m, c in r.terms() if c})


@settings(max_examples=120, deadline=None)
@given(_specs(), _tusw_polys)
def test_reduce_matches_sympy_reduced(spec, p):
    # monic univariates in distinct generators are a Groebner basis, so
    # the remainder is unique and sympy's division must give it too
    got = reduce(p, spec)
    assert got == _sympy_remainder(p, spec)
    for name in spec.generators:
        assert got.degree_in(name) < spec.degree(name)


# -- inversion ----------------------------------------------------------


def _euclid_inverse(num_coeffs, mod_coeffs):
    """Inverse of num modulo mod in Q[x], dense low-to-high lists."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def scale(p, q):
        return [c * q for c in p]

    def sub(p, q):
        out = [Fraction(0)] * max(len(p), len(q))
        for i, c in enumerate(p):
            out[i] += c
        for i, c in enumerate(q):
            out[i] -= c
        return trim(out)

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return trim(out)

    def divmod_(p, q):
        p = list(p)
        quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
        while len(p) >= len(q) and p:
            k = len(p) - len(q)
            f = p[-1] / q[-1]
            quot[k] = f
            p = sub(p, mul([Fraction(0)] * k + [f], q))
        return trim(quot), trim(p)

    r0, r1 = list(mod_coeffs), trim(list(num_coeffs))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1))
    assert len(r0) == 1, "inputs were not coprime"
    return scale(s0, 1 / r0[0])


def test_invert_c_matches_euclid_oracle():
    spec = _spec_c()
    inv = invert(reduce(parse_poly("c", spec.vt), spec), spec)
    assert inv == parse_poly("c - c^3/2", spec.vt)
    mod = [Fraction(2), Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]
    oracle = _euclid_inverse([Fraction(0), Fraction(1)], mod)
    got = [inv.coefficient((k,)) for k in range(4)]
    want = oracle + [Fraction(0)] * (4 - len(oracle))
    assert got == want


def test_invert_random_elements_roundtrip():
    spec = _spec_c()
    one = reduce(parse_poly("1", spec.vt), spec)
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        rep = Poly(spec.vt, {(k,): c for k, c in enumerate(coeffs) if c})
        if rep.is_zero():
            continue
        e = reduce(rep, spec)
        assert reduce(e * invert(e, spec), spec) == one


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisorError):
        spec = _spec_c()
        invert(reduce(parse_poly("0", spec.vt), spec), spec)


def test_invert_detects_zero_divisor():
    vt = VarTable(("t",), param_vars=("t",))
    spec = QuotientSpec(vt, ("t",), (parse_poly("t^2 - 1", vt),))
    with pytest.raises(ZeroDivisorError):
        invert(reduce(parse_poly("t - 1", spec.vt), spec), spec)
    inv = invert(reduce(parse_poly("t + 2", spec.vt), spec), spec)  # (t+2)(2-t)/3 = (4-t^2)/3 = 1
    assert inv == parse_poly("(2 - t)/3", vt)


def test_invert_rejects_free_variables():
    vt = VarTable(("c", "b"), param_vars=("c", "b"))
    spec = QuotientSpec(vt, ("c",), (parse_poly("c^2 + 1", vt),))
    with pytest.raises(NumberFieldError):
        invert(reduce(parse_poly("b*c", spec.vt), spec), spec)


def _quotient(generators, texts):
    vt = VarTable(generators, param_vars=generators)
    return QuotientSpec(vt, generators, tuple(parse_poly(text, vt) for text in texts))


# Relations with rational coefficients, so the reduced columns of one
# inversion carry different denominators.  The first two quotients are
# fields (4t^10 + 1 is irreducible; Q(i, sqrt 2) has degree 4); in the
# third (i - s)(i + s) = i^2 - s^2 = 0.
_T10 = _quotient(("t",), ("t^10 + 1/4",))  # the Q12 witness relation
_FIELDS = (_T10, _quotient(("i", "s"), ("i^2 + 1", "s^2 - 2")))
_SPLIT = _quotient(("i", "s"), ("i^2 + 1/4", "s^2 + 1/4"))


@st.composite
def _elements(draw, specs):
    spec = draw(st.sampled_from(specs))
    monos = st.tuples(*[st.integers(0, 12)] * len(spec.vt))
    terms = draw(st.dictionaries(monos, _rationals.filter(bool), min_size=1, max_size=6))
    return spec, reduce(Poly(spec.vt, terms), spec)


@settings(deadline=None, max_examples=60)
@given(_elements(_FIELDS))
@example((_T10, parse_poly("t", _T10.vt)))  # one column over 4, nine over 1
def test_invert_over_rational_relations(spec_and_element):
    spec, e = spec_and_element
    assume(not e.is_zero())
    assert reduce(e * invert(e, spec), spec) == Poly.const(spec.vt, 1)


@settings(deadline=None, max_examples=40)
@given(_elements((_SPLIT,)))
def test_invert_over_rational_relations_detects_zero_divisors(spec_and_element):
    spec, r = spec_and_element
    e = reduce(parse_poly("i - s", spec.vt) * r, spec)
    assume(not e.is_zero())
    with pytest.raises(ZeroDivisorError):
        invert(e, spec)


# -- spec validation ----------------------------------------------------


def test_spec_rejects_nonmonic():
    vt = VarTable(("c",), param_vars=("c",))
    with pytest.raises(NumberFieldError):
        QuotientSpec(vt, ("c",), (parse_poly("2*c^2 + 1", vt),))


def test_spec_rejects_multivariate_minimal_poly():
    vt = VarTable(("c", "d"), param_vars=("c", "d"))
    with pytest.raises(NumberFieldError):
        QuotientSpec(vt, ("c",), (parse_poly("c^2 + d", vt),))


# -- certified embeddings -----------------------------------------------


def test_embed_exact_gaussian_point():
    spec = _spec_i()
    box = embed_complex(reduce(parse_poly("3 + 2*i", spec.vt), spec), spec, {"i": ("0", "1")})
    assert box == ComplexBox(Fraction(3), Fraction(3), Fraction(2), Fraction(2))


def test_embed_contains_numeric_value():
    mpmath = pytest.importorskip("mpmath")
    spec = _spec_c()
    e = reduce(parse_poly("c^3 - c/3 + 2", spec.vt), spec)
    box = embed_complex(e, spec, ROOT_C, 128)
    assert box.width() < Fraction(1, 10**20)
    with mpmath.workprec(300):
        z = mpmath.mpc("1.0986841134678098", "0.45508986056222733")
        for _ in range(200):
            z = z - (z**4 - 2 * z**2 + 2) / (4 * z**3 - 4 * z)
        val = z**3 - z / 3 + 2
        pad = mpmath.mpf(2) ** -250
        assert mpmath.mpf(str(box.re_lo)) - pad <= val.real <= mpmath.mpf(str(box.re_hi)) + pad
        assert mpmath.mpf(str(box.im_lo)) - pad <= val.imag <= mpmath.mpf(str(box.im_hi)) + pad


# two generators
ST = VarTable(("s", "t"), param_vars=("s", "t"))
ST_SPEC = QuotientSpec(ST, ("s", "t"), (parse_poly("s^2 - 2", ST), parse_poly("t^3 + t + 1", ST)))


@functools.lru_cache(maxsize=None)
def _st_root(name, index):
    """A root of s^2 - 2 or t^3 + t + 1 from sympy at 100 digits (over
    300 bits), with its 18-digit approximation for a root choice."""
    sympy = pytest.importorskip("sympy")
    root = sympy.Poly({"s": "s**2 - 2", "t": "t**3 + t + 1"}[name]).nroots(n=100)[index]
    return root, (str(sympy.re(root).evalf(18)), str(sympy.im(root).evalf(18)))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 5)), _rationals.filter(bool), min_size=1, max_size=6),
    st.integers(0, 1),
    st.integers(0, 2),
)
def test_embed_two_generators_holds_the_value(terms, s_index, t_index):
    # the widening sums each term's movement over both root disks; the
    # unreduced polynomial's value at the 100-digit roots must land in it
    sympy = pytest.importorskip("sympy")
    (s, s_approx), (t, t_approx) = _st_root("s", s_index), _st_root("t", t_index)
    box = embed_complex(reduce(Poly(ST, terms), ST_SPEC), ST_SPEC, {"s": s_approx, "t": t_approx}, 128)
    assert box.width() < Fraction(1, 2**100)
    value = sum(sympy.Rational(c.numerator, c.denominator) * s**a * t**b for (a, b), c in terms.items())
    pad = Fraction(1, 2**280)
    for part, lo, hi in ((sympy.re(value), box.re_lo, box.re_hi), (sympy.im(value), box.im_lo, box.im_hi)):
        q = sympy.Rational(part)
        assert lo - pad <= Fraction(int(q.p), int(q.q)) <= hi + pad


T8 = VarTable(("t",), param_vars=("t",))
T8_SPEC = QuotientSpec(T8, ("t",), (parse_poly("t^8 + 4", T8),))  # not a field


def test_certify_zero_and_nonzero():
    vt = VarTable(("c",), param_vars=("c",))
    spec = QuotientSpec(vt, ("c",), (parse_poly("c^4 - 2*c^2 + 2", vt),))
    zero = reduce(parse_poly("c^8 + 4", spec.vt), spec)
    cert = certify_value(zero, spec, ROOT_C)
    assert cert.status == "zero"
    # a unit (c^8 = -4), certified by its inverse without an interval
    cert = certify_value(reduce(parse_poly("-c^7/2", spec.vt), spec), spec, ROOT_C)
    assert cert == ("nonzero_exact", None, None)
    # a zero divisor modulo t^8 + 4 = (t^4 - 2t^2 + 2)(t^4 + 2t^2 + 2),
    # nonzero (4 - 4i) at the root sqrt(-1 + i) of the second factor
    root = {"t": ("0.45508986056222733", "1.0986841134678098")}
    cert = certify_value(reduce(parse_poly("t^4 - 2*t^2 + 2", T8_SPEC.vt), T8_SPEC), T8_SPEC, root)
    assert cert.status == "nonzero_interval"
    assert not cert.box.contains_zero()
    assert cert.box.re_lo <= 4 <= cert.box.re_hi and cert.box.im_lo <= -4 <= cert.box.im_hi
    assert cert.precision_bits == 128


def test_interval_certificate_needs_no_mpmath():
    # the zero divisor above, certified in a fresh process that cannot import mpmath
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from orbimf.numberfield import QuotientSpec, certify_value, reduce\n"
        "from orbimf.polyring import VarTable, parse_poly\n"
        "vt = VarTable(('t',), param_vars=('t',))\n"
        "spec = QuotientSpec(vt, ('t',), (parse_poly('t^8 + 4', vt),))\n"
        "root = {'t': ('0.45508986056222733', '1.0986841134678098')}\n"
        "cert = certify_value(reduce(parse_poly('t^4 - 2*t^2 + 2', spec.vt), spec), spec, root)\n"
        "box = cert.box\n"
        "print(cert.status, cert.precision_bits, box.contains_zero(),\n"
        "      box.re_lo <= 4 <= box.re_hi and box.im_lo <= -4 <= box.im_hi)\n"
    )
    src = str(Path(numberfield.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["nonzero_interval", "128", "False", "True"]


def test_certify_generator_as_a_unit():
    # c is a unit modulo c^4 - 2c^2 + 2, so its inverse certifies it
    # without a root choice
    spec = _spec_c()
    cert = certify_value(reduce(parse_poly("c", spec.vt), spec), spec, None)
    assert cert.status == "nonzero_exact"


def test_certify_refuses_an_element_with_free_variables():
    # W13's zero divisor t^4 + 2t^2 + 2 modulo t^8 + 4 certifies by an
    # interval; with a free b added it is neither inverted nor embedded
    vt = VarTable(("t", "b"), param_vars=("t", "b"))
    spec = QuotientSpec(vt, ("t",), (parse_poly("t^8 + 4", vt),))
    root = {"t": ("1.0986841134678098", "0.45508986056222733")}
    value = reduce(parse_poly("t^4 + 2*t^2 + 2", vt), spec)
    assert certify_value(value, spec, root).status == "nonzero_interval"
    with pytest.raises(NumberFieldError, match=r"^cannot embed element with free variables \['b'\]$"):
        certify_value(value + parse_poly("b", vt), spec, root)


def test_certify_requires_roots_for_nonfield():
    vt = VarTable(("t",), param_vars=("t",))
    spec = QuotientSpec(vt, ("t",), (parse_poly("t^2 - 1", vt),))
    with pytest.raises(NumberFieldError):
        certify_value(reduce(parse_poly("t - 1", spec.vt), spec), spec, None)
    # a unit needs no root
    spec = QuotientSpec(vt, ("t",), (parse_poly("t^2 - 2", vt),))
    assert certify_value(reduce(parse_poly("t", spec.vt), spec), spec, None).status == "nonzero_exact"


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=8),
    st.sampled_from(["1", "t^4 - 2*t^2 + 2", "t^4 + 2*t^2 + 2", "t^8 + 4"]),
)
def test_certify_exact_exactly_on_units_modulo_t8_plus_4(coeffs, factor):
    # t^8 + 4 is not irreducible, so the units are the elements coprime
    # to it; the others are zero or need a root (none is given here)
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    product = sum(c * t**k for k, c in enumerate(coeffs)) * sympy.sympify(factor.replace("^", "**"))
    e = sympy.rem(sympy.expand(product), t**8 + 4, t)
    value = reduce(parse_poly(str(e).replace("**", "^"), T8_SPEC.vt), T8_SPEC)
    unit = e != 0 and sympy.gcd(e, t**8 + 4) == 1
    try:
        status = certify_value(value, T8_SPEC, None).status
    except NumberFieldError:
        status = None
    assert (status == "nonzero_exact") == unit
    assert (status == "zero") == (e == 0)


# -- certified root boxes: sound radius, short endpoints ----------------


def _catalog_minimal_polys():
    seen = {}
    for entry in load_catalog().values():
        for family in entry.families:
            for name, text in family.generators:
                seen.setdefault(text.replace(name, "t"), None)
    seen.setdefault("t^8 + 4", None)
    return sorted(seen)


def _complex_horner(coeffs, re, im):
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def _short(q: Fraction) -> bool:
    """q is m / 2^k or m * 2^k with m of at most 64 bits."""
    m = q.numerator
    while m and not m % 2:
        m //= 2
    d = q.denominator
    return m.bit_length() <= 64 and d & (d - 1) == 0


@pytest.mark.parametrize("text", _catalog_minimal_polys())
def test_root_box_radius_is_sound_short_and_encloses_a_root(text):
    sympy = pytest.importorskip("sympy")
    vt = VarTable(("t",), param_vars=("t",))
    mp = parse_poly(text, vt)
    coeffs = [c.constant_value() for c in mp.coeffs_in("t")]
    n = len(coeffs) - 1
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    # 200 digits resolve a box at 512 bits of working precision
    roots = sympy.Poly(text, sympy.Symbol("t")).nroots(n=200, maxsteps=200)
    reference = [(Fraction(str(sympy.re(r))), Fraction(str(sympy.im(r)))) for r in roots]
    for root in roots:
        approx = (str(sympy.re(root).evalf(18)), str(sympy.im(root).evalf(18)))
        for bits in (128, 512):
            box = certified_root_box(mp, "t", approx, bits)
            re, im = box.midpoint()
            radius = (box.re_hi - box.re_lo) / 2
            assert radius == (box.im_hi - box.im_lo) / 2
            # radius >= n*|m(z0)|/|m'(z0)|, compared squared
            f_re, f_im = _complex_horner(coeffs, re, im)
            d_re, d_im = _complex_horner(deriv, re, im)
            assert radius * radius * (d_re**2 + d_im**2) >= n * n * (f_re**2 + f_im**2), text
            assert _short(radius), (text, radius)
            assert any(
                box.re_lo <= r_re <= box.re_hi and box.im_lo <= r_im <= box.im_hi
                for r_re, r_im in reference
            ), (text, approx, bits)
