"""Quotient rings Q[t1,...,tk]/(m1(t1),...,mk(tk)) and certified embeddings.

Each generator carries its own monic univariate minimal polynomial.  The
leads of these, powers of distinct generators, are pairwise coprime, so
the minimal polynomials already form a Groebner basis (Buchberger's
first criterion) and reduction is the normal form modulo them through
the shared kernel `_groebner.reducer`, whose divisor records each
quotient builds once.  That normal form is unique: every generator
exponent lies below its minimal polynomial's degree.  A quotient value is
that normal form, a plain `Poly` passed with its `QuotientSpec`; it may
also involve extra "spectator" variables (free parameters riding along),
which reduction never touches.

Inversion solves an exact linear system over the monomial basis of the
quotient (values must be supported on generators only): column j is the
normal form of the value times the j-th basis monomial, and every
column's integer numerators are brought over the columns' common
denominator, so the solve reads integers and returns the inverse as
numerators over one denominator, which is how a `Poly` stores it.  A
failed inversion reports a zero divisor instead of guessing; an element
that inverts is a unit, and by Stickelberger's theorem a unit is nonzero
at every root of the relations.  So every exact nonzero verdict is an
inverse, whether or not the quotient happens to be a field.

For a nonzero zero divisor, embed_complex produces a rectangle with
rational endpoints that is guaranteed to contain the image of an element
under the embedding that sends each generator to a root of its minimal
polynomial near the given approximation.  Everything is exact rational
arithmetic: Newton steps rounded to a dyadic grid refine each root, the
classic bound  min_r |z0 - r| <= deg(m) * |m(z0)| / |m'(z0)|  certifies a
disk around the refined point, and the element's exact value at the disk
centres is widened by how far each term can move within the disks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ._groebner import reducer
from ._linalg import solve_dense
from .polyring import Monomial, Poly, VarTable

_ZERO = Fraction(0)


class NumberFieldError(ValueError):
    pass


class ZeroDivisorError(NumberFieldError):
    """The element is not invertible in this quotient."""


class PrecisionExceeded(NumberFieldError):
    """No conclusive interval before the working-precision cap."""


class _QuotientSpec(NamedTuple):
    vt: VarTable
    generators: Tuple[str, ...]
    minimal_polys: Tuple[Poly, ...]


class QuotientSpec(_QuotientSpec):
    """Generators with independent monic univariate minimal polynomials.
    No `__slots__`: the reducer is cached in the instance `__dict__`."""

    def __new__(cls, vt: VarTable, generators: Tuple[str, ...], minimal_polys: Tuple[Poly, ...]) -> "QuotientSpec":
        if len(generators) != len(minimal_polys):
            raise NumberFieldError("one minimal polynomial per generator required")
        seen = set()
        for name, mp in zip(generators, minimal_polys):
            if name in seen:
                raise NumberFieldError(f"duplicate generator {name!r}")
            seen.add(name)
            if name not in vt:
                raise NumberFieldError(f"generator {name!r} missing from table")
            support = mp.support_vars()
            if support not in ((name,), ()):
                raise NumberFieldError(
                    f"minimal polynomial of {name!r} must be univariate in it, uses {support}"
                )
            if mp.degree_in(name) < 1:
                raise NumberFieldError(f"minimal polynomial of {name!r} must have degree >= 1")
            if mp.coeffs_in(name)[-1].constant_value() != 1:
                raise NumberFieldError(f"minimal polynomial of {name!r} must be monic")
        return super().__new__(cls, vt, generators, minimal_polys)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientSpec is immutable")

    def degree(self, name: str) -> int:
        return self.minimal_polys[self.generators.index(name)].degree_in(name)

    @cached_property
    def _normal_form(self) -> Callable[[Poly], Poly]:
        return reducer(self.minimal_polys)

    def __getstate__(self) -> None:
        # the reducer is a closure: pickle the three fields, rebuild it
        return None


def reduce(p: Poly, spec: QuotientSpec) -> Poly:
    """Normal form of p modulo the minimal polynomials: every generator
    exponent below its minimal polynomial's degree."""
    if p.vt != spec.vt:
        raise NumberFieldError("polynomial does not live in the quotient's table")
    return spec._normal_form(p)


def _basis_monomials(spec: QuotientSpec) -> List[Monomial]:
    monos: List[Monomial] = [(0,) * len(spec.vt)]
    for name in spec.generators:
        i = spec.vt.index(name)
        monos = [m[:i] + (e,) + m[i + 1:] for m in monos for e in range(spec.degree(name))]
    return monos


def invert(p: Poly, spec: QuotientSpec) -> Poly:
    """Inverse of p in `spec` via an exact linear solve over the basis."""
    extra = [v for v in p.support_vars() if v not in spec.generators]
    if extra:
        raise NumberFieldError(f"cannot invert element with free variables {extra}")
    if p.is_zero():
        raise ZeroDivisorError("zero is not invertible")
    basis = _basis_monomials(spec)
    pos = {m: i for i, m in enumerate(basis)}
    # column j holds the coordinates of p * basis[j]: p's exponents
    # shifted by basis[j], reduced; every equation is taken times the
    # columns' common denominator d, right-hand side included
    columns = [
        spec._normal_form(Poly._raw(spec.vt, p.den, {tuple(map(add, mono, m)): n for mono, n in p.nums.items()}))
        for m in basis
    ]
    d = math.lcm(*(col.den for col in columns))
    a = [[0] * len(basis) for _ in basis]
    for j, col in enumerate(columns):
        s = d // col.den
        for mono, n in col.nums.items():
            a[pos[mono]][j] = n * s
    b = [0] * len(basis)
    b[pos[(0,) * len(spec.vt)]] = d
    x = solve_dense(a, b)
    if x is None:
        raise ZeroDivisorError(f"{p} is a zero divisor in this quotient")
    nums, den = x
    return Poly._make(spec.vt, den, dict(zip(basis, nums)))


# ---------------------------------------------------------------------
# certified complex rectangles


class ComplexBox(NamedTuple):
    """Axis-aligned rectangle with rational endpoints."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    def contains_zero(self) -> bool:
        return self.re_lo <= 0 <= self.re_hi and self.im_lo <= 0 <= self.im_hi

    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def midpoint(self) -> Tuple[Fraction, Fraction]:
        return ((self.re_lo + self.re_hi) / 2, (self.im_lo + self.im_hi) / 2)


def _sqrt_upper(q: Fraction) -> Fraction:
    """Upper bound m / 2^k for sqrt(q), q >= 0, with m below 2^64: a
    larger radius still encloses the root, and its endpoints stay short."""
    if q < 0:
        raise NumberFieldError("negative radicand")
    if q == 0:
        return Fraction(0)
    k = (126 - q.numerator.bit_length() + q.denominator.bit_length()) // 2
    return (math.isqrt(math.ceil(q * Fraction(4) ** k)) + 1) / Fraction(2) ** k


def _eval_rational_complex(coeffs: Sequence[Fraction], re: Fraction, im: Fraction) -> Tuple[Fraction, Fraction]:
    """Exact Horner evaluation of a rational polynomial at re + im*i."""
    acc_re, acc_im = _ZERO, _ZERO
    for c in reversed(coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def certified_root_box(mp: Poly, name: str, approx: Tuple[str, str], precision_bits: int) -> ComplexBox:
    """Square with rational endpoints containing a root of mp near approx.

    Newton steps in exact rationals, each rounded to a multiple of
    2^-precision_bits, refine the approximation until a step leaves it in
    place (at most precision_bits steps).  The half-width is certified from
    the exact values m(z0), m'(z0) at the last point z0 via
    n*|m(z0)|/|m'(z0)|, rounded up to 64 significant bits over a power of two.
    """
    coeffs = [c.constant_value() for c in mp.coeffs_in(name)]
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    n = len(coeffs) - 1
    scale = 2**precision_bits
    z = (Fraction(str(approx[0])), Fraction(str(approx[1])))
    for _ in range(precision_bits):
        re, im = z
        f_re, f_im = _eval_rational_complex(coeffs, re, im)
        d_re, d_im = _eval_rational_complex(deriv, re, im)
        d_norm2 = d_re * d_re + d_im * d_im
        if d_norm2 == 0:
            raise PrecisionExceeded(f"derivative vanished at the approximation for {name!r}")
        z = (  # z0 - m(z0)/m'(z0) on the grid
            Fraction(round((re - (f_re * d_re + f_im * d_im) / d_norm2) * scale), scale),
            Fraction(round((im - (f_im * d_re - f_re * d_im) / d_norm2) * scale), scale),
        )
        if z == (re, im):
            break
    radius = _sqrt_upper(Fraction(n * n) * (f_re * f_re + f_im * f_im) / d_norm2)
    return ComplexBox(re - radius, re + radius, im - radius, im + radius)


def embed_complex(
    p: Poly,
    spec: QuotientSpec,
    root_choice: Mapping[str, Tuple[str, str]],
    precision_bits: int = 128,
) -> ComplexBox:
    """Guaranteed enclosure of the image of p at the chosen roots.

    p is evaluated once, exactly, at the centres z_i of the root
    boxes.  Each root lies within its box's half-width rho_i of z_i, so a
    term c * prod z_i^e_i moves by at most
    |c| * (prod (u_i + rho_i)^e_i - prod u_i^e_i) for any u_i >= |z_i|,
    and the sum of these bounds widens the value into a square.
    """
    extra = [v for v in p.support_vars() if v not in spec.generators]
    if extra:
        raise NumberFieldError(f"cannot embed element with free variables {extra}")
    centres: Dict[int, Tuple[Fraction, Fraction, Fraction, Fraction]] = {}  # slot -> re, im, u, rho
    for name, mp in zip(spec.generators, spec.minimal_polys):
        if name not in root_choice:
            if p.degree_in(name) > 0:
                raise NumberFieldError(f"no root choice given for generator {name!r}")
            continue
        box = certified_root_box(mp, name, root_choice[name], precision_bits)
        re, im = box.midpoint()
        centres[spec.vt.index(name)] = (re, im, _sqrt_upper(re * re + im * im), (box.re_hi - box.re_lo) / 2)
    val_re = val_im = slack = _ZERO
    for mono, coeff in p.terms():
        t_re, t_im, near, far = coeff, _ZERO, Fraction(1), Fraction(1)
        for i, e in enumerate(mono):
            if e:
                re, im, u, rho = centres[i]
                for _ in range(e):
                    t_re, t_im = t_re * re - t_im * im, t_re * im + t_im * re
                near *= u**e
                far *= (u + rho) ** e
        val_re += t_re
        val_im += t_im
        slack += abs(coeff) * (far - near)
    return ComplexBox(val_re - slack, val_re + slack, val_im - slack, val_im + slack)


class NonzeroCertificate(NamedTuple):
    status: str  # "zero" | "nonzero_exact" | "nonzero_interval"
    box: Optional[ComplexBox]  # the enclosure of a "nonzero_interval"
    precision_bits: Optional[int]


def certify_value(
    p: Poly,
    spec: QuotientSpec,
    root_choice: Optional[Mapping[str, Tuple[str, str]]],
) -> NonzeroCertificate:
    """Decide zero / certified-nonzero for p, a normal form in `spec`.

    A p that is exactly zero is reported as zero, and a unit is
    certified exactly by its inverse (nonzero at every root).  A zero
    divisor is embedded at the chosen roots from 128 bits, doubling up
    to 2048, until the rectangle excludes zero.  An element with free
    variables left is neither inverted nor embedded: it raises
    NumberFieldError, which names those variables when a root choice is
    given.
    """
    if p.is_zero():
        return NonzeroCertificate("zero", None, None)
    try:
        invert(p, spec)  # an exact solution of p * y = 1, or an error
        return NonzeroCertificate("nonzero_exact", None, None)
    except NumberFieldError:
        pass
    if not root_choice:
        raise NumberFieldError("a non-unit needs a root choice to certify nonzero")
    for bits in (128, 256, 512, 1024, 2048):
        box = embed_complex(p, spec, root_choice, bits)
        if not box.contains_zero():
            return NonzeroCertificate("nonzero_interval", box, bits)
    raise PrecisionExceeded(f"no conclusive interval for {p} up to 2048 bits")
