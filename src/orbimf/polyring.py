"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a mapping from monomials to nonzero integer numerators
over one positive denominator, with no factor common to all of them, so
equal polynomials are equal records.  A monomial is a tuple of
non-negative integer exponents, one slot per variable of the owning
VarTable.  The kernels here, in `_groebner` and in `residue` read the
integers, and so does the printer; Fractions are made only where a
coefficient is read out (`terms`, `coefficient`, `constant_value`).
All arithmetic is exact; there is no floating point anywhere in this
module.

Variables are declared up front in a VarTable, which also records which
names play the role of ring variables and which are parameters.  Two
polynomials can only be combined when they share the same VarTable.

Printing and parsing use a small explicit grammar (no implicit
multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' natural)? ('/' nonzero-integer)?
    base   := natural | identifier | '(' expr ')'

Unary minus binds tighter than '+'/'-' but looser than '^', so "-x^2"
denotes -(x^2).  Scalar division is only allowed by a nonzero integer
literal.  Terms are printed in descending degree-reverse-lexicographic
order, which makes format(parse(s)) a canonical form and parse(format(p))
the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, lshift
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

Monomial = Tuple[int, ...]
IntTerms = Iterable[Tuple[Monomial, int]]


class PolyError(ValueError):
    """Base error for polynomial construction and arithmetic."""


class VarTableMismatch(PolyError):
    """Raised when combining polynomials over different VarTables."""


class ParseError(PolyError):
    """Syntax or identifier error while parsing; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VarTable:
    """Ordered variable declarations plus the ring/parameter split.

    `names` fixes both the exponent-slot order of every monomial and the
    tie-breaking order used by degrevlex.  `ring_vars` and `param_vars`
    must be disjoint subsets of `names`; names in neither set are allowed
    (used e.g. for shorthand definitions and field generators).  A table
    is immutable, and equal and hashed by those three fields.
    """

    def __init__(self, names: Tuple[str, ...], ring_vars: Tuple[str, ...] = (), param_vars: Tuple[str, ...] = ()):
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names}")
        ring = set(ring_vars)
        par = set(param_vars)
        if ring & par:
            raise PolyError(f"variables declared both ring and parameter: {sorted(ring & par)}")
        missing = (ring | par) - set(names)
        if missing:
            raise PolyError(f"declared subset names not in table: {sorted(missing)}")
        index = {n: i for i, n in enumerate(names)}
        vars(self).update(names=names, ring_vars=ring_vars, param_vars=param_vars, _index=index)

    def __setattr__(self, name, value):
        raise AttributeError("VarTable is immutable")

    def _key(self) -> tuple:
        return self.names, self.ring_vars, self.param_vars

    def __eq__(self, other) -> bool:
        if other.__class__ is not VarTable:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "VarTable(names=%r, ring_vars=%r, param_vars=%r)" % self._key()

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"undeclared variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)


def degrevlex_key(m: Monomial) -> tuple:
    """Sort key; larger key means larger monomial in degrevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


class Poly:
    """Immutable sparse polynomial over a fixed VarTable: sum(n*m)/den
    over the items (m, n) of `nums`, with den > 0, no n zero and
    gcd(den, *nums.values()) == 1."""

    __slots__ = ("vt", "den", "nums")

    def __init__(self, vt: VarTable, terms: Mapping[Monomial, Fraction] | None = None):
        coeffs: Dict[Monomial, Fraction] = {}
        width = len(vt)
        for mono, coeff in (terms or {}).items():
            if len(mono) != width:
                raise PolyError(f"monomial {mono} has wrong width for table of {width} variables")
            if any(e < 0 for e in mono):
                raise PolyError(f"negative exponent in monomial {mono}")
            coeffs[tuple(mono)] = Fraction(coeff)
        den = lcm(*(q.denominator for q in coeffs.values()))
        p = Poly._make(vt, den, {m: q.numerator * (den // q.denominator) for m, q in coeffs.items()})
        for name in Poly.__slots__:
            object.__setattr__(self, name, getattr(p, name))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vt: VarTable) -> "Poly":
        return Poly._raw(vt, 1, {})

    @staticmethod
    def const(vt: VarTable, value) -> "Poly":
        q = value if isinstance(value, int) else Fraction(value)
        return Poly._raw(vt, q.denominator, {(0,) * len(vt): q.numerator} if q else {})

    @staticmethod
    def var(vt: VarTable, name: str) -> "Poly":
        i = vt.index(name)
        return Poly._raw(vt, 1, {tuple(int(j == i) for j in range(len(vt))): 1})

    @staticmethod
    def _make(vt: VarTable, den: int, acc: Mapping[Monomial, int]) -> "Poly":
        """The canonical Poly sum(n*m)/den of the integer numerators in
        `acc` over den > 0: zeros dropped, common factor divided out."""
        nums = {m: n for m, n in acc.items() if n}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: n // g for m, n in nums.items()}
        return Poly._raw(vt, den, nums)

    @staticmethod
    def _raw(vt: VarTable, den: int, nums: Dict[Monomial, int]) -> "Poly":
        """Trusted constructor: den and nums must already be canonical."""
        p = object.__new__(Poly)
        object.__setattr__(p, "vt", vt)
        object.__setattr__(p, "den", den)
        object.__setattr__(p, "nums", nums)
        return p

    def __reduce__(self):
        # the immutability guard blocks pickle's default attribute restore
        return Poly._raw, (self.vt, self.den, self.nums)

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, Fraction]]:
        den = self.den
        return ((m, Fraction(n, den)) for m, n in self.nums.items())

    def monomials(self) -> Iterator[Monomial]:
        return iter(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def constant_value(self) -> Fraction:
        if any(any(m) for m in self.nums):
            raise PolyError("polynomial is not constant")
        return Fraction(next(iter(self.nums.values()), 0), self.den)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.nums.get(tuple(mono), 0), self.den)

    def total_degree(self) -> int:
        if not self.nums:
            return -1
        return max(sum(m) for m in self.nums)

    def degree_in(self, name: str) -> int:
        i = self.vt.index(name)
        if not self.nums:
            return -1
        return max(m[i] for m in self.nums)

    def support_vars(self) -> Tuple[str, ...]:
        used = [False] * len(self.vt)
        for m in self.nums:
            for i, e in enumerate(m):
                if e:
                    used[i] = True
        return tuple(n for n, u in zip(self.vt.names, used) if u)

    def leading_monomial(self) -> Monomial:
        if not self.nums:
            raise PolyError("zero polynomial has no leading monomial")
        return max(self.nums, key=degrevlex_key)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.vt is not other.vt and self.vt != other.vt:
            raise VarTableMismatch("polynomials belong to different variable tables")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vt == other.vt and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.vt.names, self.den, frozenset(self.nums.items())))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {m: n * s for m, n in self.nums.items()}
        get = out.get
        for m, n in other.nums.items():
            out[m] = get(m, 0) + n * t
        return Poly._make(self.vt, den, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._raw(self.vt, self.den, {m: -n for m, n in self.nums.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly.dot(self.vt, ((self, other),))

    @staticmethod
    def dot(vt: VarTable, pairs: Iterable[Tuple["Poly", "Poly"]]) -> "Poly":
        """sum(x*y for x, y in pairs) over `vt`, zero for no pairs.

        Every product is accumulated as integer numerators over one
        common denominator; pairs with a zero operand are skipped.
        """
        products = []
        for x, y in pairs:
            if (x.vt is not vt and x.vt != vt) or (y.vt is not vt and y.vt != vt):
                raise VarTableMismatch("polynomials belong to different variable tables")
            a, b = x.nums, y.nums
            if not a or not b:
                continue
            if len(a) > len(b):
                a, b = b, a
            products.append((x.den * y.den, a.items(), b.items()))
        den = lcm(*(d for d, _, _ in products))
        acc: Dict[Monomial, int] = {}
        for d, ia, ib in products:
            if d != den:
                s = den // d
                ia = [(m, c * s) for m, c in ia]
            _accumulate(acc, ia, ib)
        return Poly._make(vt, den, acc)

    def scale(self, value) -> "Poly":
        q = Fraction(value)
        return Poly._make(self.vt, self.den * q.denominator, {m: n * q.numerator for m, n in self.nums.items()})

    def __truediv__(self, value) -> "Poly":
        q = Fraction(value)
        if not q:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self.scale(1 / q)

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise PolyError(f"exponent must be a non-negative integer, got {n!r}")
        result = Poly.const(self.vt, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution ------------------------------------

    def partial(self, name: str) -> "Poly":
        i = self.vt.index(name)
        out = {m[:i] + (m[i] - 1,) + m[i + 1:]: n * m[i] for m, n in self.nums.items() if m[i]}
        return Poly._make(self.vt, self.den, out)

    def substitute(self, bindings: Mapping[str, "Poly"]) -> "Poly":
        """Simultaneous substitution.  Values fix the target table.

        Every value must share one VarTable; unbound variables must exist
        in that target table (they map to themselves).  Each term folds
        the numerators of its variables' cached image powers into one
        accumulator over the common denominator of all terms, as in `dot`.
        """
        if not bindings:
            return self
        target = next(iter(bindings.values())).vt
        for name, value in bindings.items():
            if name not in self.vt:
                raise PolyError(f"substitution for variable {name!r} absent from table")
            if value.vt != target:
                raise VarTableMismatch("substitution values use different variable tables")
        images = [
            bindings[n] if n in bindings else Poly.var(target, n) if n in target else None
            for n in self.vt.names
        ]
        powers: Dict[Tuple[int, int], Poly] = {}
        one = (0,) * len(target)
        terms = []  # (numerator, denominator, image powers' numerators) per term
        for m, n in self.nums.items():
            den, factors = self.den, []
            for i, e in enumerate(m):
                if e:
                    if (i, e) not in powers:
                        if images[i] is None:
                            raise PolyError(
                                f"variable {self.vt.names[i]!r} is unbound and missing from the target table"
                            )
                        powers[i, e] = images[i] ** e
                    den *= powers[i, e].den
                    factors.append(powers[i, e].nums.items())
            terms.append((n, den, factors or [[(one, 1)]]))
        den = lcm(*(d for _, d, _ in terms))
        acc: Dict[Monomial, int] = {}
        for n, d, factors in terms:
            part = [(one, n * (den // d))]
            for ip in factors[:-1]:
                prod: Dict[Monomial, int] = {}
                _accumulate(prod, part, ip)
                part = list(prod.items())
            _accumulate(acc, part, factors[-1])
        return Poly._make(target, den, acc)

    def coeffs_in(self, name: str) -> List["Poly"]:
        """Coefficients in `name`, lowest degree first, each free of it."""
        i = self.vt.index(name)
        out = [Poly.zero(self.vt)] * (self.degree_in(name) + 1)
        for m, c in self.coefficients_wrt([name]).items():
            out[m[i]] = c
        return out

    def coefficients_wrt(self, names: Iterable[str]) -> Dict[Monomial, "Poly"]:
        """Group terms by their exponents in `names`.

        Keys are full-width monomials supported only on `names`; values are
        polynomials supported only on the complementary variables.
        """
        idxs = sorted(self.vt.index(n) for n in names)
        idx_set = set(idxs)
        width = len(self.vt)
        out: Dict[Monomial, Dict[Monomial, int]] = {}
        for m, n in self.nums.items():
            key = tuple(e if i in idx_set else 0 for i, e in enumerate(m))
            rest = tuple(0 if i in idx_set else e for i, e in enumerate(m))
            out.setdefault(key, {})[rest] = n
        return {k: Poly._make(self.vt, self.den, t) for k, t in sorted(out.items(), key=lambda kv: degrevlex_key(kv[0]), reverse=True)}

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


# ---------------------------------------------------------------------
# integer kernel of multiplication


def _accumulate(acc: Dict[Monomial, int], ia: IntTerms, ib: IntTerms) -> None:
    """Add the product of two integer term lists into `acc`."""
    get = acc.get
    for m1, c1 in ia:
        for m2, c2 in ib:
            m = tuple(map(add, m1, m2))
            acc[m] = get(m, 0) + c1 * c2


# ---------------------------------------------------------------------
# formatting


def _format_monomial(vt: VarTable, m: Monomial) -> str:
    parts = []
    for name, e in zip(vt.names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical textual form: degrevlex-descending, re-parseable."""
    if p.is_zero():
        return "0"
    chunks = []
    for m in sorted(p.nums, key=degrevlex_key, reverse=True):
        n = p.nums[m]
        g = gcd(n, p.den)  # |n|/den in lowest terms is (|n|/g)/(den/g)
        mag, d = abs(n) // g, p.den // g
        coeff = str(mag) if d == 1 else f"{mag}/{d}"
        mono = _format_monomial(p.vt, m)
        if not mono:
            body = coeff
        elif mag == d:
            body = mono
        else:
            body = f"{coeff}*{mono}"
        chunks.append(("-" if n < 0 else "+", body))
    sign, body = chunks[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------
# parsing

# numbers are ASCII digits only (str.isdigit accepts "²"); a character
# that is not space and starts no number, name or operator is a token of
# its own, which no rule accepts
_TOKEN = re.compile(r"[0-9]+|(?!\d)\w+|[-+*/^()]|\S")


class _Overflow(ArithmeticError):
    """A monomial's degree, args[0], exceeds its layout's exponent cap."""


class _Parser:
    """Recursive descent over the token list on packed monomials: the
    monomial with exponents e is sum(e_i << bits*i), so multiplying
    monomials adds ints.  A value is one term (n, d, m, deg) or a
    polynomial (numerators by monomial, d, deg), worth n/d*m or
    sum(n*m)/d with d > 0, and of total degree at most deg.  Every
    exponent is at most the degree, and a term, product or def whose
    degree bound passes the field cap raises _Overflow before it is
    combined with anything, so no field ever carries into the next."""

    def __init__(self, text: str, vt: VarTable, defs: Mapping[str, Poly], bits: int, rename: Optional[Mapping[str, str]]):
        self.text, self.toks, self.i, self.vt = text, _TOKEN.findall(text) + [""], 0, vt
        self.defs, self.bits, self.cap = defs, bits, (1 << bits) - 1
        # identifier -> value; a def is packed on first use
        slots = vt._index if rename is None else {n: vt.index(v) for n, v in rename.items()}
        self.values = {n: (1, 1, 1 << (bits * k), 1) for n, k in slots.items()}

    def error(self, message: str, i: int) -> ParseError:
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[i])

    def expr(self):
        acc: Dict[int, int] = {}
        den, deg, sign = 1, 0, 1
        while True:
            t = self._term()
            terms, d, g = ({t[2]: t[0]}, t[1], t[3]) if len(t) == 4 else t
            if den % d:
                s = d // gcd(den, d)
                acc, den = {m: c * s for m, c in acc.items()}, den * s
            s, deg, get = sign * (den // d), max(deg, g), acc.get
            for m, c in terms.items():
                acc[m] = get(m, 0) + c * s
            tok = self.toks[self.i]
            if tok != "+" and tok != "-":
                return {m: c for m, c in acc.items() if c}, den, deg
            self.i += 1
            sign = -1 if tok == "-" else 1

    def _term(self):
        n, d, m, g, poly = 1, 1, 0, 0, None
        while True:
            f = self._factor()
            if len(f) == 4:
                n, d, m, g = n * f[0], d * f[1], m + f[2], g + f[3]
            else:
                poly = f if poly is None else self._mul(poly, f)
            if self.toks[self.i] != "*":
                break
            self.i += 1
        if poly is not None:
            return self._mul(poly, ({m: n}, d, g))
        if g > self.cap:
            raise _Overflow(g)
        return n, d, m, g

    def _mul(self, a, b):
        (ta, da, ga), (tb, db, gb) = a, b
        if ga + gb > self.cap:
            raise _Overflow(ga + gb)
        acc: Dict[int, int] = {}
        get = acc.get
        for m1, c1 in ta.items():
            for m2, c2 in tb.items():
                acc[m1 + m2] = get(m1 + m2, 0) + c1 * c2
        return {m: c for m, c in acc.items() if c}, da * db, ga + gb

    def _factor(self):
        if self.toks[self.i] == "-":
            self.i += 1
            return _negate(self._factor())
        f = self._base()
        if self.toks[self.i] == "^":
            self.i += 1
            f = self._pow(f, self._natural("exponent must be a natural number"))
        if self.toks[self.i] == "/":
            self.i += 1
            negative = self.toks[self.i] == "-"
            self.i += negative
            q = self._natural("divisor must be an integer literal")
            if not q:
                raise self.error("division by zero", self.i - 1)
            f = (f[0], f[1] * q) + f[2:]
            f = _negate(f) if negative else f
        return f

    def _natural(self, message: str) -> int:
        tok = self.toks[self.i]
        if not (tok.isascii() and tok.isdigit()):
            raise self.error(message, self.i)
        self.i += 1
        return int(tok)

    def _pow(self, f, e: int):
        if len(f) == 4:
            return f[0] ** e, f[1] ** e, f[2] * e, f[3] * e
        out = ({0: 1}, 1, 0)
        for bit in bin(e)[2:]:  # square and multiply, leading bit first
            out = self._mul(out, out)
            out = self._mul(out, f) if bit == "1" else out
        return out

    def _base(self):
        tok = self.toks[self.i]
        self.i += 1
        value = self.values.get(tok)
        if value is not None:
            return value
        if tok.isascii() and tok.isdigit():
            return int(tok), 1, 0, 0
        if tok == "(":
            f = self.expr()
            if self.toks[self.i] != ")":
                raise self.error("expected ')'", self.i)
            self.i += 1
            return f
        if tok in self.defs:
            p = self.defs[tok]
            if p.vt != self.vt:
                raise VarTableMismatch(f"def {tok!r} belongs to another variable table")
            shifts = range(0, self.bits * len(p.vt), self.bits)
            deg = max(p.total_degree(), 0)
            if deg > self.cap:
                raise _Overflow(deg)
            self.values[tok] = value = {sum(map(lshift, m, shifts)): n for m, n in p.nums.items()}, p.den, deg
            return value
        if tok.isidentifier():
            raise self.error(f"undeclared identifier {tok!r}", self.i - 1)
        if tok and tok not in "+-*/^()":
            raise self.error(f"unexpected character {tok!r}", self.i - 1)
        raise self.error(f"expected a number, identifier or '(', got {tok!r}", self.i - 1)


def _negate(f):
    if len(f) == 4:
        return (-f[0],) + f[1:]
    return {m: -c for m, c in f[0].items()}, f[1], f[2]


def parse_poly(
    text: str, vt: VarTable, defs: Optional[Mapping[str, Poly]] = None, rename: Optional[Mapping[str, str]] = None
) -> Poly:
    """Parse an expression into a polynomial over `vt`.

    The variables are read as the keys of `rename`, each standing for the
    `vt` variable it names; by default every name of `vt` stands for
    itself.  Any other identifier named in `defs` stands for its
    polynomial over `vt`.  Exponent fields start at 8 bits and the text
    is parsed again with wider ones when a degree does not fit.
    """
    bits = 8
    while True:
        parser = _Parser(text, vt, defs or {}, bits, rename)
        try:
            terms, den, _ = parser.expr()
            break
        except _Overflow as exc:
            bits = 8 * -(-exc.args[0].bit_length() // 8)
    if parser.toks[parser.i]:
        raise parser.error(f"unexpected {parser.toks[parser.i]!r}", parser.i)
    k = bits // 8
    monos = [tuple(m.to_bytes(len(vt), "little")) for m in terms] if k == 1 else [
        tuple(int.from_bytes(b[i:i + k], "little") for i in range(0, len(b), k))
        for b in (m.to_bytes(k * len(vt), "little") for m in terms)
    ]
    return Poly._make(vt, den, dict(zip(monos, terms.values())))
