"""Buchberger's algorithm, normal forms, and Sylvester resultants over Q,
in the degrevlex order fixed by the VarTable.

Inside the kernel a monomial is one int, packed by a `_Layout` over some
table slots: per slot, first slot lowest, a field holding `cap - e` under
a guard bit; the total degree sits above every field.  Fields are whole
bytes, so the exponents go in and come out as the little-endian bytes of
one int, with no loop in Python.  So integer order
is degrevlex, a tail monomial t of a divisor with lead g becomes
`t + m - g` when g reduces m, and g divides m when no field of
`g - m + guard` borrows (every guard bit stays set).  Exponents never
exceed the degree, and `pack` refuses a degree above `cap` instead of
wrapping: `reducer` then rebuilds its records, and `groebner_basis`
restarts, with wider fields.  `groebner_basis` packs only the slots its
generators use (S-polynomials and remainders never leave them, and
degrevlex restricted to them is the same order) and interreduces its
own records there, `interreduce` the support of its input, `reducer`
the whole table.  A `Poly` is already integer numerators over one
denominator, so going in packs its monomials and coming out unpacks
them; no coefficient is converted either way.

Pairs follow the Gebauer-Moeller update (J. Symb. Comp. 6, 1988), so no
popped pair is scanned against the leads: a new element h keeps one new
pair per divisibility-minimal lcm, none whose lcm a pair of coprime
leads shares; an old pair goes when lead(h) divides its lcm and equals
neither lcm with h; elements whose lead lead(h) divides form no more
pairs.  An lcm is formed on the packed ints (`_Layout.lcm`, field-wise
min of `cap - e`), only with those live elements and, for an old pair,
only once lead(h) divides its lcm.  Each pair popped, smallest lcm
first, is reduced and counts against the S-pair budget, so a runaway
system fails loudly.

Reduction runs on ints: a divisor record holds a lead and its monic
tail as numerators over one denominator; the polynomial being reduced
and its remainder are numerators over one common denominator, rescaled
together only when a divisor's denominator does not divide the step's
coefficient.  `_Divisors` remembers per monomial the first
record whose lead divides it and, after a miss, how many records it
scanned; records are only appended, so that record is the first in list
order.  `reducer(basis)` builds the records once for many reductions
(`numberfield` too: monic univariate minimal polynomials are a Groebner
basis); `normal_form` is its one-shot form.  The resultant is Bareiss
elimination on the Sylvester matrix; its exact divisions peel leads.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from operator import itemgetter
from struct import Struct
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .polyring import Monomial, Poly, VarTable, _Overflow

SPAIR_CAP = 50000  # default S-pair budget per Groebner run

# (packed lead, denominator, monic tail as (packed monomial, numerator))
Record = Tuple[int, int, List[Tuple[int, int]]]


class BudgetExceeded(RuntimeError):
    """S-pair budget exhausted before the basis stabilized."""


class _Layout:
    """Packs monomials of a `size`-slot table, supported on `slots`, into
    ints whose fields, 1, 2, 4 or 8 bytes wide, hold exponents up to at
    least `degree`; `bytes` or a `struct` format lays the exponents out."""

    def __init__(self, size: int, slots: Iterable[int], degree: int):
        self.slots = tuple(slots)
        n = len(self.slots)
        width = next(w for w in (1, 2, 4, 8) if (degree + 1).bit_length() < 8 * w)
        bits = 8 * width
        self.cap, self._mask = (1 << (bits - 1)) - 1, (1 << bits) - 1
        self.shifts = tuple(bits * k for k in range(n))
        self.top = bits * n
        self.guard = sum(1 << (s + bits - 1) for s in self.shifts)
        self.one = sum(self.cap << s for s in self.shifts)
        self._bits, self._ones = bits, sum(1 << s for s in self.shifts)
        at = {slot: k for k, slot in enumerate(self.slots)}  # other slots read the zero field n
        self._gather, scatter = _picker(self.slots), _picker([at.get(i, n) for i in range(size)])
        self._nbytes, fields = width * (n + 1), Struct(f"<{n + 1}{'BHIQ'[width.bit_length() - 1]}")
        self._encode, self._decode = (bytes, scatter) if width == 1 else (
            lambda exps: fields.pack(*exps, 0), lambda raw: scatter(fields.unpack(raw)))

    def lcm(self, a: int, b: int) -> int:
        """Packed lcm of packed a and b, raising `_Overflow` as
        `pack_exponents` does.  Its fields are the field-wise min of
        `cap - e`: fb where `(fa | guard) - fb` keeps the guard bit, so
        fa >= fb.  Its degree is deg(a) plus the fields of `fa - lo`,
        summed in the top field of one product: every partial sum is at
        most deg(b) <= cap, so none carries."""
        bits, top, guard = self._bits, self.top, self.guard
        fa, fb = a & self.one, b & self.one
        ge = ((fa | guard) - fb) & guard
        mask = ge - (ge >> (bits - 1))
        lo = (fb & mask) | (fa & ~mask)
        d = (a >> top) + (((fa - lo) * self._ones) >> max(top - bits, 0) & self._mask)
        if d > self.cap:
            raise _Overflow(d)
        return (d << top) + lo

    def pack_exponents(self, exps: Sequence[int]) -> int:
        d = sum(exps)
        if d > self.cap:
            raise _Overflow(d)
        return (d << self.top) + self.one - int.from_bytes(self._encode(exps), "little")

    def pack(self, m: Monomial) -> int:
        return self.pack_exponents(self._gather(m))

    def unpack(self, m: int) -> Monomial:
        return self._decode((self.one - (m & self.one)).to_bytes(self._nbytes, "little"))


def _picker(idx: Sequence[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """t -> tuple(t[i] for i in idx), by `itemgetter` where it gives a tuple."""
    return itemgetter(*idx) if len(idx) > 1 else lambda t: tuple(t[i] for i in idx)


def _support(polys: Sequence[Poly]) -> List[int]:
    return sorted({i for p in polys for m in p.nums for i, e in enumerate(m) if e})


def _packed(layout: _Layout, p: Poly) -> Tuple[int, Dict[int, int]]:
    """(den, integer numerators by packed monomial) of p."""
    return p.den, {layout.pack(m): n for m, n in p.nums.items()}


def _record(ints: Dict[int, int]) -> Record:
    """Divisor record of a nonzero polynomial from (and consuming) its
    packed numerators: its lead and its monic tail n/den, with den > 0
    and the numerators sharing no factor with it."""
    lm = max(ints)
    lead = ints.pop(lm)
    g = gcd(lead, *ints.values())
    if lead < 0:
        g = -g
    return lm, lead // g, [(m, n // g) for m, n in ints.items()]


class _Divisors(list):
    """The divisor records of one basis over one layout, in the order
    they were added.

    A lookup remembers, per monomial, the first record whose lead divides
    it; a miss remembers how many records it scanned, so a later lookup
    scans only records appended since.  Records may only be appended.
    """

    def __init__(self, layout: _Layout, records: Iterable[Record] = ()):
        super().__init__(records)
        self._guard = layout.guard
        self._hit: Dict[int, Record] = {}
        self._miss: Dict[int, int] = {}

    def first(self, m: int) -> Optional[Record]:
        """First record whose lead divides m, or None."""
        record = self._hit.get(m)
        if record is not None:
            return record
        guard = self._guard
        for k in range(self._miss.get(m, 0), len(self)):
            record = self[k]
            if (record[0] - m + guard) & guard == guard:
                self._hit[m] = record
                return record
        self._miss[m] = len(self)
        return None


def _reduce_by(work: Tuple[int, Dict[int, int]], divisors: _Divisors) -> Tuple[int, Dict[int, int]]:
    """Full reduction of `work` = (den, integer numerators) against the
    divisor records, returning the remainder in the same form.

    Consumes the numerator dict.  Terms are visited largest-first through
    a heap of negated monomials.  A step's terms lie strictly below the
    monomial it reduces, so below every monomial popped so far: each
    monomial enters the heap at most once, and one that cancels stays in
    the dict as 0 until it is popped and skipped.
    """
    den, coeffs = work
    heap = [-m for m in coeffs]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    first, get = divisors.first, coeffs.get
    remainder: Dict[int, int] = {}
    while heap:
        m = -heappop(heap)
        c = coeffs.pop(m)
        if not c:
            continue
        record = first(m)
        if record is None:
            remainder[m] = c
            continue
        glm, gden, tail = record
        # c/den * (m + tail/gden) over den*s, with s = gden/gcd(c, gden)
        g = gcd(c, gden)
        s = gden // g
        if s != 1:
            for terms in (coeffs, remainder):
                for t in terms:
                    terms[t] *= s
            den *= s
        q = -(c // g)
        shift = m - glm
        for gm, n in tail:
            t = gm + shift
            old = get(t)
            if old is None:
                coeffs[t] = q * n
                heappush(heap, -t)
            else:
                coeffs[t] = old + q * n
    return den, remainder


def reducer(basis: Sequence[Poly]) -> Callable[[Poly], Poly]:
    """p -> normal_form(p, basis), with the divisor records built once,
    and again with wider fields for a p of higher degree than they hold."""
    polys = [b for b in basis if not b.is_zero()]
    size = len(polys[0].vt) if polys else 0

    def build(degree: int) -> Tuple[_Layout, _Divisors]:
        layout = _Layout(size, range(size), degree)
        return layout, _Divisors(layout, [_record(_packed(layout, b)[1]) for b in polys])

    layout, divisors = build(max((b.total_degree() for b in polys), default=0))

    def reduce(p: Poly) -> Poly:
        nonlocal layout, divisors
        if not divisors:
            return p
        try:
            work = _packed(layout, p)
        except _Overflow:
            layout, divisors = build(p.total_degree())
            return reduce(p)
        den, remainder = _reduce_by(work, divisors)
        unpack = layout.unpack
        return Poly._make(p.vt, den, {unpack(m): n for m, n in remainder.items()})

    return reduce


def normal_form(p: Poly, basis: Sequence[Poly]) -> Poly:
    """Fully reduced remainder of p modulo the basis (zero iff member,
    when the basis is Groebner)."""
    return reducer(basis)(p)


def _spoly(fi: Record, fj: Record, lcm_ij: int) -> Tuple[int, Dict[int, int]]:
    """(den, integer numerators) of the S-polynomial of two records whose
    leads have the lcm `lcm_ij`; a term that cancels stays as 0, which
    `_reduce_by` skips."""
    (mi, di, tail_i), (mj, dj, tail_j) = fi, fj
    si, sj = lcm_ij - mi, lcm_ij - mj
    den = lcm(di, dj)
    ui, uj = den // di, den // dj
    out = {gm + si: n * ui for gm, n in tail_i}
    for gm, n in tail_j:
        t = gm + sj
        out[t] = out.get(t, 0) - n * uj
    return den, out


def groebner_basis(gens: Iterable[Poly], spair_cap: int = SPAIR_CAP) -> List[Poly]:
    """Reduced Groebner basis of the given generators (degrevlex)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    popped = count(1)  # shared by restarts, so the budget bounds all work
    degree = max(g.total_degree() for g in gens)
    while True:
        layout = _Layout(len(gens[0].vt), _support(gens), 2 * degree)
        try:
            minimal = _buchberger(layout, gens, popped, spair_cap)
        except _Overflow as exc:
            degree = exc.args[0]
            continue
        return _interreduced(gens[0].vt, layout, minimal)


def _buchberger(
    layout: _Layout, gens: Sequence[Poly], popped: Iterator[int], spair_cap: int
) -> List[Record]:
    """Records of a minimal Groebner basis of the generators: Buchberger
    with the Gebauer-Moeller update, reducing against every record."""
    divisors = _Divisors(layout, [_record(_packed(layout, g)[1]) for g in gens])
    guard, top, lcm = layout.guard, layout.top, layout.lcm
    pairs: List[Tuple[int, int, int]] = []  # heap of (lcm, i, j), i < j
    live: List[int] = []  # records no later lead divides: they form pairs

    def update(h: int) -> None:
        nonlocal pairs, live
        lh = divisors[h][0]
        dh = lh >> top
        # new pairs, coprime leads first among equal lcms so that they
        # drop the rest; then one pair per divisibility-minimal lcm
        new = sorted((m := lcm(lh, lk := divisors[k][0]), m >> top != dh + (lk >> top), k) for k in live)
        kept: List[Tuple[int, bool, int]] = []
        for pair in new:
            if not any((m - pair[0] + guard) & guard == guard for m, _, _ in kept):
                kept.append(pair)
        pairs = [  # criterion B
            p
            for p in pairs
            if (lh - p[0] + guard) & guard != guard
            or p[0] in (lcm(lh, divisors[p[1]][0]), lcm(lh, divisors[p[2]][0]))
        ]
        pairs.extend((lk, k, h) for lk, not_coprime, k in kept if not_coprime)
        heapq.heapify(pairs)
        live = [k for k in live if (lh - divisors[k][0] + guard) & guard != guard] + [h]

    for h in range(len(divisors)):
        update(h)
    while pairs:
        lcm_ij, i, j = heapq.heappop(pairs)
        if next(popped) > spair_cap:
            raise BudgetExceeded(f"S-pair budget of {spair_cap} exhausted")
        remainder = _reduce_by(_spoly(divisors[i], divisors[j], lcm_ij), divisors)[1]
        if remainder:
            divisors.append(_record(remainder))
            update(len(divisors) - 1)
    return [divisors[k] for k in live]


def interreduce(basis: Sequence[Poly]) -> List[Poly]:
    """Reduced Groebner basis from a Groebner basis, sorted by lead.

    Precondition: `basis` is a Groebner basis of the ideal.  Dropping
    every element whose lead another lead divides then leaves a minimal
    basis, whose leads are exactly those of the reduced basis; so one
    pass suffices: each element keeps its lead and its monic tail is
    fully reduced against the minimal basis as it stood before the pass.
    On a generating set that is not Groebner the result is not reduced.
    Equal monomials of the result share one tuple.
    """
    work = [p for p in basis if not p.is_zero()]
    if not work:
        return []
    layout = _Layout(len(work[0].vt), _support(work), max(p.total_degree() for p in work))
    return _interreduced(work[0].vt, layout, [_record(_packed(layout, p)[1]) for p in work])


def _interreduced(vt: VarTable, layout: _Layout, records: Iterable[Record]) -> List[Poly]:
    """`interreduce`'s one pass over a Groebner basis's records in `layout`."""
    guard = layout.guard
    # Drop records whose lead another lead divides (ties: keep one copy).
    kept: List[Record] = []
    for r in sorted(records, key=itemgetter(0)):
        if not any((k[0] - r[0] + guard) & guard == guard for k in kept):
            kept.append(r)
    divisors = _Divisors(layout, kept)
    unpack = lru_cache(maxsize=None)(layout.unpack)
    out: List[Poly] = []
    for lm, den, tail in kept:
        # Tail terms and everything reduction makes of them lie below lm,
        # so no element's own lead ever fires on its tail.
        den, remainder = _reduce_by((den, dict(tail)), divisors)
        remainder[lm] = den
        out.append(Poly._make(vt, den, {unpack(m): n for m, n in remainder.items()}))
    return out


# ---------------------------------------------------------------------
# resultants


def _divide_exact(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when the division is exact (leading-term peeling)."""
    quot = Poly.zero(f.vt)
    glm = g.leading_monomial()
    while not f.is_zero():
        flm = f.leading_monomial()
        shift = tuple(a - b for a, b in zip(flm, glm))
        if min(shift, default=0) < 0:
            raise ArithmeticError("division is not exact")
        t = Poly(f.vt, {shift: f.coefficient(flm) / g.coefficient(glm)})
        quot = quot + t
        f = f - t * g
    return quot


def _bareiss_determinant(matrix: List[List[Poly]], vt) -> Poly:
    n = len(matrix)
    if n == 0:
        return Poly.const(vt, 1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = Poly.const(vt, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot_row is None:
                return Poly.zero(vt)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _divide_exact(num, prev) if not num.is_zero() else num
            m[i][k] = Poly.zero(vt)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant(p: Poly, q: Poly, var: str) -> Poly:
    """Sylvester resultant eliminating var; result does not involve var."""
    if p.is_zero() or q.is_zero():
        return Poly.zero(p.vt)
    a = p.coeffs_in(var)
    b = q.coeffs_in(var)
    m, n = len(a) - 1, len(b) - 1
    if m == 0 and n == 0:
        return Poly.const(p.vt, 1)
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    zero = Poly.zero(p.vt)
    rows = [[zero] * s + a[::-1] + [zero] * (n - 1 - s) for s in range(n)]
    rows += [[zero] * s + b[::-1] + [zero] * (m - 1 - s) for s in range(m)]
    return _bareiss_determinant(rows, p.vt)
