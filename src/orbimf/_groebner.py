"""Buchberger's algorithm, normal forms, and Sylvester resultants.

Everything runs over Q with the degrevlex order fixed by the VarTable.
The basis computation applies the coprimality and chain criteria and a
normal selection strategy (smallest lcm first); work is bounded by an
S-pair budget so a runaway system fails loudly instead of hanging.

Reduction runs on Python ints.  A divisor record holds a lead monomial
and its monic tail as integer numerators over one denominator, converted
once per record; the polynomial being reduced is a dict of integer
numerators over one common denominator, rescaled only when a divisor's
denominator does not divide the step's coefficient, and only a final
remainder term becomes a Fraction.  The records of one basis live in a
`_Divisors` list, which remembers per monomial the first record whose
lead divides it and, after a miss, how many records were scanned, so
each monomial is tested against each lead at most once.  Buchberger
only appends records, so the remembered divisor is always the first in
list order.  `reducer(basis)` builds the records once for a stage that
reduces many polynomials against one basis; `normal_form` is its
one-shot form.  `numberfield` reduces quotient-ring elements through
`reducer` too, its monic univariate minimal polynomials being a Groebner
basis already.

The resultant uses fraction-free Bareiss elimination on the Sylvester
matrix; the exact divisions it requires are performed by leading-term
peeling, which must terminate with remainder zero for intermediate
Bareiss entries.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .polyring import IntTerms, Monomial, Poly, Terms, _integer_terms, degrevlex_key

_ONE = Fraction(1)

# (lead monomial, denominator, monic tail as integer numerators over it)
Record = Tuple[Monomial, int, IntTerms]


class BudgetExceeded(RuntimeError):
    """S-pair budget exhausted before the basis stabilized."""


def _lead(p: Poly) -> Tuple[Monomial, Fraction]:
    lm = p.leading_monomial()
    return lm, p.coefficient(lm)


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _heap_key(m: Monomial):
    """degrevlex_key negated componentwise, so a min-heap pops the
    largest monomial first."""
    return (-sum(m), m[::-1])


def _record(terms: Terms) -> Record:
    """Divisor record of a nonzero polynomial's terms: its lead and its
    monic tail n/den, with den > 0 and the numerators sharing no factor
    with it."""
    lm = max(terms, key=degrevlex_key)
    ints = dict(_integer_terms(terms)[1])
    lead = ints.pop(lm)
    g = gcd(lead, *ints.values())
    if lead < 0:
        g = -g
    return lm, lead // g, [(m, n // g) for m, n in ints.items()]


def _monic_poly(vt, record: Record) -> Poly:
    lm, den, tail = record
    terms = {m: Fraction(n, den) for m, n in tail}
    terms[lm] = _ONE
    return Poly._raw(vt, terms)


class _Divisors(list):
    """The divisor records of one basis, in the order they were added.

    A lookup remembers, per monomial, the first record whose lead divides
    it; a miss remembers how many records it scanned, so a later lookup
    scans only records appended since.  Records may only be appended.
    """

    def __init__(self, polys: Iterable[Poly] = ()):
        super().__init__(_record(p._terms) for p in polys)
        self._hit: Dict[Monomial, Record] = {}
        self._miss: Dict[Monomial, int] = {}

    def first(self, m: Monomial) -> Optional[Record]:
        """First record whose lead divides m, or None."""
        record = self._hit.get(m)
        if record is not None:
            return record
        for k in range(self._miss.get(m, 0), len(self)):
            record = self[k]
            if all(map(le, record[0], m)):
                self._hit[m] = record
                return record
        self._miss[m] = len(self)
        return None


def _reduce_by(work: Tuple[int, Dict[Monomial, int]], divisors: _Divisors) -> Terms:
    """Full reduction of `work` = (den, integer numerators) against the
    divisor records.

    Consumes the numerator dict; returns the remainder as Fractions.
    Terms are visited largest-first through a lazily deduplicated heap.
    """
    den, coeffs = work
    heap = [(_heap_key(m), m) for m in coeffs]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    first = divisors.first
    remainder: Terms = {}
    while heap:
        _, m = heappop(heap)
        c = coeffs.pop(m, 0)
        if not c:
            continue
        record = first(m)
        if record is None:
            remainder[m] = Fraction(c, den)
            continue
        glm, gden, tail = record
        # c/den * (m + tail/gden) over den*s, with s = gden/gcd(c, gden)
        g = gcd(c, gden)
        s = gden // g
        if s != 1:
            for t in coeffs:
                coeffs[t] *= s
            den *= s
        q = c // g
        shift = tuple(map(sub, m, glm))
        for gm, n in tail:
            t = tuple(map(add, gm, shift))
            old = coeffs.get(t)
            if old is None:
                coeffs[t] = -q * n
                heappush(heap, ((-sum(t), t[::-1]), t))  # _heap_key(t)
            else:
                v = old - q * n
                if v:
                    coeffs[t] = v
                else:
                    del coeffs[t]
    return remainder


def reducer(basis: Sequence[Poly]) -> Callable[[Poly], Poly]:
    """p -> normal_form(p, basis), with the divisor records built once."""
    divisors = _Divisors(b for b in basis if not b.is_zero())

    def reduce(p: Poly) -> Poly:
        if not divisors:
            return p
        den, items = _integer_terms(p._terms)
        return Poly._raw(p.vt, _reduce_by((den, dict(items)), divisors))

    return reduce


def normal_form(p: Poly, basis: Sequence[Poly]) -> Poly:
    """Fully reduced remainder of p modulo the basis (zero iff member,
    when the basis is Groebner)."""
    return reducer(basis)(p)


def _spoly(fi: Record, fj: Record) -> Tuple[int, Dict[Monomial, int]]:
    """(den, integer numerators) of the S-polynomial of two records."""
    (mi, di, tail_i), (mj, dj, tail_j) = fi, fj
    lcm_ij = _mono_lcm(mi, mj)
    si, sj = _mono_sub(lcm_ij, mi), _mono_sub(lcm_ij, mj)
    den = lcm(di, dj)
    ui, uj = den // di, den // dj
    out = {tuple(map(add, gm, si)): n * ui for gm, n in tail_i}
    for gm, n in tail_j:
        t = tuple(map(add, gm, sj))
        v = out.get(t, 0) - n * uj
        if v:
            out[t] = v
        else:
            del out[t]
    return den, out


def groebner_basis(gens: Iterable[Poly], spair_cap: int = 50000) -> List[Poly]:
    """Reduced Groebner basis of the given generators (degrevlex)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    vt = gens[-1].vt
    divisors = _Divisors(gens)
    leads: List[Monomial] = [lm for lm, _, _ in divisors]

    pending: List[Tuple[tuple, Tuple[int, int]]] = []  # (key of lcm, (i, j))
    processed = set()

    def queue_pair(i: int, j: int) -> None:
        lcm_ij = _mono_lcm(leads[i], leads[j])
        if lcm_ij == _mono_mul(leads[i], leads[j]):  # coprime leads
            processed.add((i, j))
            return
        heapq.heappush(pending, (degrevlex_key(lcm_ij), (i, j)))

    for i in range(len(leads)):
        for j in range(i + 1, len(leads)):
            queue_pair(i, j)
    spent = 0
    while pending:
        _, (i, j) = heapq.heappop(pending)
        processed.add((i, j))
        spent += 1
        if spent > spair_cap:
            raise BudgetExceeded(f"S-pair budget of {spair_cap} exhausted")
        lcm_ij = _mono_lcm(leads[i], leads[j])
        skip = False
        for k, lk in enumerate(leads):
            if k in (i, j) or not all(map(le, lk, lcm_ij)):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in processed and pjk in processed:
                skip = True
                break
        if skip:
            continue
        remainder = _reduce_by(_spoly(divisors[i], divisors[j]), divisors)
        if not remainder:
            continue
        divisors.append(_record(remainder))
        leads.append(divisors[-1][0])
        new = len(leads) - 1
        for k in range(new):
            queue_pair(k, new)
    return interreduce([_monic_poly(vt, r) for r in divisors])


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
    # Drop elements whose lead another lead divides (ties: keep one copy).
    work.sort(key=lambda p: degrevlex_key(p.leading_monomial()))
    kept: List[Poly] = []
    kept_leads: List[Monomial] = []
    for p in work:
        lm = p.leading_monomial()
        if any(_divides(q, lm) for q in kept_leads):
            continue
        kept.append(p)
        kept_leads.append(lm)
    divisors = _Divisors(kept)
    shared: Dict[Monomial, Monomial] = {}
    out: List[Poly] = []
    for p, (lm, den, tail) in zip(kept, divisors):
        # Tail terms and everything reduction makes of them lie below lm,
        # so no element's own lead ever fires on its tail.
        remainder = _reduce_by((den, dict(tail)), divisors)
        remainder[lm] = _ONE
        terms = {shared.setdefault(m, m): c for m, c in remainder.items()}
        out.append(Poly._raw(p.vt, terms))
    return out


def is_member(p: Poly, basis: Sequence[Poly]) -> bool:
    return normal_form(p, basis).is_zero()


# ---------------------------------------------------------------------
# resultants


def _divide_exact(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when the division is exact (leading-term peeling)."""
    vt = f.vt
    quot = Poly.zero(vt)
    glm, glc = _lead(g)
    while not f.is_zero():
        flm, flc = _lead(f)
        if not _divides(glm, flm):
            raise ArithmeticError("division is not exact")
        t = Poly(vt, {_mono_sub(flm, glm): flc / glc})
        quot = quot + t
        f = f - t * g
    return quot


def _univariate_coeffs_in(p: Poly, var: str) -> List[Poly]:
    """Coefficients of p as a polynomial in var, low to high, as Polys."""
    i = p.vt.index(var)
    out = [Poly.zero(p.vt)] * (p.degree_in(var) + 1)
    for m, c in p.coefficients_wrt([var]).items():
        out[m[i]] = c
    return out


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
    a = _univariate_coeffs_in(p, var)
    b = _univariate_coeffs_in(q, var)
    m, n = len(a) - 1, len(b) - 1
    if m == 0 and n == 0:
        return Poly.const(p.vt, 1)
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    vt = p.vt
    size = m + n
    zero = Poly.zero(vt)
    rows: List[List[Poly]] = []
    for shift in range(n):
        row = [zero] * size
        for k, c in enumerate(reversed(a)):
            row[shift + k] = c
        rows.append(row)
    for shift in range(m):
        row = [zero] * size
        for k, c in enumerate(reversed(b)):
            row[shift + k] = c
        rows.append(row)
    return _bareiss_determinant(rows, vt)
