"""Grothendieck residues and quantum dimensions.

The residue Res[g dv / (f1, f2, f3)] with the f_j the partial
derivatives of a quasi-homogeneous potential W is computed through the
transformation law: find a cofactor matrix H with H.(f1,f2,f3) =
(v1^N1, v2^N2, v3^N3); the residue is the coefficient of
v1^(N1-1) v2^(N2-1) v3^(N3-1) in g*det(H).  That product is never
formed: det(H), formed once with the lift, has one to four terms c*m on
the shipped potentials, and one pass over g keys each term by its
exponents in the v_i; a term at v^(N-1)/m, a key, adds its remaining
monomial times c, in integers over one denominator.  Any valid H gives
the same answer; the test suite exercises that with independently built
lifts.

Both entry points take W itself.  Its weights come from
`grading.weights_from_potential`, and they fix each power: the Hessian
of W has weighted degree 2c = sum(2 - 2 w_j), and every monomial of
higher weighted degree lies in the Jacobian ideal, so v_i^N with
N = floor(2c / w_i) + 1 always does, and one solve per row finds H; its
equations are the partials' integer numerators.  A solve that fails
there means W has no isolated singularity.

Quantum dimensions take the supertrace of the sixfold product of
entry-wise partial derivatives of the twisted differential, sources
first and then targets, each triple in its declared catalog order (the
product is order-sensitive and the order is part of the data).  With
three variables a side, the global sign prefactor is +1.  The left
dimension integrates the target variables out against the target
potential's partials; the right one the source variables against the
source potential's.  Both results must be free of ring variables.  Both
sides read the same supertrace, so `qdim_pair` forms it once, as the
6x6 Jacobian determinant of the generators (`derivative_supertrace`),
and integrates it twice.  A residue reads a term only when the term's
exponents on the integrated variables form a key, so `qdim_pair` builds
both lifts first and forms only the terms on their keys (6-20% of the
determinant on the shipped entries): every other term could change
neither result.  The determinant runs on packed integer monomials over
one common denominator: each generator's stored numerators are
differentiated in integers, and terms are packed once, as offsets from
the unit of a `_groebner._Layout` whose fields hold the sum of the
generators' total degrees less one (a bound on every minor), so a
monomial product is one int addition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm, prod
from operator import add, itemgetter
from typing import Collection, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ._groebner import _Layout, _support
from ._linalg import solve_dense
from .grading import GradingError, weights_from_potential
from .matfac import Matrix8, MatrixFactorization, matmul
from .polyring import Monomial, Poly, VarTable

# row triples of a 6x6 matrix; the (-1-i)-th is the complement of the i-th
_TRIPLES = tuple(combinations(range(6), 3))


class ResidueError(ValueError):
    pass


def supertrace(matrix: Matrix8) -> Poly:
    """Trace over the even block (1..4) minus trace over the odd (5..8)."""
    acc = matrix[0][0]
    for i in range(1, 4):
        acc = acc + matrix[i][i]
    for i in range(4, 8):
        acc = acc - matrix[i][i]
    return acc


def _partial_matrix(m: MatrixFactorization, var: str) -> Matrix8:
    return tuple(tuple(p.partial(var) for p in row) for row in m.matrix)


def derivative_matrix_product(m: MatrixFactorization, order: Sequence[str]) -> Matrix8:
    """Product of the entry-wise partials of the twisted differential,
    one factor per variable, multiplied left to right in the given order."""
    return reduce(matmul, (_partial_matrix(m, v) for v in order))


def derivative_supertrace(
    m: MatrixFactorization, order: Sequence[str], reads: Mapping[Sequence[str], Collection[Monomial]]
) -> Poly:
    """The terms of supertrace(derivative_matrix_product(m, order)) for
    six variables that `reads` asks for: those whose exponents on some
    variable tuple of `reads` form one of its keys.  The supertrace is
    det J, with J[k][j] the partial of the k-th generator along order[j]:
    a term n/den*v^e of it gives e_i*n/den at e - 1_i, so row k is in
    integers over the k-th generator's own denominator.

    Proof.  `build_8x8` is linear, so M = sum_k d_k G_k with G_k the
    matrix of the k-th unit vector, and each factor is sum_k J[k][j] G_k.
    The J[k][j] commute, so str of the product is the sum over k1..k6 of
    J[k1][1]...J[k6][6] str(G_k1...G_k6).  By M(x)^2 = Q(x) Id the G_k
    satisfy the Clifford relations of the nondegenerate form Q on Q^6 and
    act on its 8-dimensional spinor module, where str vanishes on
    products of fewer than six generators (Berline-Getzler-Vergne,
    Prop. 3.21).  So str(G_k1...G_k6) is alternating in k, and it is
    eps(k) since str(G_1...G_6) = 1; the sum is Leibniz's formula for
    det J.  (The tests check str(G_k1...G_k6) = eps(k) on all 6^6 k.)

    Laplace expansion along the column halves: det J is the sum over row
    triples S (0-based) of (-1)^(sum S + 1) J[S; 0-2] J[rows not in S; 3-5].
    A term's exponents on the read variables are the sums of its two
    factors', so the terms of each second minor are grouped by their
    packed read fields, and each term of the first is multiplied only by
    the groups whose fields complete it to a key: the terms formed are
    exactly the read ones, each with all of its contributions.
    """
    vt = m.vt
    cols = [vt.index(v) for v in order]
    layout = _Layout(len(vt), _support(m.six), sum(max(0, d.total_degree() - 1) for d in m.six))
    unit = layout.one
    pj = [[[(layout.pack(e[:i] + (e[i] - 1,) + e[i + 1:]) - unit, e[i] * n) for e, n in d.nums.items() if e[i]]
           for i in cols] for d in m.six]

    def dot(*triples) -> List[Tuple[int, int]]:  # sum of sign * a * b
        acc: Dict[int, int] = {}
        get = acc.get
        for a, b, sign in triples:
            for m1, c1 in a:
                c1 *= sign
                for m2, c2 in b:
                    k = m1 + m2
                    acc[k] = get(k, 0) + c1 * c2
        return [t for t in acc.items() if t[1]]

    def minors(a: int, b: int, c: int) -> List[List[Tuple[int, int]]]:  # on columns a, b, c
        two = {(r, s): dot((pj[r][a], pj[s][b], 1), (pj[r][b], pj[s][a], -1)) for r, s in combinations(range(6), 2)}
        return [dot((pj[r][c], two[s, t], 1), (pj[s][c], two[r, t], -1), (pj[t][c], two[r, s], 1))
                for r, s, t in _TRIPLES]

    # per read: the mask of its fields, the unit's fields, and its keys as
    # offsets; the fields of a term k are (k + unit) & mask, and they add
    # under products once the unit's are taken off
    field = dict(zip(layout.slots, layout.shifts))
    rules, everywhere = [], 0
    for names, keys in reads.items():
        idx = [vt.index(n) for n in names]
        mask = sum(layout.cap << field[i] for i in idx if i in field)
        codes = {-sum(e << field[i] for i, e in zip(idx, key) if i in field)
                 for key in keys if all(0 <= e <= (layout.cap if i in field else 0) for i, e in zip(idx, key))}
        rules.append((mask, unit & mask, codes))
        everywhere |= mask

    def grouped(terms: List[Tuple[int, int]]) -> Dict[int, List[Tuple[int, int]]]:  # by read fields
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for t in terms:
            groups.setdefault((t[0] + unit) & everywhere, []).append(t)
        return groups

    products = []
    for rows, head, tail in zip(_TRIPLES, minors(0, 1, 2), reversed(minors(3, 4, 5))):
        tails = grouped(tail)
        index: List[Dict[int, List[int]]] = [{} for _ in rules]
        for fields in tails:
            for (mask, base, _), by in zip(rules, index):
                by.setdefault((fields & mask) - base, []).append(fields)
        sign = 1 if sum(rows) % 2 else -1
        for fields, heads in grouped(head).items():
            hits = set()
            for (mask, base, codes), by in zip(rules, index):
                own = (fields & mask) - base
                for code in codes:
                    hits.update(by.get(code - own, ()))
            products.extend((heads, tails[hit], sign) for hit in hits)
    det = dot(*products)
    return Poly._make(vt, prod(d.den for d in m.six), {layout.unpack(k + unit): n for k, n in det})


class CofactorLift(NamedTuple):
    vars: Tuple[str, str, str]
    exponents: Tuple[int, int, int]
    matrix: Tuple[Tuple[Poly, ...], ...]  # rows h_i with sum_j h_ij f_j = v_i^N_i
    determinant: Poly  # det(H), formed once by `cofactor_lift`


def _determinant(h: Tuple[Tuple[Poly, ...], ...]) -> Poly:
    """det of a 3x3 matrix, by cofactor expansion along the first row."""
    minors = (h[1][j] * h[2][k] - h[1][k] * h[2][j] for j, k in ((1, 2), (2, 0), (0, 1)))
    return Poly.dot(h[0][0].vt, zip(h[0], minors))


def _monomials_of_weight(weights: Sequence[Fraction], target: Fraction) -> List[Tuple[int, ...]]:
    """Exponent triples e with sum(e_i * w_i) == target >= 0, in lexicographic
    order: e_1, e_2 enumerated and e_3 solved for, in integers over d."""
    d = lcm(target.denominator, *(w.denominator for w in weights))
    t, (w1, w2, w3) = int(target * d), (int(w * d) for w in weights)
    firsts = ((a, b) for a in range(t // w1 + 1) for b in range((t - a * w1) // w2 + 1))
    return [(a, b, r // w3) for a, b in firsts if (r := t - a * w1 - b * w2) % w3 == 0]


def _solve_power_certificate(
    f: Sequence[Poly], names: Sequence[str], weights: Sequence[Fraction], var_index: int, exponent: int
) -> Optional[List[Poly]]:
    """Row h with sum_j h_j f_j = v^exponent, homogeneous ansatz, or None."""
    vt = f[0].vt
    idx = [vt.index(n) for n in names]
    target = exponent * weights[var_index]
    ansatz: List[Tuple[int, Tuple[int, ...]]] = []  # (which f, exponents on names)
    for j in range(3):
        dj = target - (2 - weights[j])
        if dj >= 0:
            ansatz.extend((j, m) for m in _monomials_of_weight(weights, dj))
    if not ansatz:
        return None
    # One equation per monomial of sum_j h_j f_j, matching v^exponent; a
    # column (j, m) holds f_j's numerators, so its solution is the
    # cofactor coefficient over f_j's denominator.
    target_mono = tuple(exponent if k == var_index else 0 for k in range(len(names)))
    cells: Dict[Tuple[int, ...], Dict[int, int]] = {target_mono: {}}  # monomial -> column -> numerator
    for col, (j, m) in enumerate(ansatz):
        for fm, fn in f[j].nums.items():
            cell = cells.setdefault(tuple(fm[i] + e for i, e in zip(idx, m)), {})
            cell[col] = cell.get(col, 0) + fn
    monos = sorted(cells)
    rows = [[cells[mono].get(col, 0) for col in range(len(ansatz))] for mono in monos]
    rhs = [int(mono == target_mono) for mono in monos]
    sol = solve_dense(rows, rhs)
    if sol is None:
        return None
    nums, den = sol
    buckets: List[Dict[tuple, int]] = [{}, {}, {}]
    for (j, m), c in zip(ansatz, nums):  # the (j, m) are distinct
        if c:
            full = [0] * len(vt)
            for i, e in zip(idx, m):
                full[i] = e
            buckets[j][tuple(full)] = c * f[j].den
    return [Poly._make(vt, den, b) for b in buckets]


def cofactor_lift(
    w: Poly, names: Sequence[str], exponents: Optional[Sequence[int]] = None
) -> CofactorLift:
    """Cofactor matrix H with H.(f1,f2,f3) = (v1^N1, v2^N2, v3^N3), the
    f_j being the partials of the potential `w` along `names`.

    Without explicit exponents, N_i = floor(2c / w_i) + 1, where a
    certificate exists whenever W has an isolated singularity (see
    above), so each row is one solve.
    """
    if len(names) != 3:
        raise ResidueError("exactly three variables required")
    try:
        weights = [x for _, x in weights_from_potential(w, tuple(names)).weights]
    except GradingError as exc:
        raise ResidueError(str(exc)) from None
    if exponents is None:
        hessian = sum(2 - 2 * x for x in weights)
        exponents = [hessian // x + 1 for x in weights]
    f = [w.partial(n) for n in names]
    rows: List[List[Poly]] = []
    for i, (v, n) in enumerate(zip(names, exponents)):
        row = _solve_power_certificate(f, names, weights, i, n)
        if row is None:
            raise ResidueError(f"no power of {v} up to {v}^{n} is in the Jacobian ideal: W has no isolated singularity")
        if Poly.dot(w.vt, zip(row, f)) != Poly.var(w.vt, v) ** n:
            raise ResidueError("cofactor identity violated")
        rows.append(row)
    matrix = tuple(tuple(r) for r in rows)
    return CofactorLift(tuple(names), tuple(exponents), matrix, _determinant(matrix))


def _read_terms(lift: CofactorLift, vt: VarTable) -> Tuple[int, Dict[Monomial, List[Tuple[List[int], int]]]]:
    """(den, read): the terms n/den * m of det(H), keyed by the exponents
    v^(N-1)/m on the v_i that a term of g must carry to meet them, each
    with the shift that clears those v_i from it."""
    det = lift.determinant
    idx = [vt.index(name) for name in lift.vars]
    read: Dict[Monomial, List[Tuple[List[int], int]]] = {}
    for m, n in det.nums.items():
        key = tuple(power - 1 - m[i] for power, i in zip(lift.exponents, idx))
        shift = list(m)
        for i, k in zip(idx, key):
            shift[i] = -k
        read.setdefault(key, []).append((shift, n))
    return det.den, read


def grothendieck_residue(
    g: Poly, w: Poly, names: Sequence[str], lift: Optional[CofactorLift] = None
) -> Poly:
    """Res[g dv/(f1,f2,f3)], the f_j the partials of `w`: the coefficient
    of v^(N-1) in g*det(H), read off in one pass over g's terms, in
    integers over one denominator."""
    if lift is None:
        lift = cofactor_lift(w, names)
    vt = g.vt
    den, read = _read_terms(lift, vt)
    on_names = itemgetter(*(vt.index(name) for name in lift.vars))
    acc: Dict[Monomial, int] = {}
    for m, n in g.nums.items():
        for shift, dn in read.get(on_names(m), ()):
            mono = tuple(map(add, m, shift))
            acc[mono] = acc.get(mono, 0) + n * dn
    return Poly._make(vt, den * g.den, acc)


def qdim_pair(m: MatrixFactorization, v_in: Poly, w_out: Poly) -> Dict[str, Poly]:
    """Both quantum dimensions, by side, from one supertrace: sources
    first, then targets, in declared order.  The supertrace carries only
    the terms the two residues read."""
    sources, targets = v_in.support_vars(), w_out.support_vars()
    if len(sources) != 3 or len(targets) != 3:
        raise ResidueError("each potential must involve exactly three variables")
    sides = {"left": (w_out, targets), "right": (v_in, sources)}
    lifts = {side: cofactor_lift(against, over) for side, (against, over) in sides.items()}
    reads = {lift.vars: _read_terms(lift, m.vt)[1].keys() for lift in lifts.values()}
    s = derivative_supertrace(m, sources + targets, reads)
    out = {}
    for side, (against, over) in sides.items():
        value = grothendieck_residue(s, against, over, lifts[side])
        ring_left = [v for v in value.support_vars() if v in m.vt.ring_vars]
        if ring_left:
            raise ResidueError(f"qdim_{side} retains ring variables {ring_left}")
        out[side] = value
    return out


def qdim_left(m: MatrixFactorization, v_in: Poly, w_out: Poly) -> Poly:
    return qdim_pair(m, v_in, w_out)["left"]


def qdim_right(m: MatrixFactorization, v_in: Poly, w_out: Poly) -> Poly:
    return qdim_pair(m, v_in, w_out)["right"]
