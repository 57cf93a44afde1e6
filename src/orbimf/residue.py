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

Both entry points take W itself.  Its weights, integers in units of 1/D
from the entry's grading (`matfac.generator_degrees`) or else from
`matfac.integer_weights`, fix each power: the Hessian of W has weighted
degree 2c = sum(2 - 2 w_j), and every monomial of higher weighted degree
lies in the Jacobian ideal, so v_i^N with N = floor(2c / w_i) + 1 always
does, and one solve per row finds H; its equations are the partials'
integer numerators.  A solve that fails means W has no isolated singularity.

Quantum dimensions take the supertrace of the sixfold product of
entry-wise partial derivatives of the twisted differential, sources
first and then targets, each triple in its declared catalog order (the
product is order-sensitive and the order is part of the data).  With
three variables a side, the global sign prefactor is +1.  The left
dimension integrates the target variables out against the target
potential's partials; the right one the source variables against the
source potential's.  Both results must be free of ring variables.  The
supertrace is the 6x6 Jacobian determinant det J of the generators
(`derivative_supertrace`), and the grading bounds what each side reads.
Suppose each generator d_k is quasi-homogeneous in the ring variables,
parameters weighing 0, of degree q_k; the q_k sum to 6; and the source
and target weights have equal sums.  Then det J has degree
6 - sum w_src - sum w_tgt, while a key v^(N-1)/m that the left residue
reads has the Hessian's degree sum(2 - 2 w_tgt), so the source part of
a read term has degree sum w_tgt - sum w_src = 0: as weights are
positive, every source exponent is 0.  The right side is the mirror
image.  When the entry's grading meets the three conditions, the left
residue integrates the slice of det J free of sources and the right one
the slice free of targets; otherwise both read the whole of it.  det J
is formed on packed integer monomials over one common denominator: each
generator's stored numerators are packed once, as offsets from the unit
of a `_groebner._Layout` whose fields hold the sum of the generators'
total degrees, so a partial and a monomial product are each one int
addition.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, cycle
from math import prod
from operator import add, itemgetter
from typing import Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ._groebner import _Layout, _support
from ._linalg import solve_dense
from .grading import GradingError, weights_from_potential
from .matfac import Grading, Matrix8, MatrixFactorization, generator_degrees, integer_weights, matmul
from .polyring import Monomial, Poly

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


def _dot(*triples) -> List[Tuple[int, int]]:  # sum of sign * a * b over (a, b, sign), packed terms
    acc: Dict[int, int] = {}
    get = acc.get
    for a, b, sign in triples:
        for m1, c1 in a:
            c1 *= sign
            for m2, c2 in b:
                k = m1 + m2
                acc[k] = get(k, 0) + c1 * c2
    return [t for t in acc.items() if t[1]]


def derivative_supertrace(m: MatrixFactorization, order: Sequence[str], zeros: Sequence[Collection[str]]) -> List[Poly]:
    """For each set in `zeros`, the terms of
    supertrace(derivative_matrix_product(m, order)) for six variables whose
    exponent is 0 on every variable of the set (all of them for an empty
    set).  The supertrace is det J, with J[k][j] the partial of the k-th
    generator along order[j]: a term n/den*v^e of it gives e_i*n/den at
    e - 1_i, so row k is in integers over the k-th generator's own
    denominator.

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

    The generators are packed and differentiated once for all the sets.
    Exponents only add, so for each set every entry's terms that carry a
    variable of it are dropped, by a mask test on the packed ints, before
    any minor is formed.  Laplace expansion along the column halves: det J
    is the sum over row triples S (0-based) of (-1)^(sum S + 1)
    J[S; 0-2] J[rows not in S; 3-5].
    """
    vt = m.vt
    layout = _Layout(len(vt), _support(m.six), sum(d.total_degree() for d in m.six))
    unit, field = layout.one, dict(zip(layout.slots, layout.shifts))
    terms = [[(layout.pack(e), e, n) for e, n in d.nums.items()] for d in m.six]

    def partial(k: int, i: int) -> List[Tuple[int, int]]:
        step = (1 << field[i]) - (1 << layout.top) if i in field else 0  # e -> e - 1_i
        return [(q + step, e[i] * n) for q, e, n in terms[k] if e[i]]

    jacobian = [[partial(k, vt.index(v)) for v in order] for k in range(6)]

    def determinant(zero: Collection[str]) -> Poly:
        mask = sum(layout.cap << field[i] for i in map(vt.index, zero) if i in field)
        free = unit & mask  # the fields of a term with no variable of `zero`
        pj = [[[(p - unit, c) for p, c in cell if p & mask == free] for cell in row] for row in jacobian]  # as offsets

        def minors(a: int, b: int, c: int) -> List[List[Tuple[int, int]]]:  # on columns a, b, c
            two = {(r, s): _dot((pj[r][a], pj[s][b], 1), (pj[r][b], pj[s][a], -1)) for r, s in combinations(range(6), 2)}
            return [_dot((pj[r][c], two[s, t], 1), (pj[s][c], two[r, t], -1), (pj[t][c], two[r, s], 1))
                    for r, s, t in _TRIPLES]

        det = _dot(*((head, tail, 1 if sum(rows) % 2 else -1)
                     for rows, head, tail in zip(_TRIPLES, minors(0, 1, 2), reversed(minors(3, 4, 5)))))
        return Poly._make(vt, prod(d.den for d in m.six), {layout.unpack(k + unit): n for k, n in det})

    return [determinant(zero) for zero in zeros]


class CofactorLift(NamedTuple):
    vars: Tuple[str, str, str]
    exponents: Tuple[int, int, int]
    matrix: Tuple[Tuple[Poly, ...], ...]  # rows h_i with sum_j h_ij f_j = v_i^N_i
    determinant: Poly  # det(H), formed once by `cofactor_lift`


def _determinant(h: Tuple[Tuple[Poly, ...], ...]) -> Poly:
    """det of a 3x3 matrix, by cofactor expansion along the first row."""
    minors = (h[1][j] * h[2][k] - h[1][k] * h[2][j] for j, k in ((1, 2), (2, 0), (0, 1)))
    return Poly.dot(h[0][0].vt, zip(h[0], minors))


def _monomials_of_weight(weights: Sequence[int], target: int) -> List[Tuple[int, ...]]:
    """Exponent triples e with sum(e_i * w_i) == target >= 0, in lexicographic
    order: e_1, e_2 enumerated and e_3 solved for."""
    w1, w2, w3 = weights
    firsts = ((a, b) for a in range(target // w1 + 1) for b in range((target - a * w1) // w2 + 1))
    return [(a, b, r // w3) for a, b in firsts if (r := target - a * w1 - b * w2) % w3 == 0]


def _solve_power_certificate(
    f: Sequence[Poly], names: Sequence[str], weights: Sequence[int], two: int, var_index: int, exponent: int
) -> Optional[List[Poly]]:
    """Row h with sum_j h_j f_j = v^exponent, homogeneous ansatz, or None;
    the weights are integers in units in which W has degree `two`."""
    vt = f[0].vt
    idx = [vt.index(n) for n in names]
    target = exponent * weights[var_index]
    ansatz: List[Tuple[int, Tuple[int, ...]]] = []  # (which f, exponents on names)
    for j in range(3):
        dj = target - (two - weights[j])
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


def _weights(w: Poly, names: Sequence[str]) -> Tuple[tuple, ...]:
    try:
        return weights_from_potential(w, tuple(names)).weights
    except GradingError as exc:
        raise ResidueError(str(exc)) from None


def cofactor_lift(
    w: Poly, names: Sequence[str], exponents: Optional[Sequence[int]] = None, grading: Optional[Grading] = None
) -> CofactorLift:
    """Cofactor matrix H with H.(f1,f2,f3) = (v1^N1, v2^N2, v3^N3), the
    f_j being the partials of the potential `w` along `names`.

    Without explicit exponents, N_i = floor(2c / w_i) + 1, where a
    certificate exists whenever W has an isolated singularity (see
    above), so each row is one solve.  The weights are those of the
    entry's `grading`, or, without one, `integer_weights` of `w`'s own.
    """
    if len(names) != 3:
        raise ResidueError("exactly three variables required")
    scale, by_name = grading[:2] if grading is not None else integer_weights(_weights(w, names))
    ints = [by_name[n] for n in names]
    if exponents is None:
        hessian = sum(2 * scale - 2 * x for x in ints)
        exponents = [hessian // x + 1 for x in ints]
    f = [w.partial(n) for n in names]
    rows: List[List[Poly]] = []
    for i, (v, n) in enumerate(zip(names, exponents)):
        row = _solve_power_certificate(f, names, ints, 2 * scale, i, n)
        if row is None:
            raise ResidueError(f"no power of {v} up to {v}^{n} is in the Jacobian ideal: W has no isolated singularity")
        if Poly.dot(w.vt, zip(row, f)) != Poly.var(w.vt, v) ** n:
            raise ResidueError("cofactor identity violated")
        rows.append(row)
    matrix = tuple(tuple(r) for r in rows)
    return CofactorLift(tuple(names), tuple(exponents), matrix, _determinant(matrix))


def grothendieck_residue(
    g: Poly, w: Poly, names: Sequence[str], lift: Optional[CofactorLift] = None
) -> Poly:
    """Res[g dv/(f1,f2,f3)], the f_j the partials of `w`: the coefficient
    of v^(N-1) in g*det(H), read off in one pass over g's terms, in
    integers over one denominator.  Each term n*m of det(H) is keyed by
    the exponents v^(N-1)/m on the v_i that a term of g must carry to
    meet it, with the shift that clears those v_i from the product."""
    if lift is None:
        lift = cofactor_lift(w, names)
    vt, det = g.vt, lift.determinant
    idx = [vt.index(name) for name in lift.vars]
    read: Dict[Monomial, List[Tuple[List[int], int]]] = {}
    for m, n in det.nums.items():
        key = tuple(power - 1 - m[i] for power, i in zip(lift.exponents, idx))
        shift = list(m)
        for i, k in zip(idx, key):
            shift[i] = -k
        read.setdefault(key, []).append((shift, n))
    on_names = itemgetter(*idx)
    acc: Dict[Monomial, int] = {}
    for m, n in g.nums.items():
        for shift, dn in read.get(on_names(m), ()):
            mono = tuple(map(add, m, shift))
            acc[mono] = acc.get(mono, 0) + n * dn
    return Poly._make(vt, det.den * g.den, acc)


def qdim_pair(m: MatrixFactorization, v_in: Poly, w_out: Poly, grading: Optional[Grading] = None) -> Dict[str, Poly]:
    """Both quantum dimensions, by side, from the Jacobian determinant,
    each read off its slice when the entry's `grading` allows (see above);
    that grading, formed from the potentials when not given, serves both
    lifts too."""
    sources, targets = v_in.support_vars(), w_out.support_vars()
    if len(sources) != 3 or len(targets) != 3:
        raise ResidueError("each potential must involve exactly three variables")
    if grading is None:
        grading = generator_degrees(m, _weights(v_in, sources) + _weights(w_out, targets))
    d, ints, degrees = grading
    graded = degrees is not None and sum(degrees) == 6 * d and sum(map(ints.get, sources)) == sum(map(ints.get, targets))
    # graded: left reads the slice free of sources, right free of targets
    slices = cycle(derivative_supertrace(m, sources + targets, (sources, targets) if graded else ((),)))
    out = {}
    for side, against, over in (("left", w_out, targets), ("right", v_in, sources)):
        value = grothendieck_residue(next(slices), against, over, cofactor_lift(against, over, grading=grading))
        ring_left = [v for v in value.support_vars() if v in m.vt.ring_vars]
        if ring_left:
            raise ResidueError(f"qdim_{side} retains ring variables {ring_left}")
        out[side] = value
    return out


def qdim_left(m: MatrixFactorization, v_in: Poly, w_out: Poly) -> Poly:
    return qdim_pair(m, v_in, w_out)["left"]


def qdim_right(m: MatrixFactorization, v_in: Poly, w_out: Poly) -> Poly:
    return qdim_pair(m, v_in, w_out)["right"]
