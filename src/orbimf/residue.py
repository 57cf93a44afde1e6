"""Grothendieck residues and quantum dimensions.

The residue Res[g dv / (f1, f2, f3)] with the f_j the partial
derivatives of a quasi-homogeneous potential W is computed through the
transformation law: find a cofactor matrix H with H.(f1,f2,f3) =
(v1^N1, v2^N2, v3^N3); the residue is the coefficient of
v1^(N1-1) v2^(N2-1) v3^(N3-1) in g*det(H).  That product is never
formed: g is grouped once by its exponents in the v_i, and each term
c*m of det(H) (one to four terms on the shipped potentials) picks the
group at v^(N-1)/m, so the residue is one `Poly.dot` of those groups
with the coefficients c.  Any valid H gives the same answer; the test
suite exercises that with independently built lifts.

Both entry points take W itself.  Its weights come from
`grading.weights_from_potential`, and they bound the search for each
power: the Hessian of W has weighted degree 2c = sum(2 - 2 w_j), and
every monomial of higher weighted degree lies in the Jacobian ideal, so
v_i^N with N = floor(2c / w_i) + 1 always does.  A power not found by
then means W has no isolated singularity.

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
and integrates it twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product as iter_product
from typing import Dict, List, Optional, Sequence, Tuple

from ._linalg import solve_dense
from .grading import GradingError, weights_from_potential
from .matfac import Matrix8, MatrixFactorization, matmul
from .polyring import Poly, VarTable

_ZERO = Fraction(0)
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


def derivative_supertrace(m: MatrixFactorization, order: Sequence[str]) -> Poly:
    """supertrace(derivative_matrix_product(m, order)) for six variables:
    det J, with J[k][j] the partial of the k-th generator along order[j].

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
    """
    vt = m.vt
    jac = [[d.partial(v) for v in order] for d in m.six]
    neg = [[-p for p in row] for row in jac]

    def minors(a: int, b: int, c: int) -> List[Poly]:  # on columns a, b, c
        two = {
            (r, s): Poly.dot(vt, ((jac[r][a], jac[s][b]), (neg[r][b], jac[s][a])))
            for r, s in combinations(range(6), 2)
        }
        return [
            Poly.dot(vt, ((jac[r][c], two[s, t]), (neg[s][c], two[r, t]), (jac[t][c], two[r, s])))
            for r, s, t in _TRIPLES
        ]

    pairs = zip(_TRIPLES, minors(0, 1, 2), reversed(minors(3, 4, 5)))
    return Poly.dot(vt, ((h if sum(rows) % 2 else -h, t) for rows, h, t in pairs))


@dataclass(frozen=True)
class CofactorLift:
    vars: Tuple[str, str, str]
    exponents: Tuple[int, int, int]
    matrix: Tuple[Tuple[Poly, ...], ...]  # rows h_i with sum_j h_ij f_j = v_i^N_i

    def determinant(self) -> Poly:
        h = self.matrix  # cofactor expansion along the first row
        minors = (h[1][j] * h[2][k] - h[1][k] * h[2][j] for j, k in ((1, 2), (2, 0), (0, 1)))
        return Poly.dot(h[0][0].vt, zip(h[0], minors))


def _monomials_of_weight(
    weights: Sequence[Fraction], target: Fraction
) -> List[Tuple[int, ...]]:
    """Exponent triples e with sum(e_i * w_i) == target >= 0."""
    ranges = (range(int(target / w) + 1) for w in weights)
    return [e for e in iter_product(*ranges) if sum(w * k for w, k in zip(weights, e)) == target]


def _solve_power_certificate(
    f: Sequence[Poly],
    names: Sequence[str],
    weights: Sequence[Fraction],
    var_index: int,
    exponent: int,
) -> Optional[List[Poly]]:
    """Row h with sum_j h_j f_j = v^exponent, homogeneous ansatz, or None."""
    vt = f[0].vt
    idx = [vt.index(n) for n in names]
    target = exponent * weights[var_index]
    ansatz: List[Tuple[int, Tuple[int, ...]]] = []  # (which f, exponents on names)
    for j in range(3):
        dj = target - (2 - weights[j])
        if dj < 0:
            continue
        monos = _monomials_of_weight(weights, dj)
        ansatz.extend((j, m) for m in monos)
    if not ansatz:
        return None
    # One equation per monomial of sum_j h_j f_j, matching v^exponent.
    col_terms: List[Dict[Tuple[int, ...], Fraction]] = []
    support = set()
    for j, m in ansatz:
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for fm, fc in f[j].terms():
            key = tuple(fm[i] + e for i, e in zip(idx, m))
            terms[key] = terms.get(key, _ZERO) + fc
        col_terms.append(terms)
        support.update(terms)
    target_mono = tuple(exponent if k == var_index else 0 for k in range(len(names)))
    support.add(target_mono)
    support_list = sorted(support)
    row_of = {mono: r for r, mono in enumerate(support_list)}
    rows = [[_ZERO] * len(ansatz) for _ in support_list]
    for cidx, terms in enumerate(col_terms):
        for mono, c in terms.items():
            rows[row_of[mono]][cidx] = c
    rhs = [_ZERO] * len(support_list)
    rhs[row_of[target_mono]] = Fraction(1)
    sol = solve_dense(rows, rhs)
    if sol is None:
        return None
    return _assemble_row(vt, idx, ansatz, sol)


def _assemble_row(vt: VarTable, idx, ansatz, sol) -> List[Poly]:
    buckets: List[Dict[tuple, Fraction]] = [{}, {}, {}]
    for (j, m), c in zip(ansatz, sol):  # the (j, m) are distinct
        if c:
            full = [0] * len(vt)
            for i, e in zip(idx, m):
                full[i] = e
            buckets[j][tuple(full)] = c
    return [Poly(vt, b) for b in buckets]


def cofactor_lift(
    w: Poly, names: Sequence[str], exponents: Optional[Sequence[int]] = None
) -> CofactorLift:
    """Cofactor matrix H with H.(f1,f2,f3) = (v1^N1, v2^N2, v3^N3), the
    f_j being the partials of the potential `w` along `names`.

    Without explicit exponents, each N_i is the smallest power admitting
    a certificate; the search ends at floor(2c / w_i) + 1 (see above).
    """
    if len(names) != 3:
        raise ResidueError("exactly three variables required")
    try:
        weights = [x for _, x in weights_from_potential(w, tuple(names)).weights]
    except GradingError as exc:
        raise ResidueError(str(exc)) from None
    hessian = sum((2 - 2 * x for x in weights), _ZERO)
    f = [w.partial(n) for n in names]
    rows: List[List[Poly]] = []
    found: List[int] = []
    for i in range(3):
        last = hessian // weights[i] + 1 if exponents is None else exponents[i]
        for n in range(1 if exponents is None else last, last + 1):
            row = _solve_power_certificate(f, names, weights, i, n)
            if row is not None:
                break
        else:
            raise ResidueError(f"no power of {names[i]} up to {last} lies in the ideal")
        if Poly.dot(w.vt, zip(row, f)) != Poly.var(w.vt, names[i]) ** n:
            raise ResidueError("cofactor identity violated")
        rows.append(row)
        found.append(n)
    return CofactorLift(tuple(names), tuple(found), tuple(tuple(r) for r in rows))


def grothendieck_residue(
    g: Poly, w: Poly, names: Sequence[str], lift: Optional[CofactorLift] = None
) -> Poly:
    """Res[g dv/(f1,f2,f3)], the f_j the partials of `w`: the coefficient
    of v^(N-1) in g*det(H), read off without forming the product."""
    if lift is None:
        lift = cofactor_lift(w, names)
    vt = g.vt
    det = lift.determinant()
    if det.vt != vt:
        det = det.convert(vt, None)
    key = [0] * len(vt)
    for name, n in zip(lift.vars, lift.exponents):
        key[vt.index(name)] = n - 1
    groups = g.coefficients_wrt(names)
    pairs = []
    for m, c in det.coefficients_wrt(names).items():
        shifted = tuple(k - e for k, e in zip(key, m))
        if shifted in groups:
            pairs.append((groups[shifted], c))
    return Poly.dot(vt, pairs)


def qdim_supertrace(m: MatrixFactorization, v_in: Poly, w_out: Poly) -> Poly:
    """The supertrace both quantum dimensions integrate: sources first,
    then targets, in declared order."""
    sources = v_in.support_vars()
    targets = w_out.support_vars()
    if len(sources) != 3 or len(targets) != 3:
        raise ResidueError("each potential must involve exactly three variables")
    return derivative_supertrace(m, tuple(sources) + tuple(targets))


def _integrate(s: Poly, m: MatrixFactorization, v_in: Poly, w_out: Poly, side: str) -> Poly:
    if side == "left":
        over, against = w_out.support_vars(), w_out
    elif side == "right":
        over, against = v_in.support_vars(), v_in
    else:
        raise ResidueError("side must be left or right")
    value = grothendieck_residue(s, against, over, cofactor_lift(against, over))
    ring_left = [v for v in value.support_vars() if v in m.vt.ring_vars]
    if ring_left:
        raise ResidueError(f"qdim_{side} retains ring variables {ring_left}")
    return value


def qdim_pair(
    m: MatrixFactorization,
    v_in: Poly,
    w_out: Poly,
    sides: Sequence[str] = ("left", "right"),
) -> Dict[str, Poly]:
    """The requested quantum dimensions, by side, from one supertrace."""
    s = qdim_supertrace(m, v_in, w_out)
    return {side: _integrate(s, m, v_in, w_out, side) for side in sides}


def qdim_left(m: MatrixFactorization, v_in: Poly, w_out: Poly) -> Poly:
    return qdim_pair(m, v_in, w_out, ("left",))["left"]


def qdim_right(m: MatrixFactorization, v_in: Poly, w_out: Poly) -> Poly:
    return qdim_pair(m, v_in, w_out, ("right",))["right"]
