"""The 8x8 twisted differential built from six generating entries.

Rows and columns 1..4 are even, 5..8 odd; the matrix is nonzero only in
the two off-diagonal 4x4 blocks.  Writing a=d15, b=d16, c=d17, p=d25,
q=d26, s=d35, the imposed sign relations place the six generators as

    top block A (rows 1-4, cols 5-8)      bottom block B (rows 5-8, cols 1-4)
        ( a  b  c  0 )                        ( q -b -c  0 )
        ( p  q  0  c )                        (-p  a  0 -c )
        ( s  0  q -b )                        (-s  0  a  b )
        ( 0  s -p  a )                        ( 0 -s  p  q )

and the square is then the scalar matrix
(d15*d26 - d16*d25 - d17*d35) * Id for any six entries whatsoever.
`build_8x8` forms the scalar once and keeps it on the factorization.
The parameter constraints are the ring-monomial coefficients of that
scalar minus a sign times the difference of potentials
(`constraints.derive_constraints`), so on their variety the square is
that sign times the difference times Id by construction; what remains
to prove is that they are consistent (`verify_potential`).

The factorization is graded when every generator is quasi-homogeneous
in the ring variables, its parameters weighing 0 since they are
constants, and each complementary pair has degrees summing to 2
(`grading_check`).  `generator_degrees` reads those degrees off the
terms in integers; the residue layer reads the same degrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .grading import VariableWeights
from .polyring import Poly, VarTable

Matrix8 = Tuple[Tuple[Poly, ...], ...]

ENTRY_NAMES = ("d15", "d16", "d17", "d25", "d26", "d35")


class MatFacError(ValueError):
    pass


class MatrixFactorization(NamedTuple):
    vt: VarTable
    six: Tuple[Poly, Poly, Poly, Poly, Poly, Poly]  # d15,d16,d17,d25,d26,d35
    matrix: Matrix8
    scalar: Poly  # the square is scalar * Id: d15*d26 - d16*d25 - d17*d35


def build_8x8(six: Sequence[Poly]) -> MatrixFactorization:
    if len(six) != 6:
        raise MatFacError("exactly six generating entries required")
    a, b, c, p, q, s = six
    vt = a.vt
    for e in six:
        if e.vt != vt:
            raise MatFacError("entries must share one variable table")
    z = Poly.zero(vt)
    top = (
        (a, b, c, z),
        (p, q, z, c),
        (s, z, q, -b),
        (z, s, -p, a),
    )
    bottom = (
        (q, -b, -c, z),
        (-p, a, z, -c),
        (-s, z, a, b),
        (z, -s, p, q),
    )
    rows: List[Tuple[Poly, ...]] = []
    for i in range(4):
        rows.append((z, z, z, z) + top[i])
    for i in range(4):
        rows.append(bottom[i] + (z, z, z, z))
    return MatrixFactorization(vt, tuple(six), tuple(rows), a * q - b * p - c * s)


def matmul(x: Matrix8, y: Matrix8) -> Matrix8:
    vt = x[0][0].vt
    cols = tuple(zip(*y))
    return tuple(tuple(Poly.dot(vt, zip(row, col)) for col in cols) for row in x)


def square(m: MatrixFactorization) -> Matrix8:
    return matmul(m.matrix, m.matrix)


class PotentialReport(NamedTuple):
    ok: bool
    epsilon: Optional[int]

    def message(self) -> str:
        if self.ok:
            return f"constraints are consistent: square = ({self.epsilon:+d})*(difference)*Id on their variety"
        return "the constraint ideal is the unit ideal: no parameter values satisfy it"


def verify_potential(is_unit: Callable[[], bool], epsilon: int) -> PotentialReport:
    """Are the constraints derived with sign `epsilon` consistent, i.e.
    is their ideal proper?  `is_unit` decides whether it is the unit
    ideal.  On their variety the identity holds by construction (module
    docstring).
    """
    ok = not is_unit()
    return PotentialReport(ok, epsilon if ok else None)


def generator_degrees(m: MatrixFactorization, weights: Sequence[Tuple[str, Fraction]]) -> Tuple[int, Dict[str, int], Optional[List[int]]]:
    """D, the common denominator of the ring variables' `weights`; each
    weight in units of 1/D; and each generator's weighted degree in those
    units, parameters weighing 0 as constants do (0 for a zero generator),
    or None when some generator mixes degrees."""
    d = lcm(*(w.denominator for _, w in weights))
    ints = {n: w.numerator * (d // w.denominator) for n, w in weights}
    by_slot = [ints.get(n, 0) for n in m.vt.names]
    degrees = [{sum(map(mul, e, by_slot)) for e in g.nums} or {0} for g in m.six]
    return d, ints, [q.pop() for q in degrees] if all(len(q) == 1 for q in degrees) else None


class GradingReport(NamedTuple):
    ok: bool
    pair_sums: Dict[str, Fraction]
    failing: Tuple[str, ...] = ()


def grading_check(m: MatrixFactorization, combined: VariableWeights) -> GradingReport:
    """Is each generator quasi-homogeneous, with the degrees that
    `generator_degrees` reads at parameters of weight 0, and do the
    complementary pairs (d15,d26), (d16,d25), (d17,d35) have degrees
    summing to 2?"""
    d, _, degrees = generator_degrees(m, combined.weights)
    failing = [f"{name} is zero" for name, p in zip(ENTRY_NAMES, m.six) if p.is_zero()]
    if degrees is None:
        return GradingReport(False, {}, (*failing, "no degree assignment makes every generator homogeneous"))
    degree = dict(zip(ENTRY_NAMES, degrees))
    pairs = (("d15", "d26"), ("d16", "d25"), ("d17", "d35"))
    pair_sums = {f"{a}+{b}": Fraction(degree[a] + degree[b], d) for a, b in pairs}
    failing += [f"deg {a} + deg {b} = {total}, want 2" for (a, b), total in zip(pairs, pair_sums.values()) if total != 2]
    return GradingReport(not failing, pair_sums, tuple(failing))
