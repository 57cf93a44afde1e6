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
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ._linalg import solve_dense
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


class GradingReport(NamedTuple):
    ok: bool
    pair_sums: Dict[str, Fraction]
    failing: Tuple[str, ...] = ()


def grading_check(m: MatrixFactorization, combined: VariableWeights) -> GradingReport:
    """Infer a rational degree for each parameter and each generator.

    One linear equation per term: ring weight of the term plus the
    parameter degrees it carries equals its generator's degree.  The
    joint system must be solvable (free unknowns default to 0), and the
    complementary pairs (d15,d26), (d16,d25), (d17,d35) must then have
    degrees summing to 2.
    """
    weights = combined.as_dict()
    vt = m.vt
    params = vt.param_vars
    n_params = len(params)
    param_col = {p: i for i, p in enumerate(params)}
    # the unknowns are d times the degrees, d the weights' common
    # denominator, so every cell is an integer
    d = lcm(*(w.denominator for w in weights.values()))
    scaled = {n: w.numerator * (d // w.denominator) for n, w in weights.items()}
    col_w = [scaled.get(n, 0) if n not in param_col else None for n in vt.names]
    rows: List[List[int]] = []
    rhs: List[int] = []
    failing: List[str] = []
    for k, (name, p) in enumerate(zip(ENTRY_NAMES, m.six)):
        if p.is_zero():
            failing.append(f"{name} is zero")
            continue
        for mono in p.monomials():
            row = [0] * (n_params + len(ENTRY_NAMES))
            ring_part = 0
            for i, e in enumerate(mono):
                if not e:
                    continue
                w = col_w[i]
                if w is None:
                    row[param_col[vt.names[i]]] += e
                else:
                    ring_part += w * e
            row[n_params + k] = -1
            rows.append(row)
            rhs.append(-ring_part)
    solution = solve_dense(rows, rhs) if rows else None
    pair_sums: Dict[str, Fraction] = {}
    if solution is None:
        failing.append("no degree assignment makes every generator homogeneous")
    else:
        nums, den = solution
        degree = dict(zip(ENTRY_NAMES, nums[n_params:]))
        for left, right in (("d15", "d26"), ("d16", "d25"), ("d17", "d35")):
            total = Fraction(degree[left] + degree[right], den * d)
            pair_sums[f"{left}+{right}"] = total
            if total != 2:
                failing.append(f"deg {left} + deg {right} = {total}, want 2")
    return GradingReport(not failing, pair_sums, tuple(failing))
