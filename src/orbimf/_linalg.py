"""Exact linear algebra over the rationals (internal plumbing).

Fraction-free elimination: rows are scaled to integers, and only the
back substitution uses Fractions.  Pivot columns are Gauss-Jordan's and
free columns are zero, so every solution is the one Gauss-Jordan gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple

Matrix = List[List[Fraction]]


class LinearSystemError(ValueError):
    pass


def solve_dense(a: Matrix, b: List[Fraction]) -> Optional[List[Fraction]]:
    """One solution of A x = b, or None when the system is inconsistent.

    Free columns are set to zero.  `a` and `b` are left unchanged.
    """
    return _eliminate(a, b)[0]


def _eliminate(a: Matrix, b: List[Fraction]) -> Tuple[Optional[List[Fraction]], int]:
    """`solve_dense`'s answer and the number of pivot columns (the rank)."""
    cols = len(a[0]) if a else 0
    rows = []  # each row times the lcm of its denominators, right-hand side last
    for row in (ai + [bi] for ai, bi in zip(a, b)):
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
    pivot_cols: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r][c:]
        lead = top[0]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:  # cross-multiply; columns before c are zero from row r on
                new = [lead * x - f * y for x, y in zip(rows[i][c:], top)]
                g = gcd(*new)
                rows[i] = [0] * c + ([x // g for x in new] if g > 1 else new)
        pivot_cols.append(c)
        r += 1
    if any(row[-1] for row in rows[r:]):
        return None, r
    x = [Fraction(0)] * cols
    for k in reversed(range(r)):
        row, c = rows[k], pivot_cols[k]
        x[c] = Fraction(row[-1] - sum(row[j] * x[j] for j in pivot_cols[k + 1:] if row[j])) / row[c]
    return x, r


def solve_unique(a: Matrix, b: List[Fraction]) -> List[Fraction]:
    """Solution of A x = b that must exist and be unique."""
    cols = len(a[0]) if a else 0
    x, rank = _eliminate(a, b)
    if x is None:
        raise LinearSystemError("inconsistent linear system")
    # Uniqueness: perturbing any free column would give another solution,
    # so demand full column rank.
    if rank != cols:
        raise LinearSystemError("underdetermined linear system")
    return x
