"""Exact linear algebra over the rationals (internal plumbing).

Dense Gaussian elimination on Fraction matrices.  Sizes here are small
(dozens to a few hundred unknowns), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

Matrix = List[List[Fraction]]


class LinearSystemError(ValueError):
    pass


def solve_dense(a: Matrix, b: List[Fraction]) -> Optional[List[Fraction]]:
    """One solution of A x = b, or None when the system is inconsistent.

    Free columns are set to zero.  `a` and `b` are consumed destructively
    by row reduction; pass copies if the caller needs them again.
    """
    return _eliminate(a, b)[0]


def _eliminate(a: Matrix, b: List[Fraction]) -> Tuple[Optional[List[Fraction]], int]:
    """`solve_dense`'s answer and the number of pivot columns (the rank)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivot_of_col: List[int] = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        b[r] = b[r] * inv
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                b[i] = b[i] - f * b[r]
        pivot_of_col.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if b[i]:
            return None, r
    x = [Fraction(0)] * cols
    for row, c in enumerate(pivot_of_col):
        x[c] = b[row]
    return x, r


def solve_unique(a: Matrix, b: List[Fraction]) -> List[Fraction]:
    """Solution of A x = b that must exist and be unique."""
    cols = len(a[0]) if a else 0
    x, rank = _eliminate([row[:] for row in a], b[:])
    if x is None:
        raise LinearSystemError("inconsistent linear system")
    # Uniqueness: perturbing any free column would give another solution,
    # so demand full column rank.
    if rank != cols:
        raise LinearSystemError("underdetermined linear system")
    return x
