"""Exact linear algebra over the integers (internal plumbing).

Rows and right-hand sides are integers, and so is the answer: numerators
over one positive denominator, in lowest terms.  Elimination is
fraction-free (each cross-multiplied row is divided by its content), and
back substitution runs over one common denominator.  Pivot columns are
Gauss-Jordan's and free columns are zero, so every solution is the one
Gauss-Jordan gives.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Tuple

Matrix = List[List[int]]
Solution = Tuple[List[int], int]  # x = [n / den for n in nums], den > 0


class LinearSystemError(ValueError):
    pass


def solve_dense(a: Matrix, b: List[int]) -> Optional[Solution]:
    """One solution of A x = b as (nums, den), or None when the system is
    inconsistent.

    Free columns are set to zero.  `a` and `b` are left unchanged.
    """
    return _eliminate(a, b)[0]


def _eliminate(a: Matrix, b: List[int]) -> Tuple[Optional[Solution], int]:
    """`solve_dense`'s answer and the number of pivot columns (the rank)."""
    cols = len(a[0]) if a else 0
    rows = [ai + [bi] for ai, bi in zip(a, b)]  # right-hand side last
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
    # x_c = (rhs - sum row[j] * nums[j] / den) / row[c] = t / (p * den)
    # with gcd(t, p) = 1, so each step keeps gcd(den, *nums) == 1
    nums, den = [0] * cols, 1
    for k in reversed(range(r)):
        row, c = rows[k], pivot_cols[k]
        t = row[-1] * den - sum(row[j] * nums[j] for j in pivot_cols[k + 1:] if row[j])
        g = gcd(t, row[c])
        t, p = t // g, row[c] // g
        if p < 0:
            t, p = -t, -p
        if p != 1:
            nums, den = [n * p for n in nums], den * p
        nums[c] = t
    return (nums, den), r


def solve_unique(a: Matrix, b: List[int]) -> Solution:
    """Solution (nums, den) of A x = b that must exist and be unique."""
    cols = len(a[0]) if a else 0
    x, rank = _eliminate(a, b)
    if x is None:
        raise LinearSystemError("inconsistent linear system")
    # Uniqueness: perturbing any free column would give another solution,
    # so demand full column rank.
    if rank != cols:
        raise LinearSystemError("underdetermined linear system")
    return x
