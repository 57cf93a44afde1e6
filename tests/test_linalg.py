"""The fraction-free integer solver against plain Gauss-Jordan elimination."""

from __future__ import annotations

import fractions
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from orbimf._linalg import LinearSystemError, _eliminate, solve_dense, solve_unique


def gauss_jordan(a, b):
    """(solution with free columns zero or None, rank) by Fraction row
    reduction to reduced row echelon form."""
    a = [[Fraction(x) for x in row] for row in a]
    b = [Fraction(x) for x in b]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot], b[r], b[pivot] = a[pivot], a[r], b[pivot], b[r]
        inv = 1 / a[r][c]
        a[r], b[r] = [x * inv for x in a[r]], b[r] * inv
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i], b[i] = [x - f * y for x, y in zip(a[i], a[r])], b[i] - f * b[r]
        pivots.append(c)
    if any(b[len(pivots):]):
        return None, len(pivots)
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = b[r]
    return x, len(pivots)


_ENTRIES = st.one_of(st.just(0), st.integers(-20, 20), st.integers(-3, 3))


@st.composite
def _systems(draw):
    """Integer systems with zero rows, copied rows, scaled copies and
    inconsistent copies, up to 7 by 6, empty ones included."""
    n = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 6))
    a = [draw(st.lists(_ENTRIES, min_size=cols, max_size=cols)) for _ in range(n)]
    b = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    for i in range(n):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy", "scaled", "inconsistent"]))
        j = draw(st.integers(0, n - 1))
        if kind == "zero":
            a[i] = [0] * cols
        elif kind == "copy":
            a[i], b[i] = list(a[j]), b[j]
        elif kind == "scaled":
            s = draw(st.integers(-5, 5).filter(bool))
            a[i], b[i] = [x * s for x in a[j]], b[j] * s
        elif kind == "inconsistent":
            a[i], b[i] = list(a[j]), b[j] + draw(st.integers(1, 5))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_solvers_match_gauss_jordan(system):
    a, b = system
    before = ([list(row) for row in a], list(b))
    expect, rank = gauss_jordan(a, b)
    got, got_rank = _eliminate(a, b)
    assert got_rank == rank
    assert solve_dense(a, b) == got
    assert (a, b) == before  # the inputs are left unchanged
    if expect is None:
        assert got is None
    else:
        nums, den = got
        assert all(type(n) is int for n in nums) and type(den) is int
        assert den > 0 and gcd(den, *nums) == 1  # lowest terms
        assert [Fraction(n, den) for n in nums] == expect
    cols = len(a[0]) if a else 0
    if expect is None:
        with pytest.raises(LinearSystemError, match="inconsistent"):
            solve_unique(a, b)
    elif rank < cols:
        with pytest.raises(LinearSystemError, match="underdetermined"):
            solve_unique(a, b)
    else:
        assert solve_unique(a, b) == got


def test_empty_systems():
    assert solve_dense([], []) == ([], 1)
    assert solve_unique([], []) == ([], 1)
    assert solve_dense([[], []], [0, 0]) == ([], 1)
    assert solve_dense([[], []], [0, 1]) is None


def test_a_solve_builds_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    # non-unit pivots, a dependent row and a free column
    a = [[2, 4, 1, 3], [3, 6, 0, 1], [4, 8, 2, 6], [0, 0, 3, 5]]
    assert solve_dense(a, [1, 1, 2, 2]) == ([1, 0, 3, -1], 2)
    assert solve_unique([[6, 4], [3, -2]], [1, 3]) == ([14, -15], 24)
    assert made == []
