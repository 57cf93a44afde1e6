"""The fraction-free solver against plain Gauss-Jordan elimination."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbimf._linalg import LinearSystemError, _eliminate, solve_dense, solve_unique


def gauss_jordan(a, b):
    """(solution with free columns zero or None, rank) by Fraction row
    reduction to reduced row echelon form."""
    a = [list(row) for row in a]
    b = list(b)
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


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(-3, 3).map(Fraction),
)


@st.composite
def _systems(draw):
    """Systems with mixed denominators, zero rows, repeated rows and
    inconsistent copies of rows, up to 7 by 6, empty ones included."""
    n = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 6))
    a = [draw(st.lists(_ENTRIES, min_size=cols, max_size=cols)) for _ in range(n)]
    b = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    for i in range(n):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy", "scaled"]))
        j = draw(st.integers(0, n - 1))
        if kind == "zero":
            a[i] = [Fraction(0)] * cols
        elif kind == "copy":  # consistent or not, as b[i] was drawn
            a[i] = list(a[j])
        elif kind == "scaled":
            s = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
            a[i], b[i] = [x * s for x in a[j]], b[j] * s
    return a, b


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_solvers_match_gauss_jordan(system):
    a, b = system
    before = ([list(row) for row in a], list(b))
    expect, rank = gauss_jordan(a, b)
    assert _eliminate(a, b) == (expect, rank)
    assert solve_dense(a, b) == expect
    assert (a, b) == before  # the inputs are left unchanged
    cols = len(a[0]) if a else 0
    if expect is None:
        with pytest.raises(LinearSystemError, match="inconsistent"):
            solve_unique(a, b)
    elif rank < cols:
        with pytest.raises(LinearSystemError, match="underdetermined"):
            solve_unique(a, b)
    else:
        assert solve_unique(a, b) == expect


def test_empty_systems():
    assert solve_dense([], []) == []
    assert solve_unique([], []) == []
    assert solve_dense([[], []], [Fraction(0), Fraction(0)]) == []
    assert solve_dense([[], []], [Fraction(0), Fraction(1)]) is None
