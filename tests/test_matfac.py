"""Block layout, squaring identity, and degree bookkeeping of the 8x8."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from orbimf import _linalg
from orbimf._groebner import reducer
from orbimf.catalog import load_catalog
from orbimf.constraints import derive_constraints
from orbimf.grading import weights_from_potential
from orbimf.matfac import (
    MatFacError,
    build_8x8,
    generator_degrees,
    grading_check,
    matmul,
    square,
    verify_potential,
)
from orbimf.polyring import Poly, VarTable, parse_poly

DEMO_DIR = Path(__file__).parent / "data" / "demo"


def nonzero_cells(m) -> int:
    return sum(1 for row in m.matrix for p in row if not p.is_zero())


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def demo():
    return load_catalog(DEMO_DIR)["DEMOv1_DEMOv2"]


def test_build_requires_six():
    vt = VarTable(("x",), ring_vars=("x",))
    with pytest.raises(MatFacError, match="six"):
        build_8x8([Poly.var(vt, "x")] * 5)


def test_block_structure(demo):
    m = build_8x8(demo.six())
    assert nonzero_cells(m) == 24
    # even-even and odd-odd blocks stay empty
    for i in range(4):
        for j in range(4):
            assert m.matrix[i][j].is_zero()
            assert m.matrix[i + 4][j + 4].is_zero()


def test_square_is_scalar_for_arbitrary_entries():
    # the layout alone forces square = (d15*d26 - d16*d25 - d17*d35)*Id,
    # before any constraint is imposed
    names = ("x", "y", "z", "u", "v", "w")
    vt = VarTable(names, ring_vars=names)
    six = [
        parse_poly(t, vt)
        for t in ("x + v", "y^2 - w", "z*u", "u - 3*y", "v^2 + x*w", "w + 2")
    ]
    m = build_8x8(six)
    sq = square(m)
    sigma = m.scalar
    d15, d16, d17, d25, d26, d35 = m.six
    assert sigma == d15 * d26 - d16 * d25 - d17 * d35
    for i in range(8):
        for j in range(8):
            assert sq[i][j] == (sigma if i == j else Poly.zero(vt))


def test_matmul_identity(demo):
    m = build_8x8(demo.six())
    z = Poly.zero(demo.vt)
    one = Poly.const(demo.vt, 1)
    ident = tuple(
        tuple(one if i == j else z for j in range(8)) for i in range(8)
    )
    assert matmul(m.matrix, ident) == m.matrix
    assert matmul(ident, m.matrix) == m.matrix


def test_demo_square_equals_difference_exactly(demo):
    m = build_8x8(demo.six())
    assert m.scalar == demo.difference()
    eps = derive_constraints(demo, m).epsilon
    report = verify_potential(lambda: reducer([])(Poly.const(demo.vt, 1)).is_zero(), eps)
    assert report.ok and report.epsilon == 1


def test_all_entries_have_24_cells_and_uniform_diagonal(catalog):
    for entry in catalog.values():
        m = build_8x8(entry.six())
        assert nonzero_cells(m) == 24
        sq = square(m)
        sigma = m.scalar
        for i in range(8):
            for j in range(8):
                assert sq[i][j] == (sigma if i == j else Poly.zero(entry.vt))


def test_e14_potential_certificate(shipped_work):
    work = shipped_work("E14v1_E14v2")
    report = verify_potential(lambda: work.is_unit(work.derived), work.derived.epsilon)
    assert report.ok
    assert report.epsilon == 1


def _both_weights(entry):
    vw_in = weights_from_potential(entry.potential_in(), entry.side_in.vars)
    vw_out = weights_from_potential(entry.potential_out(), entry.side_out.vars)
    return vw_in.weights + vw_out.weights


def test_grading_pair_sums_are_two(catalog):
    for entry in catalog.values():
        m = build_8x8(entry.six())
        report = grading_check(m, generator_degrees(m, _both_weights(entry)))
        assert report.ok, (entry.id, report.failing)
        assert set(report.pair_sums.values()) == {Fraction(2)}
        assert set(report.pair_sums) == {"d15+d26", "d16+d25", "d17+d35"}


def test_grading_solves_no_linear_system(catalog, count_calls):
    # parameters weigh 0, so each generator's degree is read off its terms
    cases = [(build_8x8(entry.six()), _both_weights(entry)) for entry in catalog.values()]
    solves = count_calls(_linalg, "solve_dense")
    for m, weights in cases:
        assert grading_check(m, generator_degrees(m, weights)).ok
    assert not solves


def test_grading_detects_inhomogeneous_entry(demo):
    vt = demo.vt
    six = list(demo.six())
    six[0] = six[0] + parse_poly("x^3", vt)  # mixes degrees 1 and 3
    m = build_8x8(six)
    report = grading_check(m, generator_degrees(m, _both_weights(demo)))
    assert not report.ok
