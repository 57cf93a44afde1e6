"""Regular weight systems and quasi-homogeneity checks.

A potential is quasi-homogeneous of degree 2: assigning each ring
variable a rational weight w makes every monomial satisfy
sum(exponent * weight) = 2.  The integer form (a1, a2, a3; h) relates to
the rational weights by w = 2*a/h; the table convention does not fix
which a belongs to which variable, so integer systems are matched as
multisets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Tuple

from ._linalg import LinearSystemError, solve_unique
from .polyring import Poly


class GradingError(ValueError):
    pass


class _WeightSystem(NamedTuple):
    a1: int
    a2: int
    a3: int
    h: int


class WeightSystem(_WeightSystem):
    __slots__ = ()

    def __new__(cls, a1: int, a2: int, a3: int, h: int) -> "WeightSystem":
        triple = (a1, a2, a3)
        if any(a <= 0 for a in triple) or h <= 0:
            raise GradingError("weight system entries must be positive")
        if any(a >= h for a in triple):
            raise GradingError("each weight must be below the degree h")
        if gcd(gcd(a1, a2), a3) != 1:
            raise GradingError("weight triple must be coprime")
        return super().__new__(cls, a1, a2, a3, h)

    def normalized_weights(self) -> Tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(2 * a, self.h) for a in (self.a1, self.a2, self.a3))


class _VariableWeights(NamedTuple):
    weights: Tuple[Tuple[str, Fraction], ...]


class VariableWeights(_VariableWeights):
    __slots__ = ()

    def __new__(cls, weights: Tuple[Tuple[str, Fraction], ...]) -> "VariableWeights":
        for name, w in weights:
            if not (0 < w <= 1):
                raise GradingError(f"weight of {name!r} must lie in (0, 1], got {w}")
        names = [n for n, _ in weights]
        if len(set(names)) != len(names):
            raise GradingError("duplicate variable in weights")
        return super().__new__(cls, weights)


def weights_from_potential(w_poly: Poly, names: Tuple[str, ...]) -> VariableWeights:
    """Solve sum(e_i * w_i) = 2 over all monomials of the potential."""
    if w_poly.is_zero():
        raise GradingError("zero potential has no weight system")
    idx = [w_poly.vt.index(n) for n in names]
    rows = []
    for mono in w_poly.monomials():
        for j, e in enumerate(mono):
            if e and j not in idx:
                raise GradingError(
                    f"potential involves {w_poly.vt.names[j]!r}, not among {names}"
                )
        rows.append([mono[i] for i in idx])
    try:
        nums, den = solve_unique(rows, [2] * len(rows))
    except LinearSystemError as exc:
        raise GradingError(f"not quasi-homogeneous of degree 2: {exc}") from None
    return VariableWeights(tuple((name, Fraction(n, den)) for name, n in zip(names, nums)))


def central_charge(vw: VariableWeights) -> Fraction:
    if len(vw.weights) != 3:
        raise GradingError("central charge is defined for three ring variables")
    return sum((1 - w for _, w in vw.weights), Fraction(0))


def check_weight_system(vw: VariableWeights, ws: WeightSystem) -> bool:
    """Match rational weights against an integer system as a multiset."""
    return sorted(w for _, w in vw.weights) == sorted(ws.normalized_weights())


def euler_check(w_poly: Poly, vw: VariableWeights) -> bool:
    """True iff sum (w_i/2) * x_i * dW/dx_i equals W.  It holds for every
    weight system `weights_from_potential` returns, which solves
    sum(e_i * w_i) = 2 on each monomial of W: Euler's identity term by term."""
    acc = Poly.zero(w_poly.vt)
    for name, w in vw.weights:
        acc = acc + (Poly.var(w_poly.vt, name) * w_poly.partial(name)).scale(w / 2)
    return acc == w_poly
