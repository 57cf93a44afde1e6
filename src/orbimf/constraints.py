"""Parameter constraints from the squaring identity, and their consumers.

Squaring the twisted differential leaves a residual square(d) - eps*delta*Id
whose cells are polynomials in the ring variables with coefficients in the
parameters; those coefficients generate the constraint ideal.  Everything
downstream works with that ideal: membership tests against the printed
generating sets, verification of shipped solution families inside their
quotient rings, non-vanishing certificates for quantum dimensions at
concrete points, and a resultant-based elimination oracle that rediscovers
one-parameter relations without computing a Groebner basis: its univariate
gcds and candidate checks are normal forms modulo a single polynomial,
which is a one-element Groebner basis, through `_groebner`'s reducer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from ._groebner import SPAIR_CAP, _divide_exact, groebner_basis, normal_form, reducer, resultant
from .catalog import EquivalenceEntry, FamilyRing, SolutionFamily, family_ring
from .grading import VariableWeights, weights_from_potential
from .matfac import Grading, MatrixFactorization, build_8x8, generator_degrees
from .numberfield import NonzeroCertificate, NumberFieldError, certify_value
from .numberfield import reduce as quotient_reduce
from .polyring import Poly, format_poly, parse_poly
from .residue import qdim_pair

_ONE = Fraction(1)


def _unit_normalize(p: Poly) -> Poly:
    """Integer coefficients with content 1 and positive leading sign."""
    content = gcd(*p.nums.values())
    if p.nums[p.leading_monomial()] < 0:
        content = -content
    return p.scale(Fraction(p.den, content))


class _ConstraintSet(NamedTuple):
    generators: Tuple[Poly, ...]
    epsilon: Optional[int] = None  # the sign of a derived set


class ConstraintSet(_ConstraintSet):
    """Deduplicated, unit-normalized generators of a parameter ideal."""

    __slots__ = ()

    def __new__(cls, generators: Tuple[Poly, ...], epsilon: Optional[int] = None) -> "ConstraintSet":
        if any(g.is_zero() for g in generators):
            raise ValueError("constraint generators must be nonzero")
        if epsilon not in (None, 1, -1):
            raise ValueError(f"epsilon must be None, 1 or -1, got {epsilon!r}")
        return super().__new__(cls, generators, epsilon)

    @staticmethod
    def from_polys(gens: Sequence[Poly], *_: str, epsilon: Optional[int] = None) -> "ConstraintSet":
        # a positional label, as `verifybench/check.py` passes, is ignored
        seen: Dict[tuple, Poly] = {}
        for g in gens:
            if g.is_zero():
                continue
            n = _unit_normalize(g)
            seen.setdefault(tuple(sorted(n.nums.items())), n)  # den == 1
        ordered = sorted(
            seen.items(), key=lambda kv: (max(sum(m) for m, _ in kv[0]), kv[0])
        )
        return ConstraintSet(tuple(p for _, p in ordered), epsilon)

    def texts(self) -> Tuple[str, ...]:
        return tuple(format_poly(g) for g in self.generators)


def derive_constraints(entry: EquivalenceEntry, m: MatrixFactorization) -> ConstraintSet:
    """Coefficients, over ring monomials, of square(d) - eps*(difference)*Id
    for the entry's factorization `m`.

    By the block layout (see `matfac`) the square is the scalar
    `m.scalar` times the identity, so the residual has one
    distinct cell.  The sign eps is detected by trying +1 then -1 and
    keeping the first choice whose residual system contains no nonzero
    constant (a constant generator makes the system unsolvable, so the
    sign must be wrong).  An empty generator list means the identity
    holds for all parameters.
    """
    delta = entry.difference()
    ring = entry.vt.ring_vars
    residuals: List[List[Poly]] = []
    for eps in (1, -1):
        cell = m.scalar - delta.scale(Fraction(eps))
        gens = [c for c in cell.coefficients_wrt(ring).values() if not c.is_zero()]
        if all(c.support_vars() for c in gens):
            return ConstraintSet.from_polys(gens, epsilon=eps)
        residuals.append(gens)
    # neither sign admits solutions; expose the +1 residual for inspection
    return ConstraintSet.from_polys(residuals[0], epsilon=1)


def paper_constraint_set(entry: EquivalenceEntry) -> ConstraintSet:
    return ConstraintSet.from_polys(entry.paper_constraints())


def groebner(constraints: ConstraintSet, spair_cap: int = SPAIR_CAP) -> List[Poly]:
    return groebner_basis(list(constraints.generators), spair_cap=spair_cap)


class EntryWork:
    """The facts the stages of one entry read, each computed on first use
    and then kept: the factorization `m`, both sides' `weights`, the one
    `grading` of `m`, the `derived` and `printed` constraint sets, both
    `qdims`, the normal forms `qdim_nfs`, one Groebner basis with its
    reducer per distinct generator set and whether its ideal is the unit
    ideal, one `verify_family` report per shipped family.  The quotient rings of the shipped families are
    the entry's own, built at load."""

    def __init__(self, entry: EquivalenceEntry, spair_cap: int = SPAIR_CAP):
        self.entry = entry
        self.spair_cap = spair_cap
        self._reducers: Dict[Tuple[Poly, ...], Callable[[Poly], Poly]] = {}
        self._units: Dict[Tuple[Poly, ...], bool] = {}
        self._family_reports: Dict[int, FamilyReport] = {}

    @cached_property
    def m(self) -> MatrixFactorization:
        return build_8x8(self.entry.six())

    @cached_property
    def derived(self) -> ConstraintSet:
        return derive_constraints(self.entry, self.m)

    @cached_property
    def printed(self) -> ConstraintSet:
        return paper_constraint_set(self.entry)

    @cached_property
    def weights(self) -> Tuple[VariableWeights, VariableWeights]:
        """The source and target potentials' weights (`GradingError` if none)."""
        e = self.entry
        return (weights_from_potential(e.potential_in(), e.side_in.vars),
                weights_from_potential(e.potential_out(), e.side_out.vars))

    @cached_property
    def grading(self) -> Grading:
        """`generator_degrees` of `m` at both sides' weights."""
        return generator_degrees(self.m, self.weights[0].weights + self.weights[1].weights)

    @cached_property
    def qdims(self) -> Dict[str, Poly]:
        """Both quantum dimensions from the Jacobian determinant."""
        return qdim_pair(self.m, self.entry.potential_in(), self.entry.potential_out(), self.grading)

    @cached_property
    def qdim_nfs(self) -> Dict[Tuple[str, str], Poly]:
        """The computed and printed quantum dimensions of both sides, by
        (origin, side), in normal form modulo the derived ideal."""
        reduce = self.reducer_for(self.derived)
        nfs = {}
        for side in ("left", "right"):
            nfs["computed", side] = reduce(self.qdims[side])
            nfs["printed", side] = reduce(self.entry.paper_qdim(side))
        return nfs

    def reducer_for(self, cs: ConstraintSet) -> Callable[[Poly], Poly]:
        """Normal forms modulo the ideal of `cs`; identical generator sets
        share one basis."""
        reduce = self._reducers.get(cs.generators)
        if reduce is None:
            reduce = self._reducers[cs.generators] = reducer(groebner(cs, self.spair_cap))
        return reduce

    def is_unit(self, cs: ConstraintSet) -> bool:
        """Is the ideal of `cs` the whole ring, so that no parameter values
        satisfy it and everything lies in it?  Decided once per generator
        set."""
        unit = self._units.get(cs.generators)
        if unit is None:
            unit = self._units[cs.generators] = self.reducer_for(cs)(Poly.const(self.entry.vt, 1)).is_zero()
        return unit

    def family_ring(self, family: SolutionFamily) -> FamilyRing:
        """The quotient ring of `family` and its bindings of every entry
        parameter: the entry's own for a shipped family, else a new one."""
        families = self.entry.families
        if family in families:
            return self.entry.family_rings[families.index(family)]
        return family_ring(family)

    def family_report(self, family: SolutionFamily) -> FamilyReport:
        """`verify_family` of `family`, kept for a shipped family."""
        families = self.entry.families
        if family not in families:
            return verify_family(self, family)
        i = families.index(family)
        if i not in self._family_reports:
            self._family_reports[i] = verify_family(self, family)
        return self._family_reports[i]


class IdealComparison(NamedTuple):
    a_in_b: bool
    b_in_a: bool
    failing_a: Tuple[Poly, ...]  # generators of A outside the ideal of B
    failing_b: Tuple[Poly, ...]
    vacuous: bool  # B is the unit ideal, so a_in_b holds for any A
    equal_after_eliminating: Tuple[str, ...] = ()  # see `compare_printed`

    @property
    def equal(self) -> bool:
        return self.a_in_b and self.b_in_a


def ideal_compare(work: EntryWork, a: ConstraintSet, b: ConstraintSet) -> IdealComparison:
    """Two-way membership of generators, so transformed generating sets of
    one ideal still compare as equal.  Each side's generators reduce
    against `work`'s basis of the other side; equal generator tuples need
    no reduction, each lying in the other's ideal by the identity."""
    if a.generators == b.generators:
        return IdealComparison(True, True, (), (), work.is_unit(b))
    reduce_a = work.reducer_for(a)
    reduce_b = work.reducer_for(b)
    failing_a = tuple(g for g in a.generators if not reduce_b(g).is_zero())
    failing_b = tuple(g for g in b.generators if not reduce_a(g).is_zero())
    return IdealComparison(not failing_a, not failing_b, failing_a, failing_b, work.is_unit(b))


def eliminate_linear(
    constraints: ConstraintSet, name: str
) -> Tuple[ConstraintSet, Poly]:
    """Remove a parameter that some generator pins down linearly with a
    constant coefficient; returns the reduced set and the solved value.

    Substituting the solved value is an isomorphism onto the smaller
    parameter ring, so ideal comparisons survive the move.
    """
    for g in constraints.generators:
        if g.degree_in(name) != 1:
            continue
        rest, lin = g.coeffs_in(name)
        if lin.support_vars():
            continue
        solved = rest.scale(Fraction(-1) / lin.constant_value())
        reduced = [
            h.substitute({name: solved}) for h in constraints.generators if h is not g
        ]
        return (
            ConstraintSet.from_polys(reduced, epsilon=constraints.epsilon),
            solved,
        )
    raise ValueError(f"no generator is linear in {name!r} with a constant coefficient")


def compare_printed(work: EntryWork) -> IdealComparison:
    """`ideal_compare` of the printed set against the derived one.  When
    the printed ideal lies strictly inside, it may live in a smaller ring
    with determined parameters already solved away: the parameters it
    does not mention are eliminated from the derived set where
    `eliminate_linear` can, and if that restores equality they are
    recorded in `equal_after_eliminating`."""
    printed, derived = work.printed, work.derived
    cmp_ = ideal_compare(work, printed, derived)
    if cmp_.equal or not cmp_.a_in_b:
        return cmp_
    printed_support = {v for g in printed.generators for v in g.support_vars()}
    eliminated: List[str] = []
    for name in work.entry.parameters:
        if name in printed_support:
            continue
        try:
            derived, _ = eliminate_linear(derived, name)
        except ValueError:
            continue
        eliminated.append(name)
    if eliminated and ideal_compare(work, printed, derived).equal:
        return cmp_._replace(equal_after_eliminating=tuple(eliminated))
    return cmp_


# -- solution families -------------------------------------------------


class FamilyReport(NamedTuple):
    label: str
    ok: bool
    checked: int
    failures: Tuple[Tuple[str, str], ...]  # (generator, nonzero residue)


def verify_family(work: EntryWork, family: SolutionFamily) -> FamilyReport:
    """Substitute the family's bindings into every derived constraint and
    reduce in its quotient ring; each residue must vanish identically in
    the remaining free parameters."""
    gens = work.derived.generators
    ring = work.family_ring(family)
    failures: List[Tuple[str, str]] = []
    for g in gens:
        residue = quotient_reduce(g.substitute(ring.bindings), ring.spec)
        if not residue.is_zero():
            failures.append((format_poly(g), format_poly(residue)))
    return FamilyReport(family.label, not failures, len(gens), tuple(failures))


# -- quantum dimensions ------------------------------------------------


def computed_qdim(entry: EquivalenceEntry, side: str) -> Poly:
    """Residue-computed quantum dimension; a polynomial in the parameters."""
    m = build_8x8(entry.six())
    return qdim_pair(m, entry.potential_in(), entry.potential_out())[side]


class QdimAtPoint(NamedTuple):
    origin: str  # "computed" | "printed"
    value: str
    certificate: Optional[NonzeroCertificate]
    error: Optional[str] = None

    @property
    def nonzero(self) -> bool:
        return self.certificate is not None and self.certificate.status != "zero"


class NonvanishingReport(NamedTuple):
    label: str
    side: str
    point: Tuple[Tuple[str, str], ...]  # free parameter -> value text
    computed: QdimAtPoint
    printed: QdimAtPoint

    @property
    def ok(self) -> bool:
        return self.computed.nonzero

    @property
    def excluded(self) -> bool:
        cert = self.computed.certificate
        return cert is not None and cert.status == "zero"

    @property
    def agree(self) -> bool:
        """Do the computed invariant and the printed closed form classify
        the point the same way (zero vs nonzero)?"""
        pc = self.printed.certificate
        cc = self.computed.certificate
        if pc is None or cc is None:
            return False
        return (pc.status == "zero") == (cc.status == "zero")


def nonvanishing_check(
    work: EntryWork,
    family: SolutionFamily,
    side: str,
    point: Optional[Mapping[str, str]] = None,
) -> NonvanishingReport:
    """Certify the quantum dimension nonzero at one concrete family point.

    Free parameters take values from `point`, falling back to the family's
    defaults.  The certificate that decides inclusion comes from the
    residue-computed invariant; the printed closed form is evaluated at
    the same point and reported next to it.  A zero computed value means
    the point is excluded, exactly the situation the catalog's discard
    notes describe.  Both values are the normal forms `work.qdim_nfs`,
    which differ from the raw polynomials by ideal elements that vanish
    on the constraint variety; a family off it (`verify_family` fails)
    gets an error, not a value.  A unit is certified by its inverse, a
    zero divisor by an interval around the declared root.
    """
    ring = work.family_ring(family)
    on_variety = work.family_report(family).ok
    vt = ring.spec.vt
    chosen: Dict[str, str] = {}
    free_map: Dict[str, Poly] = {}
    for free in family.free:
        if point and free in point:
            chosen[free] = str(point[free])
            free_map[free] = parse_poly(chosen[free], vt)
        else:
            value = family.default_value(free)
            chosen[free], free_map[free] = str(value), Poly.const(vt, value)

    def certify(origin: str) -> QdimAtPoint:
        if not on_variety:
            return QdimAtPoint(origin, "?", None, "family does not lie on the constraint variety")
        at_point = work.qdim_nfs[origin, side].substitute(ring.bindings).substitute(free_map)
        value = quotient_reduce(at_point, ring.spec)
        try:
            cert = certify_value(value, ring.spec, family.root_choice)
        except NumberFieldError as exc:
            return QdimAtPoint(origin, format_poly(value), None, str(exc))
        return QdimAtPoint(origin, format_poly(value), cert)

    computed = certify("computed")
    printed = certify("printed")
    return NonvanishingReport(family.label, side, tuple(sorted(chosen.items())), computed, printed)


class QdimMatch(NamedTuple):
    # "exact" | "exact_mod_ideal" | "unit_multiple" | "unmatched" | "vacuous"
    status: str
    matched_side: Optional[str]
    scalar: Optional[Fraction]
    mod_ideal: bool


def _scalar_ratio(a: Poly, b: Poly) -> Optional[Fraction]:
    """The constant lambda with a = lambda*b, if one exists and is nonzero."""
    if a.is_zero() or set(a.monomials()) != set(b.monomials()):
        return None
    mono = next(a.monomials())
    lam = a.coefficient(mono) / b.coefficient(mono)
    return lam if a == b.scale(lam) else None


def compare_qdims(work: EntryWork) -> Dict[str, QdimMatch]:
    """Match each printed quantum-dimension formula against the computed
    invariants of `work`, keyed by side like `work.qdims`: exact equality
    first, then equal normal forms `qdim_nfs` modulo the derived ideal,
    then a global nonzero rational multiple (scalar recorded), each tried
    on the same-name side before the opposite one.  Modulo a derived unit ideal every formula matches,
    so the steps modulo the ideal are skipped and a formula no other step
    matches is reported "vacuous" rather than matched."""
    entry = work.entry
    cl = work.qdims["left"]
    cr = work.qdims["right"]
    nf = work.qdim_nfs
    vacuous = work.is_unit(work.derived)

    def match(side: str) -> QdimMatch:
        printed = entry.paper_qdim(side)
        order = [("left", cl), ("right", cr)]
        if side == "right":
            order.reverse()
        for name, comp in order:
            if printed == comp:
                return QdimMatch("exact", name, _ONE, False)
        for name, comp in order:
            if not vacuous and nf["printed", side] == nf["computed", name]:
                return QdimMatch("exact_mod_ideal", name, _ONE, True)
        for name, comp in order:
            lam = _scalar_ratio(printed, comp)
            if lam is not None:
                return QdimMatch("unit_multiple", name, lam, False)
        if vacuous:
            return QdimMatch("vacuous", None, None, False)
        for name, comp in order:
            lam = _scalar_ratio(nf["printed", side], nf["computed", name])
            if lam is not None:
                return QdimMatch("unit_multiple", name, lam, True)
        return QdimMatch("unmatched", None, None, False)

    return {"left": match("left"), "right": match("right")}


# -- resultant elimination oracle ---------------------------------------


# a projection whose resultant passes either bound is abandoned
_DEGREE_CAP = 64
_TERM_CAP = 20000


class OracleBudgetExceeded(RuntimeError):
    pass


class CandidateRelation(NamedTuple):
    parameter: str
    minimal_poly: Poly  # squarefree, unit-normalized
    refuted: bool  # some generator reduced to a nonzero constant
    fully_satisfied: bool  # every generator reduced to zero


class OracleReport(NamedTuple):
    entry_id: str
    assignments: Tuple[Tuple[str, str], ...]
    candidates: Tuple[CandidateRelation, ...]
    inconsistent: bool
    notes: Tuple[str, ...]


def _gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two univariate polynomials, not both zero: Euclid, each
    remainder a normal form modulo the one-element Groebner basis [b]."""
    while not b.is_zero():
        a, b = b, normal_form(a, [b])
    return a / a.coefficient(a.leading_monomial())


def _squarefree_part(p: Poly, name: str) -> Poly:
    return _divide_exact(p, _gcd(p, p.partial(name)))


def _project_onto(
    system: Sequence[Poly],
    target: str,
    to_eliminate: Sequence[str],
    notes: List[str],
) -> Tuple[Optional[Poly], bool]:
    """Eliminate variables by Sylvester resultants against a minimal-degree
    pivot until only the target survives; gcd of the univariate outcomes.
    Returns (projection, inconsistent)."""
    work = list(system)
    pending = list(to_eliminate)
    while pending:
        # cheapest variable first: smallest pivot degree, then fewest users
        def cost(v: str) -> Tuple[int, int, str]:
            degs = [g.degree_in(v) for g in work if g.degree_in(v) > 0]
            if not degs:
                return (0, 0, v)
            return (min(degs), len(degs), v)

        pending.sort(key=cost)
        var = pending.pop(0)
        touching = [g for g in work if g.degree_in(var) > 0]
        rest = [g for g in work if g.degree_in(var) == 0]
        if not touching:
            continue
        pivot = min(
            touching,
            key=lambda g: (g.degree_in(var), len(dict(g.terms())), sorted(g.terms())),
        )
        new: List[Poly] = []
        for g in touching:
            if g is pivot:
                continue
            r = resultant(pivot, g, var)
            if r.is_zero():
                notes.append(f"dropped a zero resultant while eliminating {var}")
                continue
            if not r.support_vars():
                return None, True
            r = _unit_normalize(r)
            if r.total_degree() > _DEGREE_CAP or len(dict(r.terms())) > _TERM_CAP:
                raise OracleBudgetExceeded(
                    f"projection past {var} exceeds the degree/term budget"
                )
            new.append(r)
        work = list(dict.fromkeys(rest + new))
        if not work:
            return None, False
    univariates = [g for g in work if g.support_vars() == (target,)]
    if not univariates:
        return None, False
    acc = univariates[0]
    for g in univariates[1:]:
        acc = _gcd(acc, g)
        if not acc.support_vars():
            return None, False  # projections only share a trivial consequence
    return acc, False


def bruteforce_family_oracle(
    entry: EquivalenceEntry,
    assignments: Mapping[str, Union[str, int, Fraction]],
    keep: Optional[str] = None,
) -> OracleReport:
    """Rediscover one-parameter relations by resultant elimination.

    After fixing the given parameters to rationals, the derived system is
    projected onto each remaining parameter (or just `keep`) through
    successive Sylvester resultants; every resultant stays inside the
    ideal, so the surviving univariate is a true consequence.  Its
    squarefree part is the candidate relation, re-checked by reducing the
    substituted system modulo the candidate: a generator collapsing to a
    nonzero constant refutes it, and all generators vanishing means the
    candidate alone already satisfies the system.  No Groebner basis is
    computed, which is the point of the cross-check; the squarefree part
    and the candidate check divide by one univariate at a time through the
    shared kernel (`_groebner.normal_form` and `_groebner.reducer`).
    """
    cs = derive_constraints(entry, build_8x8(entry.six()))
    amap = {k: parse_poly(str(v), entry.vt) for k, v in assignments.items()}
    fixed = tuple(sorted((k, str(v)) for k, v in assignments.items()))
    base: List[Poly] = []
    for g in cs.generators:
        s = g.substitute(amap) if amap else g
        if s.is_zero():
            continue
        if not s.support_vars():
            return OracleReport(entry.id, fixed, (), True, ("a fixed parameter choice contradicts the system",))
        base.append(s)
    remaining = [
        p
        for p in entry.parameters
        if p not in assignments and any(g.degree_in(p) > 0 for g in base)
    ]
    if keep is not None and keep not in remaining:
        return OracleReport(
            entry.id, fixed, (), False, (f"{keep} is already absent from the system",)
        )
    targets = [keep] if keep is not None else remaining
    notes: List[str] = []
    candidates: List[CandidateRelation] = []
    for target in targets:
        others = [v for v in remaining if v != target]
        try:
            proj, inconsistent = _project_onto(base, target, others, notes)
        except OracleBudgetExceeded as exc:
            notes.append(f"{target}: {exc}")
            continue
        if inconsistent:
            return OracleReport(entry.id, fixed, (), True, tuple(notes))
        if proj is None:
            notes.append(f"{target}: no univariate consequence survived")
            continue
        candidate = _unit_normalize(_squarefree_part(proj, target))
        residues = [r for r in map(reducer([candidate]), base) if not r.is_zero()]
        refuted = any(not r.support_vars() for r in residues)
        candidates.append(CandidateRelation(target, candidate, refuted, not residues))
    return OracleReport(entry.id, fixed, tuple(candidates), False, tuple(notes))
