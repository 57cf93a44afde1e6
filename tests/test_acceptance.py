"""Acceptance gate: the nine catalog-wide checks, one line of verdict each.

Each test prints `criterion N [name]: PASS|FAIL` before asserting, so the
verdict line survives in the captured output either way.  Two criteria
fail by design of the shipped data, not by implementation gaps: the
printed closed-form quantum dimensions mostly do not match the computed
invariants (criterion 3), and the computed invariants vanish identically
on every shipped W13 family while the printed exclusion rules are not
reproduced by the computed channel (criterion 5).  The decision record
that accompanies the repository walks through both.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from orbimf import constraints as con
from orbimf.catalog import SolutionFamily, load_catalog
from orbimf.grading import (
    central_charge,
    check_weight_system,
    euler_check,
    weights_from_potential,
    WeightSystem,
)
from orbimf.matfac import build_8x8, generator_degrees, grading_check, square, verify_potential
from orbimf.numberfield import QuotientSpec, reduce
from orbimf.polyring import Poly, VarTable, format_poly, parse_poly
from orbimf.residue import cofactor_lift, grothendieck_residue

from conftest import qdim_passes, uni_divides

ENTRY_IDS = (
    "E14v1_E14v2",
    "Q12v1_Q12v2",
    "U12v1_U12v3",
    "U12v2_U12v3",
    "W12v1_W12v2",
    "W13v1_W13v2",
    "Z13v1_Z13v2",
)


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def _verdict(num: int, name: str, issues: list, notes: list | None = None) -> None:
    status = "PASS" if not issues else "FAIL"
    print(f"criterion {num} [{name}]: {status}")
    for line in notes or []:
        print(f"    note: {line}")
    for line in issues:
        print(f"    issue: {line}")
    assert not issues, f"criterion {num} [{name}]: " + "; ".join(issues)


def test_criterion_1_squaring_identity(catalog):
    issues = []
    notes = []
    for eid in ENTRY_IDS:
        entry = catalog[eid]
        t0 = time.perf_counter()
        work = con.EntryWork(entry)
        sq = square(work.m)
        report = verify_potential(lambda: work.is_unit(work.derived), work.derived.epsilon)
        elapsed = time.perf_counter() - t0
        notes.append(f"{eid}: {elapsed:.1f}s of 60s")
        if any(not sq[i][j].is_zero() for i in range(8) for j in range(8) if i != j):
            issues.append(f"{eid}: off-diagonal cells are not exactly zero")
        if not report.ok:
            issues.append(f"{eid}: {report.message()}")
        elif report.epsilon != 1:
            issues.append(f"{eid}: sign is {report.epsilon:+d}, want +1")
        if elapsed > 60:
            issues.append(f"{eid}: took {elapsed:.1f}s > 60s")
    _verdict(1, "squaring identity", issues, notes)


def test_criterion_2_constraint_containment(catalog):
    issues = []
    t0 = time.perf_counter()
    for eid in ENTRY_IDS:
        work = con.EntryWork(catalog[eid])
        derived = work.derived
        printed = work.printed
        cmp_ = con.ideal_compare(work, printed, derived)
        if not cmp_.a_in_b:
            issues.append(f"{eid}: a printed constraint falls outside the derived ideal")
            continue
        if eid == "W12v1_W12v2":
            # the printed system already solved the linear parameter a2
            # away; equality is checked in the smaller ring
            reduced, _ = con.eliminate_linear(derived, "a2")
            if not con.ideal_compare(work, printed, reduced).equal:
                issues.append(f"{eid}: not equal even after eliminating a2")
        elif not cmp_.b_in_a:
            issues.append(f"{eid}: derived ideal is strictly larger than the printed one")
    total = time.perf_counter() - t0
    if total > 300:
        issues.append(f"whole comparison took {total:.0f}s > 300s")
    _verdict(2, "printed constraints generate the derived ideal", issues,
             [f"all seven compared two-way in {total:.1f}s"])


def test_criterion_3_printed_qdim_formulas(catalog):
    allow_unit = {"U12v1_U12v3", "U12v2_U12v3"}
    issues = []
    notes = []
    for eid in ENTRY_IDS:
        entry = catalog[eid]
        t0 = time.perf_counter()
        cq = con.compare_qdims(con.EntryWork(entry))
        elapsed = time.perf_counter() - t0
        for side, match in (("left", cq["left"]), ("right", cq["right"])):
            if qdim_passes(match, allow_unit=eid in allow_unit):
                if match.status == "unit_multiple":
                    notes.append(f"{eid} {side}: unit {match.scalar} against computed {match.matched_side}")
                continue
            if match.status == "unit_multiple":
                issues.append(
                    f"{eid} {side}: only matches computed {match.matched_side} up to "
                    f"{match.scalar}{' modulo the ideal' if match.mod_ideal else ''}"
                )
            else:
                issues.append(f"{eid} {side}: printed formula matches neither computed invariant")
        if elapsed > 120:
            issues.append(f"{eid}: took {elapsed:.1f}s > 120s")
    _verdict(3, "printed quantum-dimension formulas", issues, notes)


def test_criterion_4_families_satisfy_constraints(catalog):
    issues = []
    labels = []
    for eid in ENTRY_IDS:
        entry = catalog[eid]
        for fam in entry.families:
            t0 = time.perf_counter()
            report = con.verify_family(con.EntryWork(entry), fam)
            elapsed = time.perf_counter() - t0
            labels.append(fam.label)
            if not report.ok:
                issues.append(f"{eid} / {fam.label}: {report.failures[:1]}")
            if elapsed > 10:
                issues.append(f"{eid} / {fam.label}: took {elapsed:.1f}s > 10s")
    required = {
        "E14 Family 1",
        "E14 Family 2",
        "W12 Family 1",
        "W12 Family 2",
        "U12 v2v3 family a2=0",
        "U12 v2v3 family b2=0",
        "U12 v2v3 family a2=b2",
        "U12 v1v3 cube-root-of-unity solutions",
        "W13 reduced relation t^8+4",
        "Z13 t^18 solutions",
    }
    missing = required - set(labels)
    if missing:
        issues.append(f"families absent from the catalog: {sorted(missing)}")
    _verdict(4, "solution families reduce the constraints to zero", issues,
             [f"{len(labels)} families checked"])


W12_DISCARDED = SolutionFamily(
    label="W12 discarded a1=b1=0",
    generators=(("b2", "b2^4 + 4"),),
    bindings={"a1": "0", "b1": "0", "a2": "1/2*b2^2", "b2": "b2"},
    free=(),
    free_defaults={},
    root_choice={"b2": ("1", "1")},
)


def test_criterion_5_nonvanishing_and_exclusions(catalog):
    issues = []
    notes = []
    for eid in ENTRY_IDS:
        entry = catalog[eid]
        for fam in entry.families:
            for side in ("left", "right"):
                t0 = time.perf_counter()
                nv = con.nonvanishing_check(con.EntryWork(entry), fam, side)
                elapsed = time.perf_counter() - t0
                if not nv.ok:
                    status = nv.computed.certificate.status if nv.computed.certificate else nv.computed.error
                    issues.append(f"{eid} / {fam.label} {side}: computed invariant is {status}")
                if not nv.agree:
                    notes.append(
                        f"{eid} / {fam.label} {side}: printed form evaluates to "
                        f"{nv.printed.value} while the computed invariant is {nv.computed.value}"
                    )
                if elapsed > 10:
                    issues.append(f"{eid} / {fam.label} {side}: took {elapsed:.1f}s > 10s")
    # discarded solutions must be zeros of the invariant that excluded them
    w12 = catalog["W12v1_W12v2"]
    nv = con.nonvanishing_check(con.EntryWork(w12), W12_DISCARDED, "left")
    if nv.printed.certificate.status != "zero":
        issues.append("W12 discarded point: printed left form unexpectedly nonzero")
    if not nv.excluded:
        issues.append(
            "W12 discarded a1=b1=0 point: computed invariant is "
            f"{nv.computed.value}, not zero; the printed discard rule is not reproduced"
        )
    e14 = catalog["E14v1_E14v2"]
    nv = con.nonvanishing_check(con.EntryWork(e14), e14.families[0], "left", point={"a3": "-4*c"})
    if nv.printed.certificate.status != "zero":
        issues.append("E14 avoided locus: printed left form unexpectedly nonzero")
    if not nv.excluded:
        issues.append(
            "E14 locus a3 - b3 + 4c = 0: computed invariant is "
            f"{nv.computed.value}, not zero; the printed avoidance rule is not reproduced"
        )
    _verdict(5, "certified nonzero at family points, zero at excluded ones", issues, notes)


def test_criterion_6_number_field_facts():
    issues = []
    vt = VarTable(("c",), param_vars=("c",))
    lhs = parse_poly("c^4 + 2*c^2 + 2", vt) * parse_poly("c^4 - 2*c^2 + 2", vt)
    if lhs != parse_poly("c^8 + 4", vt):
        issues.append("c^8 + 4 does not factor through the two Sophie Germain quartics")
    ivt = VarTable(("i",), param_vars=("i",))
    spec = QuotientSpec(ivt, ("i",), (parse_poly("i^2 + 1", ivt),))
    power = one_plus_i = reduce(parse_poly("1 + i", ivt), spec)
    for _ in range(3):
        power = reduce(power * one_plus_i, spec)
    if power != Poly.const(ivt, -4):
        issues.append(f"(1+i)^4 reduced to {format_poly(power)}, want -4")
    _verdict(6, "splitting identities behind the field choices", issues)


def test_criterion_7_grading_table(catalog):
    issues = []
    t0 = time.perf_counter()
    table = json.loads(resources.files("orbimf").joinpath("data/potentials.json").read_text())
    for key in sorted(table):
        obj = table[key]
        names = tuple(obj["vars"])
        vt = VarTable(names, ring_vars=names)
        w = parse_poly(obj["poly"], vt)
        vw = weights_from_potential(w, names)
        if not euler_check(w, vw):
            issues.append(f"{key}: Euler field does not reproduce the potential")
        if not check_weight_system(vw, WeightSystem(*obj["weight_system"])):
            issues.append(f"{key}: declared weight system does not match")
    for eid in ENTRY_IDS:
        entry = catalog[eid]
        charges = []
        for side, potential in (
            (entry.side_in, entry.potential_in()),
            (entry.side_out, entry.potential_out()),
        ):
            vw = weights_from_potential(potential, side.vars)
            cc = central_charge(vw)
            charges.append(cc)
            h = side.weight_system.h
            if cc != Fraction(h + 2, h):
                issues.append(f"{eid}/{side.potential_key}: charge {cc} != (h+2)/h")
        if charges[0] != charges[1]:
            issues.append(f"{eid}: central charges differ across the pair")
        vw_in = weights_from_potential(entry.potential_in(), entry.side_in.vars)
        vw_out = weights_from_potential(entry.potential_out(), entry.side_out.vars)
        m = build_8x8(entry.six())
        gr = grading_check(m, generator_degrees(m, vw_in.weights + vw_out.weights))
        if not gr.ok or set(gr.pair_sums.values()) != {Fraction(2)}:
            issues.append(f"{eid}: complementary entry degrees do not sum to 2")
    elapsed = time.perf_counter() - t0
    if elapsed > 5:
        issues.append(f"took {elapsed:.1f}s > 5s")
    _verdict(7, "gradings, Euler fields, central charges", issues)


def test_criterion_8_residues_are_lift_independent():
    picks = ("E12", "E13", "E14v1", "Q10", "Q12v1", "W13v1", "Z13v1")
    issues = []
    t0 = time.perf_counter()
    table = json.loads(resources.files("orbimf").joinpath("data/potentials.json").read_text())
    rng = random.Random(90125)
    for key in picks:
        obj = table[key]
        names = tuple(obj["vars"])
        vt = VarTable(names, ring_vars=names)
        w = parse_poly(obj["poly"], vt)
        lift1 = cofactor_lift(w, names)
        lift2 = cofactor_lift(w, names, exponents=tuple(n + 1 for n in lift1.exponents))
        if lift1.matrix == lift2.matrix:
            issues.append(f"{key}: the two lifts coincide, comparison is vacuous")
            continue
        for k in range(20):
            g = Poly.zero(vt)
            for _ in range(4):
                mono = {n: rng.randrange(0, 3) for n in names}
                text = "*".join(f"{n}^{e}" for n, e in mono.items() if e) or "1"
                g = g + parse_poly(text, vt).scale(rng.randrange(-9, 10) or 1)
            r1 = grothendieck_residue(g, w, names, lift=lift1)
            r2 = grothendieck_residue(g, w, names, lift=lift2)
            if r1 != r2:
                issues.append(f"{key}: numerator #{k} disagrees across lifts")
                break
    elapsed = time.perf_counter() - t0
    if elapsed > 30:
        issues.append(f"took {elapsed:.1f}s > 30s")
    _verdict(8, "residues agree across independent cofactor lifts", issues,
             [f"7 potentials x 2 lifts x 20 numerators in {elapsed:.1f}s"])


def test_criterion_9_oracle_rediscovers_relations(catalog, monkeypatch):
    def _forbidden(*_args, **_kwargs):
        raise AssertionError("the oracle must not reach for a Groebner basis")

    monkeypatch.setattr(con, "groebner_basis", _forbidden)
    issues = []
    t0 = time.perf_counter()

    rep = con.bruteforce_family_oracle(catalog["E14v1_E14v2"], {}, keep="c")
    if not rep.candidates or format_poly(rep.candidates[0].minimal_poly) != "c^8 + 4":
        issues.append("E14: c^8 + 4 not recovered")
    elif not rep.candidates[0].fully_satisfied:
        issues.append("E14: candidate does not satisfy the whole system")

    rep = con.bruteforce_family_oracle(
        catalog["W13v1_W13v2"], {"b": 0, "a2": 0, "a3": 1, "g": 0}, keep="d"
    )
    if not rep.candidates:
        issues.append("W13: no candidate for d survived")
    else:
        cand = rep.candidates[0].minimal_poly
        target = parse_poly("4*d^8 + 1", cand.vt)
        if not uni_divides(target, cand, "d"):
            issues.append("W13: reduced relation 4*d^8 + 1 is not a factor")

    rep = con.bruteforce_family_oracle(catalog["U12v2_U12v3"], {"a2": 0}, keep="b1")
    if not rep.candidates or format_poly(rep.candidates[0].minimal_poly) != "2*b1^3 - 1":
        issues.append("U12v2v3: 2*b1^3 - 1 not recovered")
    rep = con.bruteforce_family_oracle(catalog["U12v2_U12v3"], {"b2": 0}, keep="a1")
    if not rep.candidates or format_poly(rep.candidates[0].minimal_poly) != "2*a1^3 + 1":
        issues.append("U12v2v3: 2*a1^3 + 1 not recovered")

    elapsed = time.perf_counter() - t0
    if elapsed > 120:
        issues.append(f"took {elapsed:.1f}s > 120s")
    _verdict(9, "resultant oracle, no Buchberger steps", issues,
             [f"finished in {elapsed:.1f}s"])
