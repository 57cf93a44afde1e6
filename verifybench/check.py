"""Correctness checks on the reports of every verify call; none of this is timed.

* Stage verdicts match the known answers: every gate passes, except the
  `nonvanishing` gate of `W13v1_W13v2`, whose computed quantum
  dimensions vanish on every shipped family.  That failure is expected.
* Derived constraints equal `tests/golden/constraints_<id>.json`; a
  Q12 slice's equal the Q12 golden with the same parameter fixed.
* The `qdim_match` section (the computed quantum dimensions and how
  each printed formula matched them) equals the one stored in
  `reference/qdim_match.json` by reference.py at the commit that added
  the benchmark.  The gates alone would miss a wrong but nonzero
  quantum dimension: `nonvanishing` passes whenever it is nonzero.
* Every Groebner basis returned while verifying a slice equals the
  reduced grevlex basis from `sympy.groebner`, an implementation that
  shares no code with `orbimf._groebner`.  reference.py stored those
  bases in `reference/groebner/`, so a run needs no sympy.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import workloads

STAGES = ("grading", "constraints", "potential", "ideal-compare", "families", "nonvanishing")
EXPECTED_FAILS = {("W13v1_W13v2", "nonvanishing")}


def expected_verdicts(entry_id: str) -> Dict[str, bool]:
    return {s: (entry_id, s) not in EXPECTED_FAILS for s in STAGES}


def _golden(root: Path, entry_id: str) -> dict:
    return json.loads((root / "tests" / "golden" / f"constraints_{entry_id}.json").read_text())


def reference_constraints(root: Path, entry, fixed: Optional[tuple] = None) -> dict:
    """Golden epsilon and generator texts for an entry; `fixed` is the
    (parameter, value) pair a Q12 slice was made with."""
    if fixed is None:
        golden = _golden(root, entry.id)
        return {"epsilon": golden["epsilon"], "generators": golden["generators"]}
    from orbimf import constraints as con
    from orbimf.polyring import parse_poly

    golden = _golden(root, workloads.Q12_ID)
    name, value = fixed
    polys = [parse_poly(workloads.specialize_text(t, name, value), entry.vt) for t in golden["generators"]]
    texts = list(con.ConstraintSet.from_polys(polys, "derived").texts())
    return {"epsilon": golden["epsilon"], "generators": texts}


REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
QDIM_REFERENCE = REFERENCE_DIR / "qdim_match.json"


def qdim_reference(report: dict) -> dict:
    """The checked part of a report's `qdim_match`: all but its seconds."""
    return {k: v for k, v in report["qdim_match"].items() if k != "seconds"}


def load_qdim_references() -> Dict[str, dict]:
    return json.loads(QDIM_REFERENCE.read_text())


def check_reports(reports: Sequence[dict], entries: Dict[str, object], refs: Dict[str, dict]) -> List[str]:
    """Mismatches between one call's reports and the references."""
    problems: List[str] = []
    got = {r["entry"]: r for r in reports}
    if set(got) != set(entries):
        problems.append(f"entries reported {sorted(got)} != expected {sorted(entries)}")
    for entry_id in sorted(set(got) & set(entries)):
        rep = got[entry_id]
        verdicts = {s: rep["stages"].get(s, {}).get("ok") for s in STAGES}
        if verdicts != expected_verdicts(entry_id):
            problems.append(f"{entry_id}: stage verdicts {verdicts}")
        ref = refs[entry_id]
        if rep.get("epsilon") != ref["epsilon"]:
            problems.append(f"{entry_id}: epsilon {rep.get('epsilon')} != {ref['epsilon']}")
        derived = rep["stages"].get("constraints", {}).get("detail", {}).get("generators")
        if derived != ref["generators"]:
            problems.append(f"{entry_id}: derived constraints differ from the golden")
        if ref["qdim"] is None:
            problems.append(f"{entry_id}: no stored qdim_match reference")
        elif "qdim_match" not in rep or qdim_reference(rep) != ref["qdim"]:
            problems.append(f"{entry_id}: qdim_match differs from the stored reference")
    return problems


# -- independent Groebner oracle ----------------------------------------


def _monic_terms(terms: Dict[tuple, Fraction]) -> frozenset:
    lead = max(terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))
    lc = terms[lead]
    return frozenset((m, c / lc) for m, c in terms.items())


def basis_fingerprint(basis, params: Sequence[str]) -> frozenset:
    """An orbimf basis as a set of monic term sets over the parameters."""
    out = set()
    for g in basis:
        idx = [g.vt.index(p) for p in params]
        terms = {tuple(m[i] for i in idx): c for m, c in g.terms()}
        out.add(_monic_terms(terms))
    return frozenset(out)


def sympy_basis(generator_texts: Sequence[str], params: Sequence[str]) -> List[Dict[str, str]]:
    """Reduced grevlex basis from sympy, as JSON-ready term maps."""
    import sympy

    syms = sympy.symbols(list(params))
    local = dict(zip(params, syms))
    exprs = [sympy.sympify(t.replace("^", "**"), locals=local) for t in generator_texts]
    basis = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    out = []
    for poly in basis.polys:
        out.append({",".join(map(str, m)): str(c) for m, c in poly.terms()})
    return out


def oracle_fingerprint(stored: List[Dict[str, str]]) -> frozenset:
    out = set()
    for terms in stored:
        parsed = {tuple(int(e) for e in m.split(",")): Fraction(c) for m, c in terms.items()}
        out.add(_monic_terms(parsed))
    return frozenset(out)


def oracle_path(name: str, value: Fraction) -> Path:
    return REFERENCE_DIR / "groebner" / f"{name}_{value.numerator}_{value.denominator}.json"


def write_oracle(name: str, value: Fraction, generator_texts: Sequence[str], params: Sequence[str]) -> None:
    """Store the sympy basis of the slice with `name` fixed to `value`."""
    path = oracle_path(name, value)
    path.parent.mkdir(parents=True, exist_ok=True)
    basis = sympy_basis(generator_texts, params)
    path.write_text(json.dumps({"generators": list(generator_texts), "params": list(params), "basis": basis}) + "\n")


def stored_oracle(name: str, value: Fraction, generator_texts: Sequence[str], params: Sequence[str]):
    """The stored sympy basis for these generators, or None when none was
    stored for exactly these generators and parameters."""
    path = oracle_path(name, value)
    if not path.is_file():
        return None
    stored = json.loads(path.read_text())
    if stored["generators"] != list(generator_texts) or stored["params"] != list(params):
        return None
    return oracle_fingerprint(stored["basis"])
