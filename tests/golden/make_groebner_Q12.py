"""Write groebner_Q12v1_Q12v2.json: the reduced Groebner basis of the full
Q12 derived constraint ideal, computed by `sympy.groebner` (grevlex over
the parameters in catalog order, rational coefficients), never by
`orbimf._groebner`.

The generators come from `orbimf.constraints.derive_constraints`, which
uses only polynomial arithmetic.  Each basis element is written monic,
in the orbimf grammar, and the list is sorted by lead monomial, smallest
first, which is the order `groebner_basis` returns.  The run takes about
two and a half minutes on a 2-CPU Intel Xeon.

    PYTHONPATH=src python3 tests/golden/make_groebner_Q12.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import sympy

from orbimf.catalog import load_catalog
from orbimf.constraints import EntryWork
from orbimf.polyring import Poly, degrevlex_key, format_poly

ENTRY_ID = "Q12v1_Q12v2"
OUT = Path(__file__).with_name(f"groebner_{ENTRY_ID}.json")


def main() -> None:
    entry = load_catalog()[ENTRY_ID]
    gens = EntryWork(entry).derived.generators
    params = entry.parameters
    syms = sympy.symbols(params)
    local = dict(zip(params, syms))
    exprs = [sympy.sympify(format_poly(g).replace("^", "**"), locals=local) for g in gens]
    basis = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    # parameters follow the ring variables in the entry's table
    offset = len(entry.vt) - len(params)
    polys = []
    for q in basis.polys:
        q = q.quo_ground(q.LC(order="grevlex"))
        terms = {
            (0,) * offset + tuple(m): Fraction(int(c.p), int(c.q)) for m, c in q.terms()
        }
        polys.append(Poly(entry.vt, terms))
    polys.sort(key=lambda p: degrevlex_key(p.leading_monomial()))
    payload = {
        "entry": ENTRY_ID,
        "generators": [format_poly(g) for g in gens],
        "basis": [format_poly(p) for p in polys],
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
