"""Shared fixtures."""

from __future__ import annotations

import sys

import pytest

from orbimf.catalog import load_catalog
from orbimf.constraints import EntryWork, QdimMatch
from orbimf.polyring import Poly


def sympy_expand(text: str, names, defs=()):
    """`text` read by sympy, `^` as `**`, and expanded; each (name, text)
    in `defs` stands for its own expansion, made in order."""
    import sympy

    local = {n: sympy.Symbol(n) for n in names}
    for name, body in defs:
        local[name] = sympy.expand(sympy.parse_expr(body.replace("^", "**"), local_dict=local))
    return sympy.expand(sympy.parse_expr(text.replace("^", "**"), local_dict=local))


def as_sympy(p: Poly):
    """The sympy expression of a Poly, term by term."""
    import sympy

    syms = [sympy.Symbol(n) for n in p.vt.names]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(syms, m)))
        for m, c in p.terms()
    ))


def same_as_sympy(p: Poly, text: str, defs=()) -> bool:
    """Does `p` equal the sympy expansion of `text` over its table?"""
    import sympy

    return sympy.expand(as_sympy(p) - sympy_expand(text, p.vt.names, defs)) == 0


def uni_divides(d: Poly, p: Poly, name: str) -> bool:
    """Does the univariate d divide the univariate p exactly?  Decided by
    sympy, so the oracle's own division is not its judge."""
    import sympy

    return sympy.rem(as_sympy(p), as_sympy(d), sympy.Symbol(name)) == 0


def qdim_passes(match: QdimMatch, allow_unit: bool = False) -> bool:
    """The printed quantum dimension is reproduced: exactly, modulo the
    ideal, or, when allowed, up to a unit."""
    if match.status in ("exact", "exact_mod_ideal"):
        return True
    return allow_unit and match.status == "unit_multiple"


@pytest.fixture(scope="session")
def shipped_work():
    """`shipped_work(entry_id)` returns one `EntryWork` per shipped entry,
    shared by every untimed test that reads the same per-entry facts."""
    catalog = load_catalog()
    works = {}

    def get(entry_id):
        if entry_id not in works:
            works[entry_id] = EntryWork(catalog[entry_id])
        return works[entry_id]

    return get


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(module, name)` returns a list that receives the
    positional arguments of every call to `module.name`, made through any
    orbimf module global bound to it, for the rest of the test.  When
    `module` is a class, its method `name` is counted instead."""

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        if isinstance(module, type):
            monkeypatch.setattr(module, name, counted)
            return calls
        for mod in list(sys.modules.values()):
            owned = getattr(mod, "__name__", "").partition(".")[0] == "orbimf"
            if owned and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install
