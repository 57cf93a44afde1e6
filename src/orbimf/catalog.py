"""Machine-readable catalog: potential pairs, generating entries,
printed constraint systems, quantum-dimension formulas, and solution
families, with a one-pass loader.

Each equivalence lives in one JSON file.  Polynomial values are grammar
strings (see polyring).  A side record names its potential in the shared
potentials table, gives the renaming from table variables to the entry's
variables, and fixes the variable order used for derivatives (the order
is normative for quantum dimensions; the renaming is not).

`load_entry` is the only code that reads an entry, in one pass: it
converts every JSON value under its record's name, parses every text
once (defs, the six entries, both potentials straight into the entry's
table, the printed constraints and quantum dimensions), builds each
family's quotient ring with `family_ring`, and then checks what only the
parsed values show.  A value of the wrong JSON type, a text or family
that fails and a failed check are each a CatalogError naming the file
and what is at fault.  An `EquivalenceEntry` keeps the parsed values
and, of the texts, only the six entries'; verification parses nothing.

Named abbreviations in "defs" expand sequentially: each is parsed once,
with the earlier ones standing for their expansions, so it may refer
only to earlier ones and cycles cannot form.  "corrections" records
carry the full printed text of an entry next to the text actually
shipped; the test suite re-validates every correction against the
squaring condition.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .grading import GradingError, WeightSystem
from .matfac import ENTRY_NAMES
from .numberfield import NumberFieldError, QuotientSpec
from .polyring import ParseError, Poly, PolyError, VarTable, parse_poly

# the packaged catalog; `default_catalog_dir` needs a real directory
_PACKAGED = Path(__file__).with_name("data")

SCHEMA_KEYS = (
    "id",
    "ring_vars_in",
    "ring_vars_out",
    "parameters",
    "defs",
    "entries",
    "paper_constraints",
    "paper_qdim_left",
    "paper_qdim_right",
    "families",
    "corrections",
)


class CatalogError(ValueError):
    pass


class SidePotential(NamedTuple):
    potential_key: str
    poly_text: str
    weight_system: WeightSystem
    vars: Tuple[str, ...]  # derivative order, in entry variables
    renaming: Dict[str, str]  # table variable -> entry variable


class SolutionFamily(NamedTuple):
    label: str
    generators: Tuple[Tuple[str, str], ...]  # (name, minimal polynomial text)
    bindings: Dict[str, str]  # parameter -> expression in generators/frees
    free: Tuple[str, ...]
    free_defaults: Dict[str, str]
    root_choice: Dict[str, Sequence[str]]  # generator -> [real, imaginary] decimal texts

    def default_value(self, name: str) -> Fraction:
        return Fraction(self.free_defaults.get(name, "0"))


class FamilyRing(NamedTuple):
    spec: QuotientSpec
    bindings: Dict[str, Poly]  # bound and free parameters, frees map to themselves


def family_ring(family: SolutionFamily) -> FamilyRing:
    """The quotient ring of `family` over its generators and free
    parameters, and its bindings in that ring; CatalogError if a text
    does not parse or `QuotientSpec` rejects the generators."""
    gen_names = tuple(g for g, _ in family.generators)
    names = gen_names + tuple(v for v in family.free if v not in gen_names)
    where = f"family {family.label!r}"
    try:
        qvt = VarTable(names, param_vars=names)
        mps = tuple(_parse(t, qvt, f"{where}: minimal polynomial of {g}") for g, t in family.generators)
        bindings = {p: _parse(t, qvt, f"{where}: binding of {p}") for p, t in family.bindings.items()}
        bindings.update((v, Poly.var(qvt, v)) for v in family.free)
        return FamilyRing(QuotientSpec(qvt, gen_names, mps), bindings)
    except (PolyError, NumberFieldError) as exc:
        raise CatalogError(f"{where}: {exc}") from None


class Correction(NamedTuple):
    location: str
    printed: str
    corrected: str
    justification: str


class EquivalenceEntry(NamedTuple):
    id: str
    side_in: SidePotential
    side_out: SidePotential
    parameters: Tuple[str, ...]
    entry_texts: Dict[str, str]  # the --jobs scheduler weighs entries by them
    families: Tuple[SolutionFamily, ...]
    corrections: Tuple[Correction, ...]
    vt: VarTable
    six_polys: Tuple[Poly, ...]  # in ENTRY_NAMES order, defs expanded
    potentials: Tuple[Poly, Poly]  # in, out; renamed onto vt
    paper_constraint_polys: Tuple[Poly, ...]
    paper_qdim_polys: Dict[str, Poly]  # "left", "right"
    family_rings: Tuple[FamilyRing, ...]  # in `families` order

    def six(self) -> Tuple[Poly, ...]:
        return self.six_polys

    def potential_in(self) -> Poly:
        return self.potentials[0]

    def potential_out(self) -> Poly:
        return self.potentials[1]

    def difference(self) -> Poly:
        return self.potential_out() - self.potential_in()

    def paper_constraints(self) -> Tuple[Poly, ...]:
        return self.paper_constraint_polys

    def paper_qdim(self, side: str) -> Poly:
        return self.paper_qdim_polys[side]


def _parse(text: str, vt: VarTable, what: str, **parse_args) -> Poly:
    if not isinstance(text, str):
        raise CatalogError(f"{what} is not a string: {text!r}")
    try:
        return parse_poly(text, vt, **parse_args)
    except ParseError as exc:
        raise CatalogError(f"{what} does not parse: {exc}") from None


def _name(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not an object")
    return value


def _names(values) -> Tuple[str, ...]:
    return tuple(map(_name, _list(values)))


def _load_potentials_table(directory: Optional[Path] = None) -> Dict[str, dict]:
    # A potentials.json sitting next to the entry files overrides the
    # packaged table, so self-contained catalogs work from any directory.
    local = Path(directory or _PACKAGED) / "potentials.json"
    return _read_json(local if local.is_file() else _PACKAGED / "potentials.json")


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{path}: invalid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # unreadable, or not UTF-8 text
        raise CatalogError(f"{path}: cannot read: {exc}") from None


def _side_from_json(obj: dict, potentials: Mapping[str, dict]) -> SidePotential:
    """A side record; KeyError, TypeError or ValueError if malformed."""
    pk, side_vars, renaming = obj["potential"], _names(obj["vars"]), _object(obj["renaming"])
    if pk not in potentials:
        raise ValueError(f"unknown potential {pk!r}")
    meta = potentials[pk]
    try:
        table_vars, poly_text = _names(meta["vars"]), meta["poly"]
        weight_system = WeightSystem(*meta["weight_system"])
    except KeyError as exc:
        raise ValueError(f"potential {pk} lacks key {exc}") from None
    except (TypeError, GradingError) as exc:
        raise ValueError(f"potential {pk}: {exc}") from None
    if set(renaming) != set(table_vars):
        raise ValueError(f"renaming keys must be exactly {table_vars}")
    targets = _names([renaming[v] for v in table_vars])
    if len(set(targets)) != len(targets):
        raise ValueError("renaming is not injective")
    if set(side_vars) != set(targets):
        raise ValueError(f"derivative order {side_vars} must list the renamed variables {sorted(targets)}")
    return SidePotential(pk, poly_text, weight_system, side_vars, renaming)


def load_entry(path: Path, potentials: Optional[Mapping[str, dict]] = None) -> EquivalenceEntry:
    """One entry file, converted, parsed and checked in one pass; any
    fault is a CatalogError naming the file and the record, text or
    family at fault.  `potentials` defaults to the table that serves the
    file's directory."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise CatalogError(f"{path}: the top-level value is not a JSON object")
    extra = set(data) - set(SCHEMA_KEYS)
    missing = set(SCHEMA_KEYS) - set(data)
    if extra or missing:
        raise CatalogError(f"{path}: schema keys off (extra {sorted(extra)}, missing {sorted(missing)})")
    if potentials is None:
        potentials = _load_potentials_table(Path(path).parent)
    families: List[SolutionFamily] = []
    corrections: List[Correction] = []
    record = "id"
    try:
        entry_id = _name(data["id"])
        record = "ring_vars_in"
        side_in = _side_from_json(data["ring_vars_in"], potentials)
        record = "ring_vars_out"
        side_out = _side_from_json(data["ring_vars_out"], potentials)
        record = "parameters"
        parameters = _names(data["parameters"])
        record = "paper_constraints"
        paper_constraints = tuple(_list(data["paper_constraints"]))
        record = "defs"
        defs = tuple(_object(data["defs"]).items())
        record = "entries"
        entries = _object(data["entries"])
        record = "families"
        for i, f in enumerate(_list(data["families"])):
            record = f"families[{i}]"
            families.append(SolutionFamily(
                label=_name(f["label"]),
                generators=tuple((_name(name), text) for name, text in map(_list, _list(f["generators"]))),
                bindings=_object(f["bindings"]),
                free=_names(f["free"]),
                free_defaults=_object(f.get("free_defaults", {})),
                root_choice=_object(f.get("root_choice", {})),
            ))
        record = "corrections"
        for i, c in enumerate(_list(data["corrections"])):
            record = f"corrections[{i}]"
            corrections.append(Correction(*(_name(c[k]) for k in Correction._fields)))
    except KeyError as exc:
        raise CatalogError(f"{path}: {record} lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CatalogError(f"{path}: {record} is malformed: {exc}") from None
    overlap = set(side_in.vars) & set(side_out.vars)
    if overlap:
        raise CatalogError(f"{path}: sides share variables {sorted(overlap)}")
    ring = side_in.vars + side_out.vars
    clash = set(ring) & set(parameters)
    if clash:
        raise CatalogError(f"{path}: names used as both ring variable and parameter: {sorted(clash)}")
    shadowing = [k for k, _ in defs if k in ring + parameters]
    if shadowing:
        raise CatalogError(f"{path}: defs named like a variable or parameter: {shadowing}")
    if set(entries) != set(ENTRY_NAMES):
        raise CatalogError(f"{path}: entries must be exactly {ENTRY_NAMES}")
    qdim_texts = {"left": data["paper_qdim_left"], "right": data["paper_qdim_right"]}
    try:
        vt = VarTable(ring + parameters, ring_vars=ring, param_vars=parameters)
        def_polys: Dict[str, Poly] = {}
        for name, text in defs:
            def_polys[name] = _parse(text, vt, f"def {name}", defs=def_polys)
        six = tuple(_parse(entries[k], vt, f"entry {k}", defs=def_polys) for k in ENTRY_NAMES)
        potential_polys = tuple(
            _parse(s.poly_text, vt, f"potential {s.potential_key}", rename=s.renaming) for s in (side_in, side_out)
        )
        constraints = tuple(_parse(t, vt, f"constraint {t!r}") for t in paper_constraints)
        qdims = {side: _parse(t, vt, f"paper qdim_{side}") for side, t in qdim_texts.items()}
        rings = tuple(map(family_ring, families))
    except ValueError as exc:
        raise CatalogError(f"{path}: {exc}") from None
    problems: List[str] = []
    printed = [(f"constraint {t!r}", p) for t, p in zip(paper_constraints, constraints)]
    for what, p in printed + [(f"paper qdim_{side}", p) for side, p in qdims.items()]:
        bad = [v for v in p.support_vars() if v not in parameters]
        if bad:
            problems.append(f"{what} uses non-parameters {bad}")
    for fam in families:
        for name, value in fam.free_defaults.items():
            if name not in fam.free or not (isinstance(value, str) and _is_rational(value)):
                problems.append(f"family {fam.label!r}: free_defaults {name}={value!r} "
                                "needs a free parameter and a rational in a string")
        for g, z in fam.root_choice.items():
            texts = z if isinstance(z, (list, tuple)) and len(z) == 2 else ()
            if g not in dict(fam.generators) or not texts or not all(isinstance(t, str) and _is_rational(t) for t in texts):
                problems.append(f"family {fam.label!r}: root_choice {g}={z!r} needs a generator and two decimal strings")
        bound = set(fam.bindings) | set(fam.free)
        if bound != set(parameters):
            problems.append(
                f"family {fam.label!r}: bindings+free must cover parameters exactly "
                f"(got {sorted(bound)})"
            )
        if set(fam.bindings) & set(fam.free):
            problems.append(f"family {fam.label!r}: a parameter is both bound and free")
    shipped = dict(entries)
    shipped.update((f"paper_constraints[{i}]", t) for i, t in enumerate(paper_constraints))
    for corr in corrections:
        if corr.location not in shipped:
            problems.append(f"correction at unknown location {corr.location!r}")
        elif corr.corrected != shipped[corr.location]:
            problems.append(f"correction at {corr.location}: 'corrected' text differs from the shipped text")
    if problems:
        raise CatalogError(f"{path}: " + "; ".join(problems))
    return EquivalenceEntry(
        entry_id, side_in, side_out, parameters, entries, tuple(families), tuple(corrections),
        vt, six, potential_polys, constraints, qdims, rings,
    )


def _is_rational(value) -> bool:
    try:
        Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    return True


def default_catalog_dir() -> Path:
    env = os.environ.get("ORBIMF_CATALOG")
    if env:
        return Path(env)
    return _PACKAGED


def load_catalog(directory: Optional[Path] = None) -> Dict[str, EquivalenceEntry]:
    base = Path(directory) if directory else default_catalog_dir()
    potentials = _load_potentials_table(base)
    out: Dict[str, EquivalenceEntry] = {}
    for path in sorted(base.glob("*.json")):
        if path.name == "potentials.json":
            continue
        entry = load_entry(path, potentials)
        if entry.id in out:
            raise CatalogError(f"duplicate entry id {entry.id}")
        out[entry.id] = entry
    if not out:
        raise CatalogError(f"no catalog entries found under {base}")
    return out


def resolve_entry(catalog: Mapping[str, EquivalenceEntry], alias: str) -> EquivalenceEntry:
    """Exact id, prefix, or separator-insensitive substring match."""
    if alias in catalog:
        return catalog[alias]
    def squash(s: str) -> str:
        return "".join(ch for ch in s.lower() if ch.isalnum())
    hits = [k for k in catalog if k.lower().startswith(alias.lower())]
    if not hits:
        hits = [k for k in catalog if squash(alias) in squash(k)]
    if not hits:
        raise CatalogError(f"no catalog entry matches {alias!r} (have {sorted(catalog)})")
    if len(hits) > 1:
        raise CatalogError(f"{alias!r} is ambiguous: {sorted(hits)}")
    return catalog[hits[0]]
