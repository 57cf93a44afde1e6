"""Machine-readable catalog: potential pairs, generating entries,
printed constraint systems, quantum-dimension formulas, and solution
families, with a validating loader.

Each equivalence lives in one JSON file.  Polynomial values are grammar
strings (see polyring).  A side record names its potential in the shared
potentials table, gives the renaming from table variables to the entry's
variables, and fixes the variable order used for derivatives (the order
is normative for quantum dimensions; the renaming is not).

The loader is the only code that turns catalog text into polynomials:
it parses every text of an entry once, potentials included, and builds
each family's quotient ring with `family_ring`; a text or family that
fails is a CatalogError naming it.  Verification parses nothing.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .grading import GradingError, WeightSystem
from .numberfield import NumberFieldError, QuotientSpec
from .polyring import ParseError, Poly, PolyError, VarTable, parse_poly

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

ENTRY_KEYS = ("d15", "d16", "d17", "d25", "d26", "d35")


class CatalogError(ValueError):
    pass


class SidePotential(NamedTuple):
    potential_key: str
    table_vars: Tuple[str, ...]
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


@dataclass(frozen=True)
class EquivalenceEntry:
    id: str
    side_in: SidePotential
    side_out: SidePotential
    parameters: Tuple[str, ...]
    defs: Tuple[Tuple[str, str], ...]
    entry_texts: Dict[str, str]
    paper_constraint_texts: Tuple[str, ...]
    paper_qdim_left_text: str
    paper_qdim_right_text: str
    families: Tuple[SolutionFamily, ...]
    corrections: Tuple[Correction, ...]
    vt: VarTable = field(compare=False)

    # -- parsed views ---------------------------------------------------
    # Each text is parsed once, by `validate` when the entry is loaded,
    # and every later read shares the result; a text that does not parse
    # raises CatalogError naming it.

    @cached_property
    def _six(self) -> Tuple[Poly, ...]:
        defs: Dict[str, Poly] = {}
        for name, text in self.defs:
            defs[name] = _parse(text, self.vt, f"def {name}", defs)
        return tuple(_parse(self.entry_texts[k], self.vt, f"entry {k}", defs) for k in ENTRY_KEYS)

    @cached_property
    def _printed(self) -> Tuple[Tuple[Poly, ...], Dict[str, Poly]]:
        """The printed constraints and quantum dimensions."""
        qdims = {"left": self.paper_qdim_left_text, "right": self.paper_qdim_right_text}
        return (
            tuple(_parse(t, self.vt, f"constraint {t!r}") for t in self.paper_constraint_texts),
            {side: _parse(t, self.vt, f"paper qdim_{side}") for side, t in qdims.items()},
        )

    @cached_property
    def _potentials(self) -> Tuple[Poly, Poly]:
        """Both sides' potentials, renamed onto the entry's table."""
        return tuple(
            _parse(s.poly_text, VarTable(s.table_vars), f"potential {s.potential_key}").convert(self.vt, s.renaming)
            for s in (self.side_in, self.side_out)
        )

    @cached_property
    def family_rings(self) -> Tuple[FamilyRing, ...]:
        """One quotient ring per shipped family, in `families` order."""
        return tuple(map(family_ring, self.families))

    def six(self) -> Tuple[Poly, ...]:
        return self._six

    def potential_in(self) -> Poly:
        return self._potentials[0]

    def potential_out(self) -> Poly:
        return self._potentials[1]

    def difference(self) -> Poly:
        return self.potential_out() - self.potential_in()

    def paper_constraints(self) -> Tuple[Poly, ...]:
        return self._printed[0]

    def paper_qdim(self, side: str) -> Poly:
        return self._printed[1][side]


def _parse(text: str, vt: VarTable, what: str, defs: Optional[Mapping[str, Poly]] = None) -> Poly:
    if not isinstance(text, str):
        raise CatalogError(f"{what} is not a string: {text!r}")
    try:
        return parse_poly(text, vt, defs)
    except ParseError as exc:
        raise CatalogError(f"{what} does not parse: {exc}") from None


def _load_potentials_table(directory: Optional[Path] = None) -> Dict[str, dict]:
    # A potentials.json sitting next to the entry files overrides the
    # packaged table, so self-contained catalogs work from any directory.
    if directory is not None:
        local = Path(directory) / "potentials.json"
        if local.is_file():
            return json.loads(local.read_text())
    text = resources.files("orbimf").joinpath("data/potentials.json").read_text()
    return json.loads(text)


def _side_from_json(obj: dict, potentials: Mapping[str, dict], where: str) -> SidePotential:
    for key in ("potential", "vars", "renaming"):
        if key not in obj:
            raise CatalogError(f"{where}: missing key {key!r}")
    pk = obj["potential"]
    if pk not in potentials:
        raise CatalogError(f"{where}: unknown potential {pk!r}")
    meta = potentials[pk]
    try:
        table_vars, poly_text = tuple(meta["vars"]), meta["poly"]
        weight_system = WeightSystem(*meta["weight_system"])
    except KeyError as exc:
        raise CatalogError(f"{where}: potential {pk} lacks key {exc}") from None
    except (TypeError, GradingError) as exc:
        raise CatalogError(f"{where}: potential {pk}: {exc}") from None
    renaming = dict(obj["renaming"])
    if set(renaming) != set(table_vars):
        raise CatalogError(f"{where}: renaming keys must be exactly {table_vars}")
    targets = tuple(renaming[v] for v in table_vars)
    if len(set(targets)) != len(targets):
        raise CatalogError(f"{where}: renaming is not injective")
    side_vars = tuple(obj["vars"])
    if set(side_vars) != set(targets):
        raise CatalogError(
            f"{where}: derivative order {side_vars} must list the renamed variables {sorted(targets)}"
        )
    return SidePotential(pk, table_vars, poly_text, weight_system, side_vars, renaming)


def load_entry(path: Path, potentials: Optional[Mapping[str, dict]] = None) -> EquivalenceEntry:
    """One entry file, validated; `potentials` defaults to the table
    that serves the file's directory."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{path}: invalid JSON: {exc}") from None
    extra = set(data) - set(SCHEMA_KEYS)
    missing = set(SCHEMA_KEYS) - set(data)
    if extra or missing:
        raise CatalogError(f"{path}: schema keys off (extra {sorted(extra)}, missing {sorted(missing)})")
    if potentials is None:
        potentials = _load_potentials_table(Path(path).parent)
    side_in = _side_from_json(data["ring_vars_in"], potentials, f"{path}:ring_vars_in")
    side_out = _side_from_json(data["ring_vars_out"], potentials, f"{path}:ring_vars_out")
    overlap = set(side_in.vars) & set(side_out.vars)
    if overlap:
        raise CatalogError(f"{path}: sides share variables {sorted(overlap)}")
    families: List[SolutionFamily] = []
    corrections: List[Correction] = []
    record = "parameters"
    try:
        parameters = tuple(data["parameters"])
        record = "paper_constraints"
        paper_constraints = tuple(data["paper_constraints"])
        record = "defs"
        defs = tuple(data["defs"].items())
        record = "entries"
        entries = dict(data["entries"])
        record = "families"
        for i, f in enumerate(data["families"]):
            record = f"families[{i}]"
            families.append(SolutionFamily(
                label=f["label"],
                generators=tuple((name, text) for name, text in f["generators"]),
                bindings=dict(f["bindings"]),
                free=tuple(f["free"]),
                free_defaults=dict(f.get("free_defaults", {})),
                root_choice=dict(f.get("root_choice", {})),
            ))
        record = "corrections"
        for i, c in enumerate(data["corrections"]):
            record = f"corrections[{i}]"
            corrections.append(Correction(*(c[k] for k in Correction._fields)))
    except KeyError as exc:
        raise CatalogError(f"{path}: {record} lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CatalogError(f"{path}: {record} is malformed: {exc}") from None
    ring = side_in.vars + side_out.vars
    clash = set(ring) & set(parameters)
    if clash:
        raise CatalogError(f"{path}: names used as both ring variable and parameter: {sorted(clash)}")
    vt = VarTable(ring + parameters, ring_vars=ring, param_vars=parameters)
    shadowing = [k for k, _ in defs if k in vt]
    if shadowing:
        raise CatalogError(f"{path}: defs named like a variable or parameter: {shadowing}")
    if set(entries) != set(ENTRY_KEYS):
        raise CatalogError(f"{path}: entries must be exactly {ENTRY_KEYS}")
    entry = EquivalenceEntry(
        id=data["id"],
        side_in=side_in,
        side_out=side_out,
        parameters=parameters,
        defs=defs,
        entry_texts=entries,
        paper_constraint_texts=paper_constraints,
        paper_qdim_left_text=data["paper_qdim_left"],
        paper_qdim_right_text=data["paper_qdim_right"],
        families=tuple(families),
        corrections=tuple(corrections),
        vt=vt,
    )
    validate(entry)
    return entry


def validate(entry: EquivalenceEntry) -> None:
    """Raise CatalogError naming every problem found in the entry."""
    problems: List[str] = []
    try:
        entry._six
        entry._potentials
        entry.family_rings
        constraints, qdims = entry._printed
    except CatalogError as exc:
        raise CatalogError(f"{entry.id}: {exc}") from None
    printed = [(f"constraint {t!r}", p) for t, p in zip(entry.paper_constraint_texts, constraints)]
    for what, p in printed + [(f"paper qdim_{side}", p) for side, p in qdims.items()]:
        bad = [v for v in p.support_vars() if v not in entry.parameters]
        if bad:
            problems.append(f"{what} uses non-parameters {bad}")
    for fam in entry.families:
        for name, value in fam.free_defaults.items():
            if name not in fam.free or not _is_rational(value):
                problems.append(f"family {fam.label!r}: free_defaults {name}={value!r} needs a free parameter and a rational")
        for g, z in fam.root_choice.items():
            texts = z if isinstance(z, (list, tuple)) and len(z) == 2 else ()
            if g not in dict(fam.generators) or not texts or not all(isinstance(t, str) and _is_rational(t) for t in texts):
                problems.append(f"family {fam.label!r}: root_choice {g}={z!r} needs a generator and two decimal strings")
        bound = set(fam.bindings) | set(fam.free)
        if bound != set(entry.parameters):
            problems.append(
                f"family {fam.label!r}: bindings+free must cover parameters exactly "
                f"(got {sorted(bound)})"
            )
        if set(fam.bindings) & set(fam.free):
            problems.append(f"family {fam.label!r}: a parameter is both bound and free")
    shipped = dict(entry.entry_texts)
    shipped.update((f"paper_constraints[{i}]", t) for i, t in enumerate(entry.paper_constraint_texts))
    for corr in entry.corrections:
        if corr.location not in shipped:
            problems.append(f"correction at unknown location {corr.location!r}")
        elif corr.corrected != shipped[corr.location]:
            problems.append(f"correction at {corr.location}: 'corrected' text differs from the shipped text")
    if problems:
        raise CatalogError(f"{entry.id}: " + "; ".join(problems))


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
    return Path(str(resources.files("orbimf").joinpath("data")))


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
