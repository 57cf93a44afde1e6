"""Exact verifier for a catalog of matrix-factorization equivalences
between quasi-homogeneous surface singularities.

The pieces compose bottom-up: sparse rational polynomials (`polyring`),
algebraic-number quotients with certified complex boxes (`numberfield`),
weight systems (`grading`), the shipped equivalence data (`catalog`),
8x8 twisted differentials (`matfac`), Grothendieck residues and quantum
dimensions (`residue`), parameter-ideal work (`constraints`), and the
command line (`cli`).
"""

from .catalog import (
    CatalogError,
    EquivalenceEntry,
    SolutionFamily,
    load_catalog,
    load_entry,
    resolve_entry,
)
from .constraints import (
    ConstraintSet,
    EntryWork,
    bruteforce_family_oracle,
    compare_qdims,
    computed_qdim,
    derive_constraints,
    groebner,
    ideal_compare,
    normal_form,
    nonvanishing_check,
    paper_constraint_set,
    verify_family,
)
from .grading import WeightSystem, central_charge, euler_check, weights_from_potential
from .matfac import MatrixFactorization, build_8x8, grading_check, square, verify_potential
from .numberfield import QuotientSpec, certify_value, reduce
from .polyring import Poly, VarTable, format_poly, parse_poly
from .residue import grothendieck_residue, qdim_left, qdim_pair, qdim_right

__version__ = "0.1.0"

__all__ = [
    "CatalogError",
    "ConstraintSet",
    "EntryWork",
    "EquivalenceEntry",
    "MatrixFactorization",
    "Poly",
    "QuotientSpec",
    "SolutionFamily",
    "VarTable",
    "WeightSystem",
    "__version__",
    "bruteforce_family_oracle",
    "build_8x8",
    "central_charge",
    "certify_value",
    "compare_qdims",
    "computed_qdim",
    "derive_constraints",
    "euler_check",
    "format_poly",
    "grading_check",
    "groebner",
    "grothendieck_residue",
    "ideal_compare",
    "load_catalog",
    "load_entry",
    "normal_form",
    "nonvanishing_check",
    "paper_constraint_set",
    "parse_poly",
    "qdim_left",
    "qdim_pair",
    "qdim_right",
    "reduce",
    "resolve_entry",
    "square",
    "verify_family",
    "verify_potential",
    "weights_from_potential",
]
