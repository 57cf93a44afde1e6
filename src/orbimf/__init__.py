"""Exact verifier for a catalog of matrix-factorization equivalences
between quasi-homogeneous surface singularities.

The pieces compose bottom-up: sparse rational polynomials (`polyring`),
algebraic-number quotients with certified complex boxes (`numberfield`),
weight systems (`grading`), the shipped equivalence data (`catalog`),
8x8 twisted differentials (`matfac`), Grothendieck residues and quantum
dimensions (`residue`), parameter-ideal work (`constraints`), and the
command line (`cli`).  The package is used through these modules
(`from orbimf.catalog import load_catalog`); importing it loads none of
them.
"""

__version__ = "0.1.0"
