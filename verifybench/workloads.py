"""Catalog directories for the benchmark workloads.

Each workload is a self-contained catalog directory (entry files plus a
`potentials.json`) that `orbimf verify --all --catalog DIR` reads.  The
directories are generated from the shipped catalog and the workload
seed; the program under test sees only the generated files.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

Q12_ID = "Q12v1_Q12v2"

# Fixing a1, a2, b1 or b2 (to 2 or -3/2, say) collapses the Q12 ideal to
# the unit ideal, with a basis of [1] in under 2 s, so those slices would
# do almost no Groebner work.  Fixing one
# of a3, a4, a5 keeps a positive-dimensional ideal whose reduced basis
# still takes tens of seconds, the same pathology as the full entry.
SLICED = ("a3", "a4", "a5")

# The timed workload verifies the a4 and a5 slices (about 20 s each on a
# 2-CPU machine).  The a3 slice takes about 40 s on its own; with the
# other two one call would take 85 s, too long for a workload that a
# before/after comparison runs dozens of times.  It is verified in the
# traced baseline instead.
TIMED_SLICES = ("a4", "a5")

# Each fixed value is drawn from four rationals at which an a4 or a5
# slice took 18.6-20.0 s in one sweep on a 2-CPU machine.  Other small values cost
# more or less work (3, 1/2 and 5/3 up to 25 s, 2/3 and 3/2 about 22 s,
# 3/4 as little as 15 s), and a pool that mixed them spread the
# workload's wall time across seeds by more than a third of its bound.
VALUES = tuple(Fraction(v) for v in ("2", "-2", "-3/2", "-2/3"))


def _shipped_dir(src: Path) -> Path:
    return src / "orbimf" / "data"


def catalog6(src: Path, out: Path) -> None:
    """The six shipped entries other than Q12, unchanged."""
    out.mkdir(parents=True, exist_ok=True)
    for path in sorted(_shipped_dir(src).glob("*.json")):
        if path.name == "potentials.json" or json.loads(path.read_text())["id"] != Q12_ID:
            shutil.copy(path, out / path.name)


def single(src: Path, out: Path, entry_id: str) -> None:
    """One shipped entry on its own."""
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(_shipped_dir(src) / "potentials.json", out / "potentials.json")
    for path in sorted(_shipped_dir(src).glob("*.json")):
        if path.name != "potentials.json" and json.loads(path.read_text())["id"] == entry_id:
            shutil.copy(path, out / path.name)


def slice_values(seed: int) -> Dict[str, Fraction]:
    """One nonzero rational per sliced parameter, fixed by the seed."""
    rng = random.Random(seed)
    return {name: rng.choice(VALUES) for name in SLICED}


def specialize_text(text: str, name: str, value: Fraction) -> str:
    """Replace the parameter by a parenthesized rational at word boundaries."""
    if value.denominator == 1:
        literal = f"({value.numerator})"
    else:
        literal = f"({value.numerator}/{value.denominator})"
    return re.sub(rf"\b{re.escape(name)}\b", literal, text)


def slice_id(name: str) -> str:
    return f"{Q12_ID}_{name}"


def reference_key(entry_id: str, value: Optional[Fraction] = None) -> str:
    """Key of an entry in the stored references; a slice's key names
    its fixed value, since the seed picks it."""
    return entry_id if value is None else f"{entry_id}@{value}"


def q12_slice(q12: dict, name: str, value: Fraction) -> dict:
    """The Q12 entry with one parameter fixed to `value`."""
    sub = lambda text: specialize_text(text, name, value)  # noqa: E731
    out = json.loads(json.dumps(q12))
    out["id"] = slice_id(name)
    out["parameters"] = [p for p in q12["parameters"] if p != name]
    out["entries"] = {k: sub(v) for k, v in q12["entries"].items()}
    out["paper_constraints"] = [sub(t) for t in q12["paper_constraints"]]
    out["paper_qdim_left"] = sub(q12["paper_qdim_left"])
    out["paper_qdim_right"] = sub(q12["paper_qdim_right"])
    for corr in out["corrections"]:
        corr["printed"] = sub(corr["printed"])
        corr["corrected"] = sub(corr["corrected"])
    if q12["defs"] or q12["families"]:
        raise ValueError("slicing expects an entry without defs or families")
    return out


def q12_slices(src: Path, out: Path, seed: int, names=TIMED_SLICES) -> Dict[str, Fraction]:
    """One catalog entry per named parameter; returns the fixed values.

    Values are drawn for every parameter in SLICED, so a slice gets the
    same value for a seed whichever slices are written."""
    values = {n: v for n, v in slice_values(seed).items() if n in names}
    write_slices(src, out, values)
    return values


def write_slices(src: Path, out: Path, values: Dict[str, Fraction]) -> None:
    """A catalog directory with one Q12 slice per (parameter, value)."""
    data = _shipped_dir(src)
    q12 = json.loads((data / "Q12.json").read_text())
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(data / "potentials.json", out / "potentials.json")
    for name, value in values.items():
        (out / f"Q12_{name}.json").write_text(json.dumps(q12_slice(q12, name, value), indent=1))


def q12_full(src: Path, out: Path) -> None:
    """The full shipped Q12 entry (traced baseline only)."""
    out.mkdir(parents=True, exist_ok=True)
    for name in ("potentials.json", "Q12.json"):
        shutil.copy(_shipped_dir(src) / name, out / name)
