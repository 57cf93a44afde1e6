"""Writes the stored references of the benchmark's correctness checks.

Run from the repository root:

    python3 verifybench/reference.py [--only qdim|groebner]

`qdim`: verifies the seven shipped entries and every Q12 slice a seed
can draw (each of `workloads.SLICED` fixed to each of
`workloads.VALUES`), and writes the `qdim_match` section of every
report, without its seconds, to `reference/qdim_match.json`.  Those are
the computed quantum dimensions (`computed_left`, `computed_right`) and
how each printed formula matched them.  It verifies with two pool
workers and takes about ten minutes on 2 CPUs, most of it the full Q12
entry.

`groebner`: writes the reduced grevlex basis `sympy.groebner` gives for
the golden constraints of every such slice to `reference/groebner/`,
about three minutes.

Both were written at the commit that added the benchmark; a pure
speed-up must not change them.  `check.py` compares every report and
every slice basis against them.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import check
import workloads


def write_qdim(cli, catalogs) -> int:
    refs = {}
    for value, catalog_dir in catalogs.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(["verify", "--all", "--catalog", str(catalog_dir), "--jobs", "2", "--json"])
        if rc not in (0, 1):
            print(f"reference: verify on {catalog_dir} exited {rc}", file=sys.stderr)
            return 2
        for report in json.loads(buf.getvalue())["reports"]:
            refs[workloads.reference_key(report["entry"], value)] = check.qdim_reference(report)
            print(f"reference: {report['entry']} {value} {report['seconds']} s", file=sys.stderr)
    check.QDIM_REFERENCE.parent.mkdir(exist_ok=True)
    check.QDIM_REFERENCE.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")
    return 0


def write_groebner(root: Path, catalogs) -> None:
    from orbimf.catalog import load_catalog

    for value, catalog_dir in catalogs.items():
        if value is None:
            continue
        entries = load_catalog(catalog_dir)
        for name in workloads.SLICED:
            entry = entries[workloads.slice_id(name)]
            generators = check.reference_constraints(root, entry, (name, value))["generators"]
            check.write_oracle(name, value, generators, list(entry.parameters))
            print(f"reference: sympy basis for {name}={value}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=("qdim", "groebner"))
    args = parser.parse_args()
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    from orbimf import cli

    work = root / ".verifybench_out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    catalogs = {None: work / "shipped"}
    workloads.catalog6(src, catalogs[None])
    workloads.q12_full(src, catalogs[None])
    for value in workloads.VALUES:
        catalogs[value] = work / f"slices-{value.numerator}_{value.denominator}"
        workloads.write_slices(src, catalogs[value], {name: value for name in workloads.SLICED})
    try:
        if args.only != "groebner" and write_qdim(cli, catalogs):
            return 2
        if args.only != "qdim":
            write_groebner(root, catalogs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
