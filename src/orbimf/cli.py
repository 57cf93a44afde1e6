"""Batch driver over the catalog.

Three subcommands: `verify` runs every check an entry supports and is the
pass/fail gate, `qdim` prints quantum dimensions (optionally evaluated at
a family point with a certificate), and `constraints` lists or compares
the parameter ideal.  Reports render as text by default and as versioned
JSON with --json; both carry the same facts.  Exit codes are stable:
0 all checks passed, 1 a verification failed or stdout was closed early,
2 usage or catalog error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Tuple

from . import constraints as con
from ._groebner import SPAIR_CAP, BudgetExceeded
from .catalog import CatalogError, EquivalenceEntry, load_catalog, resolve_entry
from .grading import GradingError, central_charge, check_weight_system
from .matfac import grading_check, verify_potential
from .numberfield import NonzeroCertificate
from .polyring import format_poly
from .residue import ResidueError

SCHEMA_VERSION = "orbimf-report/2"

_PASS = "PASS"
_FAIL = "FAIL"


def _cert_dict(cert: Optional[NonzeroCertificate]) -> Optional[dict]:
    if cert is None:
        return None
    out: dict = {"status": cert.status}
    if cert.precision_bits is not None:
        out["precision_bits"] = cert.precision_bits
    if cert.box is not None:
        mid = cert.box.midpoint()
        # rational endpoints can run to thousands of digits; floats suffice
        # for display, the exactness lives in the certified comparison
        out["box_midpoint"] = [float(mid[0]), float(mid[1])]
        out["box_width"] = float(cert.box.width())
    return out


def _qdim_point_dict(p: con.QdimAtPoint) -> dict:
    out = {"origin": p.origin, "value": p.value, "certificate": _cert_dict(p.certificate)}
    if p.error:
        out["error"] = p.error
    return out


def _grading_stage(work: con.EntryWork) -> Tuple[bool, dict]:
    # no Euler check: the weight solve has met sum(e_i * w_i) = 2 on every monomial
    entry = work.entry
    detail: dict = {}
    ok = True
    for label, side, vw in zip(("in", "out"), (entry.side_in, entry.side_out), work.weights):
        weights_match = check_weight_system(vw, side.weight_system)
        cc = central_charge(vw)
        h = side.weight_system.h
        detail[label] = {
            "potential": side.potential_key,
            "weight_system_match": weights_match,
            "central_charge": str(cc),
            "coxeter_charge": str(Fraction(h + 2, h)),
            "charge_is_coxeter": cc == Fraction(h + 2, h),
        }
        ok = ok and weights_match
    equal_cc = detail["in"]["central_charge"] == detail["out"]["central_charge"]
    detail["central_charges_equal"] = equal_cc
    ok = ok and equal_cc
    gr = grading_check(work.m, work.grading)
    detail["matrix"] = {
        "ok": gr.ok,
        "pair_sums": {k: str(v) for k, v in sorted(gr.pair_sums.items())},
        "failing": list(gr.failing),
    }
    return ok and gr.ok, detail


def _constraints_stage(work: con.EntryWork) -> Tuple[bool, dict]:
    texts = list(work.derived.texts())
    return True, {"count": len(texts), "generators": texts}


def _potential_stage(work: con.EntryWork) -> Tuple[bool, dict]:
    pot = verify_potential(lambda: work.is_unit(work.derived), work.derived.epsilon)
    return pot.ok, {"epsilon": pot.epsilon, "message": pot.message()}


_VACUOUS = "the derived ideal is the unit ideal"


def _ideal_stage(work: con.EntryWork) -> Tuple[bool, dict]:
    """The printed ideal against the derived one; ok when the printed ideal
    lies in a derived ideal that is not the unit ideal."""
    cmp_ = con.compare_printed(work)
    detail = {
        "printed_in_derived": cmp_.a_in_b,
        "derived_in_printed": cmp_.b_in_a,
        "equal": cmp_.equal,
        "failing_printed": [format_poly(g) for g in cmp_.failing_a],
        "failing_derived": [format_poly(g) for g in cmp_.failing_b],
    }
    if cmp_.vacuous:
        detail["vacuous"] = _VACUOUS
    if cmp_.equal_after_eliminating:
        detail["equal_after_eliminating"] = list(cmp_.equal_after_eliminating)
    return cmp_.a_in_b and not cmp_.vacuous, detail


def _families_stage(work: con.EntryWork) -> Tuple[bool, object]:
    reports = [work.family_report(fam) for fam in work.entry.families]
    detail = [{"label": r.label, "ok": r.ok, "checked": r.checked, "failures": list(r.failures)} for r in reports]
    return all(r.ok for r in reports), detail or "no families shipped"


def _nonvanishing_block(work: con.EntryWork, family, side: str) -> Tuple[bool, dict]:
    """One family point's quantum dimension on one side, certified."""
    nv = con.nonvanishing_check(work, family, side)
    return nv.ok, {
        "label": nv.label,
        "side": side,
        "point": dict(nv.point),
        "computed": _qdim_point_dict(nv.computed),
        "printed": _qdim_point_dict(nv.printed),
        "agree": nv.agree,
    }


def _nonvanishing_stage(work: con.EntryWork) -> Tuple[bool, object]:
    blocks = [_nonvanishing_block(work, fam, side) for fam in work.entry.families for side in ("left", "right")]
    return all(ok for ok, _ in blocks), [b for _, b in blocks] or "no families shipped"


def _qdim_match(work: con.EntryWork) -> dict:
    """The computed quantum dimensions against the printed ones; reported,
    not a stage that can fail."""
    cq = con.compare_qdims(work)
    qm = {
        "computed_left": format_poly(work.qdims["left"]),
        "computed_right": format_poly(work.qdims["right"]),
        "printed_left": format_poly(work.entry.paper_qdim("left")),
        "printed_right": format_poly(work.entry.paper_qdim("right")),
    }
    for side in ("left", "right"):
        m = cq[side]
        scalar = None if m.scalar is None else str(m.scalar)
        qm[side] = {"status": m.status, "matched_side": m.matched_side, "scalar": scalar, "mod_ideal": m.mod_ideal}
    return qm


# the report's stages in order; each builder returns (ok, detail).  The
# grading stage is called through its module global, which a tracer rebinds
_STAGES = (
    ("grading", lambda work: _grading_stage(work)),
    ("constraints", _constraints_stage),
    ("potential", _potential_stage),
    ("ideal-compare", _ideal_stage),
    ("families", _families_stage),
    ("nonvanishing", _nonvanishing_stage),
)


def verify_entry(entry: EquivalenceEntry, spair_cap: int = SPAIR_CAP) -> dict:
    """All checks for one entry; the returned dict is the JSON report.

    The report holds each `_STAGES` builder's block in order, then
    `_qdim_match`; `qdim` and `constraints` print blocks made by the same
    builders.  Each stage is timed from the end of the one before.  Every
    builder reads its facts from one `EntryWork`, which computes each
    once: one factorization, one derived constraint set with its sign,
    one Groebner basis and reducer per distinct generator set, and both
    quantum dimensions from one supertrace."""
    report: dict = {"entry": entry.id, "stages": {}, "ok": True}
    work = con.EntryWork(entry, spair_cap)
    started = last = time.perf_counter()
    for name, build in _STAGES:
        ok, detail = build(work)
        now = time.perf_counter()
        report["stages"][name] = {"ok": bool(ok), "detail": detail, "seconds": round(now - last, 3)}
        report["ok"] = report["ok"] and bool(ok)
        last = now
    report["epsilon"] = work.derived.epsilon
    report["qdim_match"] = {**_qdim_match(work), "seconds": round(time.perf_counter() - last, 3)}
    report["corrections"] = [
        {"location": c.location, "justification": c.justification}
        for c in entry.corrections
    ]
    report["seconds"] = round(time.perf_counter() - started, 3)
    return report


def _render_ideal(d: dict) -> str:
    if "vacuous" in d:
        printed_in = f"vacuous ({d['vacuous']})"
    else:
        printed_in = _yn(d["printed_in_derived"])
    out = f"printed<=derived: {printed_in}, derived<=printed: {_yn(d['derived_in_printed'])}"
    if "equal_after_eliminating" in d:
        out += f" (equal after eliminating {', '.join(d['equal_after_eliminating'])})"
    return out


def _render_match(match: dict) -> str:
    if match["status"] == "unmatched":
        return "unmatched"
    if match["status"] == "vacuous":
        return f"vacuous ({_VACUOUS})"
    where = "modulo the derived ideal" if match["mod_ideal"] else "exactly"
    if match["status"] == "unit_multiple":
        return f"{match['scalar']} * computed {match['matched_side']} {where}"
    return f"equals computed {match['matched_side']} {where}"


def render_verify_text(report: dict) -> str:
    lines = [f"== {report['entry']} =="]
    for name, st in report["stages"].items():
        mark = _PASS if st["ok"] else _FAIL
        extra = ""
        if name == "constraints":
            n = st["detail"]["count"]
            extra = f"{n} generator{'s' if n != 1 else ''}, eps {report['epsilon']:+d}"
        elif name == "potential":
            extra = st["detail"]["message"]
        elif name == "ideal-compare":
            extra = _render_ideal(st["detail"])
        elif name == "families":
            d = st["detail"]
            extra = d if isinstance(d, str) else f"{sum(r['ok'] for r in d)}/{len(d)} verified"
        elif name == "nonvanishing":
            d = st["detail"]
            if isinstance(d, str):
                extra = d
            else:
                reasons = []  # per side without a nonzero certificate: its error, or the zero value
                for r in d:
                    cert = r["computed"]["certificate"]
                    if cert is None or cert["status"] == "zero":
                        why = r["computed"]["error"] if cert is None else "computed value is 0"
                        reasons.append(f"; {r['label']} {r['side']}: {why}")
                extra = f"{len(d) - len(reasons)}/{len(d)} certified nonzero (computed invariant)" + "".join(reasons)
        elif name == "grading":
            d = st["detail"]
            c_in, c_out = d["in"]["central_charge"], d["out"]["central_charge"]
            extra = f"central charge {c_in} " + ("both sides" if c_in == c_out else f"in, {c_out} out")
            for side in ("in", "out"):
                if not d[side]["weight_system_match"]:
                    extra += f"; {side}: weights differ from {d[side]['potential']}'s weight system"
            if not d["matrix"]["ok"]:
                extra += f"; matrix grading fails: {', '.join(d['matrix']['failing'])}"
        lines.append(f"  {name:<14} {mark}  {extra}")
    qm = report["qdim_match"]
    lines.append(f"  qdim-match     info  left: {_render_match(qm['left'])}; right: {_render_match(qm['right'])}")
    lines.append(f"    computed left:  {qm['computed_left']}")
    lines.append(f"    computed right: {qm['computed_right']}")
    lines.append(f"    printed  left:  {qm['printed_left']}")
    lines.append(f"    printed  right: {qm['printed_right']}")
    if report["corrections"]:
        lines.append(f"  corrections applied: {len(report['corrections'])}")
        for c in report["corrections"]:
            lines.append(f"    {c['location']}: {c['justification']}")
    lines.append(f"  result         {_PASS if report['ok'] else _FAIL}  ({report['seconds']}s)")
    return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _summary_table(reports: Sequence[dict], catalog) -> str:
    lines = ["", "entry                 pair                          eps  result"]
    for rep in reports:
        entry = catalog[rep["entry"]]
        pair = f"{entry.side_in.potential_key} ~ {entry.side_out.potential_key}"
        eps = f"{rep['epsilon']:+d}"
        lines.append(f"{rep['entry']:<21} {pair:<29} {eps:<4} {_PASS if rep['ok'] else _FAIL}")
    return "\n".join(lines)


def _worker_verify(args: Tuple[EquivalenceEntry, int]) -> dict:
    """`verify_entry` in a pool worker; the entry arrives pickled with
    its parsed polynomials, so no worker loads the catalog."""
    return verify_entry(*args)


def cmd_verify(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    if args.all:
        ids = sorted(catalog)
    else:
        ids = [resolve_entry(catalog, args.entry).id]
    if args.jobs > 1 and len(ids) > 1:
        # longest generator texts first, so the dearest entries do not
        # start last and bound the wall time
        ids.sort(key=lambda i: sum(map(len, catalog[i].entry_texts.values())), reverse=True)
        # imported here: the pool modules cost a serial run tens of ms
        from concurrent.futures import ProcessPoolExecutor

        # a pool forks all its workers at the first submit: no more than entries
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(ids))) as pool:
            work = [(catalog[i], args.spair_cap) for i in ids]
            reports = list(pool.map(_worker_verify, work))
    else:
        reports = [verify_entry(catalog[i], args.spair_cap) for i in ids]
    reports.sort(key=lambda r: r["entry"])
    if args.json:
        print(json.dumps({"schema": SCHEMA_VERSION, "reports": reports}, indent=2))
    else:
        for rep in reports:
            print(render_verify_text(rep))
        if len(reports) > 1:
            print(_summary_table(reports, catalog))
    return 0 if all(r["ok"] for r in reports) else 1


def _at_least(low: int, text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, not {text!r}") from None
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, not {text}")
    return n


def _positive_int(text: str) -> int:
    return _at_least(1, text)


def _nonnegative_int(text: str) -> int:
    return _at_least(0, text)


def _find_family(entry: EquivalenceEntry, label: str):
    for fam in entry.families:
        if fam.label == label:
            return fam
    hits = [f for f in entry.families if label.lower() in f.label.lower()]
    if len(hits) == 1:
        return hits[0]
    have = [f.label for f in entry.families]
    raise CatalogError(f"no unique family matches {label!r} (have {have})")


def cmd_qdim(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    entry = resolve_entry(catalog, args.entry)
    work = con.EntryWork(entry, args.spair_cap)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    out: dict = {"schema": SCHEMA_VERSION, "entry": entry.id, "sides": {}}
    fam = _find_family(entry, args.family) if args.family else None
    if fam is not None:
        out["family"] = fam.label
        keys = ("computed", "point", "printed", "agree") if args.compare_paper else ("computed", "point")
        for side in sides:
            block = _nonvanishing_block(work, fam, side)[1]
            out["sides"][side] = {k: block[k] for k in keys}
    elif args.compare_paper:
        qm = _qdim_match(work)
        for side in sides:
            out["sides"][side] = {"computed": qm[f"computed_{side}"], "printed": qm[f"printed_{side}"], "match": qm[side]}
    else:
        for side in sides:
            out["sides"][side] = {"computed": format_poly(work.qdims[side])}
    if args.json:
        print(json.dumps(out, indent=2))
        return 0
    for side in sides:
        block = out["sides"][side]
        if args.family:
            cert = block["computed"]["certificate"]
            status = cert["status"] if cert else block["computed"].get("error", "?")
            point = ", ".join(f"{k}={v}" for k, v in sorted(block["point"].items())) or "-"
            print(f"qdim_{side} [{out['family']}; {point}] = {block['computed']['value']}  ({status})")
            if args.compare_paper:
                pcert = block["printed"]["certificate"]
                pstat = pcert["status"] if pcert else block["printed"].get("error", "?")
                print(f"  printed form evaluates to {block['printed']['value']}  ({pstat})")
        else:
            print(f"qdim_{side} = {block['computed']}")
            if args.compare_paper:
                print(f"  printed: {block['printed']}  [{_render_match(block['match'])}]")
    return 0


def cmd_constraints(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    entry = resolve_entry(catalog, args.entry)
    work = con.EntryWork(entry, args.spair_cap)
    generators = _constraints_stage(work)[1]["generators"]
    payload = {"schema": SCHEMA_VERSION, "entry": entry.id, "epsilon": work.derived.epsilon}
    ok = True
    if args.compare_paper:
        ok, ideal = _ideal_stage(work)
        payload.update(derived=generators, printed=list(work.printed.texts()), **ideal)
    else:
        payload["generators"] = generators
    if args.json:
        print(json.dumps(payload, indent=2))
    elif args.compare_paper:
        print(f"{entry.id}: {_render_ideal(payload)}")
        for g in payload["failing_printed"]:
            print(f"  printed generator outside the derived ideal: {g}")
        for g in payload["failing_derived"]:
            print(f"  derived generator outside the printed ideal: {g}")
    else:
        print("\n".join(generators) or "(no constraints)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbimf",
        description="Exact verification of the matrix-factorization equivalence catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--catalog", type=Path, default=None, help="catalog directory (or env ORBIMF_CATALOG)")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument(
            "--spair-cap", type=_nonnegative_int, default=SPAIR_CAP, help="S-pair budget per Groebner run, 0 or more"
        )

    v = sub.add_parser("verify", help="run every check for one entry or the whole catalog")
    common(v)
    group = v.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", help="entry id (prefix or substring accepted)")
    group.add_argument("--all", action="store_true")
    v.add_argument("--jobs", type=_positive_int, default=1, help="verify entries in parallel processes")
    v.set_defaults(func=cmd_verify)

    q = sub.add_parser("qdim", help="print quantum dimensions")
    common(q)
    q.add_argument("--entry", required=True)
    q.add_argument("--family", help="evaluate at this solution family's point")
    q.add_argument("--side", choices=("left", "right", "both"), default="both")
    q.add_argument("--compare-paper", action="store_true", help="also show the printed closed form")
    q.set_defaults(func=cmd_qdim)

    c = sub.add_parser("constraints", help="derived parameter constraints")
    common(c)
    c.add_argument("--entry", required=True)
    c.add_argument("--compare-paper", action="store_true", help="two-way ideal comparison against the printed system")
    c.set_defaults(func=cmd_constraints)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a closed pipe raises here
        return code
    except CatalogError as exc:
        print(f"unknown entry or bad catalog: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, GradingError, ResidueError) as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's flush at exit cannot fail again (Python's SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
