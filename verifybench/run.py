"""Benchmark of `orbimf verify` over generated catalog directories.

Run from the repository root:

    python3 verifybench/run.py --workload catalog6-serial --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one client: `orbimf.cli.main(["verify",
"--all", ...])` runs over the workload's catalog directory, and the next
call starts only after the previous one returned, until `--seconds` have
passed (at least one call).  Every call's reports are checked against the
known verdicts, the golden constraints and, for Q12 slices, an
independent sympy Groebner basis; none of the checking is timed.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` a
warm-up call on one cheap entry, one untraced and one traced call are
made and the per-layer metrics of the traced call are printed (see
layers.py).  Every metric is printed as a
line `name value unit`; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every check passed, 1 when one failed and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional

import check
import layers
import workloads

# name -> (jobs, input kind); the last two are for the traced baseline only
WORKLOADS = {
    "catalog6-serial": (1, "catalog6"),
    "q12-slices": (1, "slices"),
    "catalog6-jobs2": (2, "catalog6"),
    "q12-slice-a3": (1, "slice-a3"),
    "q12-full": (1, "q12-full"),
}

# fresh processes whose set-up times give the median
SETUP_REPEATS = 24

# the cheapest shipped entry (0.2-0.3 s): verified once before a traced
# run's measured calls, so that neither of them pays the first call's cost
WARMUP_ENTRY = "W12v1_W12v2"

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import orbimf
from orbimf.catalog import load_catalog
load_catalog(sys.argv[2])
print(time.perf_counter() - t0)
"""


def setup_seconds(src: Path, catalog_dir: Path) -> float:
    """`import orbimf` plus `load_catalog` in a fresh interpreter, median
    over SETUP_REPEATS processes after one warm-up (bytecode caches).

    Linux counts a child's peak RSS from the parent's at the time it was
    started, so this must run after `peak_rss_mb` was read."""
    cmd = [sys.executable, "-I", "-c", _SETUP_CODE, str(src), str(catalog_dir)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child
    (on `catalog6-jobs2`, a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def verify_call(cli, catalog_dir: Path, jobs: int) -> dict:
    """One closed-loop request: `verify --all` and its parsed reports."""
    argv = ["verify", "--all", "--catalog", str(catalog_dir), "--jobs", str(jobs), "--json"]
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    reports = None
    if rc in (0, 1):
        try:
            reports = json.loads(buf.getvalue())["reports"]
        except (ValueError, KeyError):
            reports = None
    return {"wall_s": wall, "rc": rc, "reports": reports}


class BasisCapture:
    """Keeps every basis `groebner_basis` returns, for the sympy check.

    One extra Python call per basis (three per Q12 slice entry, each
    taking seconds), so it is left on during timed calls."""

    def __init__(self):
        from orbimf import _groebner

        self.bases: List[list] = []
        original = _groebner.groebner_basis

        def groebner_basis(*args, **kwargs):
            out = original(*args, **kwargs)
            self.bases.append(out)
            return out

        self._undo = layers.rebind(original, groebner_basis)

    def close(self) -> None:
        layers.restore(self._undo)


def end_to_end(calls: List[dict], jobs: int) -> Dict[str, tuple]:
    per_call_max = [max(r["seconds"] for r in c["reports"]) for c in calls]
    eff = [sum(r["seconds"] for r in c["reports"]) / (jobs * c["wall_s"]) for c in calls]
    return {
        "wall_s": (statistics.median([c["wall_s"] for c in calls]), "s"),
        "entry_s.max": (statistics.median(per_call_max), "s"),
        "parallel_eff": (statistics.median(eff), "ratio"),
    }


def stage_seconds(reports: List[dict]) -> Dict[str, tuple]:
    out: Dict[str, float] = {}
    for rep in reports:
        for name, st in rep["stages"].items():
            out[name] = out.get(name, 0.0) + st["seconds"]
        out["qdim-match"] = out.get("qdim-match", 0.0) + rep["qdim_match"]["seconds"]
    return {f"stage.{k}_s": (v, "s") for k, v in sorted(out.items())}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result, with per-entry detail, here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "orbimf" / "__init__.py").is_file() or not (root / "tests" / "golden").is_dir():
        print("verifybench: run from the repository root (needs src/orbimf and tests/golden)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import orbimf
    from orbimf import cli
    from orbimf.catalog import load_catalog

    if not Path(orbimf.__file__).resolve().is_relative_to(src.resolve()):
        print(f"verifybench: imported orbimf from {orbimf.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_root = root / ".verifybench_out"
    run_dir = out_root / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _run(args, root, src, run_dir, cli, load_catalog)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, root: Path, src: Path, run_dir: Path, cli, load_catalog) -> int:
    jobs, kind = WORKLOADS[args.workload]
    catalog_dir = run_dir / "catalog"
    fixed: Dict[str, object] = {}
    if kind == "catalog6":
        workloads.catalog6(src, catalog_dir)
    elif kind == "slices":
        fixed = workloads.q12_slices(src, catalog_dir, args.seed)
    elif kind == "slice-a3":
        fixed = workloads.q12_slices(src, catalog_dir, args.seed, names=("a3",))
    else:
        workloads.q12_full(src, catalog_dir)
    entries = load_catalog(catalog_dir)
    slice_of = {workloads.slice_id(n): n for n in fixed}
    refs = {
        eid: check.reference_constraints(
            root, e, (slice_of[eid], fixed[slice_of[eid]]) if eid in slice_of else None
        )
        for eid, e in entries.items()
    }
    qdim_refs = check.load_qdim_references()
    for eid, ref in refs.items():
        value = fixed[slice_of[eid]] if eid in slice_of else None
        ref["qdim"] = qdim_refs.get(workloads.reference_key(eid, value))
    capture = BasisCapture() if fixed else None

    problems: List[str] = []
    calls: List[dict] = []
    captured: List[list] = []
    metrics: Dict[str, tuple] = {}

    def one_call() -> dict:
        if capture is not None:
            capture.bases = []
        call = verify_call(cli, catalog_dir, jobs)
        calls.append(call)
        if call["reports"] is not None:
            problems.extend(check.check_reports(call["reports"], entries, refs))
        if capture is not None:
            captured.append(capture.bases)
        return call

    try:
        if args.trace:
            warmup_dir = run_dir / "warmup"
            workloads.single(src, warmup_dir, WARMUP_ENTRY)
            verify_call(cli, warmup_dir, jobs)
            # the full Q12 entry takes minutes per call, so its traced run
            # makes no untraced call and reports no measured overhead
            untraced = one_call() if kind != "q12-full" else None
            spans_dir = run_dir / "spans"
            spans_dir.mkdir(parents=True)
            tracer = layers.Tracer(spans_dir)
            tracer.install()
            try:
                traced = one_call()
            finally:
                tracer.uninstall()
            merged = layers.merge([tracer.snapshot()] + layers.read_worker_snapshots(spans_dir))
            metrics.update(layers.layer_metrics(merged, traced["wall_s"]))
            wrapped = sum(v[0] for v in merged["fn"].values())
            metrics["trace.wrapped_calls"] = (wrapped, "count")
            metrics["trace.overhead_est_s"] = (wrapped * layers.wrapper_cost_s(), "s")
            if untraced is not None:
                metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
                metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio")
            if traced["reports"] is not None:
                metrics.update(stage_seconds(traced["reports"]))
            detail = {"functions": {k: v for k, v in sorted(merged["fn"].items())}}
        else:
            started = time.perf_counter()
            while True:
                one_call()
                if time.perf_counter() - started >= args.seconds:
                    break
            detail = {}
    finally:
        if capture is not None:
            capture.close()

    ok_calls = [c for c in calls if c["reports"] is not None]
    failed = len(calls) - len(ok_calls)
    if not args.trace and ok_calls:
        metrics.update(end_to_end(ok_calls, jobs))
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["setup_s"] = (setup_seconds(src, catalog_dir), "s")

    # the independent Groebner oracle, after all timing
    for name, value in fixed.items():
        eid = workloads.slice_id(name)
        params = list(entries[eid].parameters)
        want = check.stored_oracle(name, value, refs[eid]["generators"], params)
        if want is None:
            problems.append(f"no stored sympy basis for {eid} with {name}={value}")
            continue
        for i, bases in enumerate(captured):
            mine = [b for b in bases if b and name not in b[0].vt.names]
            if not mine:
                problems.append(f"call {i}: no Groebner basis returned for {eid}")
            for b in mine:
                if check.basis_fingerprint(b, params) != want:
                    problems.append(f"call {i}: {eid} basis differs from sympy.groebner")

    verdict_mismatch = len(problems)
    for line in problems:
        print(f"verifybench: mismatch: {line}", file=sys.stderr)
    entry_s = [r["seconds"] for c in ok_calls for r in c["reports"]]
    print(f"# workload {args.workload} seed {args.seed} jobs {jobs} calls {len(calls)} entry samples {len(entry_s)}")
    if fixed:
        print("# slices " + ", ".join(f"{k}={v}" for k, v in fixed.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:<14.6g} {unit}")
    # shown, not gated: with six entries of 0.2-8 s the median entry time
    # moved by 20% between runs of the same input
    if entry_s and not args.trace:
        print(f"{'entry_s.p50':<34} {statistics.median(entry_s):<14.6g} s (n={len(entry_s)})")
    print(f"{'verdict_mismatch':<34} {verdict_mismatch:<14d} count")
    print(f"{'failed_frac':<34} {failed / max(len(calls), 1):<14.6g} ratio")

    correct = verdict_mismatch == 0 and failed == 0 and bool(ok_calls)
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed, slices={k: str(v) for k, v in fixed.items()})
        full["entries"] = [
            {"call": i, "entry": r["entry"], "seconds": r["seconds"], "ok": r["ok"],
             "stages": {s: st["seconds"] for s, st in r["stages"].items()},
             "qdim_match_s": r["qdim_match"]["seconds"]}
            for i, c in enumerate(ok_calls) for r in c["reports"]
        ]
        full["calls"] = [{"wall_s": c["wall_s"], "rc": c["rc"]} for c in calls]
        full.update(detail)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
