"""Layer spans recorded from outside the program.

The tracer wraps public functions of the `orbimf` modules and times
every call.  Modules import names directly (`constraints` binds
`_groebner.normal_form`, `residue` binds `matfac.matmul`, ...), so a
wrapper is installed by rebinding every module attribute that holds the
original function, and `uninstall` puts the originals back.  Functions
that call each other through their own module globals (`interreduce`
calling `normal_form`) pick the wrapper up the same way.

A span's self time is its duration minus the time covered by the spans
it caused.  A layer's self time is the sum of its functions' self times;
the time no wrapped function claims (polynomial arithmetic, the report
assembly in `cli`) is the self time of the `cli` spans and is reported
as `polyring_other`.

Spans live in memory.  With `verify --jobs N` the entries run in forked
pool workers, which inherit the wrappers; the wrapper of
`cli._worker_verify` writes each worker call's spans to a file that the
parent merges after `verify` returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, layer); a dotted attribute is a method on a class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("orbimf.cli", "verify_entry", "cli"),
    ("orbimf.cli", "_grading_stage", "cli"),
    ("orbimf.cli", "_worker_verify", "cli"),
    ("orbimf._groebner", "groebner_basis", "groebner"),
    ("orbimf._groebner", "interreduce", "groebner"),
    ("orbimf._groebner", "normal_form", "groebner"),
    ("orbimf._groebner", "resultant", "groebner"),
    ("orbimf.matfac", "build_8x8", "matfac"),
    ("orbimf.matfac", "matmul", "matfac"),
    ("orbimf.matfac", "square", "matfac"),
    ("orbimf.matfac", "verify_potential", "matfac"),
    ("orbimf.matfac", "grading_check", "matfac"),
    ("orbimf.residue", "qdim_left", "residue"),
    ("orbimf.residue", "qdim_right", "residue"),
    ("orbimf.residue", "derivative_matrix_product", "residue"),
    ("orbimf.residue", "supertrace", "residue"),
    ("orbimf.residue", "cofactor_lift", "residue"),
    ("orbimf.residue", "grothendieck_residue", "residue"),
    ("orbimf.constraints", "derive_constraints", "constraints"),
    ("orbimf.constraints", "paper_constraint_set", "constraints"),
    ("orbimf.constraints", "groebner", "constraints"),
    ("orbimf.constraints", "ideal_compare", "constraints"),
    ("orbimf.constraints", "eliminate_linear", "constraints"),
    ("orbimf.constraints", "verify_family", "constraints"),
    ("orbimf.constraints", "computed_qdim", "constraints"),
    ("orbimf.constraints", "nonvanishing_check", "constraints"),
    ("orbimf.constraints", "compare_qdims", "constraints"),
    ("orbimf.numberfield", "reduce", "numberfield"),
    ("orbimf.numberfield", "invert", "numberfield"),
    ("orbimf.numberfield", "embed_complex", "numberfield"),
    ("orbimf.numberfield", "certify_value", "numberfield"),
    ("orbimf.catalog", "load_catalog", "catalog"),
    ("orbimf.catalog", "EquivalenceEntry.six", "catalog"),
    ("orbimf.catalog", "EquivalenceEntry.paper_constraints", "catalog"),
    ("orbimf.catalog", "EquivalenceEntry.paper_qdim", "catalog"),
    ("orbimf._linalg", "solve_dense", "linalg"),
    ("orbimf._linalg", "solve_unique", "linalg"),
    ("orbimf.grading", "weights_from_potential", "grading"),
    ("orbimf.grading", "check_weight_system", "grading"),
    ("orbimf.grading", "central_charge", "grading"),
    ("orbimf.grading", "euler_check", "grading"),
)

LAYERS = ("groebner", "matfac", "residue", "constraints", "numberfield", "catalog", "linalg", "grading")

# Functions whose returned objects are kept, so that work sizes can be
# read from what the program returns.
_OBSERVED = {"groebner_basis", "cofactor_lift", "certify_value"}


def _orbimf_modules():
    return [m for name, m in list(sys.modules.items()) if name == "orbimf" or name.startswith("orbimf.")]


def rebind(original: Callable, replacement: Callable) -> List[Tuple[object, str, Callable]]:
    """Point every orbimf module attribute holding `original` at
    `replacement`; returns what to restore."""
    undo = []
    for module in _orbimf_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: List[Tuple[object, str, Callable]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Per-function call counts, total and self seconds, plus the
    returned objects of the observed functions."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self._undo: List[Tuple[object, str, Callable]] = []
        self.reset()

    def reset(self) -> None:
        self.fn: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.layer: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])  # outermost calls, total
        self.entry: Optional[str] = None
        self.observed: List[Tuple[Optional[str], str, tuple, object]] = []
        self._stack: List[list] = []  # [child seconds, layer]

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, name)
            wrapper = self._wrapper(layer, name, original)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, original))
            else:
                self._undo.extend(rebind(original, wrapper))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrapper(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent_layer = stack[-1][1] if stack else None
            if name == "verify_entry":
                tracer.entry = args[0].id
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st = tracer.fn[f"{layer}.{name}"]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if parent_layer != layer:
                    lt = tracer.layer[layer]
                    lt[0] += 1
                    lt[1] += dur
            if name in _OBSERVED:
                tracer.observed.append((tracer.entry, name, args, out))
            return out

        if name != "_worker_verify":
            return traced

        @functools.wraps(fn)
        def worker(*args, **kwargs):
            # runs inside a forked pool worker: start clean, and hand this
            # entry's spans to the parent through a file
            tracer.reset()
            tracer.entry = args[0][1]
            try:
                return traced(*args, **kwargs)
            finally:
                path = tracer.trace_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
                path.write_text(json.dumps(tracer.snapshot()))

        return worker

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view of the spans and of the observed outputs."""
        return {
            "fn": {k: list(v) for k, v in self.fn.items()},
            "layer": {k: list(v) for k, v in self.layer.items()},
            "sizes": work_sizes(self.observed),
        }


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds over an untraced one, measured on a
    function that does nothing (best of `repeats`)."""

    def noop():
        return None

    tracer = Tracer(Path("."))
    traced = tracer._wrapper("calibration", "noop", noop)
    clock = time.perf_counter

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                fn()
            times.append(clock() - t0)
        return min(times)

    return max(best(traced) - best(noop), 0.0) / calls


def merge(snapshots: List[dict]) -> dict:
    out = {"fn": defaultdict(lambda: [0, 0.0, 0.0]), "layer": defaultdict(lambda: [0, 0.0]), "sizes": defaultdict(list)}
    for snap in snapshots:
        for k, v in snap["fn"].items():
            out["fn"][k] = [a + b for a, b in zip(out["fn"][k], v)]
        for k, v in snap["layer"].items():
            out["layer"][k] = [a + b for a, b in zip(out["layer"][k], v)]
        for k, v in snap["sizes"].items():
            out["sizes"][k].extend(v)
    return out


def _generator_key(gens) -> frozenset:
    return frozenset(tuple(sorted(g.terms())) for g in gens if not g.is_zero())


def work_sizes(observed) -> dict:
    """Work sizes read off returned objects: Groebner bases, cofactor
    lifts and nonvanishing certificates."""
    bases = []  # [entry, generator-set fingerprint, size, coefficient bits]
    lifts = []
    certs = []  # [status, precision bits]
    for entry, name, args, out in observed:
        if name == "groebner_basis":
            bits = max(
                (max(c.numerator.bit_length(), c.denominator.bit_length()) for g in out for _, c in g.terms()),
                default=0,
            )
            key = hash(_generator_key(args[0]))
            bases.append([entry, key, len(out), bits])
        elif name == "cofactor_lift":
            lifts.append(max(out.exponents))
        elif name == "certify_value":
            certs.append([out.status, out.precision_bits or 0])
    return {"bases": bases, "lifts": lifts, "certs": certs}


def read_worker_snapshots(trace_dir: Path) -> List[dict]:
    snaps = []
    for path in sorted(trace_dir.glob("worker-*.json")):
        snaps.append(json.loads(path.read_text()))
        path.unlink()
    return snaps


def layer_metrics(merged: dict, wall_s: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, by name, with units."""
    fn, layer, sizes = merged["fn"], merged["layer"], merged["sizes"]

    def calls(*names):
        return sum(fn[n][0] for n in names if n in fn)

    def total(*names):
        return sum(fn[n][1] for n in names if n in fn)

    self_s = defaultdict(float)
    for k, (_, _, s) in fn.items():
        self_s[k.split(".", 1)[0]] += s
    busy = sum(self_s.values())

    out: Dict[str, Tuple[float, str]] = {}
    for name in LAYERS:
        c, t = layer.get(name, [0, 0.0])
        out[f"{name}.calls"] = (c, "count")
        out[f"{name}.total_s"] = (t, "s")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["polyring_other.self_s"] = (self_s["cli"], "s")
    out["trace.busy_s"] = (busy, "s")

    seen = set()
    repeats = 0
    for entry, key, _, _ in sizes["bases"]:
        if (entry, key) in seen:
            repeats += 1
        seen.add((entry, key))
    basis_s = total("groebner.groebner_basis")
    interreduce_s = total("groebner.interreduce")
    out.update(
        {
            "groebner.basis_calls": (calls("groebner.groebner_basis"), "count"),
            "groebner.repeat_basis_calls": (repeats, "count"),
            "groebner.basis_s": (basis_s, "s"),
            "groebner.interreduce_s": (interreduce_s, "s"),
            "groebner.interreduce_share": (interreduce_s / basis_s if basis_s else 0.0, "ratio"),
            "groebner.normal_form_calls": (calls("groebner.normal_form"), "count"),
            "groebner.normal_form_s": (total("groebner.normal_form"), "s"),
            "groebner.basis_size_max": (max((b[2] for b in sizes["bases"]), default=0), "count"),
            "groebner.coeff_bits_max": (max((b[3] for b in sizes["bases"]), default=0), "bits"),
            "groebner.self_share": (self_s["groebner"] / busy if busy else 0.0, "ratio"),
            "matfac.matmul_calls": (calls("matfac.matmul"), "count"),
            "matfac.matmul_s": (total("matfac.matmul"), "s"),
            "matfac.square_calls": (calls("matfac.square"), "count"),
            "matfac.verify_potential_s": (total("matfac.verify_potential"), "s"),
            "residue.qdim_calls": (calls("residue.qdim_left", "residue.qdim_right"), "count"),
            "residue.qdim_s": (total("residue.qdim_left", "residue.qdim_right"), "s"),
            "residue.derivative_product_s": (total("residue.derivative_matrix_product"), "s"),
            "residue.lift_s": (total("residue.cofactor_lift"), "s"),
            "residue.residue_s": (total("residue.grothendieck_residue"), "s"),
            "residue.lift_exponent_max": (max(sizes["lifts"], default=0), "count"),
            "residue_matfac.self_share": (
                (self_s["residue"] + self_s["matfac"]) / busy if busy else 0.0,
                "ratio",
            ),
            "constraints.derive_s": (total("constraints.derive_constraints"), "s"),
            "constraints.ideal_compare_s": (total("constraints.ideal_compare"), "s"),
            "constraints.compare_qdims_s": (total("constraints.compare_qdims"), "s"),
            "constraints.nonvanishing_s": (total("constraints.nonvanishing_check"), "s"),
            "numberfield.reduce_calls": (calls("numberfield.reduce"), "count"),
            "numberfield.reduce_s": (total("numberfield.reduce"), "s"),
            "numberfield.certify_s": (total("numberfield.certify_value"), "s"),
            "numberfield.interval_certs": (
                sum(1 for status, _ in sizes["certs"] if status == "nonzero_interval"),
                "count",
            ),
            "numberfield.cert_bits_max": (max((b for _, b in sizes["certs"]), default=0), "bits"),
            "catalog.load_s": (total("catalog.load_catalog"), "s"),
            "catalog.six_calls": (calls("catalog.six"), "count"),
            "linalg.solve_calls": (calls("linalg.solve_dense", "linalg.solve_unique"), "count"),
            "linalg.solve_s": (total("linalg.solve_dense", "linalg.solve_unique"), "s"),
            "trace.wall_s": (wall_s, "s"),
        }
    )
    return out
