"""Exit codes, report payloads, and renderings of the command line."""

from __future__ import annotations

import concurrent.futures
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbimf import _groebner, cli, constraints, grading, matfac, numberfield, polyring, residue
from orbimf.catalog import EquivalenceEntry, load_catalog
from orbimf.cli import SCHEMA_VERSION, main, verify_entry
from orbimf.polyring import Poly, parse_poly

DEMO_DIR = Path(__file__).parent / "data" / "demo"
SHIPPED_DIR = Path(cli.__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

ENTRY_IDS = (
    "E14v1_E14v2",
    "Q12v1_Q12v2",
    "U12v1_U12v3",
    "U12v2_U12v3",
    "W12v1_W12v2",
    "W13v1_W13v2",
    "Z13v1_Z13v2",
)


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _mask_seconds(obj):
    if isinstance(obj, dict):
        return {k: (0 if k == "seconds" else _mask_seconds(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_mask_seconds(v) for v in obj]
    return obj


def test_constraints_emit_text(capsys):
    rc, out, _ = _run(capsys, "constraints", "--entry", "E14")
    assert rc == 0
    assert out.strip() == "c^8 + 4"


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_constraints_json_matches_golden(capsys, entry_id):
    rc, out, _ = _run(capsys, "constraints", "--entry", entry_id, "--json")
    assert rc == 0
    golden = json.loads((GOLDEN_DIR / f"constraints_{entry_id}.json").read_text())
    assert json.loads(out) == golden
    assert golden["schema"] == SCHEMA_VERSION
    assert golden["epsilon"] == 1


def test_unknown_entry_exits_2(capsys):
    rc, out, err = _run(capsys, "constraints", "--entry", "E99")
    assert rc == 2
    assert "unknown entry or bad catalog" in err


def test_ambiguous_entry_exits_2(capsys):
    rc, _, err = _run(capsys, "qdim", "--entry", "U12")
    assert rc == 2
    assert "ambiguous" in err


def test_verify_demo_json_matches_golden(capsys):
    rc, out, _ = _run(
        capsys, "verify", "--entry", "DEMOv1_DEMOv2", "--catalog", str(DEMO_DIR), "--json"
    )
    assert rc == 0
    golden = json.loads((GOLDEN_DIR / "verify_demo.json").read_text())
    assert _mask_seconds(json.loads(out)) == golden


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_verify_entry_report_matches_golden(entry_id):
    # byte for byte, key order included
    report = _mask_seconds(verify_entry(load_catalog()[entry_id]))
    golden = (GOLDEN_DIR / f"verify_{entry_id}.json").read_text()
    assert json.dumps(report, indent=2) + "\n" == golden


def test_verify_demo_text_mentions_every_stage(capsys):
    rc, out, _ = _run(
        capsys, "verify", "--entry", "DEMO", "--catalog", str(DEMO_DIR)
    )
    assert rc == 0
    for stage in ("grading", "constraints", "potential", "ideal-compare", "families", "nonvanishing"):
        assert stage in out
    assert "result         PASS" in out
    assert out.count("FAIL") == 0


def test_verify_seed_recorded_in_json(capsys):
    rc, out, _ = _run(
        capsys,
        "verify", "--entry", "DEMO", "--catalog", str(DEMO_DIR), "--json", "--seed", "7",
    )
    assert rc == 0
    assert json.loads(out)["seed"] == 7


def test_verify_all_with_jobs(capsys, tmp_path):
    # a two-entry catalog exercises the process pool and the summary table
    for name in ("potentials.json", "DEMO.json"):
        shutil.copy(DEMO_DIR / name, tmp_path / name)
    clone = json.loads((DEMO_DIR / "DEMO.json").read_text())
    clone["id"] = "DEMOv2_DEMOv1"
    clone["ring_vars_in"], clone["ring_vars_out"] = (
        clone["ring_vars_out"],
        clone["ring_vars_in"],
    )
    clone["ring_vars_in"]["renaming"] = {"x": "u", "y": "v", "z": "w"}
    clone["ring_vars_out"]["renaming"] = {"x": "x", "y": "y", "z": "z"}
    (tmp_path / "CLONE.json").write_text(json.dumps(clone))
    rc, out, _ = _run(
        capsys, "verify", "--all", "--catalog", str(tmp_path), "--jobs", "2"
    )
    assert rc == 0
    assert "DEMOv1_DEMOv2" in out and "DEMOv2_DEMOv1" in out
    assert "entry" in out and "result" in out  # summary table header


def _three_entry_catalog(directory: Path) -> None:
    # by total generator text length Z13 (1247) > U12v1 (281) > W12 (221),
    # the reverse of the id order for W12 and U12v1
    for name in ("potentials.json", "U12v1v3.json", "W12.json", "Z13.json"):
        shutil.copy(SHIPPED_DIR / name, directory / name)


def test_verify_jobs_2_reports_sorted_by_id(capsys, tmp_path):
    _three_entry_catalog(tmp_path)
    rc, out, _ = _run(
        capsys, "verify", "--all", "--catalog", str(tmp_path), "--jobs", "2", "--json"
    )
    assert rc == 0
    ids = [r["entry"] for r in json.loads(out)["reports"]]
    assert ids == ["U12v1_U12v3", "W12v1_W12v2", "Z13v1_Z13v2"]


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the process pool by one that runs its work in this
    process; returns the pools made, each with the workers it was asked
    for and the entry ids submitted to it.  No process is started."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers, self.submitted = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            self.submitted.extend(w[0].id for w in work)
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools


def test_verify_jobs_submits_longest_entries_first(capsys, tmp_path, inline_pool):
    _three_entry_catalog(tmp_path)
    rc, out, _ = _run(
        capsys, "verify", "--all", "--catalog", str(tmp_path), "--jobs", "2", "--json"
    )
    assert rc == 0
    [pool] = inline_pool
    submitted = pool.submitted
    assert submitted == ["Z13v1_Z13v2", "U12v1_U12v3", "W12v1_W12v2"]
    ids = [r["entry"] for r in json.loads(out)["reports"]]
    assert ids == sorted(submitted)


def test_verify_jobs_starts_no_more_workers_than_entries(capsys, tmp_path, inline_pool):
    # a pool forks all its workers at the first submit, so --jobs 50 over
    # the six cheap shipped entries must ask for six
    for path in SHIPPED_DIR.glob("*.json"):
        if path.name != "Q12.json":
            shutil.copy(path, tmp_path / path.name)
    rc, out, _ = _run(
        capsys, "verify", "--all", "--catalog", str(tmp_path), "--jobs", "50", "--json"
    )
    assert rc == 1  # W13's computed quantum dimensions vanish on its families
    assert [pool.max_workers for pool in inline_pool] == [6]
    assert len(json.loads(out)["reports"]) == 6


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_nonpositive_jobs_exits_2(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--entry", "E14", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "qdim", "constraints"])
def test_negative_spair_cap_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--entry", "E14", "--spair-cap", "-1"])
    assert exc.value.code == 2
    assert "--spair-cap: must be at least 0" in capsys.readouterr().err
    # a cap of 0 is a budget, not a usage error: E14's one generator
    # needs no S-pair
    rc, _, _ = _run(capsys, command, "--entry", "E14", "--spair-cap", "0")
    assert rc == 0


@pytest.mark.parametrize("flag, value", [("--jobs", "x"), ("--jobs", "1.5"), ("--spair-cap", "x"), ("--spair-cap", "2.0")])
def test_non_integer_count_exits_2_naming_the_flag(capsys, flag, value):
    # the usage error says what is wrong, not which private parser ran
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--entry", "E14", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag}: must be an integer, not '{value}'" in err
    assert "_int value" not in err


def test_cli_import_leaves_the_process_pool_unloaded():
    # a serial run never pays for the pool modules
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import orbimf.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_bare_package_import_loads_no_module():
    # the package is used through its modules, and importing it loads none
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import orbimf; "
        "print([m for m in sys.modules if m.startswith('orbimf.')])"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_catalog_load_leaves_dataclasses_and_inspect_unloaded(tmp_path):
    # cold start: a fresh process that loads the packaged catalog and a
    # --catalog copy pays for neither module
    copy = tmp_path / "catalog"
    shutil.copytree(SHIPPED_DIR, copy)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from orbimf.catalog import load_catalog; "
        "load_catalog(); load_catalog(sys.argv[2]); "
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-c", code, src, str(copy)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_into_a_closed_pipe_exits_1_without_a_traceback():
    # the read end is closed before the child writes its report, so its
    # writes fail with EPIPE
    code = "import sys; sys.path.insert(0, sys.argv[1]); from orbimf.cli import main; sys.exit(main(['verify', '--entry', 'E14']))"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-I", "-c", code, src], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err and "Exception ignored" not in err, err


def test_verify_all_leaves_mpmath_unloaded():
    # every nonzero certificate the shipped catalog needs is exact (each
    # value is a unit, certified by its inverse), so no interval is formed
    code = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from orbimf.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['verify', '--all', '--json'])\n"
        "print(rc, 'mpmath' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    # exit code 1: W13's computed quantum dimensions vanish on its families
    assert out.stdout.split() == ["1", "False"]


def test_qdim_plain_text(capsys):
    rc, out, _ = _run(capsys, "qdim", "--entry", "E14", "--side", "right")
    assert rc == 0
    assert out.strip() == "qdim_right = c"


def test_qdim_compare_paper_reports_unit(capsys):
    rc, out, _ = _run(capsys, "qdim", "--entry", "E14", "--compare-paper")
    assert rc == 0
    assert "qdim_left = -1/4*c^7" in out
    assert "unmatched" in out
    assert "2 * computed left exactly" in out


def test_qdim_at_family_point(capsys):
    rc, out, _ = _run(
        capsys,
        "qdim", "--entry", "E14", "--family", "Family 1", "--side", "left", "--compare-paper",
    )
    assert rc == 0
    assert "qdim_left [E14 Family 1" in out
    assert "-1/2*c^3 + c" in out
    assert "nonzero_exact" in out
    assert "printed form evaluates to -1/2*c" in out


def test_qdim_family_json_shape(capsys):
    rc, out, _ = _run(
        capsys,
        "qdim", "--entry", "Z13", "--family", "t^18", "--json", "--compare-paper",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["family"] == "Z13 t^18 solutions"
    right = payload["sides"]["right"]
    assert right["computed"]["value"] == "-t^2"
    assert right["computed"]["certificate"]["status"] == "nonzero_exact"
    assert right["agree"] is True


@pytest.mark.parametrize("is_field", [True, False])
def test_is_field_flag_does_not_change_a_certificate(capsys, tmp_path, is_field):
    # with a2 = 0 this printed left form is t^4 - 2t^2 + 2 on the t^8 + 4
    # family, zero at its declared root t0 (t0^2 = 1 + i): a zero divisor,
    # neither a unit nor provably nonzero there, whatever the flag says
    entry = json.loads((SHIPPED_DIR / "W13.json").read_text())
    entry["paper_qdim_left"] = "4*a1^2 - 4*a1 + 2"
    family = next(f for f in entry["families"] if f["label"] == "W13 reduced relation t^8+4")
    family["is_field"] = is_field
    (tmp_path / "W13.json").write_text(json.dumps(entry))
    rc, out, _ = _run(capsys, "qdim", "--entry", "W13", "--family", "t^8+4", "--side", "left",
                      "--compare-paper", "--catalog", str(tmp_path), "--json")
    assert rc == 0
    printed = json.loads(out)["sides"]["left"]["printed"]
    assert printed == {
        "origin": "printed",
        "value": "t^4 - 2*t^2 + 2",
        "certificate": None,
        "error": "no conclusive interval for t^4 - 2*t^2 + 2 up to 2048 bits",
    }


def test_constraints_compare_paper_w12(capsys):
    rc, out, _ = _run(capsys, "constraints", "--entry", "W12", "--compare-paper")
    assert rc == 0  # printed system is contained in the derived one
    assert "printed<=derived: yes" in out
    assert "derived<=printed: no" in out
    assert "derived generator outside the printed ideal" in out


def test_constraints_compare_paper_w12_names_the_eliminated_parameter(capsys):
    # the retry that verify's ideal-compare stage makes: eliminating a2,
    # which the printed set does not mention, from the derived set
    # restores equality, and both commands say so
    rc, out, _ = _run(capsys, "constraints", "--entry", "W12", "--compare-paper")
    assert rc == 0
    assert "derived<=printed: no (equal after eliminating a2)" in out
    rc, out, _ = _run(capsys, "constraints", "--entry", "W12", "--compare-paper", "--json")
    assert rc == 0
    assert json.loads(out)["equal_after_eliminating"] == ["a2"]
    stage = verify_entry(load_catalog()["W12v1_W12v2"])["stages"]["ideal-compare"]
    assert stage["detail"]["equal_after_eliminating"] == ["a2"]


def test_constraints_compare_paper_json_e14(capsys):
    rc, out, _ = _run(
        capsys, "constraints", "--entry", "E14", "--compare-paper", "--json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["derived"] == ["c^8 + 4"]
    assert payload["printed"] == ["c^8 + 4"]


def _unit_ideal_demo(directory):
    """A copy of the demo catalog whose derived constraints 1, k, k^2 - 1
    admit no value of k: their Groebner basis is [1]."""
    shutil.copy(DEMO_DIR / "potentials.json", directory / "potentials.json")
    entry = json.loads((DEMO_DIR / "DEMO.json").read_text())
    entry["parameters"] = ["k"]
    entry["entries"]["d15"] = "k*u"
    entry["entries"]["d26"] = "k*u + x"
    (directory / "DEMO.json").write_text(json.dumps(entry))
    return str(directory)


def test_verify_fails_potential_on_unsatisfiable_constraints(capsys, tmp_path):
    # grading still passes, but the derived constraints have the basis
    # [1], so no parameter values satisfy them
    catalog = _unit_ideal_demo(tmp_path)
    rc, out, _ = _run(capsys, "verify", "--entry", "DEMO", "--catalog", catalog, "--json")
    assert rc == 1
    stages = json.loads(out)["reports"][0]["stages"]
    assert stages["grading"]["ok"]
    assert stages["constraints"]["detail"]["generators"] == ["1", "k", "k^2 - 1"]
    assert stages["potential"]["ok"] is False
    assert "unit ideal" in stages["potential"]["detail"]["message"]


def _spoiled_copy(tmp_path, name, edit):
    """A copy of the packaged catalog with `edit` applied to the data of
    its file `name`."""
    shutil.copytree(SHIPPED_DIR, tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return str(tmp_path)


def _d15_plus_one(data):
    data["entries"]["d15"] = f"({data['entries']['d15']}) + 1"


def _w12_out_on_z11(data):
    data["ring_vars_out"].update(potential="Z11")


@pytest.mark.parametrize("name, edit, entry, line", [
    # W12's out side on Z11: the two central charges differ, and d15 mixes
    # weighted degrees 1, 31/30 and 16/15
    ("W12.json", _w12_out_on_z11, "W12",
     "central charge 11/10 in, 16/15 out; matrix grading fails: no degree assignment makes every generator homogeneous"),
    # E14's d15 plus a constant: no generator degree fits both of its terms
    ("E14.json", _d15_plus_one, "E14",
     "central charge 13/12 both sides; matrix grading fails: no degree assignment makes every generator homogeneous"),
    # W12's in side declared with Z11's weight system
    ("potentials.json", lambda data: data["W12v1"].update(weight_system=[8, 6, 15, 30]), "W12",
     "central charge 11/10 both sides; in: weights differ from W12v1's weight system"),
], ids=["charges-differ", "matrix-fails", "weight-system"])
def test_failing_grading_line_gives_its_reason(capsys, tmp_path, name, edit, entry, line):
    catalog = _spoiled_copy(tmp_path, name, edit)
    rc, out, _ = _run(capsys, "verify", "--entry", entry, "--catalog", catalog)
    assert rc == 1
    assert f"  grading        FAIL  {line}" in out.splitlines()


def test_parameters_take_no_degree(capsys, tmp_path):
    # W12 on Z11: d15 = z + w + a1*u*x + a2*x^2 has one degree only if a1
    # and a2 take degrees -1/30 and -1/15; parameters are constants, of
    # degree 0, so at any nonzero a1 or a2 d15 is not quasi-homogeneous
    catalog = _spoiled_copy(tmp_path, "W12.json", _w12_out_on_z11)
    work = constraints.EntryWork(load_catalog(catalog)["W12v1_W12v2"])
    report = matfac.grading_check(work.m, work.weights[0].combine(work.weights[1]))
    assert report == (False, {}, ("no degree assignment makes every generator homogeneous",))
    rc, out, _ = _run(capsys, "verify", "--entry", "W12", "--catalog", catalog, "--json")
    assert rc == 1
    grading_stage = json.loads(out)["reports"][0]["stages"]["grading"]
    assert grading_stage["ok"] is False
    assert grading_stage["detail"]["matrix"] == {
        "ok": False, "pair_sums": {}, "failing": ["no degree assignment makes every generator homogeneous"],
    }


def test_failing_nonvanishing_line_names_each_side_without_certificate(capsys, tmp_path):
    # E14 Family 1 on the relation c^4 - 3 leaves the constraint variety,
    # so neither of its sides has a certificate
    def edit(data):
        data["families"][0]["generators"][0][1] = "c^4 - 3"

    rc, out, _ = _run(capsys, "verify", "--entry", "E14", "--catalog", _spoiled_copy(tmp_path, "E14.json", edit))
    assert rc == 1
    off = "family does not lie on the constraint variety"
    assert (f"  nonvanishing   FAIL  2/4 certified nonzero (computed invariant); "
            f"E14 Family 1 left: {off}; E14 Family 1 right: {off}") in out.splitlines()


def test_unit_ideal_comparisons_are_vacuous(capsys, tmp_path):
    # modulo the unit ideal every polynomial matches, so neither the ideal
    # comparison nor the quantum-dimension match may claim one
    catalog = _unit_ideal_demo(tmp_path)
    rc, out, _ = _run(capsys, "verify", "--entry", "DEMO", "--catalog", catalog, "--json")
    assert rc == 1
    report = json.loads(out)["reports"][0]
    ideal = report["stages"]["ideal-compare"]
    assert ideal["ok"] is False
    assert ideal["detail"]["vacuous"] == "the derived ideal is the unit ideal"
    for side in ("left", "right"):
        assert report["qdim_match"][side]["status"] == "vacuous"
        assert report["qdim_match"][side]["mod_ideal"] is False
    rc, out, _ = _run(capsys, "verify", "--entry", "DEMO", "--catalog", catalog)
    assert rc == 1
    assert "printed<=derived: vacuous (the derived ideal is the unit ideal)" in out
    assert "printed<=derived: yes" not in out
    assert "modulo the derived ideal" not in out
    rc, out, _ = _run(
        capsys, "constraints", "--entry", "DEMO", "--catalog", catalog, "--compare-paper"
    )
    assert rc == 1
    assert "printed<=derived: vacuous" in out


def _unit_ideal_demo_with_family(directory):
    """`_unit_ideal_demo` with one family k = s, s^2 = 2, which cannot
    satisfy the derived constraints."""
    catalog = _unit_ideal_demo(directory)
    entry = json.loads((directory / "DEMO.json").read_text())
    entry["families"] = [
        {"label": "k = s", "generators": [["s", "s^2 - 2"]], "is_field": True,
         "bindings": {"k": "s"}, "free": [], "free_defaults": {}, "root_choice": {}}
    ]
    (directory / "DEMO.json").write_text(json.dumps(entry))
    return catalog


def _e14_with_misprinted_binding(directory):
    """A copy of the shipped E14 entry whose first family binds c to 2c,
    off the constraint variety c^8 + 4 = 0."""
    entry = json.loads((SHIPPED_DIR / "E14.json").read_text())
    entry["families"][0]["bindings"]["c"] = "2*c"
    (directory / "E14.json").write_text(json.dumps(entry))
    return str(directory)


_OFF_VARIETY = "family does not lie on the constraint variety"


@pytest.mark.parametrize(
    "make, entry, family",
    [(_unit_ideal_demo_with_family, "DEMO", "k = s"), (_e14_with_misprinted_binding, "E14", "Family 1")],
    ids=["unit-ideal", "misprinted-binding"],
)
def test_family_off_the_variety_gets_no_qdim_value(capsys, tmp_path, make, entry, family):
    # modulo the derived ideal the normal forms would give such a family
    # fictitious values (all zero modulo the unit ideal); it gets an error
    catalog = make(tmp_path)
    work = constraints.EntryWork(cli.resolve_entry(load_catalog(catalog), entry))
    fam = cli._find_family(work.entry, family)
    assert not work.family_report(fam).ok
    for side in ("left", "right"):
        nv = constraints.nonvanishing_check(work, fam, side)
        assert (nv.computed.error, nv.printed.error) == (_OFF_VARIETY, _OFF_VARIETY)
    rc, out, _ = _run(capsys, "qdim", "--entry", entry, "--family", family, "--catalog", catalog,
                      "--compare-paper", "--json")
    assert rc == 0
    for block in json.loads(out)["sides"].values():
        for origin in ("computed", "printed"):
            assert block[origin] == {"origin": origin, "value": "?", "certificate": None, "error": _OFF_VARIETY}
        assert block["agree"] is False
    rc, out, _ = _run(capsys, "qdim", "--entry", entry, "--family", family, "--catalog", catalog)
    assert rc == 0
    assert f"= ?  ({_OFF_VARIETY})" in out
    rc, out, _ = _run(capsys, "verify", "--entry", entry, "--catalog", catalog, "--json")
    assert rc == 1
    stages = json.loads(out)["reports"][0]["stages"]
    assert stages["families"]["ok"] is False and stages["nonvanishing"]["ok"] is False
    assert all(r["computed"]["error"] == _OFF_VARIETY for r in stages["nonvanishing"]["detail"] if r["label"] == fam.label)


def test_qdim_at_a_family_point_obeys_the_spair_cap(capsys):
    # the normal forms need the Groebner basis of the derived ideal, so a
    # cap too small for it aborts cleanly (W13 needs 85 pairs)
    rc, out, err = _run(capsys, "qdim", "--entry", "W13", "--family", "t^8+4", "--spair-cap", "5")
    assert rc == 1 and out == ""
    assert err.startswith("verification aborted:")


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_verify_entry_checks_each_family_once(count_calls, entry_id):
    # the families and nonvanishing stages share one report per family
    entry = load_catalog()[entry_id]
    calls = count_calls(constraints, "verify_family")
    verify_entry(entry)
    assert [family for _, family in calls] == list(entry.families)


def test_unknown_family_exits_2(capsys):
    rc, _, err = _run(capsys, "qdim", "--entry", "E14", "--family", "nope")
    assert rc == 2
    assert "no unique family" in err


# -- each per-entry fact is computed once --------------------------------


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_verify_entry_computes_each_fact_once(count_calls, entry_id):
    bases = count_calls(_groebner, "groebner_basis")
    reducers = count_calls(_groebner, "reducer")
    normal_forms = count_calls(_groebner, "normal_form")
    divisor_sets = count_calls(_groebner, "_Divisors")
    products = count_calls(residue, "derivative_supertrace")
    parses = count_calls(EquivalenceEntry, "six")
    squares = count_calls(matfac, "square")
    matmuls = count_calls(matfac, "matmul")
    specs = count_calls(numberfield, "QuotientSpec")
    poly_products = count_calls(Poly, "__mul__")
    solves = count_calls(grading, "weights_from_potential")
    catalog = load_catalog()
    entry = catalog[entry_id]
    # one quotient ring per family, built at load and shared by its
    # family check and both nonvanishing sides
    assert len(specs) == sum(len(e.families) for e in catalog.values())
    specs.clear()
    verify_entry(entry)
    assert not specs
    assert len(parses) == 1
    # the square is a scalar times the identity, and the supertrace a
    # Jacobian determinant; no stage forms an 8x8 product
    assert not squares
    assert not matmuls
    # that scalar d15*d26 - d16*d25 - d17*d35 is formed once, with the
    # factorization, and the derivation reads it
    d15, _, _, _, d26, _ = entry.six()
    assert sum(a is d15 and b is d26 for a, b in poly_products) == 1
    sets = [frozenset(args[0]) for args in bases]
    # W12's printed set differs from the derived one (eliminating a2 from
    # the derived set gives the printed set again); every other entry
    # ships printed generators identical to the derived ones
    w12 = entry_id == "W12v1_W12v2"
    assert len(sets) == len(set(sets)) == (2 if w12 else 1)
    # each side's weights are solved once, for the grading stage, both
    # lifts and the grading test; every shipped factorization is graded,
    # so each residue forms only its slice, both from one packing of the
    # Jacobian: the terms free of sources for the left one, of targets for
    # the right one
    assert [args[1] for args in solves] == [entry.side_in.vars, entry.side_out.vars]
    sources, targets = entry.potential_in().support_vars(), entry.potential_out().support_vars()
    assert [args[2] for args in products] == [(sources, targets)]
    # quotient rings reduce through `reducer` too, over their minimal
    # polynomials, which live in the family's own table
    def over_entry(args):
        return all(p.vt == entry.vt for p in args[0])

    constraint_reducers = [args for args in reducers if over_entry(args)]
    quotient_reducers = [args for args in reducers if not over_entry(args)]
    assert bool(quotient_reducers) == bool(entry.families)
    # divisor records are built once per basis, and every stage that
    # reduces shares them, never once per reduced polynomial
    assert not normal_forms
    assert len(constraint_reducers) == (2 if w12 else 1)
    # and once per quotient ring, however many elements it reduces
    assert len({id(args[0]) for args in quotient_reducers}) == len(quotient_reducers)
    assert len(quotient_reducers) <= len(entry.families)
    # groebner_basis builds one record set for Buchberger and one for
    # its final interreduction pass
    assert len(divisor_sets) == 2 * len(bases) + len(constraint_reducers) + len(quotient_reducers)


def test_verify_all_fraction_budget(capsys, monkeypatch, tmp_path):
    # a warm `verify --all --json` over the six entries other than Q12
    # keeps its exact arithmetic in integers: 1,431 Fractions before the
    # lifts ran on integer weights and each side's weights were solved
    # once, 603 with generator degrees read in integers as well
    for path in SHIPPED_DIR.glob("*.json"):
        if path.name == "potentials.json" or json.loads(path.read_text())["id"] != "Q12v1_Q12v2":
            shutil.copy(path, tmp_path / path.name)
    argv = ("verify", "--all", "--catalog", str(tmp_path), "--json")
    assert _run(capsys, *argv)[0] == 1  # W13 fails by design
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    rc = main(list(argv))
    monkeypatch.undo()
    capsys.readouterr()
    assert rc == 1
    assert len(made) <= 650


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_verify_entry_reduces_each_quantum_dimension_once(count_calls, monkeypatch, entry_id):
    # the normal forms modulo the derived ideal are kept on EntryWork and
    # shared by the nonvanishing and qdim-match stages
    reduced = []
    make_reducer = constraints.reducer

    def counting_reducer(basis):
        reduce = make_reducer(basis)

        def counted(p):
            reduced.append(p)
            return reduce(p)

        return counted

    monkeypatch.setattr(constraints, "reducer", counting_reducer)
    works = count_calls(constraints.EntryWork, "reducer_for")
    verify_entry(load_catalog()[entry_id])
    work = works[0][0]
    for side in ("left", "right"):
        for poly in (work.qdims[side], work.entry.paper_qdim(side)):
            assert sum(p is poly for p in reduced) == 1, side


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_verify_entry_parses_nothing(count_calls, entry_id):
    # the loader parses every catalog text once, the potentials through
    # their renamings; verification reads the parsed views only
    entry = load_catalog()[entry_id]
    parses = count_calls(polyring, "parse_poly")
    verify_entry(entry)
    assert not parses


@pytest.mark.parametrize("entry_id", ENTRY_IDS + ("unit-ideal",))
def test_verify_entry_splits_the_square_residual_once_per_sign(count_calls, monkeypatch, tmp_path, entry_id):
    # derive_constraints is the one place that splits the residual over
    # ring monomials, once per sign it tries (both, when the derived ideal
    # is the unit ideal); the potential stage, which then only has to show
    # that the constraints are consistent, reduces the constant 1 alone
    if entry_id == "unit-ideal":
        entry, signs_tried = load_catalog(_unit_ideal_demo(tmp_path))["DEMOv1_DEMOv2"], 2
    else:
        entry, signs_tried = load_catalog()[entry_id], 1
    splits = count_calls(Poly, "coefficients_wrt")
    make_reducer = constraints.reducer
    in_stage = [False]
    reduced_in_stage = []

    def counting_reducer(basis):
        reduce = make_reducer(basis)

        def counted(p):
            if in_stage[0]:
                reduced_in_stage.append(p)
            return reduce(p)

        return counted

    verify_potential = cli.verify_potential

    def potential_stage(*args):
        in_stage[0] = True
        try:
            return verify_potential(*args)
        finally:
            in_stage[0] = False

    monkeypatch.setattr(constraints, "reducer", counting_reducer)
    monkeypatch.setattr(cli, "verify_potential", potential_stage)
    report = verify_entry(entry)
    ring = set(entry.vt.ring_vars)
    assert sum(set(names) == ring for _, names in splits) == signs_tried
    assert reduced_in_stage == [Poly.const(entry.vt, 1)]
    assert report["stages"]["potential"]["ok"] is (entry_id != "unit-ideal")


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_verify_entry_decides_each_unit_ideal_once(monkeypatch, entry_id):
    # the potential stage, ideal-compare and qdim-match all ask whether an
    # ideal is the unit ideal; each distinct generator set reduces the
    # constant 1 once (W12's printed set differs from its derived one)
    entry = load_catalog()[entry_id]
    one = Poly.const(entry.vt, 1)
    make_reducer = constraints.reducer
    ones = []

    def counting_reducer(basis):
        reduce = make_reducer(basis)
        ones.append(0)
        at = len(ones) - 1

        def counted(p):
            ones[at] += p == one
            return reduce(p)

        return counted

    monkeypatch.setattr(constraints, "reducer", counting_reducer)
    verify_entry(entry)
    assert ones == [1] * (2 if entry_id == "W12v1_W12v2" else 1)


def _substitute_by_adding(p, bindings):
    """Poly.substitute as a sum of per-term products, one `+` per term."""
    target = next(iter(bindings.values())).vt
    acc = Poly.zero(target)
    for m, c in p.terms():
        part = Poly.const(target, c)
        for name, e in zip(p.vt.names, m):
            if e:
                base = bindings[name] if name in bindings else Poly.var(target, name)
                part = part * base**e
        acc = acc + part
    return acc


def test_substitute_matches_sum_of_terms_on_w13_families(shipped_work):
    work = shipped_work("W13v1_W13v2")
    entry = work.entry
    polys = list(work.derived.generators) + list(work.qdims.values())
    polys += [entry.paper_qdim(side) for side in ("left", "right")]
    assert entry.families
    for family in entry.families:
        ring = work.family_ring(family)
        point = {
            f: parse_poly(str(family.default_value(f)), ring.spec.vt) for f in family.free
        }
        for p in polys:
            q = p.substitute(ring.bindings)
            assert q == _substitute_by_adding(p, ring.bindings)
            assert all(c for _, c in q.terms())
            if point:
                assert q.substitute(point) == _substitute_by_adding(q, point)
