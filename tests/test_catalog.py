"""Catalog loading, schema validation, alias resolution, overrides."""

from __future__ import annotations

import json
import pickle
import shutil
from pathlib import Path

import pytest

from conftest import same_as_sympy
from orbimf.catalog import (
    CatalogError,
    load_catalog,
    load_entry,
    default_catalog_dir,
    resolve_entry,
)
from orbimf.matfac import ENTRY_NAMES
from orbimf.numberfield import reduce
from orbimf.polyring import Poly, format_poly, parse_poly

DEMO_DIR = Path(__file__).parent / "data" / "demo"

ENTRY_IDS = (
    "E14v1_E14v2",
    "Q12v1_Q12v2",
    "U12v1_U12v3",
    "U12v2_U12v3",
    "W12v1_W12v2",
    "W13v1_W13v2",
    "Z13v1_Z13v2",
)


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def _shipped_json(entry_id):
    """The JSON object of the shipped file whose id is `entry_id`."""
    paths = sorted(default_catalog_dir().glob("*.json"))
    records = (json.loads(p.read_text()) for p in paths if p.name != "potentials.json")
    return next(r for r in records if r["id"] == entry_id)


def test_defs_are_parsed_once_per_entry(monkeypatch):
    from orbimf import catalog as catalog_module

    parsed = []
    original = catalog_module.parse_poly

    def counting(text, vt, defs=None, rename=None):
        parsed.append(text)
        return original(text, vt, defs, rename)

    monkeypatch.setattr(catalog_module, "parse_poly", counting)
    # E14 ships two defs; loading validates every entry polynomial
    entry = load_entry(default_catalog_dir() / "E14.json")
    entry.six()
    entry.six()
    defs = _shipped_json(entry.id)["defs"]
    assert defs
    for text in defs.values():
        assert parsed.count(text) == 1


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_parsed_texts_equal_their_sympy_expansion(catalog, entry_id):
    # an independent reading of every shipped text, defs expanded by sympy
    entry, data = catalog[entry_id], _shipped_json(entry_id)
    for key, p in zip(ENTRY_NAMES, entry.six()):
        assert same_as_sympy(p, data["entries"][key], data["defs"].items()), key
    for text, p in zip(data["paper_constraints"], entry.paper_constraints()):
        assert same_as_sympy(p, text), text
    assert same_as_sympy(entry.paper_qdim("left"), data["paper_qdim_left"])
    assert same_as_sympy(entry.paper_qdim("right"), data["paper_qdim_right"])


def test_shipped_catalog_ids(catalog):
    assert tuple(sorted(catalog)) == ENTRY_IDS


def test_every_entry_validates(catalog):
    # each shipped file loads on its own to the entry the catalog holds
    paths = [p for p in sorted(default_catalog_dir().glob("*.json")) if p.name != "potentials.json"]
    assert len(paths) == len(catalog)
    for path in paths:
        entry = load_entry(path)
        assert catalog[entry.id] == entry


def test_resolve_exact_prefix_substring(catalog):
    assert resolve_entry(catalog, "E14v1_E14v2").id == "E14v1_E14v2"
    assert resolve_entry(catalog, "E14").id == "E14v1_E14v2"
    assert resolve_entry(catalog, "w12").id == "W12v1_W12v2"
    assert resolve_entry(catalog, "U12v1").id == "U12v1_U12v3"
    # separator-insensitive substring
    assert resolve_entry(catalog, "w13v1w13v2").id == "W13v1_W13v2"


def test_resolve_rejects_ambiguous_and_unknown(catalog):
    with pytest.raises(CatalogError, match="ambiguous"):
        resolve_entry(catalog, "U12")
    with pytest.raises(CatalogError, match="no catalog entry"):
        resolve_entry(catalog, "E99")


def test_entry_texts_round_trip(catalog):
    # formatting then re-parsing must be the identity on every stored poly
    for entry in catalog.values():
        polys = list(entry.six())
        polys += [entry.potential_in(), entry.potential_out()]
        polys += list(entry.paper_constraints())
        polys += [entry.paper_qdim("left"), entry.paper_qdim("right")]
        for p in polys:
            assert parse_poly(format_poly(p), entry.vt) == p


def test_sides_split_ring_and_parameters(catalog):
    for entry in catalog.values():
        ring = set(entry.side_in.vars) | set(entry.side_out.vars)
        assert ring == set(entry.vt.ring_vars)
        assert set(entry.parameters) == set(entry.vt.param_vars)
        assert not ring & set(entry.parameters)


def test_family_defaults_parse(catalog):
    for entry in catalog.values():
        for fam in entry.families:
            for free in fam.free:
                fam.default_value(free)  # must be a rational literal


def test_local_potentials_table_overrides_packaged():
    demo = load_catalog(DEMO_DIR)["DEMOv1_DEMOv2"]
    assert demo.side_in.potential_key == "DEMOv1"
    assert format_poly(demo.potential_in()) == "x^2 + y^2 + z^2"
    assert format_poly(demo.potential_out()) == "u^2 + v^2 + w^2"


def test_env_var_picks_catalog_dir(monkeypatch):
    monkeypatch.setenv("ORBIMF_CATALOG", str(DEMO_DIR))
    assert default_catalog_dir() == DEMO_DIR
    assert sorted(load_catalog()) == ["DEMOv1_DEMOv2"]


def _demo_data():
    return json.loads((DEMO_DIR / "DEMO.json").read_text())


def _write(tmp_path, data):
    (tmp_path / "potentials.json").write_text((DEMO_DIR / "potentials.json").read_text())
    target = tmp_path / "entry.json"
    target.write_text(json.dumps(data))
    return target


def test_missing_schema_key_rejected(tmp_path):
    data = _demo_data()
    del data["entries"]
    with pytest.raises(CatalogError, match="schema keys off"):
        load_entry(_write(tmp_path, data))


def test_unknown_potential_rejected(tmp_path):
    data = _demo_data()
    data["ring_vars_in"]["potential"] = "NOPE"
    with pytest.raises(CatalogError, match="unknown potential"):
        load_entry(_write(tmp_path, data))


def test_non_injective_renaming_rejected(tmp_path):
    data = _demo_data()
    data["ring_vars_out"]["renaming"] = {"x": "u", "y": "u", "z": "w"}
    with pytest.raises(CatalogError, match="not injective"):
        load_entry(_write(tmp_path, data))


def test_wrong_entry_keys_rejected(tmp_path):
    data = _demo_data()
    data["entries"]["d99"] = data["entries"].pop("d35")
    with pytest.raises(CatalogError, match="entries must be exactly"):
        load_entry(_write(tmp_path, data))


def test_family_must_cover_parameters(tmp_path):
    data = _demo_data()
    data["parameters"] = ["a1"]
    data["families"] = [
        {
            "label": "broken",
            "generators": [],
            "is_field": False,
            "bindings": {},
            "free": [],
        }
    ]
    with pytest.raises(CatalogError, match="cover parameters"):
        load_entry(_write(tmp_path, data))


def test_correction_text_must_match_shipped(tmp_path):
    data = _demo_data()
    data["corrections"] = [
        {
            "location": "d15",
            "printed": "u + x",
            "corrected": "u - 2*x",
            "justification": "test",
        }
    ]
    with pytest.raises(CatalogError, match="differs from the shipped text"):
        load_entry(_write(tmp_path, data))


def test_correction_location_must_exist(tmp_path):
    # the demo entry ships no printed constraints, so index 0 is out of range
    for location in ("d99", "paper_constraints[0]"):
        data = _demo_data()
        data["corrections"] = [
            {
                "location": location,
                "printed": "u",
                "corrected": "u",
                "justification": "test",
            }
        ]
        with pytest.raises(CatalogError, match="unknown location"):
            load_entry(_write(tmp_path, data))


def _e14_edited(tmp_path, edit):
    """A copy of the shipped E14 entry with `edit` applied to its data;
    the packaged potentials table serves it."""
    data = json.loads((default_catalog_dir() / "E14.json").read_text())
    edit(data)
    target = tmp_path / "E14.json"
    target.write_text(json.dumps(data))
    return target


def _e14_with(tmp_path, edit):
    """A copy of the shipped E14 entry with `edit` applied to its first
    family."""
    return _e14_edited(tmp_path, lambda data: edit(data["families"][0]))


def test_family_bindings_must_parse(tmp_path):
    path = _e14_with(tmp_path, lambda fam: fam["bindings"].update(c="c^^2"))
    with pytest.raises(CatalogError, match="binding of c does not parse"):
        load_entry(path)


def test_family_free_defaults_must_be_rationals_of_free_parameters(tmp_path):
    path = _e14_with(tmp_path, lambda fam: fam["free_defaults"].update(a1="one half"))
    with pytest.raises(CatalogError, match="free_defaults a1='one half'"):
        load_entry(path)
    path = _e14_with(tmp_path, lambda fam: fam["free_defaults"].update(c="1/2"))
    with pytest.raises(CatalogError, match="free_defaults c='1/2'"):
        load_entry(path)


@pytest.mark.parametrize("value", [0.1, True, 1])
def test_family_free_defaults_must_be_strings(tmp_path, capsys, value):
    # a JSON number or boolean is no rational text: 0.1 would load as the
    # binary fraction 3602879701896397/36028797018963968, and true as 1
    from orbimf.cli import main

    path = _e14_with(tmp_path, lambda fam: fam["free_defaults"].update(a1=value))
    with pytest.raises(CatalogError, match=f"free_defaults a1={value!r}"):
        load_entry(path)
    assert main(["qdim", "--entry", "E14", "--family", "Family 1", "--catalog", str(tmp_path)]) == 2
    assert "bad catalog" in capsys.readouterr().err


def test_family_root_choice_must_give_a_generator_two_decimals(tmp_path):
    for bad in ({"c": ["1.09"]}, {"c": ["1.09", "i"]}, {"t": ["1", "0"]}):
        path = _e14_with(tmp_path, lambda fam: fam.update(root_choice=bad))
        with pytest.raises(CatalogError, match="root_choice"):
            load_entry(path)


def test_bad_family_field_exits_2_from_verify(tmp_path, capsys):
    from orbimf.cli import main

    _e14_with(tmp_path, lambda fam: fam["free_defaults"].update(a1="one half"))
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    assert "bad catalog" in capsys.readouterr().err


def _exits_2_naming(tmp_path, capsys, what):
    from orbimf.cli import main

    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and f"{what} does not parse" in err


def test_unparsable_minimal_polynomial_exits_2(tmp_path, capsys):
    _e14_with(tmp_path, lambda fam: fam.update(generators=[["c", "c^^4 - 2"]]))
    _exits_2_naming(tmp_path, capsys, "minimal polynomial of c")


def test_non_monic_minimal_polynomial_exits_2(tmp_path, capsys):
    from orbimf.cli import main

    _e14_with(tmp_path, lambda fam: fam.update(generators=[["c", "2*c^4 - 4*c^2 + 4"]]))
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and "minimal polynomial of 'c' must be monic" in err


def test_repeated_generator_name_exits_2(tmp_path, capsys):
    from orbimf.cli import main

    _e14_with(tmp_path, lambda fam: fam.update(generators=[["c", "c^2 + 1"], ["c", "c^2 + 1"]]))
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and "family 'E14 Family 1': duplicate variable names" in err


def test_repeated_parameter_exits_2(tmp_path, capsys):
    from orbimf.cli import main

    _e14_edited(tmp_path, lambda data: data["parameters"].append("a1"))
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and "duplicate variable names" in err


@pytest.mark.parametrize(
    "edit, what",
    [
        (lambda data: data["families"][0].pop("label"), "families[0] lacks key 'label'"),
        (lambda data: data["families"][0].update(generators=[["c"]]), "families[0] is malformed"),
        (lambda data: data["corrections"][1].pop("justification"), "corrections[1] lacks key 'justification'"),
    ],
    ids=["no-label", "one-element-generator", "no-justification"],
)
def test_malformed_family_or_correction_record_exits_2(tmp_path, capsys, edit, what):
    from orbimf.cli import main

    _e14_edited(tmp_path, edit)
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and what in err


def _as_pairs(obj):
    return [list(kv) for kv in obj.items()]


@pytest.mark.parametrize(
    "where, value, what",
    [
        (["ring_vars_in", "vars"], 5, "ring_vars_in is malformed"),
        (["ring_vars_in", "renaming"], 5, "ring_vars_in is malformed"),
        (["ring_vars_in"], 5, "ring_vars_in is malformed"),
        (["ring_vars_in", "potential"], ["E14v1"], "ring_vars_in is malformed"),
        (["id"], 5, "id is malformed"),
        ([], 5, "top-level value is not a JSON object"),
        (["families", 0, "free", 0], 5, "families[0] is malformed: 5 is not a string"),
        (["corrections", 0, "location"], ["d17"], "corrections[0] is malformed"),
        # lists where an object is wanted, and the reverse, that tuple()
        # and dict() would read without complaint
        (["paper_constraints"], "c", "paper_constraints is malformed: 'c' is not a list"),
        (["paper_constraints"], {"c": "c"}, "paper_constraints is malformed: {'c': 'c'} is not a list"),
        (["entries"], _as_pairs, "entries is malformed: [['d15', "),
        (["ring_vars_in", "renaming"], _as_pairs, "ring_vars_in is malformed: [['x', 'x'], "),
        (["families"], {}, "families is malformed: {} is not a list"),
        (["families", 0, "generators"], {"c": "c^4 - 2*c^2 + 2"}, "families[0] is malformed: {'c': "),
        (["families", 0, "generators", 0], {"c": "c^4 - 2*c^2 + 2"}, "families[0] is malformed: {'c': "),
        (["families", 0, "bindings"], _as_pairs, "families[0] is malformed: [['c', 'c']] is not an object"),
        (["families", 0, "free_defaults"], [], "families[0] is malformed: [] is not an object"),
        (["families", 0, "root_choice"], [], "families[0] is malformed: [] is not an object"),
        (["corrections"], {}, "corrections is malformed: {} is not a list"),
    ],
    ids=[
        "side-vars", "side-renaming", "side", "side-potential", "id", "top-level", "free", "correction-location",
        "paper-constraints-string", "paper-constraints-object", "entries-pairs", "renaming-pairs", "families-object",
        "generators-object", "generator-object", "bindings-pairs", "free-defaults-list", "root-choice-list",
        "corrections-object",
    ],
)
def test_catalog_record_of_the_wrong_type_exits_2(tmp_path, capsys, where, value, what):
    from orbimf.cli import main

    # the value at `where` in a copy of E14 replaced, or mapped through
    # `value` if it is callable; [] is the whole file
    node = holder = [json.loads((default_catalog_dir() / "E14.json").read_text())]
    keys = [0, *where]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value(node[keys[-1]]) if callable(value) else value
    (tmp_path / "E14.json").write_text(json.dumps(holder[0]))
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and what in err


@pytest.mark.parametrize(
    "key, value, what",
    [("defs", [], "defs is malformed"), ("entries", ["d15", "d16"], "entries is malformed")],
    ids=["defs-list", "entries-list"],
)
def test_top_level_value_of_wrong_type_exits_2(tmp_path, capsys, key, value, what):
    from orbimf.cli import main

    _e14_edited(tmp_path, lambda data: data.update({key: value}))
    with pytest.raises(CatalogError, match=what):
        load_entry(tmp_path / "E14.json")
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and what in err


@pytest.mark.parametrize(
    "edit, what",
    [
        (lambda data: data.update(paper_qdim_left=5), "paper qdim_left is not a string: 5"),
        (lambda data: data.update(parameters=5), "parameters is malformed"),
        (lambda data: data.update(paper_constraints=5), "paper_constraints is malformed"),
        (lambda data: data["families"][0].update(generators=[["c", 5]]), "minimal polynomial of c is not a string: 5"),
        (lambda data: data["families"][0]["bindings"].update(c=5), "binding of c is not a string: 5"),
        (lambda data: data.update(defs={"x1": 5}), "def x1 is not a string: 5"),
        (lambda data: data["entries"].update(d15=5), "entry d15 is not a string: 5"),
    ],
    ids=["paper-qdim", "parameters", "paper-constraints", "minimal-polynomial", "binding", "def", "entry"],
)
def test_catalog_text_that_is_not_a_string_exits_2(tmp_path, capsys, edit, what):
    from orbimf.cli import main

    _e14_edited(tmp_path, edit)
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and what in err


def _e14_with_potential(tmp_path, edit):
    """A copy of the shipped E14 entry next to a local potentials.json
    whose record of E14's first potential has `edit` applied; returns
    that potential's key."""
    table = json.loads((default_catalog_dir() / "potentials.json").read_text())
    key = json.loads((default_catalog_dir() / "E14.json").read_text())["ring_vars_in"]["potential"]
    edit(table[key])
    (tmp_path / "potentials.json").write_text(json.dumps(table))
    _e14_edited(tmp_path, lambda data: None)
    return key


@pytest.mark.parametrize(
    "edit, what",
    [
        (lambda rec: rec.update(poly="x^^4 + y^3 + z^2"), "does not parse"),
        (lambda rec: rec.update(poly=rec["poly"] + " + q"), "does not parse: undeclared identifier 'q'"),
        (lambda rec: rec.update(weight_system=[0, 1, 1, 5]), "weight system entries must be positive"),
        (lambda rec: rec.pop("vars"), "lacks key 'vars'"),
        (lambda rec: rec.pop("poly"), "lacks key 'poly'"),
        (lambda rec: rec.pop("weight_system"), "lacks key 'weight_system'"),
    ],
    ids=["unparsable", "undeclared-name", "bad-weights", "no-vars", "no-poly", "no-weights"],
)
def test_malformed_potential_record_exits_2(tmp_path, capsys, edit, what):
    from orbimf.cli import main

    key = _e14_with_potential(tmp_path, edit)
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and f"potential {key}" in err and what in err


def test_truncated_potentials_table_exits_2(tmp_path, capsys):
    from orbimf.cli import main

    _e14_edited(tmp_path, lambda data: None)
    table = (default_catalog_dir() / "potentials.json").read_text()
    (tmp_path / "potentials.json").write_text(table[: len(table) // 2])
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and f"{tmp_path / 'potentials.json'}: invalid JSON" in err


def _unreadable_exits_2(tmp_path, capsys, spoil):
    """A copy of the packaged catalog with `spoil(directory)` applied must
    be a catalog error naming the spoiled file, not a traceback."""
    from orbimf.cli import main

    directory = tmp_path / "catalog"
    shutil.copytree(default_catalog_dir(), directory)
    path = spoil(directory)
    assert main(["verify", "--all", "--catalog", str(directory)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and f"{path}: cannot read" in err


def test_entry_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    def spoil(directory):
        path = directory / "W12.json"
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        return path

    _unreadable_exits_2(tmp_path, capsys, spoil)


def test_directory_named_like_an_entry_file_exits_2(tmp_path, capsys):
    def spoil(directory):
        path = directory / "X.json"
        path.mkdir()
        return path

    _unreadable_exits_2(tmp_path, capsys, spoil)


def test_unparsable_paper_constraint_exits_2(tmp_path, capsys):
    _e14_edited(tmp_path, lambda data: data.update(paper_constraints=["c^^8 + 4"]))
    _exits_2_naming(tmp_path, capsys, "constraint 'c^^8 + 4'")


def test_unparsable_paper_qdim_exits_2(tmp_path, capsys):
    _e14_edited(tmp_path, lambda data: data.update(paper_qdim_right="-c^^7/2"))
    _exits_2_naming(tmp_path, capsys, "paper qdim_right")


def test_entry_text_with_a_non_ascii_digit_exits_2(tmp_path, capsys):
    _e14_edited(tmp_path, lambda data: data["entries"].update(d16="v^2 + v*y + y\u00b2"))
    _exits_2_naming(tmp_path, capsys, "entry d16")


def test_def_named_like_a_variable_exits_2(tmp_path, capsys):
    from orbimf.cli import main

    _e14_edited(tmp_path, lambda data: data["defs"].update(a1="c^2"))
    assert main(["verify", "--all", "--catalog", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad catalog" in err and "defs named like a variable or parameter: ['a1']" in err


def test_def_may_use_only_earlier_defs(tmp_path):
    def swap(data):
        data["defs"] = dict(reversed(list(data["defs"].items())))

    with pytest.raises(CatalogError, match="def kappa2 does not parse: undeclared identifier 'kappa1'"):
        load_entry(_e14_edited(tmp_path, swap))


def test_loaded_entry_survives_pickle(catalog):
    # a process pool receives each entry pickled, parsed views included;
    # a quotient ring that has reduced already leaves its reducer behind
    for entry in catalog.values():
        for ring in entry.family_rings:
            reduce(Poly.const(ring.spec.vt, 1), ring.spec)
        back = pickle.loads(pickle.dumps(entry))
        assert back == entry and back.vt == entry.vt
        assert back.six() == entry.six()
        assert back.paper_constraints() == entry.paper_constraints()
        assert [back.paper_qdim(s) for s in ("left", "right")] == [
            entry.paper_qdim(s) for s in ("left", "right")
        ]
        assert (back.potential_in(), back.potential_out()) == (entry.potential_in(), entry.potential_out())
        assert back.potential_in().vt == entry.vt
        assert back.family_rings == entry.family_rings
        assert len(back.family_rings) == len(entry.families)
        for ring, known in zip(back.family_rings, entry.family_rings):
            assert ring.bindings == known.bindings
            for g in ring.spec.generators:
                power = Poly.var(ring.spec.vt, g) ** 9
                assert reduce(power, ring.spec) == reduce(power, known.spec)


def test_shipped_corrections_present(catalog):
    # the misprint record travels with the data
    locations = {
        eid: [c.location for c in entry.corrections]
        for eid, entry in catalog.items()
        if entry.corrections
    }
    assert locations == {
        "E14v1_E14v2": ["d17", "d17"],
        "Q12v1_Q12v2": ["paper_constraints[2]"],
        "U12v2_U12v3": ["d16", "d25", "d26"],
        "Z13v1_Z13v2": ["d17", "d17"],
    }
    for entry in catalog.values():
        for corr in entry.corrections:
            assert corr.printed != corr.corrected
            assert corr.justification
