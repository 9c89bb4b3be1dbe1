import json
import os
import sys

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzygamma import enumeration, ideals, serialize, theorems
from fuzzygamma.cli import main
from fuzzygamma.serialize import (CENSUS_SCHEMA, CLASSIFICATION_SCHEMA,
                                  REPORT_SCHEMA, structure_from_dict,
                                  structure_to_dict)
from fuzzygamma.structure import StructureError

T1_DOC = {"elements": ["e"], "gammas": ["g"], "table": [[[0]]], "order": []}
LZ2_DOC = {"elements": ["a", "b"], "gammas": ["g"],
           "table": [[[0, 0]], [[1, 1]]], "order": []}
NZ2_DOC = {"elements": ["z", "a"], "gammas": ["g"],
           "table": [[[0, 0]], [[0, 0]]], "order": [[0, 1]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", write(tmp_path, "t1.json", T1_DOC)]) == 0
    assert "valid structure" in capsys.readouterr().out


def test_validate_cyclic_order(tmp_path, capsys):
    doc = dict(NZ2_DOC, order=[[0, 1], [1, 0]])
    assert main(["validate", write(tmp_path, "bad.json", doc)]) == 2
    assert "antisymmetry" in capsys.readouterr().err


def test_validate_bad_index(tmp_path, capsys):
    doc = dict(T1_DOC, table=[[[3]]])
    assert main(["validate", write(tmp_path, "bad.json", doc)]) == 2


@pytest.mark.parametrize("order", [[[False, True]], [[0, True]]])
def test_validate_rejects_boolean_order_pair(tmp_path, capsys, order):
    doc = dict(NZ2_DOC, order=order)
    assert main(["validate", write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "bad order pair" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    ([T1_DOC], "must be a JSON object"),
    ({k: v for k, v in T1_DOC.items() if k != "order"}, "missing 'order'"),
    (dict(NZ2_DOC, order=[[0, 5]]), "(0, 5) out of range"),
    # iterables of no pairs, yet no JSON array
    (dict(T1_DOC, order=""), "'order' must be a list of pairs"),
    (dict(T1_DOC, order={}), "'order' must be a list of pairs"),
])
def test_validate_rejects_malformed_documents(tmp_path, capsys, doc, message):
    assert main(["validate", write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    # one error line, no traceback
    assert len(err.splitlines()) == 1


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 2


def test_non_utf8_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    spath = write(tmp_path, "lz2.json", LZ2_DOC)
    fpath = write(tmp_path, "f.json", {"a": 0.5, "b": 1.0})
    for argv in (["validate", str(bad)], ["compose", spath, str(bad), fpath],
                 ["compose", spath, fpath, str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_deeply_nested_json_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert main(["validate", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: invalid JSON:")
    assert "Traceback" not in err


def test_over_long_integer_exit_2(tmp_path, capsys):
    # past Python's integer digit limit where it has one, else out of range
    spath = tmp_path / "bigint.json"
    spath.write_text(json.dumps(dict(T1_DOC, order=[[9, 0]]))
                     .replace("9", "9" * 5000))
    fpath = tmp_path / "bigint-f.json"
    fpath.write_text(json.dumps({"e": 1}).replace("1", "1" * 5000))
    t1 = write(tmp_path, "t1.json", T1_DOC)
    for argv in (["validate", str(spath)], ["classify", str(spath)],
                 ["check", str(spath), "--all"],
                 ["compose", t1, str(fpath), t1]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


# x γ y = the other element of x: order-compatible, not associative
SWAP2_DOC = {"elements": ["a", "b"], "gammas": ["g"],
             "table": [[[1, 1]], [[0, 0]]], "order": []}


@pytest.mark.parametrize("argv, run", [
    (["classify"], ideals.classify),
    (["check", "--all"], theorems.check_all),
])
def test_non_associative_structure_exit_2(tmp_path, capsys, argv, run):
    with pytest.raises(ValueError) as library:
        run(structure_from_dict(SWAP2_DOC))
    path = write(tmp_path, "swap2.json", SWAP2_DOC)
    assert main(argv[:1] + [path] + argv[1:]) == 2
    assert capsys.readouterr().err == f"error: {library.value}\n"


def test_validate_no_compat_accepts_incompatible_order(tmp_path, capsys):
    # the swap table with a < b: a ≤ b but a γ a = b is not ≤ b γ a = a
    doc = dict(SWAP2_DOC, order=[[0, 1]])
    path = write(tmp_path, "incompat.json", doc)
    assert main(["validate", path]) == 2
    capsys.readouterr()
    assert main(["validate", path, "--no-compat"]) == 0
    assert "order-compatible: False" in capsys.readouterr().out


def test_classify_lz2(tmp_path, capsys):
    assert main(["classify", write(tmp_path, "lz2.json", LZ2_DOC)]) == 0
    out = capsys.readouterr().out
    assert "regular: positive" in out
    assert main(["classify", write(tmp_path, "nz2.json", NZ2_DOC)]) == 0
    out = capsys.readouterr().out
    assert "  regular: negative" in out
    assert "failing element: a" in out


def test_classify_json_schema(tmp_path, capsys):
    assert main(["classify", "--json",
                 write(tmp_path, "nz2.json", NZ2_DOC)]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, CLASSIFICATION_SCHEMA)
    assert not doc["classes"]["regular"]["holds"]
    assert doc["classes"]["regular"]["failing_element"] == "a"


def test_check_all_nz2(tmp_path, capsys):
    assert main(["check", write(tmp_path, "nz2.json", NZ2_DOC),
                 "--all", "--levels", "6"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 25
    assert all("holds" in line for line in out)


def test_check_single_theorem(tmp_path, capsys):
    assert main(["check", write(tmp_path, "lz2.json", LZ2_DOC),
                 "--theorem", "T13", "--levels", "6"]) == 0
    assert "T13: holds" in capsys.readouterr().out


def test_check_negative_control_exit_1(tmp_path, capsys):
    assert main(["check", write(tmp_path, "nz2.json", NZ2_DOC),
                 "--theorem", "L8-unconditional"]) == 1
    assert "REFUTED" in capsys.readouterr().out


@pytest.mark.parametrize("levels", ["1", "0", "-3"])
def test_check_rejects_levels_below_two(tmp_path, capsys, levels):
    assert main(["check", write(tmp_path, "nz2.json", NZ2_DOC),
                 "--all", "--levels", levels]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--levels" in err
    assert "Traceback" not in err


def test_check_sampled_battery_needs_seed(tmp_path, capsys):
    # 1001 levels on two elements exceed the exhaustive cap
    path = write(tmp_path, "lz2.json", LZ2_DOC)
    assert main(["check", path, "--theorem", "L10",
                 "--levels", "1001"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--seed" in err
    assert main(["check", path, "--theorem", "L10", "--levels", "1001",
                 "--seed", "3", "--json"]) == 0
    (verdict,) = json.loads(capsys.readouterr().out)["theorems"]
    assert verdict["battery"].startswith("sampled battery (10000 draws, "
                                         "seed=3)")


def test_law_checks_past_the_crisp_row_cap_exit_2(tmp_path, capsys):
    # 2^20 0/1 rows pass GRID_CAP; classification reads no rows
    n = 20
    path = write(tmp_path, "null20.json", {
        "elements": [f"e{i}" for i in range(n)], "gammas": ["g"],
        "table": [[[0] * n]] * n, "order": [[1, 2], [1, 3], [2, 3]]})
    for flags in (["--all"], ["--theorem", "L11"]):
        assert main(["check", path, "--seed", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: law checks") and "GRID_CAP" in err
    assert main(["classify", path]) == 0


def test_check_unknown_theorem(tmp_path, capsys):
    assert main(["check", write(tmp_path, "t1.json", T1_DOC),
                 "--theorem", "T99"]) == 2


def test_check_json_report_schema(tmp_path, capsys):
    assert main(["check", write(tmp_path, "t1.json", T1_DOC),
                 "--all", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert len(doc["theorems"]) == 25
    # check --json always writes both, so a report without either is wrong
    for key in ("theorems", "timing_seconds"):
        with pytest.raises(jsonschema.ValidationError, match=key):
            jsonschema.validate({k: v for k, v in doc.items() if k != key},
                                REPORT_SCHEMA)


def test_compose(tmp_path, capsys):
    spath = write(tmp_path, "lz2.json", LZ2_DOC)
    fpath = write(tmp_path, "f.json", {"a": 0.5, "b": 1.0})
    gpath = write(tmp_path, "g.json", {"a": 0.25, "b": 0.75})
    assert main(["compose", spath, fpath, gpath]) == 0
    assert json.loads(capsys.readouterr().out) == {"a": 0.5, "b": 0.75}


def test_compose_nz2_empty_factorizations(tmp_path, capsys):
    spath = write(tmp_path, "nz2.json", NZ2_DOC)
    fpath = write(tmp_path, "f.json", {"z": 0.9, "a": 0.9})
    gpath = write(tmp_path, "g.json", {"z": 1.0, "a": 1.0})
    assert main(["compose", spath, fpath, gpath]) == 0
    assert json.loads(capsys.readouterr().out)["a"] == 0.0


def test_compose_rejects_out_of_range(tmp_path, capsys):
    spath = write(tmp_path, "lz2.json", LZ2_DOC)
    fpath = write(tmp_path, "f.json", {"a": 1.5, "b": 1.0})
    assert main(["compose", spath, fpath, fpath]) == 2


def test_compose_names_the_rejected_fuzzy_file(tmp_path, capsys):
    spath = write(tmp_path, "lz2.json", LZ2_DOC)
    fpath = write(tmp_path, "f.json", {"a": 0.5, "b": 1.0})
    gpath = write(tmp_path, "g.json", {"a": 0.5, "b": "1"})
    assert main(["compose", spath, fpath, gpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gpath}: membership for 'b'")
    assert fpath not in err


def test_enumerate_census(tmp_path, capsys):
    out = tmp_path / "census.json"
    assert main(["enumerate", "--n", "1", "--m", "1",
                 "--census", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, CENSUS_SCHEMA)
    assert doc["total"] == 1
    assert all(c == 1 for c in doc["classes"].values())
    assert not doc["truncated"]


def test_enumerate_unwritable_census(tmp_path, capsys, monkeypatch):
    def never(spec):
        raise AssertionError("enumerated before checking the census path")

    monkeypatch.setattr(enumeration, "enumerate_structures", never)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["enumerate", "--n", "1", "--m", "1",
                     "--census", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write")
        assert "Traceback" not in captured.err and captured.out == ""


def test_enumerate_census_write_failure(tmp_path, capsys, monkeypatch):
    # each path passes the writability probe, then the final write fails:
    # /dev/full (where it exists) with ENOSPC, and a path that becomes a
    # directory while the structures are enumerated
    swapped = tmp_path / "census.json"
    enumerate_structures = enumeration.enumerate_structures

    def swapping(spec):
        if swapped.exists():
            swapped.unlink()
            swapped.mkdir()
        yield from enumerate_structures(spec)

    monkeypatch.setattr(enumeration, "enumerate_structures", swapping)
    paths = [p for p in ("/dev/full",) if os.path.exists(p)] + [str(swapped)]
    for path in paths:
        assert main(["enumerate", "--n", "1", "--m", "1",
                     "--census", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in captured.err and captured.out == ""
    assert swapped.is_dir()


# the (2,1) labeled stream has 20 structures
@pytest.mark.parametrize("n, m, limit, total, truncated", [
    (2, 2, 3, 3, True), (2, 1, 20, 20, False), (2, 1, 19, 19, True),
    (2, 1, 0, 0, True)])
def test_enumerate_truncation_flag(capsys, n, m, limit, total, truncated):
    assert main(["enumerate", "--n", str(n), "--m", str(m),
                 "--limit", str(limit)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["total"], doc["truncated"]) == (total, truncated)


def test_enumerate_caps(capsys):
    assert main(["enumerate", "--n", "9", "--m", "1"]) == 2
    assert main(["enumerate", "--n", "2", "--m", "1", "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "limit" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert main(["enumerate", "--n", "1", "--m", "1",
                 "--limit", "99999999999999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: limit must be non-negative and "
                                   f"at most {sys.maxsize}")
    assert "Traceback" not in captured.err and captured.out == ""


def test_structure_roundtrip_digest():
    S = structure_from_dict(NZ2_DOC)
    S2 = structure_from_dict(structure_to_dict(S))
    assert S.digest() == S2.digest()
    assert S == S2


def test_fuzzy_rejects_unknown_labels():
    S = structure_from_dict(LZ2_DOC)
    with pytest.raises(Exception):
        serialize.fuzzy_from_dict(S, {"q": 0.5})


@pytest.mark.parametrize("field, value", [
    ("order", 5),
    ("table", 7),
    ("elements", "a"),
    ("elements", [["a"]]),
])
def test_validate_rejects_malformed_shapes(tmp_path, capsys, field, value):
    doc = dict(T1_DOC, **{field: value})
    assert main(["validate", write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err
    assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
# values shaped like a field, with arbitrary leaves, reach the deeper checks
NEAR_FIELDS = {
    "elements": st.lists(JSON_VALUES | st.sampled_from("ab"), max_size=3),
    "gammas": st.lists(JSON_VALUES | st.just("g"), max_size=2),
    "table": st.lists(st.lists(st.lists(
        JSON_VALUES | st.integers(-1, 2), max_size=3), max_size=2),
        max_size=3),
    "order": st.lists(st.lists(JSON_VALUES | st.integers(-1, 2), max_size=3)
                      | JSON_VALUES, max_size=3),
}


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(sorted(NEAR_FIELDS)), data=st.data())
def test_structure_document_fuzz(field, data):
    value = data.draw(JSON_VALUES | NEAR_FIELDS[field])
    doc = dict(LZ2_DOC, **{field: value})
    try:
        S = structure_from_dict(doc, require_compat=False)
    except StructureError:
        return
    assert structure_from_dict(structure_to_dict(S),
                               require_compat=False) == S


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       JSON_VALUES | st.integers(10 ** 308, 10 ** 310),
                       max_size=3) | JSON_VALUES)
@example({"a": True})  # a JSON bool is an int to Python, not a membership
def test_fuzzy_document_fuzz(doc):
    S = structure_from_dict(LZ2_DOC)
    try:
        f = serialize.fuzzy_from_dict(S, doc)
    except StructureError:
        return
    assert not any(isinstance(v, bool) for v in doc.values())
    assert all(0.0 <= v <= 1.0 for v in f.values)


def test_enumerate_up_to_iso_at_five(capsys):
    # n = 5 is searched only up to isomorphism and with one operation
    assert main(["enumerate", "--n", "5", "--m", "1", "--up-to-iso",
                 "--limit", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["total"], doc["truncated"]) == (100, True)
    for argv in (["--n", "5", "--m", "1"], ["--n", "5", "--m", "2",
                                            "--up-to-iso"],
                 ["--n", "6", "--m", "1", "--up-to-iso"]):
        assert main(["enumerate", *argv]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "caps" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
