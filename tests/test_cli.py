import json
import subprocess
import sys
from fractions import Fraction

import pytest

from sheafcalc.cli import main
from sheafcalc.complexes import face_name
from sheafcalc.morphology import (
    BinaryImage, StructuringElement, closing, erode, opening)

from util import base_complex, running_sheaf, zero_sheaf


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def complex_doc(base):
    return {"vertices": list(base.vertex_order),
            "faces": [list(f) for f in base.all_faces()]}


def sheaf_doc(s):
    base = s.base
    maps = {}
    for (sigma, tau), matrix in s.restriction.items():
        key = f"{face_name(base, sigma)}->{face_name(base, tau)}"
        maps[key] = [[str(x) for x in row] for row in matrix.row_lists()]
    return {"complex": complex_doc(base),
            "stalks": {face_name(base, f): s.stalk_dim[f]
                       for f in base.all_faces()},
            "maps": maps,
            "variance": s.variance}


@pytest.fixture()
def running_path(tmp_path):
    return write_json(tmp_path, "running.json", sheaf_doc(running_sheaf()))


LINE_SHEAF_DOC = {
    "complex": {"faces": [["a", "b"]]},
    "stalks": {"a": 1, "b": 1, "ab": 1},
    "maps": {"a->ab": [["1"]], "b->ab": [["1"]]},
}


# ------------------------------------------------------- worked examples

def test_extend_obstruction_example(running_path, capsys):
    code, out = invoke(capsys, "sheaf", "extend", "--sheaf", running_path,
                       "--seed", '{"e":["1","0","-1"]}')
    assert code == 1
    assert json.loads(out) == {"obstruction": "d", "kind": "no-consistent-value"}


def test_zero_sheaf_cohomology_example(tmp_path, capsys):
    path = write_json(tmp_path, "zero.json", sheaf_doc(zero_sheaf(base_complex())))
    code, out = invoke(capsys, "cohomology", "dims", "--sheaf", path)
    assert code == 0
    assert out == "[0,0,0]\n"


def test_edge_homology_example(tmp_path, capsys):
    path = write_json(tmp_path, "edge.json", {"faces": [["v0", "v1"]]})
    code, out = invoke(capsys, "complex", "homology", "--complex", path)
    assert code == 0
    assert out == "[1,0]\n"


def test_running_cohomology_dims(running_path, capsys):
    code, out = invoke(capsys, "cohomology", "dims", "--sheaf", running_path)
    assert code == 0
    assert out == "[2,2,0]\n"


# --------------------------------------------------------- sheaf actions

def test_extend_success_parses_decimal_and_emits_fraction(tmp_path, capsys):
    path = write_json(tmp_path, "line.json", LINE_SHEAF_DOC)
    code, out = invoke(capsys, "sheaf", "extend", "--sheaf", path,
                       "--seed", '{"a":["0.5"]}')
    assert code == 0
    assert json.loads(out) == {"a": ["1/2"], "b": ["1/2"], "ab": ["1/2"]}


def test_sheaf_validate_ok(running_path, capsys):
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf", running_path)
    assert code == 0
    assert out == '{"ok":true}\n'


def test_sheaf_validate_witness_kinds(tmp_path, capsys):
    doc = sheaf_doc(running_sheaf())

    missing = dict(doc, maps={k: v for k, v in doc["maps"].items() if k != "a->ab"})
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf",
                       write_json(tmp_path, "m.json", missing))
    assert code == 1
    assert json.loads(out) == {"kind": "missing-map", "attachment": ["a", "ab"]}

    shape = dict(doc, maps=dict(doc["maps"], **{"a->ab": [["1", "0"]]}))
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf",
                       write_json(tmp_path, "s.json", shape))
    assert code == 1
    assert json.loads(out) == {"kind": "shape", "attachment": ["a", "ab"],
                               "got": [1, 2], "want": [2, 2]}

    bent = dict(doc, maps=dict(doc["maps"], **{"ce->cde": [["0", "1"]]}))
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf",
                       write_json(tmp_path, "p.json", bent))
    assert code == 1
    assert json.loads(out) == {"kind": "path-independence",
                               "faces": ["e", "ce", "de", "cde"]}


def test_sections_payload(running_path, capsys):
    code, out = invoke(capsys, "sheaf", "sections", "--sheaf", running_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert len(payload["basis"]) == 2
    for assignment in payload["basis"]:
        assert len(assignment) == 16
        for vector in assignment.values():
            for entry in vector:
                Fraction(entry)  # every number is a rational string


def test_cosheaf_validates_but_has_no_cohomology(tmp_path, capsys):
    doc = dict(LINE_SHEAF_DOC, variance="cosheaf")
    path = write_json(tmp_path, "co.json", doc)
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf", path)
    assert (code, out) == (0, '{"ok":true}\n')
    code, out = invoke(capsys, "cohomology", "dims", "--sheaf", path)
    assert code == 2
    assert json.loads(out)["location"] == "sheaf:variance"


def test_seed_errors(running_path, capsys):
    code, out = invoke(capsys, "sheaf", "extend", "--sheaf", running_path,
                       "--seed", '{"z":["1"]}')
    assert code == 2
    assert json.loads(out)["location"] == "seed:z"

    code, out = invoke(capsys, "sheaf", "extend", "--sheaf", running_path,
                       "--seed", '{"e":["1","0"]}')
    assert code == 2
    assert "needs 3 entries" in json.loads(out)["error"]

    code, out = invoke(capsys, "sheaf", "extend", "--sheaf", running_path,
                       "--seed", '{"e":[0.5,0,0]}')
    assert code == 2
    assert "floats are inexact" in json.loads(out)["error"]

    code, out = invoke(capsys, "sheaf", "extend", "--sheaf", running_path,
                       "--seed", "not json")
    assert code == 2


def test_sheaf_map_key_errors(tmp_path, capsys):
    bad_key = dict(LINE_SHEAF_DOC, maps=dict(LINE_SHEAF_DOC["maps"], ab=[["1"]]))
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf",
                       write_json(tmp_path, "k.json", bad_key))
    assert code == 2
    assert json.loads(out)["location"] == "sheaf:maps.ab"

    not_covering = dict(LINE_SHEAF_DOC,
                        maps=dict(LINE_SHEAF_DOC["maps"], **{"a->b": [["1"]]}))
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf",
                       write_json(tmp_path, "n.json", not_covering))
    assert code == 2
    assert "not a covering attachment" in json.loads(out)["error"]

    partial_stalks = dict(LINE_SHEAF_DOC, stalks={"a": 1, "b": 1})
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf",
                       write_json(tmp_path, "t.json", partial_stalks))
    assert code == 2
    assert "no stalk dimension" in json.loads(out)["error"]


def test_sheaf_complex_by_path(tmp_path, capsys):
    write_json(tmp_path, "base.json", {"faces": [["a", "b"]]})
    doc = dict(LINE_SHEAF_DOC, complex="base.json")
    path = write_json(tmp_path, "line.json", doc)
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf", path)
    assert (code, out) == (0, '{"ok":true}\n')


def test_multichar_vertex_labels_use_comma_names(tmp_path, capsys):
    doc = {"complex": {"faces": [["left", "right"]]},
           "stalks": {"left": 1, "right": 1, "left,right": 1},
           "maps": {"left->left,right": [["1"]],
                    "right->left,right": [["1"]]}}
    path = write_json(tmp_path, "wide.json", doc)
    code, out = invoke(capsys, "sheaf", "validate", "--sheaf", path)
    assert (code, out) == (0, '{"ok":true}\n')


# ------------------------------------------------------------- complexes

def test_unsorted_face_refused(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"faces": [["b", "a"]]})
    code, out = invoke(capsys, "complex", "validate", "--complex", path)
    assert code == 2
    payload = json.loads(out)
    assert payload["location"] == "complex:faces[0]"
    assert "not sorted" in payload["error"]


def test_complex_validate_echo_is_idempotent(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {"faces": [["a", "b"], ["b", "c"]]})
    code, first = invoke(capsys, "complex", "validate", "--complex", path)
    assert code == 0
    assert json.loads(first) == {
        "vertices": ["a", "b", "c"],
        "faces": [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"]]}
    echo = write_json(tmp_path, "echo.json", json.loads(first))
    code, second = invoke(capsys, "complex", "validate", "--complex", echo)
    assert (code, second) == (0, first)


def test_missing_file_and_bad_json(tmp_path, capsys):
    code, out = invoke(capsys, "complex", "homology",
                       "--complex", str(tmp_path / "nope.json"))
    assert code == 2
    assert json.loads(out)["location"] == "complex"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, out = invoke(capsys, "complex", "homology", "--complex", str(garbled))
    assert code == 2
    assert json.loads(out)["error"].startswith("invalid JSON")


# ----------------------------------------------------------- determinism

def test_byte_identical_across_runs(running_path, capsys):
    outputs = set()
    for _ in range(2):
        code, out = invoke(capsys, "sheaf", "sections", "--sheaf", running_path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


# ---------------------------------------------------------------- posets

def test_poset_validate_closes_and_echoes(tmp_path, capsys):
    path = write_json(tmp_path, "p.json",
                      {"elements": ["b", "a"], "leq": [["a", "b"]]})
    code, out = invoke(capsys, "poset", "validate", "--poset", path)
    assert code == 0
    assert json.loads(out) == {
        "elements": ["a", "b"],
        "leq": [["a", "a"], ["a", "b"], ["b", "b"]]}


def test_poset_antisymmetry_failure(tmp_path, capsys):
    path = write_json(tmp_path, "p.json",
                      {"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]})
    code, out = invoke(capsys, "poset", "validate", "--poset", path)
    assert code == 1
    assert json.loads(out) == {"kind": "antisymmetry", "witness": ["a", "b"]}


def test_poset_downsets_and_yoneda(tmp_path, capsys):
    path = write_json(tmp_path, "p.json",
                      {"elements": ["a", "b"], "leq": [["a", "b"]]})
    code, out = invoke(capsys, "poset", "downsets", "--poset", path)
    assert code == 0
    assert json.loads(out) == ["{}", "{a}", "{a,b}"]
    code, out = invoke(capsys, "poset", "yoneda", "--poset", path)
    assert (code, out) == (0, '{"ok":true}\n')


# ---------------------------------------------------------------- galois

CHAIN_P = {"elements": ["a", "b"], "leq": [["a", "b"]]}
CHAIN_Q = {"elements": ["x", "y"], "leq": [["x", "y"]]}


def test_galois_check_passes(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {
        "source": CHAIN_P, "target": CHAIN_Q,
        "left": {"a": "x", "b": "y"}, "right": {"x": "a", "y": "b"}})
    code, out = invoke(capsys, "galois", "check", "--connection", path)
    assert (code, out) == (0, '{"ok":true}\n')


def test_galois_check_reports_adjunction_failure(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {
        "source": CHAIN_P, "target": CHAIN_Q,
        "left": {"a": "y", "b": "y"}, "right": {"x": "a", "y": "a"}})
    code, out = invoke(capsys, "galois", "check", "--connection", path)
    assert code == 1
    assert json.loads(out) == {"kind": "adjunction", "witness": ["a", "x"]}


def test_galois_adjoint_synthesis(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {
        "source": CHAIN_P, "target": CHAIN_Q, "left": {"a": "x", "b": "y"}})
    code, out = invoke(capsys, "galois", "adjoint", "--connection", path)
    assert code == 0
    assert json.loads(out) == {"direction": "right",
                               "adjoint": {"x": "a", "y": "b"}}


def test_galois_adjoint_refuses_nonmonotone_map(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {
        "source": CHAIN_P, "target": CHAIN_Q, "left": {"a": "y", "b": "x"}})
    code, out = invoke(capsys, "galois", "adjoint", "--connection", path)
    assert (code, out) == (
        1, '{"kind":"left-not-monotone","witness":["a","b"]}\n')
    path = write_json(tmp_path, "c.json", {
        "source": CHAIN_P, "target": CHAIN_Q, "right": {"x": "b", "y": "a"}})
    code, out = invoke(capsys, "galois", "adjoint", "--connection", path,
                       "--direction", "left")
    assert (code, out) == (
        1, '{"kind":"right-not-monotone","witness":["x","y"]}\n')


def test_galois_adjoint_reports_missing_join(tmp_path, capsys):
    # two incomparable sources collapsing to a point: the candidate
    # preimage {p, q} has no join, so no right adjoint exists
    path = write_json(tmp_path, "c.json", {
        "source": {"elements": ["p", "q"], "leq": []},
        "target": {"elements": ["t"], "leq": []},
        "left": {"p": "t", "q": "t"}})
    code, out = invoke(capsys, "galois", "adjoint", "--connection", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "no-join"
    assert payload["subset"] == ["p", "q"]


# ------------------------------------------------------------ morphology

def _write_morph_inputs(tmp_path):
    bitmap = tmp_path / "img.txt"
    bitmap.write_text("110\n010\n")
    element = write_json(tmp_path, "el.json", [[0, 0], [1, 0]])
    return str(bitmap), element


def test_morph_dilate_pinned(tmp_path, capsys):
    bitmap, element = _write_morph_inputs(tmp_path)
    code, out = invoke(capsys, "morph", "dilate",
                       "--bitmap", bitmap, "--element", element)
    assert (code, out) == (0, "111\n011\n")


def test_morph_matches_library(tmp_path, capsys):
    bitmap, element = _write_morph_inputs(tmp_path)
    image = BinaryImage.of(3, 2, {(0, 0), (1, 0), (1, 1)})
    probe = StructuringElement.of((0, 0), (1, 0))
    for action, op in (("erode", erode), ("open", opening), ("close", closing)):
        code, out = invoke(capsys, "morph", action,
                           "--bitmap", bitmap, "--element", element)
        assert code == 0
        expected = op(image, probe)
        rows = out.splitlines()
        got = {(x, y) for y, line in enumerate(rows)
               for x, ch in enumerate(line) if ch == "1"}
        assert got == set(expected.foreground)


def test_morph_bad_bitmap(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("102\n010\n")
    _, element = _write_morph_inputs(tmp_path)
    code, out = invoke(capsys, "morph", "dilate",
                       "--bitmap", str(bad), "--element", element)
    assert code == 2
    assert json.loads(out)["location"] == "bitmap:line 1 column 3"


# ----------------------------------------------------------------- modal

GRAPH_DOC = {"vertices": ["a", "b"],
             "edges": [{"id": "e1", "src": "a", "dst": "b"}]}


def test_modal_diamond_reaches_the_component(tmp_path, capsys):
    graph = write_json(tmp_path, "g.json", GRAPH_DOC)
    sub = write_json(tmp_path, "x.json", {"vertices": ["a"]})
    code, out = invoke(capsys, "modal", "diamond",
                       "--graph", graph, "--subgraph", sub)
    assert code == 0
    assert json.loads(out) == {"vertices": ["a", "b"], "edges": ["e1"]}


def test_modal_box_and_boundary_of_everything(tmp_path, capsys):
    graph = write_json(tmp_path, "g.json", GRAPH_DOC)
    full = write_json(tmp_path, "f.json",
                      {"vertices": ["a", "b"], "edges": ["e1"]})
    code, out = invoke(capsys, "modal", "box", "--graph", graph,
                       "--subgraph", full)
    assert code == 0
    assert json.loads(out) == {"vertices": ["a", "b"], "edges": ["e1"]}
    code, out = invoke(capsys, "modal", "boundary", "--graph", graph,
                       "--subgraph", full)
    assert code == 0
    assert json.loads(out) == {"vertices": [], "edges": []}


def test_modal_rejects_incoherent_subgraph(tmp_path, capsys):
    graph = write_json(tmp_path, "g.json", GRAPH_DOC)
    sub = write_json(tmp_path, "x.json", {"vertices": ["a"], "edges": ["e1"]})
    code, out = invoke(capsys, "modal", "diamond",
                       "--graph", graph, "--subgraph", sub)
    assert code == 2
    assert "without endpoint" in json.loads(out)["error"]

    sub = write_json(tmp_path, "y.json", {"edges": ["zz"]})
    code, out = invoke(capsys, "modal", "diamond",
                       "--graph", graph, "--subgraph", sub)
    assert code == 2
    assert json.loads(out)["location"] == "subgraph:edges"


# ------------------------------------------------------------- presheaves

GLUING_GAP_DOC = {
    "topology": [["empty"], ["p", "p"], ["q", "q"], ["pq", "p", "q"]],
    "opens": {"empty": ["*"], "p": ["m"], "q": ["n"], "pq": []},
    "restrictions": {
        "empty<=p": {"m": "*"},
        "empty<=q": {"n": "*"},
        "empty<=pq": {},
        "p<=pq": {},
        "q<=pq": {},
    },
}


def test_presheaf_validate_passes_and_check_finds_gluing_gap(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", GLUING_GAP_DOC)
    code, out = invoke(capsys, "presheaf", "validate", "--presheaf", path)
    assert (code, out) == (0, '{"ok":true}\n')
    code, out = invoke(capsys, "presheaf", "check", "--presheaf", path)
    assert code == 1
    assert json.loads(out) == {
        "target": "pq", "cover": ["p", "q"], "axiom": "gluing",
        "family": [["p", "m"], ["q", "n"]]}


def test_presheaf_targeted_check(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", GLUING_GAP_DOC)
    code, out = invoke(capsys, "presheaf", "check", "--presheaf", path,
                       "--target", "pq", "--cover", "p,q")
    assert code == 1
    assert json.loads(out)["axiom"] == "gluing"

    code, out = invoke(capsys, "presheaf", "check", "--presheaf", path,
                       "--target", "pq", "--cover", "pq")
    assert code == 0
    assert json.loads(out) == {"ok": True, "covers": 1}

    code, out = invoke(capsys, "presheaf", "check", "--presheaf", path,
                       "--cover", "p,q")
    assert code == 2
    code, out = invoke(capsys, "presheaf", "check", "--presheaf", path,
                       "--target", "nope")
    assert code == 2


def test_presheaf_identity_law_can_fail(tmp_path, capsys):
    doc = {
        "topology": [["empty"], ["p", "p"]],
        "opens": {"empty": ["*"], "p": ["m", "n"]},
        "restrictions": {
            "empty<=p": {"m": "*", "n": "*"},
            "p<=p": {"m": "n", "n": "m"},
        },
    }
    path = write_json(tmp_path, "twist.json", doc)
    code, out = invoke(capsys, "presheaf", "validate", "--presheaf", path)
    assert code == 1
    assert json.loads(out) == {"kind": "identity", "open": "p",
                               "section": "m", "got": "n"}


def test_presheaf_schema_errors(tmp_path, capsys):
    incomplete = dict(GLUING_GAP_DOC,
                      restrictions={k: v for k, v in
                                    GLUING_GAP_DOC["restrictions"].items()
                                    if k != "p<=pq"})
    path = write_json(tmp_path, "i.json", incomplete)
    code, out = invoke(capsys, "presheaf", "validate", "--presheaf", path)
    assert code == 2
    assert "missing restriction p<=pq" in json.loads(out)["error"]

    no_empty = {"topology": [["p", "p"]], "opens": {"p": ["m"]},
                "restrictions": {}}
    path = write_json(tmp_path, "n.json", no_empty)
    code, out = invoke(capsys, "presheaf", "validate", "--presheaf", path)
    assert code == 2
    assert "empty set is not open" in json.loads(out)["error"]


# ----------------------------------------------------------------- bayes

SPRINKLER_DOC = {"variables": [
    {"name": "W", "outcomes": ["w", "~w"], "parents": ["S", "R"],
     "cpt": [["99/100", "1/100"], ["9/10", "1/10"],
             ["4/5", "1/5"], ["0", "1"]]},
    {"name": "S", "outcomes": ["s", "~s"], "parents": ["R"],
     "cpt": [["1/100", "99/100"], ["2/5", "3/5"]]},
    {"name": "R", "outcomes": ["r", "~r"],
     "cpt": [["1/5", "4/5"]]},
]}


def test_bayes_joint_and_check(tmp_path, capsys):
    path = write_json(tmp_path, "sprinkler.json", SPRINKLER_DOC)
    code, out = invoke(capsys, "bayes", "joint", "--model", path)
    assert code == 0
    joint = json.loads(out)
    assert len(joint) == 8
    assert joint[0] == "99/50000"
    assert sum(Fraction(x) for x in joint) == 1

    code, out = invoke(capsys, "bayes", "check", "--model", path)
    assert (code, out) == (0, '{"ok":true}\n')


def test_bayes_check_rejects_foreign_joint(tmp_path, capsys):
    path = write_json(tmp_path, "sprinkler.json", SPRINKLER_DOC)
    uniform = json.dumps(["1/8"] * 8)
    code, out = invoke(capsys, "bayes", "check", "--model", path,
                       "--joint", uniform)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any(v[0] == "conditional-component" for v in payload["violations"])

    code, out = invoke(capsys, "bayes", "check", "--model", path,
                       "--joint", '["1/2","1/2"]')
    assert code == 2
    assert json.loads(out)["location"] == "joint"


def test_bayes_cycle_is_a_domain_failure(tmp_path, capsys):
    doc = {"variables": [
        {"name": "A", "outcomes": ["0", "1"], "parents": ["B"],
         "cpt": [["1/2", "1/2"], ["1/2", "1/2"]]},
        {"name": "B", "outcomes": ["0", "1"], "parents": ["A"],
         "cpt": [["1/2", "1/2"], ["1/2", "1/2"]]},
    ]}
    path = write_json(tmp_path, "loop.json", doc)
    code, out = invoke(capsys, "bayes", "check", "--model", path)
    assert code == 1
    assert "cycle" in json.loads(out)["error"]


def test_bayes_unknown_parent_is_schema_error(tmp_path, capsys):
    doc = {"variables": [
        {"name": "A", "outcomes": ["0", "1"], "parents": ["Z"],
         "cpt": [["1/2", "1/2"]]}]}
    path = write_json(tmp_path, "orphan.json", doc)
    code, out = invoke(capsys, "bayes", "check", "--model", path)
    assert code == 2
    assert json.loads(out)["location"] == "model:variables[0]:parents[0]"


# ----------------------------------------------------------------- usage

def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["complex"]) == 2
    assert main(["complex", "homology"]) == 2
    assert main(["complex", "nosuch"]) == 2
    assert main(["nosuch", "verb"]) == 2
    capsys.readouterr()  # argparse noise on stderr


def test_module_entrypoint_round_trip(tmp_path):
    path = write_json(tmp_path, "edge.json", {"faces": [["v0", "v1"]]})
    proc = subprocess.run(
        [sys.executable, "-m", "sheafcalc.cli",
         "complex", "homology", "--complex", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "[1,0]\n"
