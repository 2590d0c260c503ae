import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc import cellsheaf, cohomology, complexes, poset
from sheafcalc.cli import ACTIONS, InputError, _emit, _parse_complex, main
from sheafcalc.complexes import face_name
from sheafcalc.morphology import (
    BinaryImage, StructuringElement, closing, erode, opening)

from util import (
    base_complex, grid_complex, running_sheaf, slow_parse_complex, zero_sheaf)


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


def _readme_fixture(readme, heading):
    """The JSON block under a bold heading of README "Input formats"."""
    (block,) = re.findall(rf"\*\*{heading}\*\*.*?```json\n(.*?)```", readme, re.S)
    return block


def test_readme_worked_examples_run_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    (transcript,) = re.findall(r"### Worked examples\n\n```sh\n(.*?)```", readme, re.S)
    # "triangle.json and line.json as above, chain.json the three-element
    # chain, and bar.json containing [[0, 0], [1, 0]]"
    (tmp_path / "triangle.json").write_text(_readme_fixture(readme, "Complex"))
    (tmp_path / "line.json").write_text(_readme_fixture(readme, "Sheaf"))
    (tmp_path / "chain.json").write_text(_readme_fixture(readme, "Poset"))
    (tmp_path / "bar.json").write_text("[[0, 0], [1, 0]]")
    monkeypatch.chdir(tmp_path)

    ran = 0
    for example in transcript.strip().split("\n\n"):
        command, *output = example.split("\n")
        argv = shlex.split(command.removeprefix("$ "))
        if argv[0] == "printf":
            fmt, redirect, target = argv[1:]
            assert redirect == ">"
            Path(target).write_text(fmt.encode().decode("unicode_escape"))
            command, *output = output
            argv = shlex.split(command.removeprefix("$ "))
        assert argv[0] == "sheafcalc"
        want_code = 0
        if "   # exit " in output[-1]:
            output[-1], code = output[-1].split("   # exit ")
            want_code = int(code)
        assert invoke(capsys, *argv[1:]) == (want_code, "\n".join(output) + "\n")
        ran += 1
    assert ran == 5


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


def broken_running_docs():
    """The running sheaf with one defect each: a missing map, a misshapen
    map and a bent square, keyed by the witness kind."""
    doc = sheaf_doc(running_sheaf())
    return {
        "missing-map": dict(
            doc, maps={k: v for k, v in doc["maps"].items() if k != "a->ab"}),
        "shape": dict(doc, maps=dict(doc["maps"], **{"a->ab": [["1", "0"]]})),
        "path-independence": dict(
            doc, maps=dict(doc["maps"], **{"ce->cde": [["0", "1"]]})),
    }


WITNESS_BYTES = {
    "missing-map": '{"attachment":["a","ab"],"kind":"missing-map"}\n',
    "shape": '{"attachment":["a","ab"],"got":[1,2],"kind":"shape","want":[2,2]}\n',
    "path-independence":
        '{"faces":["e","ce","de","cde"],"kind":"path-independence"}\n',
}

SHEAF_COMMANDS = {
    "validate": ("sheaf", "validate"),
    "extend": ("sheaf", "extend", "--seed", '{"e":["1","0","-1"]}'),
    "sections": ("sheaf", "sections"),
    "cohomology": ("cohomology", "dims"),
}


@pytest.mark.parametrize("kind", sorted(WITNESS_BYTES))
@pytest.mark.parametrize("command", sorted(SHEAF_COMMANDS))
def test_sheaf_commands_print_the_validation_witness(command, kind, tmp_path,
                                                     capsys):
    path = write_json(tmp_path, "d.json", broken_running_docs()[kind])
    verb, action, *rest = SHEAF_COMMANDS[command]
    assert invoke(capsys, verb, action, "--sheaf", path, *rest) == (
        1, WITNESS_BYTES[kind])


@pytest.fixture()
def cochains_calls(monkeypatch):
    """The arguments of each run of the pass that validates a sheaf and
    builds its coboundaries: every sheaf check, validate_sheaf's and the
    library calls', is one run."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    validate = cellsheaf._cochains
    monkeypatch.setattr(cellsheaf, "_cochains", counted)
    return calls


@pytest.mark.parametrize("command", sorted(SHEAF_COMMANDS))
def test_an_accepted_sheaf_command_validates_once(command, running_path,
                                                  cochains_calls, capsys):
    verb, action, *rest = SHEAF_COMMANDS[command]
    code, _ = invoke(capsys, verb, action, "--sheaf", running_path, *rest)
    assert code == (1 if command == "extend" else 0)  # the seed is obstructed
    assert len(cochains_calls) == 1


@pytest.mark.parametrize("kind", sorted(WITNESS_BYTES))
@pytest.mark.parametrize("command", sorted(SHEAF_COMMANDS))
def test_a_refused_sheaf_command_validates_once(command, kind, tmp_path,
                                                cochains_calls, capsys):
    # the library's refusal carries the report the witness is printed from
    path = write_json(tmp_path, "d.json", broken_running_docs()[kind])
    verb, action, *rest = SHEAF_COMMANDS[command]
    assert invoke(capsys, verb, action, "--sheaf", path, *rest) == (
        1, WITNESS_BYTES[kind])
    assert len(cochains_calls) == 1


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
    # longer chains: the witness is the first x <= y in the given map's
    # own domain, not in the dual order the library synthesizes over
    chain3 = {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]}
    chain3q = {"elements": ["x", "y", "z"], "leq": [["x", "y"], ["y", "z"]]}
    path = write_json(tmp_path, "c.json", {
        "source": chain3, "target": chain3q,
        "left": {"a": "y", "b": "y", "c": "x"}})
    code, out = invoke(capsys, "galois", "adjoint", "--connection", path)
    assert (code, out) == (
        1, '{"kind":"left-not-monotone","witness":["a","c"]}\n')
    path = write_json(tmp_path, "c.json", {
        "source": chain3, "target": chain3q,
        "right": {"x": "b", "y": "c", "z": "a"}})
    code, out = invoke(capsys, "galois", "adjoint", "--connection", path,
                       "--direction", "left")
    assert (code, out) == (
        1, '{"kind":"right-not-monotone","witness":["x","z"]}\n')


def test_an_accepted_adjoint_checks_monotonicity_once(tmp_path, monkeypatch,
                                                      capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return witness(*args, **kwargs)

    witness = poset._monotonicity_witness
    monkeypatch.setattr(poset, "_monotonicity_witness", counted)
    for given, direction in (("left", "right"), ("right", "left")):
        legs = ({"a": "x", "b": "y"} if given == "left"
                else {"x": "a", "y": "b"})
        path = write_json(tmp_path, "c.json", {
            "source": CHAIN_P, "target": CHAIN_Q, given: legs})
        calls.clear()
        code, _ = invoke(capsys, "galois", "adjoint", "--connection", path,
                         "--direction", direction)
        assert code == 0
        assert len(calls) == 1


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


def test_galois_adjoint_left_direction(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {
        "source": CHAIN_P, "target": CHAIN_Q, "right": {"x": "a", "y": "b"}})
    assert invoke(capsys, "galois", "adjoint", "--connection", path,
                  "--direction", "left") == (
        0, '{"adjoint":{"a":"x","b":"y"},"direction":"left"}\n')
    # the dual of the missing join: two incomparable targets collapsing
    # to a point leave the candidate image {p, q} without a meet
    path = write_json(tmp_path, "c.json", {
        "source": {"elements": ["t"], "leq": []},
        "target": {"elements": ["p", "q"], "leq": []},
        "right": {"p": "t", "q": "t"}})
    assert invoke(capsys, "galois", "adjoint", "--connection", path,
                  "--direction", "left") == (
        1, '{"at":"t","bound":null,"image":null,"kind":"no-meet",'
           '"subset":["p","q"]}\n')


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


# two sections over pq that agree on both p and q
LOCALITY_GAP_DOC = {
    "topology": [["empty"], ["p", "p"], ["q", "q"], ["pq", "p", "q"]],
    "opens": {"empty": ["*"], "p": ["m"], "q": ["n"], "pq": ["s", "t"]},
    "restrictions": {
        "empty<=p": {"m": "*"},
        "empty<=q": {"n": "*"},
        "empty<=pq": {"s": "*", "t": "*"},
        "p<=pq": {"s": "m", "t": "m"},
        "q<=pq": {"s": "n", "t": "n"},
    },
}


def test_presheaf_composition_and_locality_witnesses(tmp_path, capsys):
    path = write_json(tmp_path, "broken.json", BROKEN_COMPOSITE)
    assert invoke(capsys, "presheaf", "validate", "--presheaf", path) == (
        1, '{"direct":"b","kind":"composition","opens":["pq","p","empty"],'
           '"section":"s","stepped":"a"}\n')
    path = write_json(tmp_path, "loc.json", LOCALITY_GAP_DOC)
    assert invoke(capsys, "presheaf", "check", "--presheaf", path) == (
        1, '{"axiom":"locality","cover":["p","q"],"sections":["s","t"],'
           '"target":"pq"}\n')


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


def test_bayes_joint_on_a_cycle_is_a_domain_failure(tmp_path, capsys):
    doc = {"variables": [
        {"name": "A", "outcomes": ["0", "1"], "parents": ["B"],
         "cpt": [["1/2", "1/2"], ["1/2", "1/2"]]},
        {"name": "B", "outcomes": ["0", "1"], "parents": ["A"],
         "cpt": [["1/2", "1/2"], ["1/2", "1/2"]]},
    ]}
    path = write_json(tmp_path, "loop.json", doc)
    assert invoke(capsys, "bayes", "joint", "--model", path) == (
        1, '{"error":"cycle in dag"}\n')


def test_bayes_variable_names_are_not_face_names(tmp_path, capsys):
    # the complete simplex is built from the variables as they are, so
    # the face-name syntax of sheaf documents never applies to them
    doc = {"variables": [
        {"name": "rain,wet", "outcomes": ["0", "1"], "cpt": [["1/3", "2/3"]]},
        {"name": "a->b", "outcomes": ["0", "1"], "parents": ["rain,wet"],
         "cpt": [["1/2", "1/2"], ["1/4", "3/4"]]},
    ]}
    path = write_json(tmp_path, "names.json", doc)
    assert invoke(capsys, "bayes", "joint", "--model", path) == (
        0, '["1/6","1/6","1/6","1/2"]\n')
    assert invoke(capsys, "bayes", "check", "--model", path) == (
        0, '{"ok":true}\n')


def test_library_bug_is_a_traceback_not_a_domain_failure(tmp_path, monkeypatch):
    # only SheafcalcError is refused input; any other ValueError is a bug.
    # The action reads bayes_build from its module when it runs.
    def broken(model):
        raise ValueError("internal slip")

    monkeypatch.setattr(cohomology, "bayes_build", broken)
    path = write_json(tmp_path, "sprinkler.json", SPRINKLER_DOC)
    with pytest.raises(ValueError, match="internal slip"):
        main(["bayes", "joint", "--model", path])


def test_bayes_unknown_parent_is_schema_error(tmp_path, capsys):
    doc = {"variables": [
        {"name": "A", "outcomes": ["0", "1"], "parents": ["Z"],
         "cpt": [["1/2", "1/2"]]}]}
    path = write_json(tmp_path, "orphan.json", doc)
    code, out = invoke(capsys, "bayes", "check", "--model", path)
    assert code == 2
    assert json.loads(out)["location"] == "model:variables[0]:parents[0]"


def test_bayes_outcome_cap_is_a_schema_error(tmp_path, capsys):
    # 2**13 outcomes; the cap is reported before V0's CPT row that does
    # not sum to one
    doc = {"variables": [
        {"name": f"V{i}", "outcomes": ["0", "1"], "cpt": [["1/2", "1/2"]]}
        for i in range(13)]}
    doc["variables"][0]["cpt"] = [["1/3", "1/2"]]
    path = write_json(tmp_path, "wide.json", doc)
    for verb in ("joint", "check"):
        code, out = invoke(capsys, "bayes", verb, "--model", path)
        assert (code, out) == (
            2, '{"error":"outcome space too large (limit 4096)",'
               '"location":"model:variables"}\n')


# ------------------------------------------------------------- refusals

PRESHEAF_DOC = {"topology": [["E"], ["U", "p"]],
                "opens": {"E": ["*"], "U": ["s"]},
                "restrictions": {"E<=U": {"s": "*"}}}
BAYES_A = {"name": "A", "outcomes": ["0", "1"], "cpt": [["1/2", "1/2"]]}
MORPH_FILES = {"img.txt": "110\n010\n", "el.json": [[0, 0], [1, 0]]}


def line_maps(key, rows):
    return dict(LINE_SHEAF_DOC, maps=dict(LINE_SHEAF_DOC["maps"], **{key: rows}))


def line_stalks(**stalks):
    return dict(LINE_SHEAF_DOC, stalks=dict(LINE_SHEAF_DOC["stalks"], **stalks))


def presheaf(**changes):
    return dict(PRESHEAF_DOC, **changes)


def restriction(table):
    return presheaf(restrictions={"E<=U": table})


def graph(*edges):
    return {"vertices": ["a", "b"], "edges": [
        {"id": eid, "src": src, "dst": dst} for eid, src, dst in edges]}


def model(*variables):
    return {"variables": [dict(BAYES_A, **v) for v in variables]}


SHEAF = "sheaf validate --sheaf d.json"
COMPLEX = "complex validate --complex d.json"
POSET = "poset validate --poset d.json"
GALOIS = "galois check --connection d.json"
MODAL = "modal diamond --graph d.json --subgraph x.json"
SUBGRAPH = "modal diamond --graph g.json --subgraph d.json"
PRESHEAF = "presheaf validate --presheaf d.json"
BAYES = "bayes joint --model d.json"
MORPH = "morph dilate --bitmap img.txt --element el.json"

# One malformed input for each place the CLI refuses input: the id, the
# command line, the files it reads (JSON documents as values, raw text
# as strings) and the exact stdout of its exit 2.
REFUSALS = [
    ("read", "complex validate --complex nope.json", {},
     '{"error":"cannot read nope.json: No such file or directory","location":"complex"}\n'),
    ("json", COMPLEX, {"d.json": '{"faces": [}'},
     '{"error":"invalid JSON: Expecting value (line 1 column 12)","location":"complex"}\n'),
    ("object", COMPLEX, {"d.json": [1]},
     '{"error":"expected an object","location":"complex"}\n'),
    ("unknown-key", COMPLEX, {"d.json": {"faces": [["a"]], "colour": 1}},
     '{"error":"unknown key \'colour\'","location":"complex"}\n'),
    ("missing-key", COMPLEX, {"d.json": {"vertices": ["a"]}},
     '{"error":"missing key \'faces\'","location":"complex"}\n'),
    ("string-list", COMPLEX, {"d.json": {"faces": [["a", 1]]}},
     '{"error":"expected an array of strings","location":"complex:faces[0]"}\n'),
    ("nonempty-list", COMPLEX, {"d.json": {"faces": [[]]}},
     '{"error":"expected a nonempty array of strings","location":"complex:faces[0]"}\n'),
    ("float", SHEAF, {"d.json": line_maps("a->ab", [[0.5]])},
     '{"error":"floats are inexact, write 0.5 as a quoted rational string","location":"sheaf:maps.a->ab[0][0]"}\n'),
    ("not-rational-type", SHEAF, {"d.json": line_maps("a->ab", [[None]])},
     '{"error":"not a rational: None","location":"sheaf:maps.a->ab[0][0]"}\n'),
    ("not-rational-text", SHEAF, {"d.json": line_maps("a->ab", [["x"]])},
     '{"error":"not a rational: \'x\'","location":"sheaf:maps.a->ab[0][0]"}\n'),
    ("face-name", SHEAF, {"d.json": line_stalks(**{"": 1})},
     '{"error":"face names are nonempty strings","location":"sheaf:stalks."}\n'),
    ("face-vertex", SHEAF, {"d.json": line_stalks(z=1)},
     '{"error":"unknown vertex \'z\' in face \'z\'","location":"sheaf:stalks.z"}\n'),
    ("face-unsorted", SHEAF, {"d.json": line_stalks(ba=1)},
     '{"error":"face \'ba\' is not sorted by the vertex order","location":"sheaf:stalks.ba"}\n'),
    ("face-unknown", SHEAF, {"d.json": {"complex": {"faces": [["a", "b"], ["c"]]},
                                        "stalks": {"ac": 1}, "maps": {}}},
     '{"error":"unknown face \'ac\'","location":"sheaf:stalks.ac"}\n'),
    ("complex-vertices", COMPLEX, {"d.json": {"vertices": ["a", "a"],
                                              "faces": [["a"]]}},
     '{"error":"duplicate vertex labels","location":"complex:vertices"}\n'),
    ("complex-faces", COMPLEX, {"d.json": {"faces": []}},
     '{"error":"faces must be a nonempty array","location":"complex:faces"}\n'),
    ("complex-face", COMPLEX, {"d.json": {"faces": [["a"], ["b", "a"]]}},
     '{"error":"face (\'b\', \'a\') is not sorted by the vertex order","location":"complex:faces[1]"}\n'),
    ("complex-read", SHEAF, {"d.json": dict(LINE_SHEAF_DOC, complex="base.json")},
     '{"error":"cannot read base.json: No such file or directory","location":"sheaf:complex"}\n'),
    ("complex-path", SHEAF, {"d.json": dict(LINE_SHEAF_DOC, complex="base.json"),
                             "base.json": {"faces": "ab"}},
     '{"error":"faces must be a nonempty array","location":"base.json:faces"}\n'),
    ("matrix", SHEAF, {"d.json": line_maps("a->ab", "1")},
     '{"error":"matrix must be an array of rows","location":"sheaf:maps.a->ab"}\n'),
    ("matrix-row", SHEAF, {"d.json": line_maps("a->ab", ["1"])},
     '{"error":"matrix rows are arrays","location":"sheaf:maps.a->ab[0]"}\n'),
    ("matrix-ragged", SHEAF, {"d.json": line_maps("a->ab", [["1"], ["1", "2"]])},
     '{"error":"ragged matrix","location":"sheaf:maps.a->ab[1]"}\n'),
    ("variance", SHEAF, {"d.json": dict(LINE_SHEAF_DOC, variance="both")},
     '{"error":"variance must be \\"sheaf\\" or \\"cosheaf\\"","location":"sheaf:variance"}\n'),
    ("stalk-dimension", SHEAF, {"d.json": line_stalks(a=-1)},
     '{"error":"stalk dimensions are nonnegative integers","location":"sheaf:stalks.a"}\n'),
    ("stalk-missing", SHEAF, {"d.json": dict(LINE_SHEAF_DOC,
                                             stalks={"a": 1, "b": 1})},
     '{"error":"no stalk dimension for face \'ab\'","location":"sheaf:stalks"}\n'),
    ("map-key", SHEAF, {"d.json": line_maps("ab", [["1"]])},
     '{"error":"map keys look like \\"a->ab\\"","location":"sheaf:maps.ab"}\n'),
    ("map-attachment", SHEAF, {"d.json": line_maps("a->b", [["1"]])},
     '{"error":"\'a->b\' is not a covering attachment","location":"sheaf:maps.a->b"}\n'),
    ("seed-json", "sheaf extend --sheaf d.json --seed 'not json'",
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"invalid JSON: Expecting value","location":"seed"}\n'),
    ("seed-vector", """sheaf extend --sheaf d.json --seed '{"a": "1"}'""",
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"seed vectors are arrays","location":"seed:a"}\n'),
    ("seed-length", """sheaf extend --sheaf d.json --seed '{"a": ["1", "2"]}'""",
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"seed at \'a\' needs 1 entries","location":"seed:a"}\n'),
    ("seed-exponent", """sheaf extend --sheaf d.json --seed '{"a": ["1e100000"]}'""",
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"rational \'1e100000\' has more than 4300 digits","location":"seed:a[0]"}\n'),
    ("seed-exponent-negative",
     """sheaf extend --sheaf d.json --seed '{"a": ["1e-999999999"]}'""",
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"rational \'1e-999999999\' has more than 4300 digits",'
     '"location":"seed:a[0]"}\n'),
    ("json-depth", POSET, {"d.json": "[" * 5000 + "]" * 5000},
     '{"error":"JSON nested too deeply","location":"poset"}\n'),
    ("json-digits", POSET, {"d.json": '{"elements": [' + "1" * 5000 + "]}"},
     '{"error":"JSON integer has too many digits","location":"poset"}\n'),
    ("seed-depth", "sheaf extend --sheaf d.json --seed " + "[" * 5000 + "]" * 5000,
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"JSON nested too deeply","location":"seed"}\n'),
    ("seed-digits", """sheaf extend --sheaf d.json --seed '{"a": [""" + "1" * 5000 + "]}'",
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"JSON integer has too many digits","location":"seed"}\n'),
    ("poset-elements", POSET, {"d.json": {"elements": ["a", "a"]}},
     '{"error":"duplicate elements","location":"poset:elements"}\n'),
    ("poset-leq", POSET, {"d.json": {"elements": ["a"], "leq": {}}},
     '{"error":"leq must be an array of pairs","location":"poset:leq"}\n'),
    ("poset-pair", POSET, {"d.json": {"elements": ["a"], "leq": [["a"]]}},
     '{"error":"relation entries are pairs","location":"poset:leq[0]"}\n'),
    ("poset-element", POSET, {"d.json": {"elements": ["a"], "leq": [["a", "z"]]}},
     '{"error":"unknown element \'z\'","location":"poset:leq[0]"}\n'),
    ("map-element", GALOIS, {"d.json": {"source": CHAIN_P, "target": CHAIN_Q,
                                        "left": {"z": "x"}}},
     '{"error":"unknown element \'z\'","location":"connection:left.z"}\n'),
    ("map-codomain", GALOIS, {"d.json": {"source": CHAIN_P, "target": CHAIN_Q,
                                         "left": {"a": "z"}}},
     '{"error":"\'z\' is not in the codomain","location":"connection:left.a"}\n'),
    ("map-partial", GALOIS, {"d.json": {"source": CHAIN_P, "target": CHAIN_Q,
                                        "left": {"a": "x"}}},
     '{"error":"map is partial at \'b\'","location":"connection:left"}\n'),
    ("graph-vertices", MODAL, {"d.json": {"vertices": ["a", "a"]},
                               "x.json": {}},
     '{"error":"duplicate vertices","location":"graph:vertices"}\n'),
    ("graph-edges", MODAL, {"d.json": {"vertices": ["a"], "edges": {}},
                            "x.json": {}},
     '{"error":"edges must be an array","location":"graph:edges"}\n'),
    ("graph-edge-strings", MODAL, {"d.json": graph((1, "a", "b")), "x.json": {}},
     '{"error":"id, src and dst are strings","location":"graph:edges[0]"}\n'),
    ("graph-edge-id", MODAL, {"d.json": graph(("e", "a", "b"), ("e", "b", "a")),
                              "x.json": {}},
     '{"error":"duplicate edge id \'e\'","location":"graph:edges[1]"}\n'),
    ("graph-edge-vertex", MODAL, {"d.json": graph(("e", "a", "z")), "x.json": {}},
     '{"error":"unknown vertex \'z\'","location":"graph:edges[0]"}\n'),
    ("subgraph-vertex", SUBGRAPH, {"g.json": GRAPH_DOC,
                                   "d.json": {"vertices": ["z"]}},
     '{"error":"unknown vertex \'z\'","location":"subgraph:vertices"}\n'),
    ("subgraph-edge", SUBGRAPH, {"g.json": GRAPH_DOC, "d.json": {"edges": ["zz"]}},
     '{"error":"unknown edge id \'zz\'","location":"subgraph:edges"}\n'),
    ("subgraph", SUBGRAPH, {"g.json": GRAPH_DOC,
                            "d.json": {"vertices": ["a"], "edges": ["e1"]}},
     '{"error":"edge \'e1\' included without endpoint \'b\'","location":"subgraph"}\n'),
    ("subgraph-source", SUBGRAPH, {"g.json": GRAPH_DOC,
                                   "d.json": {"vertices": ["b"], "edges": ["e1"]}},
     '{"error":"edge \'e1\' included without endpoint \'a\'","location":"subgraph"}\n'),
    ("subgraph-endpoints", SUBGRAPH, {"g.json": graph(("e1", "b", "a")),
                                      "d.json": {"edges": ["e1"]}},
     '{"error":"edge \'e1\' included without endpoints \'b\' and \'a\'",'
     '"location":"subgraph"}\n'),
    ("topology", PRESHEAF, {"d.json": presheaf(topology={})},
     '{"error":"topology must be an array","location":"presheaf:topology"}\n'),
    ("topology-twice", PRESHEAF, {"d.json": presheaf(
        topology=[["E"], ["E", "p"]])},
     '{"error":"open \'E\' declared twice","location":"presheaf:topology[1]"}\n'),
    ("topology-same-open", PRESHEAF, {"d.json": presheaf(
        topology=[["E"], ["U", "p"], ["V", "p"]])},
     '{"error":"\'U\' and \'V\' denote the same open","location":"presheaf:topology"}\n'),
    ("topology-refused", PRESHEAF, {"d.json": presheaf(topology=[["U", "p"]])},
     '{"error":"empty set is not open","location":"presheaf:topology"}\n'),
    ("opens-undeclared", PRESHEAF, {"d.json": presheaf(
        opens={"E": ["*"], "U": ["s"], "X": []})},
     '{"error":"open \'X\' not declared in the topology","location":"presheaf:opens.X"}\n'),
    ("opens-missing", PRESHEAF, {"d.json": presheaf(opens={"E": ["*"]})},
     '{"error":"no sections listed for open \'U\'","location":"presheaf:opens"}\n'),
    ("sections", PRESHEAF, {"d.json": presheaf(opens={"E": ["*"], "U": ["s", "s"]})},
     '{"error":"duplicate section labels","location":"presheaf:opens.U"}\n'),
    ("restriction-key", PRESHEAF, {"d.json": presheaf(restrictions={"EU": {}})},
     '{"error":"restriction keys look like \\"V<=U\\"","location":"presheaf:restrictions.EU"}\n'),
    ("restriction-open", PRESHEAF, {"d.json": presheaf(restrictions={"E<=Z": {}})},
     '{"error":"unknown open \'Z\'","location":"presheaf:restrictions.E<=Z"}\n'),
    ("restriction-inside", PRESHEAF, {"d.json": presheaf(
        restrictions={"U<=E": {}})},
     '{"error":"\'U\' is not inside \'E\'","location":"presheaf:restrictions.U<=E"}\n'),
    ("restriction-source", PRESHEAF, {"d.json": restriction({"z": "*"})},
     '{"error":"\'z\' is not a section of \'U\'","location":"presheaf:restrictions.E<=U.z"}\n'),
    ("restriction-target", PRESHEAF, {"d.json": restriction({"s": "z"})},
     '{"error":"\'z\' is not a section of \'E\'","location":"presheaf:restrictions.E<=U.s"}\n'),
    ("restriction-partial", PRESHEAF, {"d.json": restriction({})},
     '{"error":"restriction is partial at \'s\'","location":"presheaf:restrictions.E<=U"}\n'),
    ("restriction-missing", PRESHEAF, {"d.json": presheaf(restrictions={})},
     '{"error":"missing restriction E<=U","location":"presheaf:restrictions"}\n'),
    ("variables", BAYES, {"d.json": {"variables": []}},
     '{"error":"variables must be a nonempty array","location":"model:variables"}\n'),
    ("variable-name", BAYES, {"d.json": model({"name": 1})},
     '{"error":"variable names are strings","location":"model:variables[0]"}\n'),
    ("variable-twice", BAYES, {"d.json": model({}, {})},
     '{"error":"duplicate variable names","location":"model:variables"}\n'),
    ("outcomes", BAYES, {"d.json": model({"outcomes": ["0", "0"]})},
     '{"error":"duplicate outcomes","location":"model:variables[0]:outcomes"}\n'),
    ("parent-unknown", BAYES, {"d.json": model({"parents": ["Z"]})},
     '{"error":"unknown parent \'Z\'","location":"model:variables[0]:parents[0]"}\n'),
    ("parent-twice", BAYES, {"d.json": model({}, {"name": "B",
                                                  "parents": ["A", "A"]})},
     '{"error":"duplicate parents","location":"model:variables[1]:parents"}\n'),
    ("cpt", BAYES, {"d.json": model({"cpt": {}})},
     '{"error":"cpt must be an array of rows","location":"model:variables[0]:cpt"}\n'),
    ("cpt-row", BAYES, {"d.json": model({"cpt": [1]})},
     '{"error":"cpt rows are arrays","location":"model:variables[0]:cpt[0]"}\n'),
    ("cpt-entry", BAYES, {"d.json": model({"cpt": [["1/2", "1/2"], ["1/2", 0.5]]})},
     '{"error":"floats are inexact, write 0.5 as a quoted rational string","location":"model:variables[0]:cpt[1][1]"}\n'),
    ("cpt-rows", BAYES, {"d.json": model({"cpt": [["1/2", "1/2"]] * 2})},
     '{"error":"CPT for \'A\' needs 1 rows, got 2","location":"model:variables"}\n'),
    ("cpt-width", BAYES, {"d.json": model({"cpt": [["1"]]})},
     '{"error":"CPT row 0 for \'A\' has wrong width","location":"model:variables"}\n'),
    ("cpt-sum", BAYES, {"d.json": model({"cpt": [["1/2", "1/3"]]})},
     '{"error":"CPT row 0 for \'A\' does not sum to 1","location":"model:variables"}\n'),
    ("outcome-cap", BAYES, {"d.json": model(*({"name": f"V{i}"} for i in range(13)))},
     '{"error":"outcome space too large (limit 4096)","location":"model:variables"}\n'),
    ("bitmap-read", MORPH, {"el.json": [[0, 0]]},
     '{"error":"cannot read img.txt: No such file or directory","location":"bitmap"}\n'),
    ("bitmap-empty", MORPH, dict(MORPH_FILES, **{"img.txt": "\n"}),
     '{"error":"empty bitmap","location":"bitmap"}\n'),
    ("bitmap-width", MORPH, dict(MORPH_FILES, **{"img.txt": "10\n1\n"}),
     '{"error":"row width 1 differs from 2","location":"bitmap:line 2"}\n'),
    ("bitmap-char", MORPH, dict(MORPH_FILES, **{"img.txt": "102\n"}),
     '{"error":"unexpected character \'2\'","location":"bitmap:line 1 column 3"}\n'),
    ("element", MORPH, dict(MORPH_FILES, **{"el.json": []}),
     '{"error":"offsets must be a nonempty array","location":"element"}\n'),
    ("element-pair", MORPH, dict(MORPH_FILES, **{"el.json": [[0]]}),
     '{"error":"offsets are [dx, dy] integer pairs","location":"element[0]"}\n'),
    ("extend-variance", "sheaf extend --sheaf d.json --seed {}",
     {"d.json": dict(LINE_SHEAF_DOC, variance="cosheaf")},
     '{"error":"extend needs sheaf variance","location":"sheaf:variance"}\n'),
    ("sections-variance", "sheaf sections --sheaf d.json",
     {"d.json": dict(LINE_SHEAF_DOC, variance="cosheaf")},
     '{"error":"sections needs sheaf variance","location":"sheaf:variance"}\n'),
    ("cohomology-variance", "cohomology dims --sheaf d.json",
     {"d.json": dict(LINE_SHEAF_DOC, variance="cosheaf")},
     '{"error":"cohomology needs sheaf variance","location":"sheaf:variance"}\n'),
    ("downsets-cap", "poset downsets --poset d.json",
     {"d.json": {"elements": [f"e{i}" for i in range(17)]}},
     '{"error":"downset enumeration capped at 65536 downsets","location":"poset:elements"}\n'),
    ("yoneda-cap", "poset yoneda --poset d.json",
     {"d.json": {"elements": [f"e{i}" for i in range(17)]}},
     '{"error":"downset enumeration capped at 65536 downsets","location":"poset:elements"}\n'),
    ("check-map", GALOIS, {"d.json": {"source": CHAIN_P, "target": CHAIN_Q,
                                      "right": {"x": "a", "y": "b"}}},
     '{"error":"connection needs a left map","location":"connection:left"}\n'),
    ("direction", "galois adjoint --connection d.json --direction up",
     {"d.json": {"source": CHAIN_P, "target": CHAIN_Q}},
     '{"error":"direction must be right or left","location":"direction"}\n'),
    ("adjoint-map", "galois adjoint --connection d.json",
     {"d.json": {"source": CHAIN_P, "target": CHAIN_Q}},
     '{"error":"synthesis needs the left map","location":"connection:left"}\n'),
    ("cover-target", "presheaf check --presheaf d.json --cover E",
     {"d.json": PRESHEAF_DOC},
     '{"error":"a cover needs a target open","location":"target"}\n'),
    ("target", "presheaf check --presheaf d.json --target Z",
     {"d.json": PRESHEAF_DOC},
     '{"error":"unknown open \'Z\'","location":"target"}\n'),
    ("cover", "presheaf check --presheaf d.json --target U --cover Z",
     {"d.json": PRESHEAF_DOC},
     '{"error":"unknown open \'Z\'","location":"cover"}\n'),
    ("cover-refused", "presheaf check --presheaf d.json --target U --cover E",
     {"d.json": PRESHEAF_DOC},
     '{"error":"cover does not union to the target","location":"cover"}\n'),
    ("joint-json", "bayes check --model d.json --joint nope",
     {"d.json": SPRINKLER_DOC},
     '{"error":"invalid JSON: Expecting value","location":"joint"}\n'),
    ("joint", "bayes check --model d.json --joint {}", {"d.json": SPRINKLER_DOC},
     '{"error":"joint must be an array","location":"joint"}\n'),
    ("joint-length", """bayes check --model d.json --joint '["1"]'""",
     {"d.json": SPRINKLER_DOC},
     '{"error":"joint vector needs 8 entries","location":"joint"}\n'),
]


def invoke_in(tmp_path, monkeypatch, capsys, argv, files):
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return invoke(capsys, *shlex.split(argv))


@pytest.mark.parametrize("argv, files, want", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_every_refusal_byte_for_byte(argv, files, want, tmp_path, monkeypatch,
                                     capsys):
    assert invoke_in(tmp_path, monkeypatch, capsys, argv, files) == (2, want)


# a sheaf that validate_sheaf rejects: the b->ab map is missing
BROKEN_LINE = dict(LINE_SHEAF_DOC, maps={"a->ab": [["1"]]})


@pytest.mark.parametrize("argv, files, want", [
    ("cohomology dims --sheaf d.json",
     {"d.json": dict(BROKEN_LINE, variance="cosheaf")},
     '{"error":"cohomology needs sheaf variance","location":"sheaf:variance"}\n'),
    ("sheaf extend --sheaf d.json --seed 'not json'", {"d.json": BROKEN_LINE},
     '{"error":"invalid JSON: Expecting value","location":"seed"}\n'),
    ("""sheaf extend --sheaf d.json --seed '{"z": ["1"]}'""", {"d.json": BROKEN_LINE},
     '{"error":"unknown vertex \'z\' in face \'z\'","location":"seed:z"}\n'),
], ids=["cosheaf-cohomology", "seed-json", "seed-face"])
def test_refusals_come_before_the_sheaf_verdict(argv, files, want, tmp_path,
                                                monkeypatch, capsys):
    assert invoke_in(tmp_path, monkeypatch, capsys, argv, files) == (2, want)


@pytest.mark.parametrize("argv, files, want", [
    (SHEAF, {"d.json": line_stalks(**{"a,b": 2})},
     '{"error":"\'ab\' and \'a,b\' denote the same face",'
     '"location":"sheaf:stalks.a,b"}\n'),
    (SHEAF, {"d.json": line_maps("a->a,b", [["2"]])},
     '{"error":"\'a->ab\' and \'a->a,b\' denote the same attachment",'
     '"location":"sheaf:maps.a->a,b"}\n'),
    ("""sheaf extend --sheaf d.json --seed '{"ab": ["1"], "a,b": ["3"]}'""",
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"\'ab\' and \'a,b\' denote the same face","location":"seed:a,b"}\n'),
    ("""sheaf extend --sheaf d.json --seed '{"a": ["1"], "a": ["3"]}'""",
     {"d.json": LINE_SHEAF_DOC},
     '{"error":"duplicate key \'a\'","location":"seed"}\n'),
    (POSET, {"d.json": '{"elements": ["a"], "elements": ["a", "b"]}'},
     '{"error":"duplicate key \'elements\'","location":"poset"}\n'),
], ids=["stalk-face", "map-attachment", "seed-face", "seed-key", "document-key"])
def test_a_name_given_twice_is_refused(argv, files, want, tmp_path, monkeypatch,
                                       capsys):
    assert invoke_in(tmp_path, monkeypatch, capsys, argv, files) == (2, want)


# ------------------------------------------------ one complex validation

LABELS = ("a", "b", "c", "d", "e")


@st.composite
def complex_docs(draw):
    """A complex document, with or without its vertex list, whose faces
    may carry injected defects: an empty face, a repeated vertex, a
    reserved character, a vertex outside the list, an unsorted face."""
    listed = draw(st.booleans())
    order = list(draw(st.permutations(LABELS))) if listed else list(LABELS)
    faces = draw(st.lists(
        st.lists(st.sampled_from(order), min_size=1, max_size=3, unique=True)
        .map(lambda f: sorted(f, key=order.index)), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(faces) - 1))
        face = list(faces[i]) or [order[0]]  # an earlier defect may empty it
        defect = draw(st.sampled_from(
            ("empty", "repeat", "reserved", "unknown", "unsorted")))
        if defect == "empty":
            face = []
        elif defect == "repeat":
            face.insert(draw(st.integers(0, len(face))), draw(st.sampled_from(face)))
        elif defect == "reserved":
            face[draw(st.integers(0, len(face) - 1))] = draw(
                st.sampled_from(("a,b", "x->y", ",")))
        elif defect == "unknown":
            face.insert(draw(st.integers(0, len(face))), "z")
        else:
            face = face[::-1] if len(face) > 1 else [order[-1], order[0]]
        faces[i] = face
    doc = {"faces": faces}
    if listed:
        doc["vertices"] = order
    return doc


def _parsed_bytes(parse, doc):
    """The complex a parser builds, or the bytes of its refusal."""
    try:
        return parse(doc, "complex")
    except InputError as err:
        out = io.StringIO()
        _emit({"error": err.message, "location": err.location}, out)
        return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(complex_docs())
def test_complex_refusals_match_the_probe_first_parser(doc):
    assert _parsed_bytes(_parse_complex, doc) == _parsed_bytes(
        slow_parse_complex, doc)


def test_a_valid_complex_is_validated_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    base = grid_complex(3)
    validate = complexes.validate_complex
    monkeypatch.setattr(complexes, "validate_complex", counted)
    assert _parse_complex(complex_doc(base), "complex") == base
    assert _parse_complex({"faces": [list(f) for f in base.all_faces()]},
                          "complex") == base
    assert len(calls) == 2


# ----------------------------------------------------------------- usage

def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["complex"]) == 2
    assert main(["complex", "homology"]) == 2
    assert main(["complex", "nosuch"]) == 2
    assert main(["nosuch", "verb"]) == 2
    capsys.readouterr()  # argparse noise on stderr


def full_parser():
    """Every verb with every action parser built: the reference that the
    per-verb parser of ``main`` must match, output and errors alike."""
    parser = argparse.ArgumentParser(
        prog="sheafcalc",
        description="exact lattice, sheaf and morphology calculations on files")
    sub = parser.add_subparsers(dest="verb", metavar="verb", required=True)
    verbs = {}
    for (verb, action), spec in ACTIONS.items():
        if verb not in verbs:
            vp = sub.add_parser(verb)
            verbs[verb] = vp.add_subparsers(dest="action", metavar="action",
                                            required=True)
        ap = verbs[verb].add_parser(action, help=spec.help)
        for flag in spec.paths:
            ap.add_argument(f"--{flag}", required=True, metavar="FILE")
        for name, required in spec.options:
            ap.add_argument(f"--{name}", required=required)
    return parser


@pytest.mark.parametrize("argv", [
    ["--help"], ["poset", "--help"], ["complex"], ["complex", "nosuch"],
    ["nosuch", "verb"], [], ["sheaf", "extend", "-h"], ["bayes", "check"],
    ["--", "poset", "validate"], ["-x", "poset", "validate"],
    ["galois", "adjoint", "--connection"], ["complex", "validate", "extra"],
], ids=repr)
def test_help_and_usage_errors_match_the_full_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        full_parser().parse_args(argv)
    want = (stop.value.code or 0, *capsys.readouterr())
    assert (main(argv), *capsys.readouterr()) == want


DIAMOND = {"elements": ["bot", "l", "r", "top"],
           "leq": [["bot", "l"], ["bot", "r"], ["l", "top"], ["r", "top"]]}
GRAPH_4 = {"vertices": ["a", "b", "c", "d"], "edges": [
    {"id": "e1", "src": "a", "dst": "b"}, {"id": "e2", "src": "c", "dst": "b"},
    {"id": "e3", "src": "c", "dst": "c"}]}
# restricting s to the empty open directly or through p disagrees
BROKEN_COMPOSITE = {
    "topology": [["empty"], ["p", "p"], ["pq", "p", "q"]],
    "opens": {"empty": ["a", "b"], "p": ["m"], "pq": ["s"]},
    "restrictions": {"empty<=p": {"m": "a"}, "p<=pq": {"s": "m"},
                     "empty<=pq": {"s": "b"}},
}
HASH_SEED_FILES = {
    "gap.json": GLUING_GAP_DOC, "broken.json": BROKEN_COMPOSITE,
    "diamond.json": DIAMOND, "graph.json": GRAPH_4,
    "sub.json": {"vertices": ["a", "d"]},
    "connection.json": {"source": DIAMOND, "target": DIAMOND, "left": {
        "bot": "bot", "l": "l", "r": "r", "top": "top"}},
    "running.json": sheaf_doc(running_sheaf()), "sprinkler.json": SPRINKLER_DOC,
}
# every restriction table but the identities left out, and every edge
# of GRAPH_4 without its endpoints: each refusal names one of several
HASH_SEED_REFUSAL_FILES = {
    "loose.json": {"edges": ["e3", "e2", "e1"]},
    "gaps.json": {
        "topology": [["pqr", "p", "q", "r"], ["pq", "p", "q"], ["q", "q"],
                     ["p", "p"], ["empty"]],
        "opens": {"empty": ["*"], "p": ["m"], "q": ["n"], "pq": ["mn"],
                  "pqr": ["mno"]},
        "restrictions": {}},
}
HASH_SEED_REFUSALS = {
    "presheaf validate --presheaf gaps.json":
        '{"error":"missing restriction empty<=p",'
        '"location":"presheaf:restrictions"}\n',
    "modal diamond --graph graph.json --subgraph loose.json":
        '{"error":"edge \'e1\' included without endpoints \'a\' and \'b\'",'
        '"location":"subgraph"}\n',
}
HASH_SEED_COMMANDS = [
    "presheaf check --presheaf gap.json",
    "presheaf validate --presheaf broken.json",
    "poset downsets --poset diamond.json",
    "galois adjoint --connection connection.json",
    "modal diamond --graph graph.json --subgraph sub.json",
    # box drops the stage's broken vertices, a list taken in set order
    "modal box --graph graph.json --subgraph sub.json",
    """sheaf extend --sheaf running.json --seed '{"e":["1","0","-1"]}'""",
    "bayes check --model sprinkler.json",
    "cohomology dims --sheaf running.json",
]


def _run_under_hash_seed(tmp_path, seed, commands):
    """(command, exit code, stdout) of each command in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
    runs = []
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "sheafcalc.cli", *shlex.split(command)],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        runs.append((command, proc.returncode, proc.stdout))
    return runs


def test_same_bytes_under_every_hash_seed(tmp_path):
    # string hashing orders sets and dicts differently in each process;
    # none of that order may reach stdout or the exit code
    for name, doc in {**HASH_SEED_FILES, **HASH_SEED_REFUSAL_FILES}.items():
        write_json(tmp_path, name, doc)
    runs = [_run_under_hash_seed(tmp_path, seed, HASH_SEED_COMMANDS)
            for seed in ("0", "1")]
    assert runs[0] == runs[1]
    assert [code for _, code, _ in runs[0]] == [1, 1, 0, 0, 0, 0, 1, 0, 0]
    # a refusal that picks its witness from a set is the one most exposed
    want = [(command, 2, out) for command, out in HASH_SEED_REFUSALS.items()]
    for seed in "01234567":
        assert _run_under_hash_seed(tmp_path, seed, HASH_SEED_REFUSALS) == want


# ab = 10 a and b = ab, so a seed of 10^4299 (4,300 digits) puts
# 4,301 digits at ab and b, one past the interpreter's default cap on
# converting an int to text
TEN_TO_ONE_LINE = dict(LINE_SHEAF_DOC, maps={"a->ab": [["10"]], "b->ab": [["1"]]})
BIG_SEED = """sheaf extend --sheaf line.json --seed '{"a": ["1e4299"]}'"""


def test_results_print_exactly_past_the_interpreter_digit_cap(tmp_path, monkeypatch,
                                                              capsys):
    before = sys.get_int_max_str_digits()
    got = invoke_in(tmp_path, monkeypatch, capsys, BIG_SEED,
                    {"line.json": TEN_TO_ONE_LINE})
    big = "1" + "0" * 4300
    assert got == (
        0, f'{{"a":["{big[:-1]}"],"ab":["{big}"],"b":["{big}"]}}\n')
    assert sys.get_int_max_str_digits() == before


def test_same_bytes_under_every_int_digit_cap(tmp_path):
    # the interpreter's cap on int-to-text conversion is process-wide
    # and set by the environment; no output may depend on it
    for name, doc in (("line.json", TEN_TO_ONE_LINE),
                      ("running.json", sheaf_doc(running_sheaf())),
                      ("sprinkler.json", SPRINKLER_DOC)):
        write_json(tmp_path, name, doc)
    commands = [BIG_SEED, "sheaf sections --sheaf running.json",
                "bayes joint --model sprinkler.json"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for cap in (None, "0", "100000"):
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = src
        if cap is not None:
            env["PYTHONINTMAXSTRDIGITS"] = cap
        runs.append([])
        for command in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "sheafcalc.cli", *shlex.split(command)],
                cwd=tmp_path, env=env, capture_output=True, text=True)
            runs[-1].append((command, proc.returncode, proc.stdout))
    assert runs[0] == runs[1] == runs[2]
    assert [code for _, code, _ in runs[0]] == [0, 0, 0]


def test_module_entrypoint_round_trip(tmp_path):
    path = write_json(tmp_path, "edge.json", {"faces": [["v0", "v1"]]})
    proc = subprocess.run(
        [sys.executable, "-m", "sheafcalc.cli",
         "complex", "homology", "--complex", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "[1,0]\n"
