import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sheafcalc

MODULES = ("errors", "rationals", "poset", "galois", "morphology", "modal",
           "complexes", "finsheaf", "cellsheaf", "cohomology")


def test_each_public_name_is_exported_once():
    names = [name for m in MODULES
             for name in importlib.import_module(f"sheafcalc.{m}").__all__]
    assert len(names) == len(set(names))
    assert sorted(sheafcalc.__all__) == sorted(names)


def test_every_exported_name_resolves_to_its_module_binding():
    for m in MODULES:
        module = importlib.import_module(f"sheafcalc.{m}")
        for name in module.__all__:
            assert getattr(sheafcalc, name) is getattr(module, name), name


def test_refusals_share_one_exception_family():
    assert issubclass(sheafcalc.SheafcalcError, ValueError)
    assert issubclass(sheafcalc.OrderViolation, sheafcalc.SheafcalcError)
    assert issubclass(sheafcalc.InvalidSheaf, sheafcalc.SheafcalcError)
    assert issubclass(sheafcalc.AdjointSynthesisError, sheafcalc.SheafcalcError)


def test_module_limits_stay_unexported():
    assert "POWERSET_LIMIT" not in sheafcalc.__all__
    assert "ENUMERATION_LIMIT" not in sheafcalc.__all__
    assert "OUTCOME_LIMIT" not in sheafcalc.__all__


def test_readme_quick_tour_runs_as_written():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (tour,) = re.findall(r"```python\n(.*?)```",
                         readme.read_text(encoding="utf-8"), re.S)
    exec(compile(tour, "README.md", "exec"), {})


# ------------------------------------------- lazy namespace, fresh interpreters
# The test process has imported every module already, so these run a
# new interpreter and read back what it loaded.

SRC = Path(__file__).resolve().parents[1] / "src"
LOADED = "sorted(m[10:] for m in sys.modules if m.startswith('sheafcalc.'))"


def fresh(code, *argv, cwd=None):
    """Run ``code`` in a new interpreter with ``src`` on the path; return
    the JSON value its last stdout line holds."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *argv],
        capture_output=True, text=True, cwd=cwd, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert fresh(f"import sheafcalc\nprint(json.dumps({LOADED}))") == []


def test_submodule_attribute_loads_only_its_imports():
    assert fresh("import sheafcalc\nsheafcalc.poset\n"
                 f"print(json.dumps({LOADED}))") == ["_record", "errors", "poset"]
    assert fresh("from sheafcalc import morphology\n"
                 f"print(json.dumps({LOADED}))") == ["_record", "errors", "morphology"]


def test_library_and_cli_import_no_class_generation_machinery():
    code = (f"import sheafcalc.cli\nfrom sheafcalc import {', '.join(MODULES)}\n"
            "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))")
    assert fresh(code) == []


def test_star_import_binds_exactly_all():
    code = ("import sheafcalc\n"
            "before = set(globals())\n"
            "from sheafcalc import *\n"
            "bound = sorted(set(globals()) - before - {'before'})\n"
            "print(json.dumps([bound, sorted(sheafcalc.__all__)]))")
    bound, names = fresh(code)
    assert bound == names == sorted(sheafcalc.__all__)


def test_dir_public_names_and_unknown_attributes():
    code = ("import sheafcalc\n"
            "listed = '__all__' in dir(sheafcalc)\n"
            "same = sheafcalc.cohomology.cohomology_dims is sheafcalc.cohomology_dims\n"
            "try:\n"
            "    sheafcalc.no_such_name\n"
            "    missing = False\n"
            "except AttributeError:\n"
            "    missing = True\n"
            "print(json.dumps([listed, same, missing]))")
    assert fresh(code) == [True, True, True]


TINY_INPUTS = {
    "poset.json": {"elements": ["a", "b"], "leq": [["a", "b"]]},
    "connection.json": {"source": {"elements": ["a", "b"], "leq": [["a", "b"]]},
                        "target": {"elements": ["x", "y"], "leq": [["x", "y"]]},
                        "left": {"a": "x", "b": "y"}},
    "graph.json": {"vertices": ["a", "b"],
                   "edges": [{"id": "e", "src": "a", "dst": "b"}]},
    "subgraph.json": {"vertices": ["a"]},
    "presheaf.json": {"topology": [["E"], ["U", "p"]],
                      "opens": {"E": ["*"], "U": ["s"]},
                      "restrictions": {"E<=U": {"s": "*"}}},
    "element.json": [[0, 0], [1, 0]],
    "complex.json": {"faces": [["a", "b"]]},
    "sheaf.json": {"complex": {"faces": [["a", "b"]]},
                   "stalks": {"a": 1, "b": 1, "ab": 1},
                   "maps": {"a->ab": [["1"]], "b->ab": [["1"]]}},
    "model.json": {"variables": [{"name": "X", "outcomes": ["t", "f"],
                                  "cpt": [["1/2", "1/2"]]}]},
}

SHEAF_CLOSURE = ["_record", "cellsheaf", "complexes", "errors", "poset", "rationals"]

VERB_CLOSURES = [
    (["poset", "downsets", "--poset", "poset.json"], ["_record", "errors", "poset"]),
    (["galois", "adjoint", "--connection", "connection.json"],
     ["_record", "errors", "galois", "poset"]),
    (["modal", "diamond", "--graph", "graph.json", "--subgraph", "subgraph.json"],
     ["_record", "errors", "modal", "poset"]),
    (["presheaf", "check", "--presheaf", "presheaf.json"],
     ["_record", "errors", "finsheaf", "poset"]),
    (["morph", "close", "--bitmap", "bitmap.txt", "--element", "element.json"],
     ["_record", "errors", "morphology"]),
    (["complex", "homology", "--complex", "complex.json"],
     ["_record", "complexes", "errors", "poset", "rationals"]),
    (["sheaf", "extend", "--sheaf", "sheaf.json", "--seed", '{"a":["1"]}'],
     SHEAF_CLOSURE),
    (["sheaf", "sections", "--sheaf", "sheaf.json"], SHEAF_CLOSURE),
    (["cohomology", "dims", "--sheaf", "sheaf.json"], SHEAF_CLOSURE + ["cohomology"]),
    (["bayes", "joint", "--model", "model.json"], SHEAF_CLOSURE + ["cohomology"]),
]

# a case is named by its verb, or by verb and action for a verb's second case
CASE_IDS = []
for argv, _ in VERB_CLOSURES:
    CASE_IDS.append("-".join(argv[:2]) if argv[0] in CASE_IDS else argv[0])


@pytest.mark.parametrize("argv, closure", VERB_CLOSURES, ids=CASE_IDS)
def test_a_cli_call_loads_only_its_verbs_modules(tmp_path, argv, closure):
    for name, doc in TINY_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "bitmap.txt").write_text("10\n01\n")
    code = ("import contextlib, io\n"
            "from sheafcalc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            f"print(json.dumps([code, {LOADED}]))")
    assert fresh(code, *argv, cwd=tmp_path) == [0, sorted(closure + ["cli"])]


def test_library_modules_import_at_top_level_without_cycles():
    # cli imports each verb's modules when the verb runs; every other
    # module imports at top level only, so its imports are its closure,
    # and those imports must form no cycle
    graph = {}
    for path in sorted((SRC / "sheafcalc").glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested = [node.lineno
                  for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)
                  if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert nested == [], f"{path.name} imports inside a function, lines {nested}"
        graph[path.stem] = {
            node.module.split(".")[0] if node.module else alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    while graph:
        leaves = [m for m, deps in graph.items() if not deps & graph.keys()]
        assert leaves, f"import cycle among {sorted(graph)}"
        for m in leaves:
            del graph[m]


def test_every_module_level_import_is_used():
    # a name bound by a top-level import must be read somewhere in its
    # module, unless the module re-exports it through __all__
    unused = []
    for path in sorted((SRC / "sheafcalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read | exported:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_the_library_holds_no_assert_and_reads_no_debug_flag():
    # python -O strips asserts and sets __debug__ to False; with neither
    # in the library, an optimized run executes the same library code
    found = []
    for path in sorted((SRC / "sheafcalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or (isinstance(node, ast.Name) and node.id == "__debug__")]
    assert found == []
