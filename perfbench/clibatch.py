"""cli-batch: ``python -m sheafcalc.cli`` as one subprocess at a time.

The fixtures cover every verb: small grid sheaves (extend, both ok and
obstructed; sections; cohomology dims), complex homology, Bayes check
and joint on models with 3 and 4 binary variables, poset downsets,
galois adjoint, modal diamond, morph close and presheaf check, plus
malformed inputs that must exit 2 and obstructed inputs that must
exit 1.  Interpreter start-up and import dominate each call, so this is
where the cli layer and the small-dense use of rationals show.

Expected exit codes and, wherever the answer is known by construction,
the exact stdout bytes are worked out here without the library.  The
traced run replays the same commands in process through
``sheafcalc.cli.run``.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

from common import SRC, Op
from grid import grid_faces

MIN_ROUNDS = 3
SIZES = {"full": dict(bayes=(3, 4), grid=2, homology=3),
         "small": dict(bayes=(3,), grid=2, homology=2)}


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


class Fixtures:
    """Writes fixture files and collects (argv, expectation) commands."""

    def __init__(self, workdir, rng):
        self.dir = workdir
        self.rng = rng
        self.commands = []
        os.makedirs(workdir, exist_ok=True)

    def write(self, name, content):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
        return path

    def add(self, label, verb, action, inputs, options, code, stdout=None, check=None):
        """``stdout`` is the exact expected text; ``check(parsed json)``
        returns None or a reason when only the shape is known."""
        self.commands.append((label, verb, action, inputs, options, code, stdout, check))


# ------------------------------------------------------------ sheaves

def _closure(maximal):
    faces = set()
    for f in maximal:
        for k in range(1, len(f) + 1):
            faces.update(combinations(f, k))
    return sorted(faces, key=lambda f: (len(f), f))


def _grid_sheaf_doc(faces, scale):
    dim = len(next(iter(scale.values())))
    maps = {}
    for tau in faces:
        if len(tau) == 1:
            continue
        for i in range(len(tau)):
            sigma = tau[:i] + tau[i + 1:]
            maps[f"{''.join(sigma)}->{''.join(tau)}"] = [
                [str(scale[tau][r] / scale[sigma][r]) if r == c else "0"
                 for c in range(dim)] for r in range(dim)]
    return {"complex": {"faces": [list(f) for f in faces if len(f) > 1]},
            "stalks": {"".join(f): dim for f in faces},
            "maps": maps}


def _sheaf_fixtures(fx, n):
    rng = fx.rng
    letters = "abcdefghijklmnopqrstuvwxy"

    def label(i, j):
        return letters[i * (n + 1) + j]

    hole = (rng.randrange(n), rng.randrange(n))
    for holed in (False, True):
        faces = _closure(grid_faces(n, hole if holed else None, label))
        names = {"".join(f) for f in faces}
        h = (1, 1, 0) if holed else (1, 0, 0)
        tag = "holed" if holed else "full"
        for dim in (1, 2):
            if dim == 1:
                scale = {f: (Fraction(1),) for f in faces}
            else:
                scale = {f: tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                           rng.randint(1, 9)) for _ in range(dim))
                         for f in faces}
            path = fx.write(f"sheaf-q{dim}-{tag}.json", _grid_sheaf_doc(faces, scale))
            c = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim))
            section = {"".join(f): [str(a * x) for a, x in zip(scale[f], c)]
                       for f in faces}
            vertices = [f for f in faces if len(f) == 1]
            v = "".join(rng.choice(vertices))
            u, w = ("".join(x) for x in rng.sample(vertices, 2))
            conflict = {u: section[u],
                        w: [str(a * x) for a, x in
                            zip(scale[(w,)], (c[0] + 1,) + c[1:])]}
            sheaf = {"sheaf": path}
            if (dim == 1) != holed:
                fx.add(f"extend ok Q{dim} {tag}", "sheaf", "extend", sheaf,
                       {"seed": json.dumps({v: section[v]})}, 0, _dump(section))
                fx.add(f"cohomology Q{dim} {tag}", "cohomology", "dims", sheaf, {},
                       0, _dump([dim * x for x in h]))
            elif dim == 2:
                fx.add(f"extend conflict Q{dim} {tag}", "sheaf", "extend", sheaf,
                       {"seed": json.dumps(conflict)}, 1,
                       check=lambda doc, names=names: None
                       if doc.get("kind") == "conflicting-values"
                       and doc.get("obstruction") in names
                       else f"unexpected witness {doc}")
            else:
                def sections_ok(doc, names=names, want=h[0]):
                    if doc.get("dimension") != want or len(doc.get("basis", ())) != want:
                        return f"dimension {doc.get('dimension')}, want {want}"
                    for vec in doc["basis"]:
                        values = {tuple(x) for x in vec.values()}
                        if set(vec) != names or len(values) != 1 or ("0",) in values:
                            return "basis vector is not a nonzero constant"
                    return None

                fx.add(f"sections Q{dim} {tag}", "sheaf", "sections", sheaf, {}, 0,
                       check=sections_ok)


# -------------------------------------------------------------- bayes

def _random_model(rng, k):
    names = [f"X{i}" for i in range(k)]
    variables = []
    for i, name in enumerate(names):
        parents = [p for p in names[:i] if rng.random() < 0.5]
        rows = []
        for _ in range(2 ** len(parents)):
            b = rng.randint(2, 9)
            p = Fraction(rng.randint(1, b - 1), b)
            rows.append([p, 1 - p])
        variables.append({"name": name, "outcomes": ["t", "f"],
                          "parents": parents, "cpt": rows})
    return variables


def _joint(variables):
    """CPT product over all outcomes, first variable slowest."""
    index = {v["name"]: i for i, v in enumerate(variables)}
    out = []
    for combo in range(2 ** len(variables)):
        bits = [combo >> (len(variables) - 1 - i) & 1 for i in range(len(variables))]
        p = Fraction(1)
        for i, v in enumerate(variables):
            row = 0
            for parent in v["parents"]:
                row = row * 2 + bits[index[parent]]
            p *= v["cpt"][row][bits[i]]
        out.append(p)
    return out


def _model_doc(variables):
    return {"variables": [dict(v, cpt=[[str(x) for x in row] for row in v["cpt"]])
                          for v in variables]}


def _bayes_fixtures(fx, sizes):
    rng = fx.rng
    for k in sizes:
        variables = _random_model(rng, k)
        model = {"model": fx.write(f"model-{k}.json", _model_doc(variables))}
        joint = _joint(variables)
        fx.add(f"bayes check {k}", "bayes", "check", model, {}, 0, _dump({"ok": True}))
        fx.add(f"bayes joint {k}", "bayes", "joint", model, {}, 0,
               _dump([str(x) for x in joint]))
        if k == sizes[-1]:
            bumped = list(joint)
            bumped[rng.randrange(len(bumped))] += Fraction(1, 7)
            total = sum(bumped)
            fx.add(f"bayes check perturbed {k}", "bayes", "check", model,
                   {"joint": json.dumps([str(x / total) for x in bumped])}, 1,
                   check=lambda doc: None if doc.get("ok") is False and doc.get("violations")
                   else f"unexpected witness {doc}")


# ------------------------------------------------------ finite orders

def _label_of(members):
    return "{" + ",".join(sorted(members)) + "}"


def _order_fixtures(fx):
    rng = fx.rng
    chain = [f"c{i}" for i in range(6)]
    path = fx.write("chain.json", {"elements": chain,
                                   "leq": [[a, b] for a, b in zip(chain, chain[1:])]})
    fx.add("downsets chain", "poset", "downsets", {"poset": path}, {}, 0,
           _dump([_label_of(chain[:j]) for j in range(len(chain) + 1)]))
    anti = [f"a{i}" for i in range(4)]
    path = fx.write("antichain.json", {"elements": anti})
    subsets = sorted((s for r in range(len(anti) + 1) for s in combinations(anti, r)),
                     key=lambda s: (len(s), s))
    fx.add("downsets antichain", "poset", "downsets", {"poset": path}, {}, 0,
           _dump([_label_of(s) for s in subsets]))

    # dilation on the downset lattice of a 3 x 2 pixel grid; its right
    # adjoint is erosion, with off-grid samples vacuous
    w, h = 3, 2
    pixels = [(x, y) for y in range(h) for x in range(w)]
    offsets = rng.choice((((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))))
    inside = set(pixels)

    def dilate(xs):
        return {(px + dx, py + dy) for px, py in xs for dx, dy in offsets} & inside

    def erode(ys):
        return {(px, py) for px, py in pixels
                if all((px + dx, py + dy) in ys for dx, dy in offsets
                       if (px + dx, py + dy) in inside)}

    def name(xs):
        return _label_of(f"p{x}{y}" for x, y in xs)

    sets = [{pixels[i] for i in range(len(pixels)) if m >> i & 1}
            for m in range(1 << len(pixels))]
    lattice = {"elements": [name(s) for s in sets],
               "leq": [[name(s), name(t)] for s in sets for t in sets if s <= t]}
    path = fx.write("dilation.json", {"source": lattice, "target": lattice,
                                      "left": {name(s): name(dilate(s)) for s in sets}})
    fx.add("galois adjoint", "galois", "adjoint", {"connection": path}, {}, 0,
           _dump({"adjoint": {name(s): name(erode(s)) for s in sets},
                  "direction": "right"}))

    # closing of a random bitmap, worked out pixel by pixel
    w, h = 7, 5
    on = {(x, y) for y in range(h) for x in range(w) if rng.random() < 0.45}
    element = [[0, 0], [1, 0], [0, 1]]
    grid = {(x, y) for y in range(h) for x in range(w)}
    dil = {(x + dx, y + dy) for x, y in on for dx, dy in element} & grid
    closed = {(x, y) for x, y in grid
              if all((x + dx, y + dy) in dil for dx, dy in element
                     if (x + dx, y + dy) in grid)}
    bitmap = fx.write("bitmap.txt", "".join(
        "".join("1" if (x, y) in on else "0" for x in range(w)) + "\n" for y in range(h)))
    fx.add("morph close", "morph", "close",
           {"bitmap": bitmap, "element": fx.write("element.json", element)}, {}, 0,
           "".join("".join("1" if (x, y) in closed else "0" for x in range(w)) + "\n"
                   for y in range(h)))


def _modal_fixtures(fx, count):
    rng = fx.rng
    for i in range(count):
        verts = list("abcd")
        edges = [(f"e{k}", rng.choice(verts), rng.choice(verts))
                 for k in range(rng.randint(2, 4))]
        picked = {v for v in verts if rng.random() < 0.3}
        sub_edges = [e for e, s, d in edges
                     if s in picked and d in picked and rng.random() < 0.5]
        reached = set(picked)
        grew = True
        while grew:
            grew = False
            for _, s, d in edges:
                if (s in reached) != (d in reached):
                    reached |= {s, d}
                    grew = True
        graph = fx.write(f"graph-{i}.json", {
            "vertices": verts,
            "edges": [{"id": e, "src": s, "dst": d} for e, s, d in edges]})
        sub = fx.write(f"subgraph-{i}.json", {"vertices": sorted(picked),
                                              "edges": sub_edges})
        fx.add(f"modal diamond {i}", "modal", "diamond",
               {"graph": graph, "subgraph": sub}, {}, 0,
               _dump({"edges": sorted(e for e, s, d in edges if s in reached),
                      "vertices": sorted(reached)}))


def _presheaf_doc(sections, diagonal):
    """Pairs over the discrete two-point space, projections downward;
    keeping only the diagonal pairs breaks gluing."""
    whole = [f"{i}.{j}" for i in sections for j in sections if i == j or not diagonal]
    restrictions = {"P<=W": {s: s.split(".")[0] for s in whole},
                    "Q<=W": {s: s.split(".")[1] for s in whole},
                    "E<=W": {s: "*" for s in whole},
                    "E<=P": {s: "*" for s in sections},
                    "E<=Q": {s: "*" for s in sections}}
    return {"topology": [["E"], ["P", "p"], ["Q", "q"], ["W", "p", "q"]],
            "opens": {"E": ["*"], "P": sections, "Q": sections, "W": whole},
            "restrictions": restrictions}


def _presheaf_fixtures(fx):
    sections = [str(i) for i in range(fx.rng.randint(2, 4))]
    path = fx.write("presheaf.json", _presheaf_doc(sections, False))
    fx.add("presheaf check sheaf", "presheaf", "check", {"presheaf": path}, {}, 0,
           _dump({"covers": 5, "ok": True}))
    path = fx.write("presheaf-diagonal.json", _presheaf_doc(sections, True))
    fx.add("presheaf check gluing", "presheaf", "check", {"presheaf": path}, {}, 1,
           check=lambda doc: None if doc.get("axiom") == "gluing"
           and doc.get("target") == "W" else f"unexpected witness {doc}")


# ---------------------------------------------------------- malformed

def _malformed_fixtures(fx):
    def at(location):
        return lambda doc: None if doc.get("location") == location and "error" in doc \
            else f"unexpected error {doc}"

    path = fx.write("bad-float.json", {
        "complex": {"faces": [["a", "b"]]}, "stalks": {"a": 1, "b": 1, "ab": 1},
        "maps": {"a->ab": [[0.5]], "b->ab": [["1"]]}})
    fx.add("malformed float", "cohomology", "dims", {"sheaf": path}, {}, 2,
           check=at("sheaf:maps.a->ab[0][0]"))
    path = fx.write("bad-unsorted.json", {"vertices": ["a", "b", "c"],
                                          "faces": [["a", "b"], ["c", "a"]]})
    fx.add("malformed unsorted face", "complex", "homology", {"complex": path}, {}, 2,
           check=at("complex:faces[1]"))
    path = fx.write("bad-json.json", '{"elements": [')
    fx.add("malformed json", "poset", "downsets", {"poset": path}, {}, 2,
           check=at("poset"))
    graph = fx.write("bad-graph.json", {"vertices": ["a", "b"],
                                        "edges": [{"id": "e0", "src": "a", "dst": "b"}]})
    sub = fx.write("bad-subgraph.json", {"vertices": ["a"], "edges": ["e0"]})
    fx.add("malformed subgraph", "modal", "diamond", {"graph": graph, "subgraph": sub},
           {}, 2, check=at("subgraph"))
    path = fx.write("bad-model.json", {"variables": [
        {"name": "X", "outcomes": ["t", "f"], "cpt": [[0.5, "1/2"]]}]})
    fx.add("malformed model", "bayes", "joint", {"model": path}, {}, 2,
           check=at("model:variables[0]:cpt[0][0]"))


# ---------------------------------------------------------------- ops

def _checker(code, stdout, check):
    def verify(result):
        got_code, got_out = result
        if got_code != code:
            return f"exit {got_code}, want {code}: {got_out.strip()[:200]}"
        if stdout is not None:
            return None if got_out == stdout else f"stdout {got_out.strip()[:200]}"
        try:
            doc = json.loads(got_out)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {got_out.strip()[:200]}"
        return check(doc) if isinstance(doc, dict) else f"stdout {got_out.strip()[:200]}"
    return verify


def _argv(verb, action, inputs, options):
    argv = [verb, action]
    for flag, value in list(inputs.items()) + list(options.items()):
        argv += [f"--{flag}", value]
    return argv


def build(lib, seed, scale, workdir):
    rng = random.Random(seed)
    size = SIZES[scale]
    fx = Fixtures(os.path.join(workdir, f"cli-{seed}"), rng)
    _sheaf_fixtures(fx, size["grid"])
    homology = fx.write("complex.json", {"faces": [list(f) for f in grid_faces(
        size["homology"], (rng.randrange(size["homology"]),) * 2)]})
    fx.add("complex homology", "complex", "homology", {"complex": homology}, {}, 0,
           "[1,1,0]\n")
    _bayes_fixtures(fx, size["bayes"])
    _order_fixtures(fx)
    _modal_fixtures(fx, 2)
    _presheaf_fixtures(fx)
    _malformed_fixtures(fx)
    rng.shuffle(fx.commands)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    ops, replay = [], []
    for label, verb, action, inputs, options, code, stdout, check in fx.commands:
        verify = _checker(code, stdout, check)
        argv = [sys.executable, "-m", "sheafcalc.cli"] + _argv(verb, action, inputs, options)

        def call(argv=argv):
            done = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            return done.returncode, done.stdout

        def in_process(verb=verb, action=action, inputs=inputs, options=options):
            out = io.StringIO()
            code = lib.cli.run(lib.cli.Command(verb, action, inputs, options), out=out)
            return code, out.getvalue()

        kind = f"{verb}_{action}"
        ops.append(Op(kind, label, call, verify, code))
        replay.append(Op(kind, label, in_process, verify, code))
    return ops, replay
