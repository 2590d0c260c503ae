"""Batch command line: one verb and one action per invocation.

Inputs arrive as JSON documents (bitmaps as 0/1 text grids), results
leave as a single JSON value on stdout, so runs can be scripted and
diffed.  The exit code carries the verdict: 0 for success, 1 for a
domain failure (an obstruction or violated axiom, with its witness on
stdout), 2 for input the tool refuses, with a location path into the
offending document.  Every refusal of a call's input comes before
any verdict on it, so a 1 always means well-formed input.

Numbers cross the boundary as exact rational strings ("1/2", "-3",
"0.5"); floats are refused on input and never emitted.  Faces must
arrive already sorted by the complex's vertex order, because the
attachment signs depend on that order; unsorted faces are rejected
rather than silently reordered.  Output is deterministic: the same
command on the same files produces the same bytes.  An object key may
appear once in a document or JSON option, and a face, however it is
spelled, once per document.

Only ``errors`` and ``_record`` are imported with this module.  Each
parser and action imports the library functions it calls when it runs,
so one call loads only the modules its verb needs, and the argument
parser builds only that verb's action parsers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from ._record import Record
from .errors import SheafcalcError

__all__ = ["Command", "InputError", "Failure", "parse_inputs", "run", "main"]


class InputError(Exception):
    """Unusable input; exit code 2.  ``location`` points into the
    offending document, e.g. ``sheaf:maps.a->ab[0][1]``."""

    def __init__(self, message: str, location: str):
        super().__init__(f"{message} ({location})")
        self.message = message
        self.location = location


class Failure(Exception):
    """Domain failure; exit code 1 with ``witness`` on stdout."""

    def __init__(self, witness: dict):
        super().__init__(str(witness))
        self.witness = witness


class Command(Record):
    verb: str
    action: str
    inputs: dict   # flag -> file path
    options: dict  # flag -> raw string value


# ------------------------------------------------------------- helpers

_CHUNK = 10 ** 600  # under 640 digits, the lowest cap on int-to-text


def _decimal(n: int) -> str:
    """``str(n)``, exact at any size: ``str`` refuses an int past the
    interpreter's digit cap, so a longer one is printed 600 digits at a
    time."""
    rest, chunks = abs(n), []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(f"{low:0600d}")
    return "-" * (n < 0) + str(rest) + "".join(reversed(chunks))


def _jsonable(value):
    """Library values as JSON: a rational as its exact text, a set as a
    list sorted by repr, a tuple as a list."""
    if isinstance(value, Fraction):
        num, den = value.as_integer_ratio()
        return _decimal(num) + (f"/{_decimal(den)}" if den != 1 else "")
    if isinstance(value, (frozenset, set)):
        return sorted((_jsonable(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _emit(payload, out):
    if isinstance(payload, str):  # a bitmap grid, written verbatim
        out.write(payload + "\n")
    else:
        out.write(json.dumps(_jsonable(payload), sort_keys=True,
                             separators=(",", ":")) + "\n")


def _read_text(path, flag):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror or err}", flag)


def _decode(text, where, lines=False):
    """JSON whose objects name each key once; ``lines`` adds the line and
    column of a syntax error, which only documents report."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"duplicate key {key!r}", where)
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as err:
        at = f" (line {err.lineno} column {err.colno})" if lines else ""
        raise InputError(f"invalid JSON: {err.msg}{at}", where)
    except RecursionError:
        raise InputError("JSON nested too deeply", where)
    except ValueError:
        # the interpreter's cap on the digits of an integer literal
        raise InputError("JSON integer has too many digits", where)


def _as_object(doc, where, keys=None, required=()):
    if not isinstance(doc, dict):
        raise InputError("expected an object", where)
    if keys is not None:
        for k in doc:
            if k not in keys:
                raise InputError(f"unknown key {k!r}", where)
    for k in required:
        if k not in doc:
            raise InputError(f"missing key {k!r}", where)
    return doc


def _string_list(doc, where, allow_empty=False, unique=None):
    """``unique`` names the entries when none may repeat."""
    if not isinstance(doc, list) or any(not isinstance(x, str) for x in doc):
        raise InputError("expected an array of strings", where)
    if not doc and not allow_empty:
        raise InputError("expected a nonempty array of strings", where)
    if unique is not None and len(set(doc)) != len(doc):
        raise InputError(f"duplicate {unique}", where)
    return list(doc)


def _require_known(items, known, noun, where):
    for item in items:
        if item not in known:
            raise InputError(f"unknown {noun} {item!r}", where)


def _require_once(spelled, key, name, noun, where):
    """Record ``name`` as the spelling of ``key``, refusing a second one."""
    if key in spelled:
        raise InputError(f"{spelled[key]!r} and {name!r} denote the same {noun}",
                         where)
    spelled[key] = name


def _refusing(where, fn, *args, **kwargs):
    """``fn``'s result, with a library refusal reported at ``where``."""
    try:
        return fn(*args, **kwargs)
    except SheafcalcError as err:
        raise InputError(str(err), where)


def _rational_value(value, where) -> Fraction:
    from .rationals import rational

    # JSON floats are refused: 0.1 arrives already rounded to binary
    if isinstance(value, float):
        raise InputError(
            f"floats are inexact, write {value!r} as a quoted rational string", where)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"not a rational: {value!r}", where)
    return _refusing(where, rational, value)


# ------------------------------------------------------------- parsers

def _parse_complex(doc, where):
    from .complexes import validate_complex

    obj = _as_object(doc, where, keys={"vertices", "faces"}, required=("faces",))
    vertices = None
    if "vertices" in obj:
        vertices = _string_list(obj["vertices"], f"{where}:vertices",
                                unique="vertex labels")
    faces_doc = obj["faces"]
    if not isinstance(faces_doc, list) or not faces_doc:
        raise InputError("faces must be a nonempty array", f"{where}:faces")
    faces = [tuple(_string_list(f, f"{where}:faces[{i}]"))
             for i, f in enumerate(faces_doc)]
    try:
        return validate_complex(faces, vertices=vertices)
    except SheafcalcError:
        # with distinct vertex labels, a face list is refused exactly when
        # some face is refused on its own: probe to name the first one
        for i, face in enumerate(faces):
            _refusing(f"{where}:faces[{i}]", validate_complex, [face],
                      vertices=vertices)
        raise


def _rational_rows(doc, where, noun):
    """An array of arrays of rationals; ``noun`` names it in refusals,
    and entry (i, j) is located at ``where[i][j]``."""
    if not isinstance(doc, list):
        raise InputError(f"{noun} must be an array of rows", where)
    rows = []
    for i, rdoc in enumerate(doc):
        if not isinstance(rdoc, list):
            raise InputError(f"{noun} rows are arrays", f"{where}[{i}]")
        rows.append([_rational_value(x, f"{where}[{i}][{j}]")
                     for j, x in enumerate(rdoc)])
    return rows


def _parse_matrix(doc, where, default_cols=0):
    from .rationals import RationalMatrix

    rows = _rational_rows(doc, where, "matrix")
    if not rows:
        # a 0-row matrix cannot carry its own width
        return RationalMatrix.zero(0, default_cols)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError("ragged matrix", f"{where}[{i}]")
    return RationalMatrix(len(rows), width, [x for row in rows for x in row])


def _parse_sheaf(doc, where, base_dir):
    from .cellsheaf import CellularSheaf, covering_pairs
    from .complexes import _parse_face_name, face_name

    obj = _as_object(doc, where, keys={"complex", "stalks", "maps", "variance"},
                     required=("complex", "stalks", "maps"))
    cdoc, cwhere = obj["complex"], f"{where}:complex"
    if isinstance(cdoc, str):
        cpath = Path(base_dir) / cdoc
        cdoc = _decode(_read_text(cpath, cwhere), cwhere, lines=True)
        cwhere = str(cpath)
    base = _parse_complex(cdoc, cwhere)
    variance = obj.get("variance", "sheaf")
    if variance not in ("sheaf", "cosheaf"):
        raise InputError('variance must be "sheaf" or "cosheaf"', f"{where}:variance")
    dims, spelled = {}, {}
    for name, value in _as_object(obj["stalks"], f"{where}:stalks").items():
        nwhere = f"{where}:stalks.{name}"
        face = _refusing(nwhere, _parse_face_name, base, name)
        _require_once(spelled, face, name, "face", nwhere)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise InputError("stalk dimensions are nonnegative integers", nwhere)
        dims[face] = value
    for face in base.all_faces():
        if face not in dims:
            raise InputError(f"no stalk dimension for face {face_name(base, face)!r}",
                             f"{where}:stalks")
    pairs = set(covering_pairs(base))
    maps, spelled = {}, {}
    for key, rows in _as_object(obj["maps"], f"{where}:maps").items():
        kwhere = f"{where}:maps.{key}"
        if key.count("->") != 1:
            raise InputError('map keys look like "a->ab"', kwhere)
        left, right = key.split("->")
        sigma = _refusing(kwhere, _parse_face_name, base, left)
        tau = _refusing(kwhere, _parse_face_name, base, right)
        if (sigma, tau) not in pairs:
            raise InputError(f"{key!r} is not a covering attachment", kwhere)
        _require_once(spelled, (sigma, tau), key, "attachment", kwhere)
        cols = dims[sigma] if variance == "sheaf" else dims[tau]
        maps[(sigma, tau)] = _parse_matrix(rows, kwhere, default_cols=cols)
    return CellularSheaf(base, dims, maps, variance)


def _parse_seed(text, s, flag="seed"):
    from .cellsheaf import Assignment
    from .complexes import _parse_face_name

    values, spelled = {}, {}
    for name, vec in _as_object(_decode(text, flag), flag).items():
        face = _refusing(f"{flag}:{name}", _parse_face_name, s.base, name)
        _require_once(spelled, face, name, "face", f"{flag}:{name}")
        if not isinstance(vec, list):
            raise InputError("seed vectors are arrays", f"{flag}:{name}")
        values[face] = tuple(_rational_value(x, f"{flag}:{name}[{j}]")
                             for j, x in enumerate(vec))
        if len(values[face]) != s.stalk_dim[face]:
            raise InputError(
                f"seed at {name!r} needs {s.stalk_dim[face]} entries",
                f"{flag}:{name}")
    return Assignment(values)


def _parse_poset(doc, where):
    from .poset import OrderViolation, validate_poset

    obj = _as_object(doc, where, keys={"elements", "leq"}, required=("elements",))
    elements = _string_list(obj["elements"], f"{where}:elements", unique="elements")
    known = set(elements)
    pairs = []
    leq_doc = obj.get("leq", [])
    if not isinstance(leq_doc, list):
        raise InputError("leq must be an array of pairs", f"{where}:leq")
    for i, pdoc in enumerate(leq_doc):
        pair = _string_list(pdoc, f"{where}:leq[{i}]")
        if len(pair) != 2:
            raise InputError("relation entries are pairs", f"{where}:leq[{i}]")
        _require_known(pair, known, "element", f"{where}:leq[{i}]")
        pairs.append(tuple(pair))
    try:
        return validate_poset(elements, pairs)
    except OrderViolation as err:
        raise Failure({"kind": "antisymmetry", "witness": err.cycle})


def _parse_monotone_map(doc, dom, cod, where):
    obj = _as_object(doc, where)
    known_dom, known_cod = set(dom.elements), set(cod.elements)
    out = {}
    for k, v in obj.items():
        _require_known((k,), known_dom, "element", f"{where}.{k}")
        if not isinstance(v, str) or v not in known_cod:
            raise InputError(f"{v!r} is not in the codomain", f"{where}.{k}")
        out[k] = v
    for e in dom.elements:
        if e not in out:
            raise InputError(f"map is partial at {e!r}", where)
    return out


def _parse_connection(doc, where):
    """A GaloisConnection whose missing legs are None."""
    from .galois import GaloisConnection

    obj = _as_object(doc, where, keys={"source", "target", "left", "right"},
                     required=("source", "target"))
    source = _parse_poset(obj["source"], f"{where}:source")
    target = _parse_poset(obj["target"], f"{where}:target")
    left = right = None
    if "left" in obj:
        left = _parse_monotone_map(obj["left"], source, target, f"{where}:left")
    if "right" in obj:
        right = _parse_monotone_map(obj["right"], target, source, f"{where}:right")
    return GaloisConnection(source, target, left, right)


def _parse_graph(doc, where):
    from .modal import DirectedMultigraph

    obj = _as_object(doc, where, keys={"vertices", "edges"}, required=("vertices",))
    vertices = _string_list(obj["vertices"], f"{where}:vertices", unique="vertices")
    known = set(vertices)
    edges = []
    seen = set()
    edges_doc = obj.get("edges", [])
    if not isinstance(edges_doc, list):
        raise InputError("edges must be an array", f"{where}:edges")
    for i, edoc in enumerate(edges_doc):
        ewhere = f"{where}:edges[{i}]"
        eobj = _as_object(edoc, ewhere, keys={"id", "src", "dst"},
                          required=("id", "src", "dst"))
        eid, src, dst = eobj["id"], eobj["src"], eobj["dst"]
        if not all(isinstance(x, str) for x in (eid, src, dst)):
            raise InputError("id, src and dst are strings", ewhere)
        if eid in seen:
            raise InputError(f"duplicate edge id {eid!r}", ewhere)
        seen.add(eid)
        _require_known((src, dst), known, "vertex", ewhere)
        edges.append((eid, src, dst))
    return DirectedMultigraph(tuple(vertices), tuple(edges))


def _parse_subgraph(doc, g, where):
    from .modal import subgraph

    obj = _as_object(doc, where, keys={"vertices", "edges"})
    vertices = _string_list(obj.get("vertices", []), f"{where}:vertices",
                            allow_empty=True)
    edges = _string_list(obj.get("edges", []), f"{where}:edges", allow_empty=True)
    _require_known(vertices, set(g.vertices), "vertex", f"{where}:vertices")
    _require_known(edges, g.edges, "edge id", f"{where}:edges")
    return _refusing(where, subgraph, g, vertices, edges)


class _PresheafDoc(Record):
    presheaf: object  # a finsheaf.FinitePresheaf
    open_sets: dict  # name -> frozenset of points
    name_of: dict    # frozenset -> name


def _parse_presheaf(doc, where):
    from .finsheaf import FinitePresheaf
    from .poset import validate_topology

    obj = _as_object(doc, where, keys={"opens", "restrictions", "topology"},
                     required=("opens", "restrictions", "topology"))
    entries = obj["topology"]
    if not isinstance(entries, list):
        raise InputError("topology must be an array", f"{where}:topology")
    open_sets = {}
    for i, entry in enumerate(entries):
        row = _string_list(entry, f"{where}:topology[{i}]")
        name, points = row[0], frozenset(row[1:])
        if name in open_sets:
            raise InputError(f"open {name!r} declared twice", f"{where}:topology[{i}]")
        open_sets[name] = points
    name_of = {}
    for name, members in open_sets.items():
        _require_once(name_of, members, name, "open", f"{where}:topology")
    points = sorted(set().union(*open_sets.values())) if open_sets else []
    topology = _refusing(f"{where}:topology", validate_topology,
                         points, open_sets.values())

    stalk = {}
    opens_doc = _as_object(obj["opens"], f"{where}:opens")
    for name in opens_doc:
        if name not in open_sets:
            raise InputError(f"open {name!r} not declared in the topology",
                             f"{where}:opens.{name}")
    for name in open_sets:
        if name not in opens_doc:
            raise InputError(f"no sections listed for open {name!r}",
                             f"{where}:opens")
    for name, sections in opens_doc.items():
        listed = _string_list(sections, f"{where}:opens.{name}", allow_empty=True,
                              unique="section labels")
        stalk[open_sets[name]] = frozenset(listed)

    restriction = {}
    for key, table_doc in _as_object(obj["restrictions"],
                                     f"{where}:restrictions").items():
        kwhere = f"{where}:restrictions.{key}"
        if key.count("<=") != 1:
            raise InputError('restriction keys look like "V<=U"', kwhere)
        small_name, big_name = key.split("<=")
        _require_known((small_name, big_name), open_sets, "open", kwhere)
        v, u = open_sets[small_name], open_sets[big_name]
        if not v <= u:
            raise InputError(f"{small_name!r} is not inside {big_name!r}", kwhere)
        table = {}
        for s, t in _as_object(table_doc, kwhere).items():
            if s not in stalk[u]:
                raise InputError(f"{s!r} is not a section of {big_name!r}",
                                 f"{kwhere}.{s}")
            if not isinstance(t, str) or t not in stalk[v]:
                raise InputError(f"{t!r} is not a section of {small_name!r}",
                                 f"{kwhere}.{s}")
            table[s] = t
        for s in stalk[u]:
            if s not in table:
                raise InputError(f"restriction is partial at {s!r}", kwhere)
        restriction[(u, v)] = table
    opens = topology.opens_sorted()
    for u in opens:
        # identity tables may be omitted; a presheaf that breaks the
        # identity law must spell the offending table out
        if (u, u) not in restriction:
            restriction[(u, u)] = {s: s for s in stalk[u]}
    for u in opens:
        for v in opens:
            if v <= u and (u, v) not in restriction:
                raise InputError(
                    f"missing restriction {name_of[v]}<={name_of[u]}",
                    f"{where}:restrictions")
    return _PresheafDoc(FinitePresheaf(topology, stalk, restriction),
                        open_sets, name_of)


def _parse_model(doc, where):
    from .cohomology import BayesModel

    obj = _as_object(doc, where, keys={"variables"}, required=("variables",))
    vdocs = obj["variables"]
    if not isinstance(vdocs, list) or not vdocs:
        raise InputError("variables must be a nonempty array", f"{where}:variables")
    names = []
    for i, vdoc in enumerate(vdocs):
        vobj = _as_object(vdoc, f"{where}:variables[{i}]",
                          keys={"name", "outcomes", "parents", "cpt"},
                          required=("name", "outcomes", "cpt"))
        if not isinstance(vobj["name"], str):
            raise InputError("variable names are strings", f"{where}:variables[{i}]")
        names.append(vobj["name"])
    known = set(names)
    if len(known) != len(names):
        raise InputError("duplicate variable names", f"{where}:variables")
    outcomes, parents, cpt = {}, {}, {}
    for i, vdoc in enumerate(vdocs):
        vwhere = f"{where}:variables[{i}]"
        name = vdoc["name"]
        outcomes[name] = tuple(_string_list(vdoc["outcomes"], f"{vwhere}:outcomes",
                                            unique="outcomes"))
        declared = _string_list(vdoc.get("parents", []), f"{vwhere}:parents",
                                allow_empty=True)
        for j, p in enumerate(declared):
            _require_known((p,), known, "parent", f"{vwhere}:parents[{j}]")
        if len(set(declared)) != len(declared):
            raise InputError("duplicate parents", f"{vwhere}:parents")
        parents[name] = tuple(declared)
        rows = _rational_rows(vdoc["cpt"], f"{vwhere}:cpt", "cpt")
        cpt[name] = tuple(map(tuple, rows))
    return _refusing(f"{where}:variables", BayesModel,
                     tuple(names), outcomes, parents, cpt)


def _parse_bitmap(text, flag):
    from .morphology import BinaryImage

    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0]:
        raise InputError("empty bitmap", flag)
    width = len(lines[0])
    pixels = set()
    for y, line in enumerate(lines):
        if len(line) != width:
            raise InputError(f"row width {len(line)} differs from {width}",
                             f"{flag}:line {y + 1}")
        for x, ch in enumerate(line):
            if ch == "1":
                pixels.add((x, y))
            elif ch != "0":
                raise InputError(f"unexpected character {ch!r}",
                                 f"{flag}:line {y + 1} column {x + 1}")
    return BinaryImage.of(width, len(lines), pixels)


def _parse_element(doc, flag):
    from .morphology import StructuringElement

    if not isinstance(doc, list) or not doc:
        raise InputError("offsets must be a nonempty array", flag)
    offsets = []
    for i, odoc in enumerate(doc):
        ok = (isinstance(odoc, list) and len(odoc) == 2
              and all(isinstance(x, int) and not isinstance(x, bool) for x in odoc))
        if not ok:
            raise InputError("offsets are [dx, dy] integer pairs", f"{flag}[{i}]")
        offsets.append((odoc[0], odoc[1]))
    return StructuringElement(frozenset(offsets))


_PARSERS = {"complex": _parse_complex, "poset": _parse_poset,
            "connection": _parse_connection, "graph": _parse_graph,
            "presheaf": _parse_presheaf, "model": _parse_model,
            "element": _parse_element}


def parse_inputs(command: Command) -> dict:
    """Load and type-check every file named by the command, in the
    order the action declares them (a subgraph needs its graph first)."""
    spec = ACTIONS[(command.verb, command.action)]
    objects = {}
    for flag in spec.paths:
        path = command.inputs[flag]
        text = _read_text(path, flag)
        if flag == "bitmap":
            objects[flag] = _parse_bitmap(text, flag)
            continue
        doc = _decode(text, flag, lines=True)
        if flag == "sheaf":
            objects[flag] = _parse_sheaf(doc, flag, Path(path).parent)
        elif flag == "subgraph":
            objects[flag] = _parse_subgraph(doc, objects["graph"], flag)
        else:
            objects[flag] = _PARSERS[flag](doc, flag)
    return objects


# ------------------------------------------------------------- actions

def _sheaf_witness(base, report):
    from .complexes import face_name

    if report.kind == "missing-map":
        sigma, tau = report.witness
        return {"kind": report.kind,
                "attachment": [face_name(base, sigma), face_name(base, tau)]}
    if report.kind == "shape":
        sigma, tau, got, want = report.witness
        return {"kind": report.kind,
                "attachment": [face_name(base, sigma), face_name(base, tau)],
                "got": got, "want": want}
    return {"kind": report.kind,  # path-independence
            "faces": [face_name(base, f) for f in report.witness]}


def _checked_sheaf(objects, fn, action, seed=None):
    """The sheaf and ``fn``'s result on it (and on the parsed seed).  Every
    refusal comes first: sheaf variance, then the seed.  ``fn`` validates
    the sheaf itself, and its refusal carries the report whose witness is
    printed."""
    from .cellsheaf import InvalidSheaf

    s = objects["sheaf"]
    if s.variance != "sheaf":
        raise InputError(f"{action} needs sheaf variance", "sheaf:variance")
    args = () if seed is None else (_parse_seed(seed, s),)
    try:
        return s, fn(s, *args)
    except InvalidSheaf as err:
        raise Failure(_sheaf_witness(s.base, err.report)) from None


def _assignment_json(base, assignment):
    from .complexes import face_name

    return {face_name(base, face): assignment[face]
            for face in base.all_faces() if face in assignment.vectors}


def _cmd_complex_validate(objects, options):
    base = objects["complex"]
    return {"vertices": base.vertex_order, "faces": base.all_faces()}


def _cmd_complex_homology(objects, options):
    from .complexes import homology_dims

    return homology_dims(objects["complex"])


def _cmd_sheaf_validate(objects, options):
    from .cellsheaf import validate_sheaf

    s = objects["sheaf"]
    report = validate_sheaf(s)
    if not report.ok:
        raise Failure(_sheaf_witness(s.base, report))
    return {"ok": True}


def _cmd_sheaf_extend(objects, options):
    from .cellsheaf import extend
    from .complexes import face_name

    s, outcome = _checked_sheaf(objects, extend, "extend", options["seed"])
    if outcome.ok:
        return _assignment_json(s.base, outcome.result)
    raise Failure({"obstruction": face_name(s.base, outcome.obstruction),
                   "kind": outcome.kind})


def _cmd_sheaf_sections(objects, options):
    from .cellsheaf import global_section_space

    s, space = _checked_sheaf(objects, global_section_space, "sections")
    return {"dimension": space.dimension,
            "basis": [_assignment_json(s.base, a) for a in space.basis]}


def _cmd_cohomology_dims(objects, options):
    from .cohomology import cohomology_dims

    return _checked_sheaf(objects, cohomology_dims, "cohomology")[1]


def _cmd_poset_validate(objects, options):
    p = objects["poset"]
    return {"elements": p.elements, "leq": p.pairs()}


def _cmd_poset_downsets(objects, options):
    from .poset import downset_family, set_label

    family = _refusing("poset:elements", downset_family, objects["poset"])
    return [set_label(s) for s in family]


def _cmd_poset_yoneda(objects, options):
    from .poset import yoneda_check

    ok, witness = _refusing("poset:elements", yoneda_check, objects["poset"])
    if ok:
        return {"ok": True}
    raise Failure({"kind": witness[0], "witness": witness[1:]})


def _cmd_galois_check(objects, options):
    from .galois import check_connection

    c = objects["connection"]
    for side in ("left", "right"):
        if getattr(c, side) is None:
            raise InputError(f"connection needs a {side} map", f"connection:{side}")
    report = check_connection(c)
    if report.ok:
        return {"ok": True}
    raise Failure({"kind": report.kind, "witness": report.witness})


def _cmd_galois_adjoint(objects, options):
    from .galois import AdjointSynthesisError, left_adjoint_of, right_adjoint_of
    from .poset import _monotonicity_witness

    c = objects["connection"]
    direction = options.get("direction", "right")
    if direction not in ("right", "left"):
        raise InputError("direction must be right or left", "direction")
    given = "left" if direction == "right" else "right"
    mapping = getattr(c, given)
    if mapping is None:
        raise InputError(f"synthesis needs the {given} map", f"connection:{given}")
    synthesize = right_adjoint_of if direction == "right" else left_adjoint_of
    try:
        adjoint = synthesize(mapping, c.source, c.target)
    except AdjointSynthesisError as err:
        raise Failure({"kind": err.kind, "at": err.at, "subset": err.subset,
                       "bound": err.bound, "image": err.image})
    except SheafcalcError:
        # a left adjoint is synthesized over the dual orders: the pair is
        # named here, in the given map's own order
        dom, cod = (c.source, c.target) if given == "left" else (c.target, c.source)
        bad = _monotonicity_witness(dom, cod, mapping)
        if bad is None:
            raise
        raise Failure({"kind": f"{given}-not-monotone", "witness": bad})
    return {"direction": direction, "adjoint": adjoint}


def _morph_action(name):
    def handler(objects, options):
        from . import morphology

        out = getattr(morphology, name)(objects["bitmap"], objects["element"])
        return _render_bitmap(out)
    return handler


def _render_bitmap(image):
    return "\n".join(
        "".join("1" if (x, y) in image.foreground else "0"
                for x in range(image.width))
        for y in range(image.height))


def _subgraph_json(s):
    return {"vertices": sorted(s.vertices), "edges": sorted(s.edges)}


def _modal_action(which):
    def handler(objects, options):
        from .modal import modal_iterate

        trace = modal_iterate(objects["graph"], objects["subgraph"], which)
        return _subgraph_json(trace.stabilized)
    return handler


def _cmd_modal_boundary(objects, options):
    from .modal import boundary

    return _subgraph_json(boundary(objects["graph"], objects["subgraph"]))


def _cmd_presheaf_validate(objects, options):
    from .finsheaf import validate_presheaf

    bundle = objects["presheaf"]
    report = validate_presheaf(bundle.presheaf)
    if report.ok:
        return {"ok": True}
    if report.kind == "identity":
        u, s, got = report.witness
        raise Failure({"kind": "identity", "open": bundle.name_of[u],
                       "section": s, "got": got})
    u, v, w, s, direct, stepped = report.witness
    raise Failure({"kind": "composition",
                   "opens": [bundle.name_of[x] for x in (u, v, w)],
                   "section": s, "direct": direct, "stepped": stepped})


def _cover_witness(bundle, target, members, condition):
    from .poset import _open_key

    out = {"target": bundle.name_of[target],
           "cover": sorted(bundle.name_of[frozenset(u)] for u in members)}
    if condition.locality[0] == "fail":
        s, t = condition.locality[1]
        out["axiom"] = "locality"
        out["sections"] = [s, t]
    else:
        family = condition.gluing[1]
        out["axiom"] = "gluing"
        out["family"] = [[bundle.name_of[u], family.section(u)]
                         for u in sorted(family.cover, key=_open_key)]
    return out


def _cmd_presheaf_check(objects, options):
    from .finsheaf import irredundant_covers, sheaf_check

    bundle = objects["presheaf"]
    p = bundle.presheaf
    target_name = options.get("target")
    cover_opt = options.get("cover")
    if cover_opt is not None and target_name is None:
        raise InputError("a cover needs a target open", "target")
    if target_name is None:
        targets = p.topology.opens_sorted()
    else:
        _require_known((target_name,), bundle.open_sets, "open", "target")
        targets = [bundle.open_sets[target_name]]
    if cover_opt is None:
        checks = [(target, cover) for target in targets
                  for cover in irredundant_covers(p.topology, target)]
    else:
        names = cover_opt.split(",")
        _require_known(names, bundle.open_sets, "open", "cover")
        checks = [(targets[0], [bundle.open_sets[n] for n in names])]
    count = 0
    for target, cover in checks:
        members = list(cover)
        condition = _refusing("cover", sheaf_check, p, members, target)
        if not condition.ok:
            raise Failure(_cover_witness(bundle, target, members, condition))
        count += 1
    return {"ok": True, "covers": count}


def _cmd_bayes_check(objects, options):
    from .cohomology import _outcome_count, bayes_check

    m = objects["model"]
    vector = None
    if "joint" in options:
        doc = _decode(options["joint"], "joint")
        if not isinstance(doc, list):
            raise InputError("joint must be an array", "joint")
        vector = tuple(_rational_value(x, f"joint[{j}]")
                       for j, x in enumerate(doc))
        want = _outcome_count(m, m.variables)
        if len(vector) != want:
            raise InputError(f"joint vector needs {want} entries", "joint")
    try:
        report = bayes_check(m, vector)
    except SheafcalcError as err:
        raise Failure({"error": str(err)})
    if report.ok:
        return {"ok": True}
    raise Failure({"ok": False, "violations": report.violations})


def _cmd_bayes_joint(objects, options):
    from .cohomology import bayes_build

    try:
        assembly = bayes_build(objects["model"])
    except SheafcalcError as err:
        raise Failure({"error": str(err)})
    return assembly.joint


class _ActionSpec(Record):
    paths: tuple
    options: tuple  # (name, required) pairs
    fn: object
    help: str


ACTIONS = {
    ("poset", "validate"): _ActionSpec(
        ("poset",), (), _cmd_poset_validate,
        "close the relation and echo it in canonical order"),
    ("poset", "downsets"): _ActionSpec(
        ("poset",), (), _cmd_poset_downsets,
        "list every downset as a brace label"),
    ("poset", "yoneda"): _ActionSpec(
        ("poset",), (), _cmd_poset_yoneda,
        "confirm the embedding into the downset lattice"),
    ("galois", "check"): _ActionSpec(
        ("connection",), (), _cmd_galois_check,
        "test the adjunction equivalence on every pair"),
    ("galois", "adjoint"): _ActionSpec(
        ("connection",), (("direction", False),), _cmd_galois_adjoint,
        "synthesize the missing adjoint, or report why none exists"),
    ("morph", "dilate"): _ActionSpec(
        ("bitmap", "element"), (), _morph_action("dilate"), "Minkowski sum"),
    ("morph", "erode"): _ActionSpec(
        ("bitmap", "element"), (), _morph_action("erode"), "Minkowski difference"),
    ("morph", "open"): _ActionSpec(
        ("bitmap", "element"), (), _morph_action("opening"), "erode, then dilate"),
    ("morph", "close"): _ActionSpec(
        ("bitmap", "element"), (), _morph_action("closing"), "dilate, then erode"),
    ("modal", "diamond"): _ActionSpec(
        ("graph", "subgraph"), (), _modal_action("diamond"),
        "iterate co-negation of negation to its fixpoint"),
    ("modal", "box"): _ActionSpec(
        ("graph", "subgraph"), (), _modal_action("box"),
        "iterate negation of co-negation to its fixpoint"),
    ("modal", "boundary"): _ActionSpec(
        ("graph", "subgraph"), (), _cmd_modal_boundary,
        "the subgraph meet its co-negation"),
    ("complex", "validate"): _ActionSpec(
        ("complex",), (), _cmd_complex_validate,
        "complete the downward closure and echo canonical form"),
    ("complex", "homology"): _ActionSpec(
        ("complex",), (), _cmd_complex_homology,
        "Betti numbers over the rationals"),
    ("presheaf", "validate"): _ActionSpec(
        ("presheaf",), (), _cmd_presheaf_validate,
        "check the functor laws"),
    ("presheaf", "check"): _ActionSpec(
        ("presheaf",), (("target", False), ("cover", False)), _cmd_presheaf_check,
        "test locality and gluing over irredundant covers"),
    ("sheaf", "validate"): _ActionSpec(
        ("sheaf",), (), _cmd_sheaf_validate,
        "shapes, completeness and path independence"),
    ("sheaf", "extend"): _ActionSpec(
        ("sheaf",), (("seed", True),), _cmd_sheaf_extend,
        "extend a partial assignment to a global section"),
    ("sheaf", "sections"): _ActionSpec(
        ("sheaf",), (), _cmd_sheaf_sections,
        "dimension and basis of the space of global sections"),
    ("cohomology", "dims"): _ActionSpec(
        ("sheaf",), (), _cmd_cohomology_dims,
        "Betti numbers of the sheaf cochain complex"),
    ("bayes", "check"): _ActionSpec(
        ("model",), (("joint", False),), _cmd_bayes_check,
        "marginalization coherence of a joint against its model"),
    ("bayes", "joint"): _ActionSpec(
        ("model",), (), _cmd_bayes_joint,
        "assemble the joint distribution from the tables"),
}


def run(command: Command, out=None) -> int:
    out = sys.stdout if out is None else out
    if (command.verb, command.action) not in ACTIONS:
        _emit({"error": f"unknown action {command.verb} {command.action}"}, out)
        return 2
    spec = ACTIONS[(command.verb, command.action)]
    try:
        payload = spec.fn(parse_inputs(command), command.options)
    except InputError as err:
        _emit({"error": err.message, "location": err.location}, out)
        return 2
    except Failure as fail:
        _emit(fail.witness, out)
        return 1
    _emit(payload, out)
    return 0


def _build_parser(argv):
    """Every verb, but the actions of only the verb ``argv`` names: the
    first argument not starting with a dash, as the top-level parser
    has no option that takes a value.  No other verb's actions can be
    reached in this call, so output and errors are those of the full
    tree."""
    named = next((arg for arg in argv if not arg.startswith("-")), None)
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
        if verb != named:
            continue
        ap = verbs[verb].add_parser(action, help=spec.help)
        for flag in spec.paths:
            ap.add_argument(f"--{flag}", required=True, metavar="FILE")
        for name, required in spec.options:
            ap.add_argument(f"--{name}", required=required)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    spec = ACTIONS[(args.verb, args.action)]
    inputs = {flag: getattr(args, flag) for flag in spec.paths}
    options = {}
    for name, _required in spec.options:
        value = getattr(args, name)
        if value is not None:
            options[name] = value
    return run(Command(args.verb, args.action, inputs, options))


if __name__ == "__main__":
    raise SystemExit(main())
