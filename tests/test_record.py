"""Frozen records and slotted immutables against the standard library.

Every ``Record`` class, and the hand-written ``modal.Subgraph``, is
checked against the frozen dataclass that ``dataclasses.make_dataclass``
builds from the same class body; every immutable value class survives
copy, deepcopy and a pickle round trip.  The checks use the standard
library only, so they also run on an interpreter without pytest:

    PYTHONPATH=src python tests/test_record.py
"""

import copy
import dataclasses
import pickle

from sheafcalc import cli
from sheafcalc._record import Record
from sheafcalc.cellsheaf import (
    Assignment, SectionReport, SheafMorphism, check_morphism, extend,
    global_section_space, is_global_section, validate_sheaf)
from sheafcalc.cohomology import BayesReport, bayes_build, bayes_check, cochain_complex
from sheafcalc.complexes import Chain, validate_complex
from sheafcalc.finsheaf import (
    Copresheaf, matching_families, ncolor, sheaf_check, validate_presheaf)
from sheafcalc.galois import GaloisConnection, check_connection, induced_operators
from sheafcalc.modal import (
    AspectPredicate, DirectedMultigraph, Subgraph, modal_iterate, subgraph)
from sheafcalc.morphology import (
    BinaryImage, StructuringElement, composite_filter_lattice)
from sheafcalc.poset import validate_poset
from sheafcalc.rationals import RationalMatrix, decompose
from util import constant_sheaf, presheaf_p, sprinkler

RECORD_CLASSES = 34


def samples():
    """One instance of every record class and every slotted immutable
    class, built from tiny inputs."""
    chain = validate_poset("ab", [("a", "b")])
    edge = validate_complex([("a", "b")])
    sheaf = constant_sheaf(edge)
    faces = edge.all_faces()
    seed = Assignment({("a",): (1,)})
    space = global_section_space(sheaf)
    morphism = SheafMorphism(sheaf, sheaf, {f: f for f in faces},
                             {f: RationalMatrix.identity(1) for f in faces})
    model = sprinkler()
    presheaf = presheaf_p()
    top = presheaf.topology
    whole = frozenset(top.points)
    cover = [frozenset("p"), frozenset("q")]
    identity = {"a": "a", "b": "b"}
    connection = GaloisConnection(chain, chain, identity, identity)
    image = BinaryImage.of(2, 2, [(0, 0)])
    element = StructuringElement.of((0, 0), (1, 0))
    graph = DirectedMultigraph("ab", [("e", "a", "b")])
    x = subgraph(graph, "a")
    connection_doc = {"source": {"elements": ["a"], "leq": []},
                      "target": {"elements": ["x"], "leq": []},
                      "left": {"a": "x"}}
    presheaf_doc = {"topology": [["E"], ["U", "p"]],
                    "opens": {"E": ["*"], "U": ["s"]},
                    "restrictions": {"E<=U": {"s": "*"}}}
    return [
        chain, edge, graph, x,
        sheaf, seed, validate_sheaf(sheaf), is_global_section(sheaf, space.basis[0]),
        extend(sheaf, seed), space, morphism, check_morphism(morphism),
        cli.Command("poset", "validate", {"poset": "poset.json"}, {}),
        cli.PlainText("10\n01"),
        cli._parse_connection(connection_doc, "connection"),
        cli._parse_presheaf(presheaf_doc, "presheaf"),
        cli.ACTIONS[("poset", "validate")],
        cochain_complex(sheaf), model, bayes_build(model), bayes_check(model),
        Chain.of(edge, 0, {("a",): 1}),
        presheaf, validate_presheaf(presheaf), sheaf_check(presheaf, cover, whole),
        next(matching_families(presheaf, cover)),
        Copresheaf(chain, {"a": {0}, "b": {0}},
                   {("a", "a"): {0: 0}, ("a", "b"): {0: 0}, ("b", "b"): {0: 0}}),
        ncolor("ab", [("a", "b")], 2),
        connection, check_connection(connection), induced_operators(connection)["closure"],
        element, image, composite_filter_lattice(image, element),
        modal_iterate(graph, x, "diamond"), AspectPredicate.of(chain, ("u",), {}),
        top, decompose(RationalMatrix.identity(1)),
    ]


def twin(cls):
    """The frozen dataclass that the same class body makes."""
    if cls is Subgraph:
        return dataclasses.make_dataclass("Subgraph", ["vertices", "edges"], frozen=True)
    body = {k: v for k, v in vars(cls).items()
            if not k.startswith("_") or k == "__post_init__"}
    return dataclasses.make_dataclass(
        cls.__name__, list(cls.__annotations__.items()), namespace=body, frozen=True)


def outcome(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except TypeError:
        return "TypeError"
    except AttributeError:
        return "AttributeError"
    return "ok"


def hashed(value):
    try:
        return hash(value)
    except TypeError:
        return "TypeError"


def check_against_twin(sample):
    cls = type(sample)
    tw = twin(cls)
    fields = dataclasses.fields(tw)
    names = [f.name for f in fields]
    values = [getattr(sample, name) for name in names]
    a, b = cls(*values), tw(*values)
    assert repr(a) == repr(b), cls
    assert a == sample and not a != sample, cls
    assert a == cls(**dict(zip(names, values))), cls
    assert (a == b) == (b == a) == (a == values) is False, cls
    assert hashed(a) == hashed(b), cls
    required = [v for f, v in zip(fields, values) if f.default is dataclasses.MISSING]
    assert repr(cls(*required)) == repr(tw(*required)), cls
    bad_calls = [(values + [None], {}), (values, {"no_such_field": 0}),
                 (values, {names[0]: values[0]}), (required[:-1], {})]
    for args, kwargs in bad_calls:
        assert outcome(cls, *args, **kwargs) == outcome(tw, *args, **kwargs), cls
    for name in (names[0], "no_such_field"):
        assert outcome(setattr, a, name, None) == "AttributeError", cls
        assert outcome(setattr, b, name, None) == "AttributeError", cls
        assert outcome(delattr, a, name) == outcome(delattr, b, name), cls
    if "__post_init__" in vars(cls):
        calls = []
        original = cls.__post_init__

        def counted(self):
            calls.append(type(self))
            original(self)

        cls.__post_init__ = tw.__post_init__ = counted
        try:
            cls(*values)
            tw(*values)
        finally:
            cls.__post_init__ = original
        assert calls == [cls, tw], cls


def check_records():
    instances = samples()
    records = {type(s) for s in instances if isinstance(s, Record)}
    assert records == set(Record.__subclasses__())
    assert len(records) == RECORD_CLASSES
    # equal field tuples in two classes differ, as they do for dataclasses
    assert BayesReport(True) != SectionReport(True)
    for sample in instances:
        if isinstance(sample, (Record, Subgraph)):
            check_against_twin(sample)


def check_round_trips():
    for sample in samples():
        for clone in (copy.copy(sample), copy.deepcopy(sample),
                      pickle.loads(pickle.dumps(sample))):
            assert type(clone) is type(sample)
            if isinstance(sample, DirectedMultigraph):
                assert (clone.vertices, clone.edges) == (sample.vertices, sample.edges)
            else:
                assert clone == sample, type(sample)


def test_every_record_matches_its_frozen_dataclass_twin():
    check_records()


def test_immutables_survive_copy_deepcopy_and_pickle():
    check_round_trips()


if __name__ == "__main__":
    check_records()
    check_round_trips()
    print("ok")
