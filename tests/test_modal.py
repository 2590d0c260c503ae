import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.errors import SheafcalcError
from sheafcalc.modal import (
    AspectPredicate, DirectedMultigraph, Subgraph, all_subgraphs,
    aspect_modal, aspect_neg, boundary, coheyting_neg, empty_subgraph,
    full_subgraph, heyting_neg, meet_join, modal_iterate, reach_oracle,
    subgraph, subgraph_leq, validate_aspect_predicate, validate_subgraph)
from sheafcalc.poset import validate_poset

from util import (
    pointwise_aspect_modal, pointwise_aspect_neg, random_aspect_predicate,
    under_hash_seeds)


def single_edge():
    return DirectedMultigraph("ab", [("e", "a", "b")])


def two_islands():
    # a -> b -> c   and separately   d -> e
    return DirectedMultigraph("abcde", [
        ("ab", "a", "b"), ("bc", "b", "c"), ("de", "d", "e")])


def sample_graphs():
    yield single_edge()
    yield two_islands()
    yield DirectedMultigraph("ab", [("e1", "a", "b"), ("e2", "b", "a")])
    yield DirectedMultigraph("a", [("loop", "a", "a")])
    yield DirectedMultigraph("ab", [("e1", "a", "b"), ("e2", "a", "b")])
    yield DirectedMultigraph("abc", [("ab", "a", "b"), ("cb", "c", "b")])


# ----------------------------------------------------------- validation

def test_graph_validation():
    with pytest.raises(ValueError, match="duplicate"):
        DirectedMultigraph("ab", [("e", "a", "b"), ("e", "b", "a")])
    with pytest.raises(ValueError, match="endpoint"):
        DirectedMultigraph("ab", [("e", "a", "z")])


def test_subgraph_closure_enforced():
    g = single_edge()
    with pytest.raises(ValueError, match="without endpoint"):
        subgraph(g, {"a"}, {"e"})
    with pytest.raises(ValueError, match="unknown vertex"):
        subgraph(g, {"z"})
    assert subgraph(g, {"a", "b"}, {"e"}) == full_subgraph(g)


def test_closure_refusal_names_only_the_missing_endpoints():
    g = DirectedMultigraph("abd", [("e1", "a", "b"), ("e2", "d", "b"),
                                   ("loop", "a", "a")])
    cases = [({"a"}, {"e1"}, "edge 'e1' included without endpoint 'b'"),
             ({"b"}, {"e1"}, "edge 'e1' included without endpoint 'a'"),
             (set(), {"e2"}, "edge 'e2' included without endpoints 'd' and 'b'"),
             ({"b"}, {"loop"}, "edge 'loop' included without endpoint 'a'")]
    for vertices, edges, message in cases:
        with pytest.raises(ValueError) as refused:
            subgraph(g, vertices, edges)
        assert str(refused.value) == message


SET_ORDER_REFUSALS = """
from sheafcalc.modal import DirectedMultigraph, Subgraph, validate_subgraph
g = DirectedMultigraph("ab", [("e1", "a", "b"), ("e2", "b", "a"),
                              ("e3", "a", "a"), ("e4", "b", "b")])
for vertices, edges in (("uvwxyz", ()), ("ab", ("f1", "f2", "f3", "f4", "f5")),
                        ("", ("e4", "e3", "e2", "e1"))):
    try:
        validate_subgraph(g, Subgraph(frozenset(vertices), frozenset(edges)))
    except ValueError as err:
        print(err)
"""


def test_refusals_with_several_faults_name_the_same_one_under_every_hash_seed():
    # the least unknown vertex or edge, then the first edge in the graph's
    # order, never the first a set happens to yield
    assert under_hash_seeds(SET_ORDER_REFUSALS) == {
        "unknown vertex 'u'\nunknown edge 'f1'\n"
        "edge 'e1' included without endpoints 'a' and 'b'\n"}


ASPECT_REFUSAL = """
from sheafcalc.modal import AspectPredicate
from sheafcalc.poset import validate_poset
try:
    AspectPredicate.of(validate_poset(["lo", "hi"], [("lo", "hi")]), "uvwxyz",
                       {"hi": set("uvwxyz")})
except ValueError as err:
    print(err)
"""


def test_an_aspect_refusal_names_the_least_stray_point_under_every_hash_seed():
    assert under_hash_seeds(ASPECT_REFUSAL) == {
        "not functorial: ('u', 'hi', 'lo')\n"}


def test_meet_join_stay_closed():
    g = two_islands()
    a = subgraph(g, {"a", "b"}, {"ab"})
    b = subgraph(g, {"b", "c"}, {"bc"})
    met = meet_join(g, a, b, "meet")
    assert met == Subgraph(frozenset({"b"}), frozenset())
    joined = meet_join(g, a, b, "join")
    validate_subgraph(g, joined)
    assert meet_join(g, a, a, "meet") == a


# ------------------------------------------------------------ negations

def test_heyting_neg_examples():
    g = single_edge()
    assert heyting_neg(g, empty_subgraph(g)) == full_subgraph(g)
    y = subgraph(g, {"b"})
    assert heyting_neg(g, y) == Subgraph(frozenset({"a"}), frozenset())


def test_coheyting_neg_examples():
    g = single_edge()
    assert coheyting_neg(g, full_subgraph(g)) == empty_subgraph(g)
    y = subgraph(g, {"b"})
    assert coheyting_neg(g, y) == full_subgraph(g)


def test_boundary_examples():
    g = single_edge()
    assert boundary(g, empty_subgraph(g)) == empty_subgraph(g)
    y = subgraph(g, {"b"})
    assert boundary(g, y) == y  # b sits on the seam of the edge


def test_negations_are_extremal_exhaustively():
    for g in sample_graphs():
        lattice = all_subgraphs(g)
        bot = empty_subgraph(g)
        top = full_subgraph(g)
        for y in lattice:
            ny = heyting_neg(g, y)
            disjoint = [z for z in lattice
                        if meet_join(g, z, y, "meet") == bot]
            assert ny in disjoint
            assert all(subgraph_leq(z, ny) for z in disjoint)
            cy = coheyting_neg(g, y)
            covering = [z for z in lattice
                        if meet_join(g, z, y, "join") == top]
            assert cy in covering
            assert all(subgraph_leq(cy, z) for z in covering)


def test_negation_adjunction_characterizations():
    for g in sample_graphs():
        lattice = all_subgraphs(g)
        bot = empty_subgraph(g)
        top = full_subgraph(g)
        for y in lattice:
            ny = heyting_neg(g, y)
            cy = coheyting_neg(g, y)
            for z in lattice:
                assert subgraph_leq(z, ny) == (
                    meet_join(g, z, y, "meet") == bot)
                assert subgraph_leq(cy, z) == (
                    meet_join(g, y, z, "join") == top)


def test_subgraph_enumeration_caps_what_it_builds():
    # 2^16 subgraphs, the count of the edgeless 16-vertex graph, pass;
    # 16 loops on those vertices make 3^16 and are refused without
    # building up to the cap, and one vertex with 16 loops (2^16 + 1)
    # is refused too
    labels = [f"v{i:02d}" for i in range(16)]
    assert len(all_subgraphs(DirectedMultigraph(labels, []))) == 1 << 16
    loops = DirectedMultigraph(labels, [(f"e{v}", v, v) for v in labels])
    start = time.perf_counter()
    with pytest.raises(SheafcalcError, match="capped at 65536 subgraphs"):
        all_subgraphs(loops)
    assert time.perf_counter() - start < 1
    knot = DirectedMultigraph("a", [(f"e{i:02d}", "a", "a") for i in range(16)])
    with pytest.raises(SheafcalcError, match="capped at 65536 subgraphs"):
        all_subgraphs(knot)
    knot = DirectedMultigraph("a", [(f"e{i:02d}", "a", "a") for i in range(15)])
    assert len(all_subgraphs(knot)) == (1 << 15) + 1


def test_triple_negation_collapse():
    for g in sample_graphs():
        for y in all_subgraphs(g):
            ny = heyting_neg(g, y)
            nnny = heyting_neg(g, heyting_neg(g, ny))
            assert nnny == ny
            assert subgraph_leq(coheyting_neg(g, coheyting_neg(g, y)), y)


# ------------------------------------------------------------ iteration

def test_modal_iterate_top_is_immediate():
    g = single_edge()
    out = modal_iterate(g, full_subgraph(g), "diamond")
    assert out.stabilized == full_subgraph(g)
    assert out.steps == 0
    assert out.trace == (full_subgraph(g),)


def test_modal_iterate_single_edge():
    g = single_edge()
    y = subgraph(g, {"b"})
    dia = modal_iterate(g, y, "diamond")
    assert dia.stabilized == full_subgraph(g)
    assert dia.steps == 1
    box = modal_iterate(g, y, "box")
    assert box.stabilized == empty_subgraph(g)


def test_modal_chains_are_monotone():
    for g in sample_graphs():
        for x in all_subgraphs(g):
            dia = modal_iterate(g, x, "diamond")
            for earlier, later in zip(dia.trace, dia.trace[1:]):
                assert subgraph_leq(earlier, later)
            box = modal_iterate(g, x, "box")
            for earlier, later in zip(box.trace, box.trace[1:]):
                assert subgraph_leq(later, earlier)


def test_diamond_needs_several_steps_on_a_path():
    g = DirectedMultigraph("abcd", [
        ("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d")])
    out = modal_iterate(g, subgraph(g, {"a"}), "diamond")
    assert out.stabilized == full_subgraph(g)
    assert out.steps == 3  # one undirected hop per stage


def test_island_fixture_quoted_outcomes():
    # X straddles part of one island: its seam is the single vertex b,
    # diamond recovers exactly the island, box empties out
    g = two_islands()
    x = subgraph(g, {"b", "c"}, {"bc"})
    assert boundary(g, x) == Subgraph(frozenset({"b"}), frozenset())
    dia = modal_iterate(g, x, "diamond").stabilized
    assert dia == subgraph(g, {"a", "b", "c"}, {"ab", "bc"})
    assert boundary(g, dia) == empty_subgraph(g)
    box = modal_iterate(g, x, "box").stabilized
    assert box == empty_subgraph(g)
    assert boundary(g, box) == box


# ---------------------------------------------------------- reachability

def test_reach_oracle_examples():
    g = single_edge()
    assert reach_oracle(g, subgraph(g, {"a"}), "forward-reach") == full_subgraph(g)
    path = DirectedMultigraph("abc", [("ab", "a", "b"), ("bc", "b", "c")])
    fwd = reach_oracle(path, subgraph(path, {"b"}), "forward-reach")
    assert fwd == Subgraph(frozenset({"b", "c"}), frozenset({"bc"}))
    weak = reach_oracle(path, subgraph(path, {"b"}), "weak-components")
    assert weak == full_subgraph(path)
    g2 = two_islands()
    assert reach_oracle(g2, full_subgraph(g2), "weak-components") == full_subgraph(g2)


def test_diamond_fixpoint_is_weak_components():
    for g in sample_graphs():
        for x in all_subgraphs(g):
            dia = modal_iterate(g, x, "diamond").stabilized
            fwd = reach_oracle(g, x, "forward-reach")
            weak = reach_oracle(g, x, "weak-components")
            assert subgraph_leq(fwd, dia), (g, x)
            assert dia == weak, (g, x)
            assert boundary(g, dia) == empty_subgraph(g)


def test_diamond_box_adjunction_small():
    for g in sample_graphs():
        lattice = all_subgraphs(g)
        dia = {x: modal_iterate(g, x, "diamond").stabilized for x in lattice}
        box = {x: modal_iterate(g, x, "box").stabilized for x in lattice}
        for a in lattice:
            for b in lattice:
                assert subgraph_leq(dia[a], b) == subgraph_leq(a, box[b])


# -------------------------------------------------------------- aspects

def qua_poset():
    # five leaf aspects under a global one, with two refining a third
    return validate_poset(
        "SCFPHG",
        [("S", "G"), ("C", "G"), ("F", "G"), ("P", "G"), ("H", "G"),
         ("P", "F"), ("H", "F")])


def honest_only_at_s():
    p = qua_poset()
    return AspectPredicate.of(p, ("abe",), {"S": {"abe"}})


def test_aspect_functoriality_enforced():
    p = qua_poset()
    with pytest.raises(ValueError, match="functorial"):
        # true at the top but not at a sub-aspect
        AspectPredicate.of(p, ("x",), {"G": {"x"}})
    pred = AspectPredicate.of(p, ("x",), {a: {"x"} for a in p.elements})
    assert validate_aspect_predicate(pred) == (True, None)


def test_unknown_aspects_are_refused():
    phi = honest_only_at_s()
    with pytest.raises(SheafcalcError, match=r"^unknown aspect 'Z'$"):
        phi.holds("Z", "abe")
    with pytest.raises(SheafcalcError, match=r"^unknown aspect 'Z'$"):
        phi.region("Z")
    # a truth key that names no aspect is refused, not dropped; the
    # least by repr is named
    with pytest.raises(SheafcalcError, match=r"^unknown aspect 'Q'$"):
        AspectPredicate.of(qua_poset(), ("abe",),
                           {"S": {"abe"}, "Z": set(), "Q": {"abe"}})


def test_aspect_negations_on_honest_fixture():
    phi = honest_only_at_s()
    co = aspect_neg(phi, "coheyting")
    # some super-aspect (the global one) misses honesty, from anywhere
    assert all(co.region(a) == frozenset({"abe"})
               for a in phi.aspects.elements)
    # honest and not-honest under the very same aspect S
    assert phi.holds("S", "abe") and co.holds("S", "abe")
    ne = aspect_neg(phi, "heyting")
    assert ne.region("S") == frozenset()
    assert ne.region("G") == frozenset()
    assert ne.region("C") == frozenset({"abe"})


def test_aspect_modal_global_readings():
    phi = honest_only_at_s()
    dia = aspect_modal(phi, "diamond")
    box = aspect_modal(phi, "box")
    # possibly-honest at the global aspect: holds somewhere, so yes
    assert dia.holds("G", "abe")
    # necessarily-honest fails everywhere
    assert all(box.region(a) == frozenset() for a in phi.aspects.elements)


def test_aspect_modal_sandwich_and_constant_case():
    p = qua_poset()
    top = AspectPredicate.of(p, ("x",), {a: {"x"} for a in p.elements})
    assert aspect_modal(top, "diamond") == top
    assert aspect_modal(top, "box") == top
    phi = honest_only_at_s()
    dia = aspect_modal(phi, "diamond")
    box = aspect_modal(phi, "box")
    for a in p.elements:
        assert box.region(a) <= phi.region(a) <= dia.region(a)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_aspect_negations_match_the_pointwise_scan(seed):
    pred = random_aspect_predicate(random.Random(seed))
    for which in ("heyting", "coheyting"):
        assert aspect_neg(pred, which) == pointwise_aspect_neg(pred, which)
    for which in ("diamond", "box"):
        assert aspect_modal(pred, which) == pointwise_aspect_modal(pred, which)
    # box phi => phi => diamond phi, at every aspect
    dia, box = aspect_modal(pred, "diamond"), aspect_modal(pred, "box")
    for a in pred.aspects.elements:
        assert box.region(a) <= pred.region(a) <= dia.region(a)


# ------------------------------------------------------------- refusals

CHAIN_AB = validate_poset("ab", [("a", "b")])
LOOP = DirectedMultigraph("a", [("e", "a", "a")])
LOOP_A = subgraph(LOOP, {"a"})
HALF_TABLE = AspectPredicate(CHAIN_AB, ("u",), (("a", frozenset()),))
OUTSIDE = AspectPredicate(CHAIN_AB, ("u",), (("a", frozenset("v")), ("b", frozenset())))
TRUE_AT_A = AspectPredicate.of(CHAIN_AB, "u", {"a": {"u"}})

REFUSALS = {
    "meet-join": (lambda: meet_join(LOOP, LOOP_A, LOOP_A, "both"),
                  "which must be meet or join, not 'both'"),
    "iterate": (lambda: modal_iterate(LOOP, LOOP_A, "star"),
                "which must be diamond or box, not 'star'"),
    "oracle": (lambda: reach_oracle(LOOP, LOOP_A, "bfs"), "unknown oracle 'bfs'"),
    "missing-aspect": (lambda: validate_aspect_predicate(HALF_TABLE),
                       "truth table missing aspect 'b'"),
    "outside-carrier": (lambda: validate_aspect_predicate(OUTSIDE),
                        "truth at 'a' leaves the carrier"),
    "negation": (lambda: aspect_neg(TRUE_AT_A, "boolean"), "unknown negation 'boolean'"),
    "aspect-modal": (lambda: aspect_modal(TRUE_AT_A, "star"),
                     "which must be diamond or box, not 'star'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(SheafcalcError) as refused:
        call()
    assert str(refused.value) == message
