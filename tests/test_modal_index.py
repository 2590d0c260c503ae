"""The indexed lattice operations against their edge-walking oracles.

``DirectedMultigraph`` indexes its incidence once and the modal
operations work by set algebra on that index; the versions that walk
every edge on every call live on in ``util`` and must give the same
answers, compared by ``==``: every negation, the whole fixpoint trace
and its step count, both reachability routes, and the subgraph list in
the same order.
"""

import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc import modal
from sheafcalc.errors import SheafcalcError
from sheafcalc.modal import (
    DirectedMultigraph, Subgraph, all_subgraphs, coheyting_neg, full_subgraph,
    heyting_neg, modal_iterate, reach_oracle, validate_subgraph)

from util import (
    multigraphs_up_to, simple_digraph_classes, slow_all_subgraphs,
    slow_coheyting_neg, slow_heyting_neg, slow_modal_iterate,
    slow_reach_oracle)

MODES = ("diamond", "box")
ROUTES = ("forward-reach", "weak-components")


def check_subgraph(g, x):
    assert heyting_neg(g, x) == slow_heyting_neg(g, x), (g, x)
    assert coheyting_neg(g, x) == slow_coheyting_neg(g, x), (g, x)
    for which in MODES:
        # a ModalTrace is equal when trace, stabilized and steps are
        assert modal_iterate(g, x, which) == slow_modal_iterate(g, x, which), (
            g, x, which)
    for which in ROUTES:
        assert reach_oracle(g, x, which) == slow_reach_oracle(g, x, which), (
            g, x, which)


def check_graph(g):
    lattice = all_subgraphs(g)
    assert lattice == slow_all_subgraphs(g)
    assert full_subgraph(g) == Subgraph(frozenset(g.vertices), frozenset(g.edges))
    for x in lattice:
        check_subgraph(g, x)


def test_every_small_multigraph_agrees_on_every_subgraph():
    graphs = list(multigraphs_up_to())
    assert len(graphs) == 791
    for g in graphs:
        check_graph(g)


def test_simple_digraph_classes_agree():
    classes = simple_digraph_classes()
    assert len(classes) == 218
    for g in classes:
        check_graph(g)


def directed_path(n):
    labels = [f"v{i:05d}" for i in range(n)]
    return DirectedMultigraph(labels, [(f"e{i}", s, d) for i, (s, d)
                                       in enumerate(zip(labels, labels[1:]))])


def test_directed_paths_agree_from_both_ends_and_the_middle():
    for n in (64, 256):
        g = directed_path(n)
        labels = sorted(g.vertices)
        for start in (labels[0], labels[n // 2], labels[-1]):
            x = Subgraph(frozenset([start]), frozenset())
            for which in ROUTES:
                assert reach_oracle(g, x, which) == slow_reach_oracle(g, x, which)


def test_forward_reach_is_linear_on_a_long_path():
    # a level-by-level rescan of every edge takes about 0.6 s at 2,000
    # vertices and a hundredfold more here
    g = directed_path(20000)
    x = Subgraph(frozenset(["v00000"]), frozenset())
    start = time.perf_counter()
    reached = reach_oracle(g, x, "forward-reach")
    assert time.perf_counter() - start < 1.0
    assert reached == full_subgraph(g)


@st.composite
def multigraph_and_subgraph(draw):
    """A multigraph with loops, parallel edges and isolated vertices
    likely, and one closed subgraph of it."""
    labels = draw(st.lists(st.sampled_from("abcdefg"), min_size=1,
                           max_size=7, unique=True))
    arcs = draw(st.lists(st.tuples(st.sampled_from(labels),
                                   st.sampled_from(labels)), max_size=9))
    g = DirectedMultigraph(labels, [(f"e{i}", s, d)
                                    for i, (s, d) in enumerate(arcs)])
    vertices = frozenset(draw(st.sets(st.sampled_from(labels))))
    eligible = sorted(e for e, (s, d) in g.edges.items()
                      if s in vertices and d in vertices)
    edges = frozenset(draw(st.sets(st.sampled_from(eligible))) if eligible
                      else ())
    return g, validate_subgraph(g, Subgraph(vertices, edges))


@settings(max_examples=300, deadline=None)
@given(multigraph_and_subgraph())
def test_random_multigraphs_agree(case):
    g, x = case
    check_subgraph(g, x)
    if len(g.vertices) + len(g.edges) <= 10:
        assert all_subgraphs(g) == slow_all_subgraphs(g)


def _same_refusal_or_list(g):
    """all_subgraphs refuses g with the oracle's message exactly when the
    oracle does, and lists the same subgraphs otherwise; True on refusal."""
    try:
        want = slow_all_subgraphs(g)
    except SheafcalcError as err:
        with pytest.raises(SheafcalcError, match=f"^{re.escape(str(err))}$"):
            all_subgraphs(g)
        return True
    assert all_subgraphs(g) == want
    return False


def test_subgraph_cap_refuses_exactly_the_graphs_past_it(monkeypatch):
    # with the cap lowered to 2^4, on every small multigraph
    monkeypatch.setattr(modal, "ENUMERATION_LIMIT", 4)
    refused = sum(_same_refusal_or_list(g) for g in multigraphs_up_to())
    assert 0 < refused < 791


def test_subgraph_cap_at_its_own_value():
    # one vertex with k loops has 1 + 2^k subgraphs, the empty one included
    assert _same_refusal_or_list(DirectedMultigraph(
        ["a"], [(f"e{i}", "a", "a") for i in range(modal.ENUMERATION_LIMIT)]))
    assert not _same_refusal_or_list(DirectedMultigraph(
        ["a"], [(f"e{i}", "a", "a") for i in range(modal.ENUMERATION_LIMIT - 1)]))
    many = [str(i) for i in range(modal.ENUMERATION_LIMIT + 1)]
    assert _same_refusal_or_list(DirectedMultigraph(many, []))
