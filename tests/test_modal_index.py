"""The indexed lattice operations against their edge-walking oracles.

``DirectedMultigraph`` indexes its incidence once and the modal
operations work by set algebra on that index; the versions that walk
every edge on every call live on in ``util`` and must give the same
answers, compared by ``==``: every negation, the whole fixpoint trace
and its step count, both reachability routes, and the subgraph list in
the same order.
"""

from hypothesis import given, settings, strategies as st

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
