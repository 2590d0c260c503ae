"""Bi-Heyting structure on subgraph lattices and on aspect predicates.

Subgraphs of a directed multigraph form a lattice that carries two
negations: the Heyting one (largest subgraph disjoint from y, built by
discarding edges that lose an endpoint) and the co-Heyting one
(smallest subgraph that restores the whole graph, built by completing
complement edges with their endpoints).  Composing them gives the
modal operators, iterated to their fixpoints.

Aspect predicates carry the same pair of negations with quantifiers
over sub- and super-aspects in place of the edge repairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poset import FinitePoset

__all__ = [
    "DirectedMultigraph",
    "Subgraph",
    "ModalTrace",
    "AspectPredicate",
    "subgraph",
    "validate_subgraph",
    "full_subgraph",
    "empty_subgraph",
    "meet_join",
    "subgraph_leq",
    "heyting_neg",
    "coheyting_neg",
    "boundary",
    "modal_iterate",
    "reach_oracle",
    "all_subgraphs",
    "validate_aspect_predicate",
    "aspect_neg",
    "aspect_modal",
]

ENUMERATION_LIMIT = 16


class DirectedMultigraph:
    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        """edges: iterable of (edge-id, source, target); loops and
        parallel edges welcome, ids must be unique."""
        vertices = tuple(sorted(set(vertices)))
        edge_map = {}
        vset = set(vertices)
        for eid, src, dst in edges:
            if eid in edge_map:
                raise ValueError(f"duplicate edge id {eid!r}")
            if src not in vset or dst not in vset:
                raise ValueError(f"edge {eid!r} has a missing endpoint")
            edge_map[eid] = (src, dst)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edge_map)

    def __setattr__(self, name, value):
        raise AttributeError("DirectedMultigraph is immutable")

    def edge_ids(self):
        return tuple(sorted(self.edges))

    def __repr__(self):
        return (f"DirectedMultigraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")


@dataclass(frozen=True)
class Subgraph:
    vertices: frozenset
    edges: frozenset


def subgraph(g: DirectedMultigraph, vertices, edges=()) -> Subgraph:
    s = Subgraph(frozenset(vertices), frozenset(edges))
    validate_subgraph(g, s)
    return s


def validate_subgraph(g: DirectedMultigraph, s: Subgraph) -> Subgraph:
    known = set(g.vertices)
    for v in s.vertices:
        if v not in known:
            raise ValueError(f"unknown vertex {v!r}")
    for e in s.edges:
        if e not in g.edges:
            raise ValueError(f"unknown edge {e!r}")
        src, dst = g.edges[e]
        if src not in s.vertices or dst not in s.vertices:
            raise ValueError(
                f"edge {e!r} included without endpoint {src!r} or {dst!r}")
    return s


def full_subgraph(g: DirectedMultigraph) -> Subgraph:
    return Subgraph(frozenset(g.vertices), frozenset(g.edges))


def empty_subgraph(g: DirectedMultigraph) -> Subgraph:
    return Subgraph(frozenset(), frozenset())


def meet_join(g: DirectedMultigraph, a: Subgraph, b: Subgraph,
              which: str) -> Subgraph:
    assert which in ("meet", "join")
    validate_subgraph(g, a)
    validate_subgraph(g, b)
    if which == "meet":
        return Subgraph(a.vertices & b.vertices, a.edges & b.edges)
    return Subgraph(a.vertices | b.vertices, a.edges | b.edges)


def subgraph_leq(a: Subgraph, b: Subgraph) -> bool:
    return a.vertices <= b.vertices and a.edges <= b.edges


def heyting_neg(g: DirectedMultigraph, y: Subgraph) -> Subgraph:
    """Largest subgraph disjoint from y: the induced subgraph on the
    complementary vertices (edges needing a y-vertex are discarded)."""
    validate_subgraph(g, y)
    keep = frozenset(g.vertices) - y.vertices
    edges = frozenset(e for e, (s, d) in g.edges.items()
                      if s in keep and d in keep)
    return Subgraph(keep, edges)


def coheyting_neg(g: DirectedMultigraph, y: Subgraph) -> Subgraph:
    """Smallest subgraph whose join with y restores g: complement edges
    pull in their endpoints, complement vertices come along."""
    validate_subgraph(g, y)
    edges = frozenset(e for e in g.edges if e not in y.edges)
    verts = set(g.vertices) - set(y.vertices)
    for e in edges:
        s, d = g.edges[e]
        verts.add(s)
        verts.add(d)
    return Subgraph(frozenset(verts), edges)


def boundary(g: DirectedMultigraph, y: Subgraph) -> Subgraph:
    return meet_join(g, y, coheyting_neg(g, y), "meet")


@dataclass(frozen=True)
class ModalTrace:
    trace: tuple               # stages, starting with x itself
    stabilized: Subgraph
    steps: int


def modal_iterate(g: DirectedMultigraph, x: Subgraph,
                  which: str) -> ModalTrace:
    """Iterate diamond = co-neg after neg (or box = neg after co-neg)
    to its fixpoint.  Diamond ascends and box descends, so the finite
    lattice forces stabilization; equality of consecutive stages is the
    exact stopping rule."""
    assert which in ("diamond", "box")
    validate_subgraph(g, x)
    stages = [x]
    current = x
    while True:
        if which == "diamond":
            nxt = coheyting_neg(g, heyting_neg(g, current))
        else:
            nxt = heyting_neg(g, coheyting_neg(g, current))
        if nxt == current:
            break
        stages.append(nxt)
        current = nxt
    return ModalTrace(tuple(stages), current, len(stages) - 1)


def reach_oracle(g: DirectedMultigraph, x: Subgraph, which: str) -> Subgraph:
    """Independent reachability routes for checking the modal fixpoints:
    plain BFS forward along arrows, or whole weakly-connected components.
    """
    assert which in ("forward-reach", "weak-components")
    validate_subgraph(g, x)
    if which == "forward-reach":
        reached = set(x.vertices)
        frontier = list(x.vertices)
        while frontier:
            nxt = []
            for e, (s, d) in g.edges.items():
                if s in reached and d not in reached:
                    nxt.append(d)
            for d in nxt:
                reached.add(d)
            frontier = nxt
        edges = set(x.edges) | {e for e, (s, d) in g.edges.items()
                                if s in reached}
        return Subgraph(frozenset(reached), frozenset(edges))
    # weak components: undirected closure of the component partition
    neighbours = {v: set() for v in g.vertices}
    for s, d in g.edges.values():
        neighbours[s].add(d)
        neighbours[d].add(s)
    reached = set(x.vertices)
    frontier = list(x.vertices)
    while frontier:
        v = frontier.pop()
        for w in neighbours[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    edges = frozenset(e for e, (s, d) in g.edges.items() if s in reached)
    return Subgraph(frozenset(reached), edges)


def all_subgraphs(g: DirectedMultigraph):
    """Every closed subgraph, for exhaustive lattice sweeps."""
    if len(g.vertices) > ENUMERATION_LIMIT or len(g.edges) > ENUMERATION_LIMIT:
        raise ValueError(
            f"subgraph enumeration capped at {ENUMERATION_LIMIT} "
            "vertices/edges")
    verts = list(g.vertices)
    out = []
    for vmask in range(1 << len(verts)):
        vs = frozenset(v for i, v in enumerate(verts) if vmask >> i & 1)
        eligible = [e for e, (s, d) in sorted(g.edges.items())
                    if s in vs and d in vs]
        for emask in range(1 << len(eligible)):
            es = frozenset(e for i, e in enumerate(eligible)
                           if emask >> i & 1)
            out.append(Subgraph(vs, es))
    return out


# ------------------------------------------------------------- aspects

@dataclass(frozen=True)
class AspectPredicate:
    aspects: FinitePoset
    carrier: tuple
    truth: tuple               # sorted (aspect, frozenset) pairs

    @classmethod
    def of(cls, aspects, carrier, truth) -> "AspectPredicate":
        carrier = tuple(sorted(carrier))
        table = tuple(sorted(
            (a, frozenset(truth.get(a, ()))) for a in aspects.elements))
        pred = cls(aspects, carrier, table)
        ok, witness = validate_aspect_predicate(pred)
        if not ok:
            raise ValueError(f"not functorial: {witness}")
        return pred

    def holds(self, aspect, x) -> bool:
        return x in dict(self.truth)[aspect]

    def region(self, aspect) -> frozenset:
        return dict(self.truth)[aspect]


def validate_aspect_predicate(pred: AspectPredicate):
    table = dict(pred.truth)
    carrier = set(pred.carrier)
    for a in pred.aspects.elements:
        assert a in table, f"truth table missing aspect {a!r}"
        assert table[a] <= carrier, f"truth at {a!r} leaves the carrier"
    # truth must be inherited downward to sub-aspects
    for sub, sup in pred.aspects.pairs():
        for x in table[sup]:
            if x not in table[sub]:
                return False, (x, sup, sub)
    return True, None


def aspect_neg(pred: AspectPredicate, which: str) -> AspectPredicate:
    """Heyting: fails at every sub-aspect; co-Heyting: fails at some
    super-aspect.  Either way the output is functorial again."""
    assert which in ("heyting", "coheyting")
    ok, witness = validate_aspect_predicate(pred)
    assert ok, witness
    table = dict(pred.truth)
    p = pred.aspects
    out = {}
    for a in p.elements:
        if which == "heyting":
            region = p.principal_down(a)
            out[a] = frozenset(
                x for x in pred.carrier
                if all(x not in table[b] for b in region))
        else:
            region = p.principal_up(a)
            out[a] = frozenset(
                x for x in pred.carrier
                if any(x not in table[b] for b in region))
    return AspectPredicate.of(p, pred.carrier, out)


def aspect_modal(pred: AspectPredicate, which: str) -> AspectPredicate:
    assert which in ("diamond", "box")
    if which == "diamond":
        result = aspect_neg(aspect_neg(pred, "heyting"), "coheyting")
    else:
        result = aspect_neg(aspect_neg(pred, "coheyting"), "heyting")
    table = dict(pred.truth)
    out = dict(result.truth)
    for a in pred.aspects.elements:
        if which == "diamond":
            assert table[a] <= out[a], "phi must imply possibly-phi"
        else:
            assert out[a] <= table[a], "necessarily-phi must imply phi"
    return result
