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

from ._record import Immutable, Record, _setattr
from .errors import SheafcalcError
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

ENUMERATION_LIMIT = 16  # 2^16 subgraphs, the most a 16-vertex edgeless graph has


class DirectedMultigraph(Immutable):
    """Vertices and edges of a directed multigraph.

    ``__init__`` also indexes the incidence once: the vertex set, the
    edge-id set and, for each vertex, the set of edges touching it.  The
    lattice operations below are set algebra on that index, so mutating
    ``edges`` after construction is unsupported.
    """

    __slots__ = ("vertices", "edges", "_vertex_set", "_edge_set", "_touching")

    def __init__(self, vertices, edges):
        """edges: iterable of (edge-id, source, target); loops and
        parallel edges welcome, ids must be unique."""
        vertices = tuple(sorted(set(vertices)))
        edge_map = {}
        touching = {v: [] for v in vertices}
        for eid, src, dst in edges:
            if eid in edge_map:
                raise SheafcalcError(f"duplicate edge id {eid!r}")
            if src not in touching or dst not in touching:
                raise SheafcalcError(f"edge {eid!r} has a missing endpoint")
            edge_map[eid] = (src, dst)
            touching[src].append(eid)
            if dst != src:
                touching[dst].append(eid)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edge_map)
        object.__setattr__(self, "_vertex_set", frozenset(vertices))
        object.__setattr__(self, "_edge_set", frozenset(edge_map))
        object.__setattr__(self, "_touching", {
            v: frozenset(es) for v, es in touching.items()})

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__
        edges = tuple((eid, src, dst) for eid, (src, dst) in self.edges.items())
        return DirectedMultigraph, (self.vertices, edges)

    def __repr__(self):
        return (f"DirectedMultigraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")


class Subgraph(Immutable):
    """Vertex and edge ids of a subgraph.

    Trusts its caller, and so does every lattice operation below: build
    subgraphs of raw input with ``subgraph``, which checks them once
    with ``validate_subgraph``.  Lattice sweeps build one per operation,
    so it is slotted and written out by hand rather than a ``Record``.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: frozenset, edges: frozenset):
        _setattr(self, "vertices", vertices)
        _setattr(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Subgraph(vertices={self.vertices!r}, edges={self.edges!r})"

    def __reduce__(self):
        return Subgraph, (self.vertices, self.edges)


def subgraph(g: DirectedMultigraph, vertices, edges=()) -> Subgraph:
    s = Subgraph(frozenset(vertices), frozenset(edges))
    validate_subgraph(g, s)
    return s


def validate_subgraph(g: DirectedMultigraph, s: Subgraph) -> Subgraph:
    """``s``, refused when it leaves ``g`` or holds an edge without its
    endpoints.  The witness never depends on set order: the least
    unknown vertex, then edge, by ``repr``, then the first edge in g's
    edge order."""
    for noun, items, known in (("vertex", s.vertices, g._vertex_set),
                               ("edge", s.edges, g._edge_set)):
        unknown = [x for x in items if x not in known]
        if unknown:
            raise SheafcalcError(f"unknown {noun} {min(unknown, key=repr)!r}")
    for e, ends in g.edges.items():
        if e in s.edges:
            # source before target, a loop's vertex once
            missing = [v for v in dict.fromkeys(ends) if v not in s.vertices]
            if missing:
                plural = "s" if len(missing) > 1 else ""
                names = " and ".join(map(repr, missing))
                raise SheafcalcError(
                    f"edge {e!r} included without endpoint{plural} {names}")
    return s


def full_subgraph(g: DirectedMultigraph) -> Subgraph:
    return Subgraph(g._vertex_set, g._edge_set)


def empty_subgraph(g: DirectedMultigraph) -> Subgraph:
    return Subgraph(frozenset(), frozenset())


def meet_join(g: DirectedMultigraph, a: Subgraph, b: Subgraph,
              which: str) -> Subgraph:
    if which not in ("meet", "join"):
        raise SheafcalcError(f"which must be meet or join, not {which!r}")
    if which == "meet":
        return Subgraph(a.vertices & b.vertices, a.edges & b.edges)
    return Subgraph(a.vertices | b.vertices, a.edges | b.edges)


def subgraph_leq(a: Subgraph, b: Subgraph) -> bool:
    return a.vertices <= b.vertices and a.edges <= b.edges


def heyting_neg(g: DirectedMultigraph, y: Subgraph) -> Subgraph:
    """Largest subgraph disjoint from y: the induced subgraph on the
    complementary vertices (edges needing a y-vertex are discarded)."""
    return Subgraph(g._vertex_set - y.vertices,
                    g._edge_set.difference(*map(g._touching.__getitem__,
                                                y.vertices)))


def coheyting_neg(g: DirectedMultigraph, y: Subgraph) -> Subgraph:
    """Smallest subgraph whose join with y restores g: complement edges
    pull in their endpoints, complement vertices come along."""
    touching = g._touching
    return Subgraph(g._vertex_set.difference(
                        [v for v in y.vertices if touching[v] <= y.edges]),
                    g._edge_set - y.edges)


def boundary(g: DirectedMultigraph, y: Subgraph) -> Subgraph:
    return meet_join(g, y, coheyting_neg(g, y), "meet")


class ModalTrace(Record):
    trace: tuple               # stages, starting with x itself
    stabilized: Subgraph
    steps: int


def modal_iterate(g: DirectedMultigraph, x: Subgraph,
                  which: str) -> ModalTrace:
    """Iterate diamond = co-neg after neg (or box = neg after co-neg)
    to its fixpoint.  Diamond ascends and box descends, so the finite
    lattice forces stabilization; equality of consecutive stages is the
    exact stopping rule.

    Each stage is one step on the incidence index.  For a closed
    subgraph (V, E), every edge of E having both endpoints in V, let
    T(V) be the edges touching V; then diamond takes (V, E) to
    (V with the endpoints of T(V), T(V)), and box takes it to
    (V - B, E - T(B)), B being the vertices of V that touch an edge
    outside E.  Both forms hold for closed subgraphs only, which is
    what ``subgraph`` and ``all_subgraphs`` build."""
    if which not in ("diamond", "box"):
        raise SheafcalcError(f"which must be diamond or box, not {which!r}")
    touching, ends = g._touching.__getitem__, g.edges.__getitem__
    stages = [x]
    vertices, edges = x.vertices, x.edges
    if which == "diamond":
        # E's endpoints lie in V, so the next stage equals this one
        # exactly when T(V) is E
        while (reached := frozenset().union(*map(touching, vertices))) != edges:
            edges = reached
            vertices = vertices.union(*map(ends, edges))
            stages.append(Subgraph(vertices, edges))
    else:
        # B lies in V, so the next stage equals this one exactly when B
        # is empty
        while broken := [v for v in vertices if not touching(v) <= edges]:
            vertices = vertices.difference(broken)
            edges = edges.difference(*map(touching, broken))
            stages.append(Subgraph(vertices, edges))
    return ModalTrace(tuple(stages), stages[-1], len(stages) - 1)


def reach_oracle(g: DirectedMultigraph, x: Subgraph, which: str) -> Subgraph:
    """Independent reachability routes for checking the modal fixpoints:
    plain BFS forward along arrows, or whole weakly-connected components.
    """
    if which not in ("forward-reach", "weak-components"):
        raise SheafcalcError(f"unknown oracle {which!r}")
    if which == "forward-reach":
        # its own out-edge lists, not the incidence index it checks
        out = {}
        for e, (s, d) in g.edges.items():
            out.setdefault(s, []).append((e, d))
        reached = set(x.vertices)
        frontier = list(x.vertices)
        while frontier:
            for _, d in out.get(frontier.pop(), ()):
                if d not in reached:
                    reached.add(d)
                    frontier.append(d)
        edges = set(x.edges) | {e for v in reached for e, _ in out.get(v, ())}
        return Subgraph(frozenset(reached), frozenset(edges))
    # weak components: undirected closure along the incidence index; a
    # union of components holds every edge touching it
    touching = g._touching
    reached = set(x.vertices)
    frontier = list(x.vertices)
    while frontier:
        for e in touching[frontier.pop()]:
            for w in g.edges[e]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
    edges = frozenset().union(*map(touching.__getitem__, reached))
    return Subgraph(frozenset(reached), edges)


def all_subgraphs(g: DirectedMultigraph):
    """Every closed subgraph, for exhaustive lattice sweeps; refused
    before the list passes 2^ENUMERATION_LIMIT subgraphs."""
    cap = 1 << ENUMERATION_LIMIT
    verts = list(g.vertices)
    edges = sorted(g.edges.items())
    out = []
    for vmask in range(1 << len(verts)):
        vs = frozenset(v for i, v in enumerate(verts) if vmask >> i & 1)
        eligible = [e for e, (s, d) in edges if s in vs and d in vs]
        # each vertex subset still to come adds at least its edgeless subgraph
        if len(out) + (1 << len(eligible)) + (1 << len(verts)) - vmask - 1 > cap:
            raise SheafcalcError(
                f"subgraph enumeration capped at {cap} subgraphs")
        # doubling: the sets of eligible[:i], then each with eligible[i]
        # added, which is the order of the masks over eligible[:i + 1]
        edge_sets = [frozenset()]
        for e in eligible:
            edge_sets += [es | {e} for es in edge_sets]
        out += [Subgraph(vs, es) for es in edge_sets]
    return out


# ------------------------------------------------------------- aspects

class AspectPredicate(Record):
    aspects: FinitePoset
    carrier: tuple
    truth: tuple               # sorted (aspect, frozenset) pairs

    @classmethod
    def of(cls, aspects, carrier, truth) -> "AspectPredicate":
        strays = set(truth).difference(aspects.elements)
        if strays:
            raise SheafcalcError(f"unknown aspect {min(strays, key=repr)!r}")
        carrier = tuple(sorted(carrier))
        table = tuple(sorted(
            (a, frozenset(truth.get(a, ()))) for a in aspects.elements))
        pred = cls(aspects, carrier, table)
        ok, witness = validate_aspect_predicate(pred)
        if not ok:
            raise SheafcalcError(f"not functorial: {witness}")
        return pred

    def holds(self, aspect, x) -> bool:
        return x in self.region(aspect)

    def region(self, aspect) -> frozenset:
        try:
            return dict(self.truth)[aspect]
        except KeyError:
            raise SheafcalcError(f"unknown aspect {aspect!r}") from None


def validate_aspect_predicate(pred: AspectPredicate):
    table = dict(pred.truth)
    carrier = set(pred.carrier)
    for a in pred.aspects.elements:
        if a not in table:
            raise SheafcalcError(f"truth table missing aspect {a!r}")
        if not table[a] <= carrier:
            raise SheafcalcError(f"truth at {a!r} leaves the carrier")
    # truth must be inherited downward to sub-aspects
    for sub, sup in pred.aspects.pairs():
        for x in table[sup]:
            if x not in table[sub]:
                return False, (x, sup, sub)
    return True, None


def aspect_neg(pred: AspectPredicate, which: str) -> AspectPredicate:
    """Heyting: fails at every sub-aspect; co-Heyting: fails at some
    super-aspect.  Either way the output is functorial again.  The first
    is the carrier minus the union of the truth sets over the down-set,
    the second the carrier minus their intersection over the up-set."""
    if which not in ("heyting", "coheyting"):
        raise SheafcalcError(f"unknown negation {which!r}")
    table, p, carrier = dict(pred.truth), pred.aspects, frozenset(pred.carrier)
    cone, held = ((p.principal_down, frozenset().union) if which == "heyting"
                  else (p.principal_up, carrier.intersection))
    out = {a: carrier - held(*map(table.get, cone(a))) for a in p.elements}
    return AspectPredicate.of(p, pred.carrier, out)


def aspect_modal(pred: AspectPredicate, which: str) -> AspectPredicate:
    if which not in ("diamond", "box"):
        raise SheafcalcError(f"which must be diamond or box, not {which!r}")
    if which == "diamond":
        return aspect_neg(aspect_neg(pred, "heyting"), "coheyting")
    return aspect_neg(aspect_neg(pred, "coheyting"), "heyting")
