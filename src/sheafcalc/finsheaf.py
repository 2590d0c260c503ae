"""Presheaves of finite sets on finite topological spaces.

A presheaf here is the whole restriction table, spelled out: a stalk for
every open set and a map for every nested pair of opens.  Everything is
small enough to enumerate, so the sheaf axioms are checked literally --
locality by comparing sections, gluing by building every matching family
and looking for amalgamations.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import SheafcalcError
from .poset import FinitePoset, FiniteTopology, alexandrov

__all__ = [
    "FinitePresheaf",
    "PresheafReport",
    "SheafCondition",
    "MatchingFamily",
    "Copresheaf",
    "NColorSheaf",
    "validate_presheaf",
    "restrict",
    "matching_families",
    "sheaf_check",
    "irredundant_covers",
    "is_sheaf",
    "stalk_at",
    "validate_copresheaf",
    "poset_transfer",
    "copresheaf_from_presheaf",
    "ncolor",
    "predict",
]


def _ordered(elements):
    # deterministic iteration over possibly mixed-type section sets
    return sorted(elements, key=repr)


@dataclass(frozen=True)
class FinitePresheaf:
    """Stalks over every open, restriction maps over every nested pair.

    ``stalk`` maps each open (a frozenset of points) to a finite set of
    sections.  ``restriction`` maps each pair ``(u, v)`` with ``v <= u``
    to a dict sending sections of ``u`` to sections of ``v``.
    """

    topology: FiniteTopology
    stalk: dict
    restriction: dict

    def __post_init__(self):
        _check_tables(self.topology.opens, _contains, self.stalk,
                      self.restriction)


@dataclass(frozen=True)
class PresheafReport:
    ok: bool
    kind: Optional[str] = None
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class SheafCondition:
    """Outcome of both sheaf axioms for one cover.

    Each field is ``("pass", None)`` or ``("fail", witness)``.  A locality
    witness is a pair of distinct sections with equal restrictions; a
    gluing witness is a matching family with no amalgamation.
    """

    locality: tuple
    gluing: tuple

    @property
    def ok(self) -> bool:
        return self.locality[0] == "pass" and self.gluing[0] == "pass"


@dataclass(frozen=True)
class MatchingFamily:
    """A choice of section per cover member, agreeing on overlaps."""

    cover: tuple
    choice: tuple  # pairs (open, section), aligned with cover

    def section(self, u):
        for v, s in self.choice:
            if v == u:
                return s
        raise KeyError(sorted(u))


def _contains(u, v) -> bool:
    # restriction runs from an open to the opens inside it
    return v <= u


def _check_tables(objects, arrow, stalk, maps):
    """A stalk at every object and, for every arrow x -> y, a table
    sending each section over x to a section over y."""
    for x in objects:
        if x not in stalk:
            raise SheafcalcError(f"no stalk over {x!r}")
    for x in objects:
        for y in objects:
            if arrow(x, y):
                if (x, y) not in maps:
                    raise SheafcalcError(f"no map from {x!r} to {y!r}")
                table = maps[(x, y)]
                if set(table) != set(stalk[x]):
                    raise SheafcalcError(f"map {x!r} -> {y!r} has the wrong domain")
                for s in stalk[x]:
                    if table[s] not in stalk[y]:
                        raise SheafcalcError(f"map {x!r} -> {y!r} leaves the stalk")


def _functor_laws(objects, arrow, stalk, maps):
    """Identity and composition laws of the tables, scanning objects
    in the given order; returns the first violation found."""
    for x in objects:
        table = maps[(x, x)]
        for s in _ordered(stalk[x]):
            if table[s] != s:
                return PresheafReport(False, "identity", (x, s, table[s]))
    for x in objects:
        for y in objects:
            if not arrow(x, y):
                continue
            for z in objects:
                if not arrow(y, z):
                    continue
                for s in _ordered(stalk[x]):
                    direct = maps[(x, z)][s]
                    stepped = maps[(y, z)][maps[(x, y)][s]]
                    if direct != stepped:
                        return PresheafReport(
                            False, "composition", (x, y, z, s, direct, stepped))
    return PresheafReport(True)


def restrict(p: FinitePresheaf, u, v, section):
    """Restrict a section of u to the smaller open v."""
    if not v <= u:
        raise SheafcalcError(f"{sorted(v)} is not inside {sorted(u)}")
    return p.restriction[(u, v)][section]


def validate_presheaf(p: FinitePresheaf) -> PresheafReport:
    """Check the functor laws: identities and composition of restrictions.

    Returns the first violation found, scanning opens small-to-large.
    """
    return _functor_laws(p.topology.opens_sorted(), _contains, p.stalk,
                         p.restriction)


def matching_families(p: FinitePresheaf, cover):
    """Yield every matching family over the cover.

    Sections are chosen member by member; a partial choice is extended
    only while it agrees on all pairwise intersections, so consistent
    presheaves prune the product search drastically.
    """
    members = sorted(set(cover), key=lambda u: (-len(u), tuple(sorted(u))))
    for u in members:
        if not p.topology.is_open(u):
            raise SheafcalcError(f"cover member {sorted(u)} is not open")

    def extend(i, partial):
        if i == len(members):
            yield MatchingFamily(tuple(members), tuple(partial))
            return
        u = members[i]
        for s in _ordered(p.stalk[u]):
            good = True
            for v, t in partial:
                w = u & v
                if restrict(p, u, w, s) != restrict(p, v, w, t):
                    good = False
                    break
            if good:
                partial.append((u, s))
                yield from extend(i + 1, partial)
                partial.pop()

    yield from extend(0, [])


def sheaf_check(p: FinitePresheaf, cover, target) -> SheafCondition:
    """Test locality and gluing for one cover of one open.

    The cover must be a family of opens whose union is the target open;
    anything else is a usage error, not a sheaf failure.
    """
    target = frozenset(target)
    members = [frozenset(u) for u in cover]
    if not p.topology.is_open(target):
        raise SheafcalcError(f"target {sorted(target)} is not open")
    union = frozenset().union(*members) if members else frozenset()
    if union != target:
        raise SheafcalcError("cover does not union to the target")

    locality = ("pass", None)
    sections = _ordered(p.stalk[target])
    for s, t in combinations(sections, 2):
        if all(restrict(p, target, u, s) == restrict(p, target, u, t)
               for u in members):
            locality = ("fail", (s, t))
            break

    gluing = ("pass", None)
    for family in matching_families(p, members):
        glued = [s for s in sections
                 if all(restrict(p, target, u, s) == family.section(u)
                        for u in set(members))]
        if not glued:
            gluing = ("fail", family)
            break

    return SheafCondition(locality, gluing)


def irredundant_covers(topology: FiniteTopology, target):
    """Enumerate covers of the target with no member inside the others' union.

    Such covers are antichains and every member keeps a private point, so
    the search branches on the smallest uncovered point and prunes any
    branch where an already chosen member has gone redundant.
    """
    target = frozenset(target)
    if not topology.is_open(target):
        raise SheafcalcError(f"target {sorted(target)} is not open")
    usable = [u for u in topology.opens_sorted() if u and u <= target]
    points = sorted(target)
    seen = set()

    def private_points_survive(chosen):
        for i, u in enumerate(chosen):
            rest = [v for j, v in enumerate(chosen) if j != i]
            union = frozenset().union(*rest) if rest else frozenset()
            if u <= union:
                return False
        return True

    def recurse(chosen, covered):
        if covered == target:
            family = frozenset(chosen)
            if family not in seen:
                seen.add(family)
                yield family
            return
        pivot = next(x for x in points if x not in covered)
        for u in usable:
            if pivot not in u or u <= covered:
                continue
            grown = chosen + [u]
            # a member redundant now stays redundant as the union grows
            if private_points_survive(grown):
                yield from recurse(grown, covered | u)

    if not points:
        yield frozenset()
        return
    yield from recurse([], frozenset())


def is_sheaf(p: FinitePresheaf) -> bool:
    """Both sheaf axioms over every irredundant cover of every open.

    Redundant covers add no information: dropping a member contained in
    the union of the rest never changes the matching families that
    matter, so checking irredundant covers decides the full condition.
    """
    for target in p.topology.opens_sorted():
        for cover in irredundant_covers(p.topology, target):
            if not sheaf_check(p, cover, target).ok:
                return False
    return True


def stalk_at(p: FinitePresheaf, point):
    """Sections over the minimal open around a point.

    Raises SheafcalcError when the space has no minimal open there.
    """
    u = p.topology.minimal_open_containing(point)
    return p.stalk[u]


@dataclass(frozen=True)
class Copresheaf:
    """Covariant set-valued data on a poset: stalks and action maps upward."""

    poset: FinitePoset
    stalk: dict
    action: dict  # (p, q) with p <= q  ->  dict stalk(p) -> stalk(q)

    def __post_init__(self):
        _check_tables(self.poset.elements, self.poset.leq, self.stalk,
                      self.action)


def validate_copresheaf(f: Copresheaf) -> PresheafReport:
    return _functor_laws(f.poset.elements, f.poset.leq, f.stalk, f.action)


def _compatible_tuples(f: Copresheaf, points):
    """All assignments over the given points that the action maps force.

    Points are filled along a linear extension, so each new value is
    either free (no predecessor yet assigned) or forced by every
    assigned predecessor at once.
    """
    order = sorted(points,
                   key=lambda x: (sum(1 for y in points if f.poset.leq(y, x)), x))
    out = []

    def extend(i, partial):
        if i == len(order):
            out.append(tuple(sorted(partial.items())))
            return
        q = order[i]
        forced = None
        consistent = True
        for x, v in partial.items():
            if f.poset.leq(x, q):
                image = f.action[(x, q)][v]
                if forced is None:
                    forced = image
                elif forced != image:
                    consistent = False
                    break
        if not consistent:
            return
        candidates = [forced] if forced is not None else _ordered(f.stalk[q])
        for v in candidates:
            partial[q] = v
            extend(i + 1, partial)
            del partial[q]

    extend(0, {})
    return out


def poset_transfer(f: Copresheaf) -> FinitePresheaf:
    """Realize a copresheaf as a presheaf on the up-set topology.

    The sections over an open are the action-compatible tuples over its
    points; restriction just forgets coordinates.  The result always
    satisfies both sheaf axioms, and the construction is reversible:
    ``copresheaf_from_presheaf`` recovers the input on the nose.
    """
    report = validate_copresheaf(f)
    if not report.ok:
        raise SheafcalcError(f"not a copresheaf: {report.kind} at {report.witness}")
    topology = alexandrov(f.poset, "up")
    stalk = {u: frozenset(_compatible_tuples(f, u))
             for u in topology.opens}
    restriction = {}
    for u in topology.opens:
        for v in topology.opens:
            if v <= u:
                restriction[(u, v)] = {
                    s: tuple(pair for pair in s if pair[0] in v)
                    for s in stalk[u]}
    return FinitePresheaf(topology, stalk, restriction)


def copresheaf_from_presheaf(p: FinitePresheaf, poset: FinitePoset) -> Copresheaf:
    """Invert poset_transfer by reading values off principal opens."""
    up = {x: frozenset(poset.principal_up(x)) for x in poset.elements}
    stalk = {}
    rep = {}
    for x in poset.elements:
        values = {}
        for section in p.stalk[up[x]]:
            value = dict(section)[x]
            values[value] = section
        stalk[x] = frozenset(values)
        rep[x] = values
    action = {}
    for x in poset.elements:
        for y in poset.elements:
            if not poset.leq(x, y):
                continue
            table = {}
            for v, section in rep[x].items():
                smaller = restrict(p, up[x], up[y], section)
                table[v] = dict(smaller)[y]
            action[(x, y)] = table
    return Copresheaf(poset, stalk, action)


@dataclass(frozen=True)
class NColorSheaf:
    """Proper colorings organized over the connected-subgraph poset."""

    presheaf: FinitePresheaf
    poset: FinitePoset
    labels: dict  # label -> (frozenset vertices, frozenset edges)
    top: str
    colors: int

    def principal_open(self, label) -> frozenset:
        return self.presheaf.topology.minimal_open_containing(label)

    def colorings(self, label) -> frozenset:
        """Sections over the principal open, read as vertex-color maps."""
        out = set()
        for section in self.presheaf.stalk[self.principal_open(label)]:
            out.add(dict(section)[label])
        return frozenset(out)


def _subgraph_label(vertices, edges):
    vs = ",".join(sorted(vertices))
    es = ",".join("".join(sorted(e)) for e in sorted(edges, key=sorted))
    return vs + "/" + es


def _proper_colorings(vertices, edges, n):
    order = sorted(vertices)
    out = []

    def extend(i, partial):
        if i == len(order):
            out.append(tuple(sorted(partial.items())))
            return
        v = order[i]
        for c in range(n):
            if all(partial.get(w) != c for e in edges if v in e
                   for w in e if w != v):
                partial[v] = c
                extend(i + 1, partial)
                del partial[v]

    extend(0, {})
    return out


def _connected(vertices, edges) -> bool:
    vertices = set(vertices)
    if not vertices:
        return False
    seen = {min(vertices)}
    frontier = [min(vertices)]
    while frontier:
        x = frontier.pop()
        for e in edges:
            if x in e:
                for y in e:
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
    return seen == vertices


def ncolor(vertices, edges, n: int) -> NColorSheaf:
    """Sheaf of proper n-colorings over connected subgraphs.

    Subgraphs are ordered by containment of both vertex and edge sets.
    The stalk at a subgraph is its set of proper colorings and the
    restriction maps forget vertices, so a family of colorings on
    subgraphs whose edges cover the whole graph glues to a coloring of
    the whole graph exactly when it matches on overlaps.
    """
    vertices = sorted(set(vertices))
    edges = sorted({frozenset(e) for e in edges}, key=sorted)
    for e in edges:
        if len(e) != 2:
            raise SheafcalcError(f"not a simple edge: {sorted(e)}")
        if not all(v in vertices for v in e):
            raise SheafcalcError(f"edge {sorted(e)} has an unknown vertex")
    if n < 1:
        raise SheafcalcError(f"need at least one color, got {n}")
    if not _connected(vertices, edges if len(vertices) > 1 else []):
        raise SheafcalcError("graph is not connected")

    # every connected subgraph grows from one of its vertices by adding
    # edges that touch what is already there
    subgraphs = {}
    grow = [(frozenset([v]), frozenset()) for v in vertices]
    while grow:
        vs, es = grow.pop()
        label = _subgraph_label(vs, es)
        if label in subgraphs:
            continue
        subgraphs[label] = (vs, es)
        if len(subgraphs) > 24:
            raise SheafcalcError("too many connected subgraphs to enumerate")
        grow += [(vs | e, es | {e}) for e in edges if e & vs and e not in es]

    labels = sorted(subgraphs)
    pairs = []
    for a in labels:
        for b in labels:
            va, ea = subgraphs[a]
            vb, eb = subgraphs[b]
            if va <= vb and ea <= eb:
                pairs.append((a, b))
    poset = FinitePoset(labels, pairs)

    stalk = {}
    action = {}
    for a in labels:
        va, ea = subgraphs[a]
        stalk[a] = frozenset(_proper_colorings(va, ea, n))
    # colorings restrict downward, so the covariant data lives on the dual
    dual = poset.dualize()
    for a in labels:
        for b in labels:
            if dual.leq(a, b):
                vb, _ = subgraphs[b]
                action[(a, b)] = {
                    s: tuple(pair for pair in s if pair[0] in vb)
                    for s in stalk[a]}
    functor = Copresheaf(dual, stalk, action)
    presheaf = poset_transfer(functor)
    top = _subgraph_label(vertices, edges)
    assert top in subgraphs
    return NColorSheaf(presheaf, poset, subgraphs, top, n)


def predict(p: FinitePresheaf, u, v, observed):
    """Possible restrictions to v of global sections seen as `observed` on u.

    Filters the stalk over the whole space by its restriction to u, then
    pushes the survivors down to v.
    """
    u = frozenset(u)
    v = frozenset(v)
    whole = frozenset(p.topology.points)
    observed = set(observed)
    for w in (u, v):
        if not p.topology.is_open(w):
            raise SheafcalcError(f"{sorted(w)} is not open")
    for s in observed:
        if s not in p.stalk[u]:
            raise SheafcalcError(f"{s!r} is not a section over {sorted(u)}")
    survivors = [s for s in p.stalk[whole]
                 if restrict(p, whole, u, s) in observed]
    return frozenset(restrict(p, whole, v, s) for s in survivors)
