"""Presheaves of finite sets on finite topological spaces.

A presheaf here is the whole restriction table, spelled out: a stalk for
every open set and a map for every nested pair of opens.  Everything is
small enough to enumerate, so the sheaf axioms are checked literally, as
one equalizer: a cover's restriction table must send the sections of the
target injectively (locality) onto exactly the matching families
(gluing).
"""

from __future__ import annotations

from ._record import Record
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


class FinitePresheaf(Record):
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


class PresheafReport(Record):
    ok: bool
    kind: str | None = None
    witness: tuple | None = None


class SheafCondition(Record):
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


class MatchingFamily(Record):
    """A choice of section per cover member, agreeing on overlaps."""

    cover: tuple
    choice: tuple  # pairs (open, section), aligned with cover

    def section(self, u):
        for v, s in self.choice:
            if v == u:
                return s
        raise SheafcalcError(f"{sorted(u)!r} is not in the cover")


def _contains(u, v) -> bool:
    # restriction runs from an open to the opens inside it
    return v <= u


def _arrows(objects, arrow):
    """Each object's arrow targets, listed in objects order."""
    return {x: [y for y in objects if arrow(x, y)] for x in objects}


def _check_tables(objects, arrow, stalk, maps):
    """A stalk at every object and, for every arrow x -> y, a table
    sending each section over x to a section over y."""
    for x in objects:
        if x not in stalk:
            raise SheafcalcError(f"no stalk over {x!r}")
    for x, targets in _arrows(objects, arrow).items():
        for y in targets:
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
    targets = _arrows(objects, arrow)
    for x in objects:
        sections = _ordered(stalk[x])
        for y in targets[x]:
            for z in targets[y]:
                for s in sections:
                    direct = maps[(x, z)][s]
                    stepped = maps[(y, z)][maps[(x, y)][s]]
                    if direct != stepped:
                        return PresheafReport(
                            False, "composition", (x, y, z, s, direct, stepped))
    return PresheafReport(True)


def restrict(p: FinitePresheaf, u, v, section):
    """Restrict a section of u to the smaller open v.

    Refuses, in this order, a v not inside u, a u or v that is not
    open, and a section that is not over u.
    """
    u, v = frozenset(u), frozenset(v)
    if not v <= u:
        raise SheafcalcError(f"{sorted(v)} is not inside {sorted(u)}")
    for w in (u, v):
        if not p.topology.is_open(w):
            raise SheafcalcError(f"{sorted(w)} is not open")
    if section not in p.stalk[u]:
        raise SheafcalcError(f"{section!r} is not a section over {sorted(u)}")
    return p.restriction[(u, v)][section]


def validate_presheaf(p: FinitePresheaf) -> PresheafReport:
    """Check the functor laws: identities and composition of restrictions.

    Returns the first violation found, scanning opens small-to-large.
    """
    return _functor_laws(p.topology.opens_sorted(), _contains, p.stalk,
                         p.restriction)


def _members(p: FinitePresheaf, cover):
    """The distinct cover members, largest first, each checked open."""
    members = sorted(set(cover), key=lambda u: (-len(u), tuple(sorted(u))))
    for u in members:
        if not p.topology.is_open(u):
            raise SheafcalcError(f"cover member {sorted(u)} is not open")
    return members


def _families(p: FinitePresheaf, members):
    """``matching_families`` over members ``_members`` has checked.

    Each member's sections are sorted once, and each pair of members
    reads its two tables onto their overlap once, before the search.
    """
    sections = [_ordered(p.stalk[u]) for u in members]
    overlaps = [[(j, p.restriction[(u, u & v)], p.restriction[(v, u & v)])
                 for j, v in enumerate(members[:i])]
                for i, u in enumerate(members)]
    cover = tuple(members)
    choice = []

    def extend(i):
        if i == len(members):
            yield MatchingFamily(cover, tuple(zip(members, choice)))
            return
        for s in sections[i]:
            for j, mine, theirs in overlaps[i]:
                if mine[s] != theirs[choice[j]]:
                    break
            else:
                choice.append(s)
                yield from extend(i + 1)
                choice.pop()

    yield from extend(0)


def matching_families(p: FinitePresheaf, cover):
    """Yield every matching family over the cover.

    Sections are chosen member by member; a partial choice is extended
    only while it agrees on all pairwise intersections, so consistent
    presheaves prune the product search drastically.
    """
    yield from _families(p, _members(p, cover))


def sheaf_check(p: FinitePresheaf, cover, target) -> SheafCondition:
    """Test locality and gluing for one cover of one open.

    The cover must be a family of opens whose union is the target open;
    anything else is a usage error, not a sheaf failure.  Each section of
    the target is tabled under its restrictions to the members.
    Locality fails at the first row two sections share, witnessed by
    its first two sections; gluing fails at the first matching family
    that is no row.
    """
    target = frozenset(target)
    members = [frozenset(u) for u in cover]
    if not p.topology.is_open(target):
        raise SheafcalcError(f"target {sorted(target)} is not open")
    union = frozenset().union(*members) if members else frozenset()
    if union != target:
        raise SheafcalcError("cover does not union to the target")
    members = _members(p, members)

    to_members = [p.restriction[(target, u)] for u in members]
    table = {}
    for s in _ordered(p.stalk[target]):
        table.setdefault(tuple(to_u[s] for to_u in to_members), []).append(s)
    locality = next((("fail", tuple(same[:2])) for same in table.values()
                     if len(same) > 1), ("pass", None))
    gluing = next((("fail", family) for family in _families(p, members)
                   if tuple(s for _, s in family.choice) not in table),
                  ("pass", None))
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
    """Both sheaf axioms, checked once per open on its points' minimal opens.

    Any cover of U has a member around each point x of U, and that
    member contains x's minimal open; so a family matching on the cover
    restricts to one matching on the minimal-open cover.  What glues
    there restricts back to each member's section, by locality on that
    member's own minimal-open cover.  The argument composes
    restrictions, so the answer holds for presheaves that pass
    ``validate_presheaf``.
    """
    topology = p.topology
    minimal = {x: topology.minimal_open_containing(x) for x in topology.points}
    return all(sheaf_check(p, {minimal[x] for x in target}, target).ok
               for target in topology.opens_sorted())


def stalk_at(p: FinitePresheaf, point):
    """Sections over the minimal open around a point.

    Raises SheafcalcError when the space has no minimal open there.
    """
    u = p.topology.minimal_open_containing(point)
    return p.stalk[u]


class Copresheaf(Record):
    """Covariant set-valued data on a poset: stalks and action maps upward."""

    poset: FinitePoset
    stalk: dict
    action: dict  # (p, q) with p <= q  ->  dict stalk(p) -> stalk(q)

    def __post_init__(self):
        _check_tables(self.poset.elements, self.poset.leq, self.stalk,
                      self.action)


def validate_copresheaf(f: Copresheaf) -> PresheafReport:
    return _functor_laws(f.poset.elements, f.poset.leq, f.stalk, f.action)


def poset_transfer(f: Copresheaf) -> FinitePresheaf:
    """Realize a copresheaf as a presheaf on the up-set topology.

    The sections over an open are the action-compatible tuples over its
    points; restriction just forgets coordinates.  Opens are taken
    small-to-large, and each open U grows from U - {x} for the first
    point x whose removal leaves an open: such an x is minimal in U, so
    a section of U is one of U - {x} plus a value at x that the action
    maps send onto its values above x.  The result always satisfies
    both sheaf axioms, and the construction is reversible:
    ``copresheaf_from_presheaf`` recovers the input on the nose.
    """
    report = validate_copresheaf(f)
    if not report.ok:
        raise SheafcalcError(f"not a copresheaf: {report.kind} at {report.witness}")
    topology = alexandrov(f.poset, "up")
    grown = {frozenset(): frozenset([()])}
    for u in topology.opens_sorted()[1:]:
        x = next(x for x in sorted(u) if topology.is_open(u - {x}))
        above = [(y, f.action[(x, y)]) for y in u - {x} if f.poset.leq(x, y)]
        sections = []
        for s in grown[u - {x}]:
            values = dict(s)
            sections += [tuple(sorted(s + ((x, v),))) for v in f.stalk[x]
                         if all(table[v] == values[y] for y, table in above)]
        grown[u] = frozenset(sections)
    stalk = {u: grown[u] for u in topology.opens}  # keyed like the tables
    restriction = {}
    for u in topology.opens:
        for v in topology.opens:
            if v <= u:
                restriction[(u, v)] = {
                    s: tuple(pair for pair in s if pair[0] in v)
                    for s in stalk[u]}
    return FinitePresheaf(topology, stalk, restriction)


def _value_at(section, x):
    """The value a section of (point, value) pairs takes at x."""
    try:
        return dict(section)[x]
    except (TypeError, ValueError, KeyError):
        raise SheafcalcError(
            f"{section!r} is not a section of (point, value) pairs at {x!r}") from None


def copresheaf_from_presheaf(p: FinitePresheaf, poset: FinitePoset) -> Copresheaf:
    """Invert poset_transfer by reading values off principal opens.

    Refuses, element by element, a principal up-set that is not open,
    then the first section over it, by ``repr``, that is not a tuple of
    (point, value) pairs holding the element.
    """
    up = {x: frozenset(poset.principal_up(x)) for x in poset.elements}
    stalk = {}
    rep = {}
    for x in poset.elements:
        if not p.topology.is_open(up[x]):
            raise SheafcalcError(f"{sorted(up[x])} is not open")
        values = {}
        for section in _ordered(p.stalk[up[x]]):
            values[_value_at(section, x)] = section
        stalk[x] = frozenset(values)
        rep[x] = values
    action = {}
    for x, y in poset.pairs():
        restriction = p.restriction[(up[x], up[y])]
        action[(x, y)] = {v: _value_at(restriction[section], y)
                          for v, section in rep[x].items()}
    return Copresheaf(poset, stalk, action)


class NColorSheaf(Record):
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

    # every connected subgraph grows from one of its vertices by adding
    # edges that touch what is already there, so the whole graph is
    # reached exactly when it is connected
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
    top = _subgraph_label(vertices, edges)
    if top not in subgraphs:
        raise SheafcalcError("graph is not connected")

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
    for a, b in dual.pairs():
        vb, _ = subgraphs[b]
        action[(a, b)] = {
            s: tuple(pair for pair in s if pair[0] in vb)
            for s in stalk[a]}
    functor = Copresheaf(dual, stalk, action)
    presheaf = poset_transfer(functor)
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
    to_u = p.restriction[(whole, u)]
    to_v = p.restriction[(whole, v)]
    return frozenset(to_v[s] for s in p.stalk[whole] if to_u[s] in observed)
