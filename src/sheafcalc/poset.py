"""Finite partial orders with explicit relation storage.

Elements are opaque string labels; every iteration order is
lexicographic so results are reproducible.  Each element keeps its
up-set and its down-set under the reflexive-transitive closure, built
once from the related pairs, which makes ``leq`` a set lookup and the
bounds set intersections.
"""

from __future__ import annotations

from itertools import combinations

from ._record import Immutable, Record
from .errors import SheafcalcError

__all__ = [
    "OrderViolation",
    "FinitePoset",
    "FiniteTopology",
    "validate_poset",
    "is_monotone",
    "set_label",
    "downset_family",
    "all_downsets",
    "yoneda_check",
    "validate_topology",
    "alexandrov",
]

POWERSET_LIMIT = 1 << 16  # downsets, the most a 16-element poset has


class OrderViolation(SheafcalcError):
    """Antisymmetry failure; ``cycle`` holds the offending 2-cycle."""

    def __init__(self, x, y):
        self.cycle = (x, y)
        super().__init__(f"antisymmetry violated: {x} <= {y} and {y} <= {x}")


class FinitePoset(Immutable):
    __slots__ = ("elements", "_up", "_down")

    def __init__(self, elements, leq_pairs):
        # trusts the caller to hand over distinct labels and a closed
        # relation on them; use validate_poset for raw input
        elements = tuple(sorted(elements))
        up = {e: set() for e in elements}
        down = {e: set() for e in elements}
        for x, y in leq_pairs:
            if x not in up or y not in up:
                raise SheafcalcError(f"pair {x!r} <= {y!r} leaves the poset")
            up[x].add(y)
            down[y].add(x)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_up", {e: frozenset(s) for e, s in up.items()})
        object.__setattr__(self, "_down",
                           {e: frozenset(s) for e, s in down.items()})

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__
        return FinitePoset, (self.elements, self.pairs())

    def __len__(self):
        return len(self.elements)

    def __contains__(self, label):
        return label in self.elements

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self):
        return hash((self.elements, tuple(self._up.values())))

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"

    def leq(self, x, y) -> bool:
        return y in self._up.get(x, ())

    def pairs(self):
        """All related pairs (x, y) with x <= y, lexicographic order."""
        return [(x, y) for x, ys in self._up.items() for y in sorted(ys)]

    def principal_down(self, x) -> frozenset:
        return self._down.get(x, frozenset())

    def principal_up(self, x) -> frozenset:
        return self._up.get(x, frozenset())

    def dualize(self) -> "FinitePoset":
        """The opposite order: each element's up-set and down-set swap."""
        dual = object.__new__(FinitePoset)
        object.__setattr__(dual, "elements", self.elements)
        object.__setattr__(dual, "_up", self._down)
        object.__setattr__(dual, "_down", self._up)
        return dual

    # ---------------------------------------------------- bound helpers

    def _bounds(self, subset, cones) -> frozenset:
        """The elements in the cone of every member of subset, or every
        element for an empty subset; a label outside the poset has an
        empty cone."""
        first, *rest = [cones.get(x, ()) for x in subset] or [cones]
        return frozenset(first).intersection(*rest)

    def upper_bounds(self, subset):
        return sorted(self._bounds(subset, self._up))

    def lower_bounds(self, subset):
        return sorted(self._bounds(subset, self._down))

    @staticmethod
    def _extreme(bounds, cones):
        """The bound whose cone holds every bound, or None.  That bound
        has the largest cone of all; ties go to the least label."""
        best = min(bounds, key=lambda b: (-len(cones[b]), b), default=None)
        return best if bounds and bounds <= cones[best] else None

    def join(self, subset):
        """Least upper bound, or None if it does not exist."""
        return self._extreme(self._bounds(subset, self._up), self._up)

    def meet(self, subset):
        return self._extreme(self._bounds(subset, self._down), self._down)

    def top(self):
        return self.meet(())

    def bottom(self):
        return self.join(())

    def is_lattice(self) -> bool:
        if self.top() is None or self.bottom() is None:
            return False
        for x, y in combinations(self.elements, 2):
            if self.join((x, y)) is None or self.meet((x, y)) is None:
                return False
        return True


def validate_poset(elements, pairs) -> FinitePoset:
    """Close the relation reflexively and transitively, then check
    antisymmetry.  Raises OrderViolation naming a 2-cycle on failure.
    """
    elements = tuple(sorted(set(elements)))
    above = {e: {e} for e in elements}
    for x, y in pairs:
        for e in (x, y):
            if e not in above:
                raise SheafcalcError(f"unknown element {e!r}")
        above[x].add(y)
    for k in elements:
        for x in elements:
            if k in above[x]:
                above[x] |= above[k]
    for x in elements:
        for y in sorted(above[x]):
            if y > x and x in above[y]:
                raise OrderViolation(x, y)
    return FinitePoset(elements, ((x, y) for x in elements for y in above[x]))


def is_monotone(source: FinitePoset, target: FinitePoset, mapping) -> bool:
    return _monotonicity_witness(source, target, mapping) is None


def _monotonicity_witness(source: FinitePoset, target: FinitePoset, mapping):
    """The first x <= y in ``source.pairs()`` mapped out of order, or None.

    Each x, in element order, needs the images of its up-set inside the
    up-set of its image: one set inclusion.  Only when it fails is the
    least y that breaks it looked for."""
    if set(mapping) != set(source.elements):
        raise SheafcalcError("mapping must be total")
    for v in mapping.values():
        try:
            known = v in target._up
        except TypeError:  # unhashable: no element is, so it is outside
            known = False
        if not known:
            raise SheafcalcError(f"value {v!r} outside target")
    for x, ups in source._up.items():
        above = target._up[mapping[x]]
        if not {mapping[y] for y in ups} <= above:
            return x, min(y for y in ups if mapping[y] not in above)
    return None


# ------------------------------------------------------------- downsets

def _open_key(members):
    """Sets by size, then by sorted members: the order in which downsets
    and opens are listed."""
    return len(members), tuple(sorted(members))


def set_label(members) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def downset_family(p: FinitePoset):
    """Every down-closed subset, sorted by (size, members).

    Elements are taken along a linear extension, so a downset of the
    elements taken so far grows by e exactly when it holds all below e.
    """
    below = {e: p.principal_down(e) - {e} for e in p.elements}
    found = [frozenset()]
    for e in sorted(p.elements, key=lambda e: (len(below[e]), e)):
        found += [s | {e} for s in found if below[e] <= s]
        if len(found) > POWERSET_LIMIT:
            raise SheafcalcError(
                f"downset enumeration capped at {POWERSET_LIMIT} downsets")
    found.sort(key=_open_key)
    return found


def all_downsets(p: FinitePoset) -> FinitePoset:
    """The lattice D(P): downsets of p ordered by inclusion.

    Elements are brace labels like "{a,b}"; pair each label back to its
    member set with downset_family (same construction, same order).
    """
    family = downset_family(p)
    labels = {s: set_label(s) for s in family}
    pairs = [(labels[s], labels[t]) for s in family for t in family if s <= t]
    return FinitePoset(labels.values(), pairs)


def yoneda_check(p: FinitePoset):
    """Order-embedding of p into its downset lattice.

    Confirms x <= y iff down(x) is contained in down(y), and that
    membership in any downset A is equivalent to down(x) <= A.
    Returns (ok, witness); witness names the first failing instance.
    """
    downs = {x: p.principal_down(x) for x in p.elements}
    for x in p.elements:
        for y in p.elements:
            if p.leq(x, y) != (downs[x] <= downs[y]):
                return False, ("order", x, y)
    for a in downset_family(p):
        for x in p.elements:
            if (x in a) != (downs[x] <= a):
                return False, ("membership", x, set_label(a))
    return True, None


# ------------------------------------------------------------- topology

class FiniteTopology(Record):
    points: tuple
    opens: frozenset  # of frozensets

    def is_open(self, s) -> bool:
        return frozenset(s) in self.opens

    def opens_sorted(self):
        return sorted(self.opens, key=_open_key)

    def minimal_open_containing(self, point) -> frozenset:
        if point not in self.points:
            raise SheafcalcError(f"unknown point {point!r}")
        out = frozenset(self.points)
        for u in self.opens:
            if point in u:
                out &= u
        if out not in self.opens:
            raise SheafcalcError(f"no minimal open around {point!r}")
        return out


def validate_topology(points, opens) -> FiniteTopology:
    points = tuple(sorted(set(points)))
    opens = frozenset(frozenset(u) for u in opens)
    full = frozenset(points)
    outside = [u for u in opens if not u <= full]
    if outside:
        # by size, then by member reprs: labels outside the space may
        # not compare with each other
        u = min(outside, key=lambda u: (len(u), sorted(map(repr, u))))
        raise SheafcalcError(f"open set {sorted(u)} leaves the space")
    if frozenset() not in opens:
        raise SheafcalcError("empty set is not open")
    if full not in opens:
        raise SheafcalcError("whole space is not open")
    ordered = sorted(opens, key=_open_key)
    for u, v in combinations(ordered, 2):
        if u | v not in opens:
            raise SheafcalcError(
                f"not closed under union: {sorted(u)} | {sorted(v)}")
        if u & v not in opens:
            raise SheafcalcError(
                f"not closed under intersection: {sorted(u)} & {sorted(v)}")
    return FiniteTopology(points, opens)


def alexandrov(p: FinitePoset, direction: str) -> FiniteTopology:
    """Topology whose opens are all up-closed (or down-closed) sets."""
    if direction not in ("up", "down"):
        raise SheafcalcError(f"direction must be up or down, not {direction!r}")
    if direction == "down":
        opens = downset_family(p)
    else:
        opens = downset_family(p.dualize())
    return FiniteTopology(p.elements, frozenset(opens))
