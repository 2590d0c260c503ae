"""Galois connections between finite posets.

A connection is a pair of monotone maps F: P -> Q and G: Q -> P with
F(p) <= q exactly when p <= G(q).  The checker tests that biconditional
for each q at once, as the set of p that F maps below q against the
down-set of G(q).
"""

from __future__ import annotations

from ._record import Record
from .errors import SheafcalcError
from .poset import FinitePoset, _monotonicity_witness, is_monotone

__all__ = [
    "GaloisConnection",
    "ConnectionReport",
    "AdjointSynthesisError",
    "LatticeOperator",
    "check_connection",
    "right_adjoint_of",
    "left_adjoint_of",
    "induced_operators",
    "compose_connections",
    "cantor_diagonal",
]


class GaloisConnection(Record):
    source: FinitePoset        # P
    target: FinitePoset        # Q
    left: dict                 # F: P -> Q
    right: dict                # G: Q -> P


class ConnectionReport(Record):
    ok: bool
    kind: str | None = None    # what failed
    witness: tuple | None = None


class AdjointSynthesisError(SheafcalcError):
    """Raised when no adjoint exists; carries the violated join/meet."""

    def __init__(self, kind, at, subset, bound, image):
        self.kind = kind
        self.at = at
        self.subset = tuple(sorted(subset))
        self.bound = bound
        self.image = image
        super().__init__(
            f"{kind} at {at!r}: bound of {self.subset} is {bound!r}, "
            f"mapped to {image!r}")


def _below(left: dict, source: FinitePoset, target: FinitePoset) -> dict:
    """{y: the set of x with F(x) <= y} for each y of the target, read
    off the up-set of each image F(x)."""
    below = {y: set() for y in target.elements}
    for x in source.elements:
        for y in target.principal_up(left[x]):
            below[y].add(x)
    return below


def check_connection(c: GaloisConnection) -> ConnectionReport:
    p, q = c.source, c.target
    for side, dom, cod, mapping in (("left", p, q, c.left), ("right", q, p, c.right)):
        if mapping is None:
            raise SheafcalcError(f"connection has no {side} map")
        bad = _monotonicity_witness(dom, cod, mapping)
        if bad is not None:
            return ConnectionReport(False, f"{side}-not-monotone", bad)
    # the adjunction holds at y when the x that F maps below y are G(y)'s
    # down-set; the witness is the least failing (x, y), x-major
    below = _below(c.left, p, q)
    bad = [(min(diff), y) for y in q.elements
           if (diff := below[y] ^ p.principal_down(c.right[y]))]
    if bad:
        return ConnectionReport(False, "adjunction", min(bad))
    return ConnectionReport(True)


def right_adjoint_of(left: dict, source: FinitePoset,
                     target: FinitePoset) -> dict:
    """Synthesize G(q) as the join of everything F maps below q.

    Works whenever F preserves joins; otherwise raises
    AdjointSynthesisError carrying the subset whose join F breaks.
    Joins are taken in the source, which must provide them.
    """
    if not is_monotone(source, target, left):
        raise SheafcalcError("map must be monotone")
    below = _below(left, source, target)
    right = {}
    for q in target.elements:
        j = source.join(below[q])
        if j is None:
            raise AdjointSynthesisError("no-join", q, below[q], None, None)
        if not target.leq(left[j], q):
            # every member maps below q but the join does not: the join
            # escaped, so F is not join-preserving and no adjoint exists
            raise AdjointSynthesisError(
                "join-not-preserved", q, below[q], j, left[j])
        right[q] = j
    return right


def left_adjoint_of(right: dict, source: FinitePoset,
                    target: FinitePoset) -> dict:
    """Dual synthesis: F(p) is the meet of everything G maps above p.

    A left adjoint is the right adjoint between the dual posets, so this
    is right_adjoint_of with both orders reversed; a failure names the
    violated meet.
    """
    try:
        return right_adjoint_of(right, target.dualize(), source.dualize())
    except AdjointSynthesisError as err:
        raise AdjointSynthesisError(
            err.kind.replace("join", "meet"), err.at, err.subset,
            err.bound, err.image) from None


class LatticeOperator(Record):
    poset: FinitePoset
    mapping: dict
    kind: str                  # "closure" or "kernel"


def induced_operators(c: GaloisConnection) -> dict:
    """The closure G.F on the source and the kernel F.G on the target.

    The absorption laws FGF = F and GFG = G of a connection make the
    closure extensive and idempotent and the kernel deflationary and
    idempotent; both are monotone as composites of monotone maps.
    """
    report = check_connection(c)
    if not report.ok:
        raise SheafcalcError(f"not a Galois connection: {report}")
    p, q, f, g = c.source, c.target, c.left, c.right
    closure = {x: g[f[x]] for x in p.elements}
    kernel = {y: f[g[y]] for y in q.elements}
    return {
        "closure": LatticeOperator(p, closure, "closure"),
        "kernel": LatticeOperator(q, kernel, "kernel"),
    }


def compose_connections(inner: GaloisConnection,
                        outer: GaloisConnection) -> GaloisConnection:
    """(F', G') after (F, G) gives (F'.F, G.G'): adjunctions compose."""
    if inner.target != outer.source:
        raise SheafcalcError("middle posets must agree")
    for c in (inner, outer):
        report = check_connection(c)
        if not report.ok:
            raise SheafcalcError(f"not a Galois connection: {report}")
    left = {x: outer.left[inner.left[x]] for x in inner.source.elements}
    right = {z: inner.right[outer.right[z]] for z in outer.target.elements}
    return GaloisConnection(inner.source, outer.target, left, right)


def cantor_diagonal(f: dict, xs, ys, alpha: dict) -> dict:
    """g(x) = alpha(f(x, x)) differs from every row f(-, x0) of f.

    ``alpha`` must move every point of ys; with a fixed point the
    construction collapses and a SheafcalcError names the stuck value.
    Without one, x = x0 witnesses that g is not the row at x0.
    """
    xs = tuple(xs)
    ys = tuple(ys)
    targets = set(ys)
    if set(alpha) != targets:
        raise SheafcalcError("alpha must be total")
    for y in ys:
        if alpha[y] not in targets:
            raise SheafcalcError(f"alpha leaves ys at {y!r}")
        if alpha[y] == y:
            raise SheafcalcError(f"alpha has a fixed point at {y!r}")
    for x1 in xs:
        for x2 in xs:
            if (x1, x2) not in f:
                raise SheafcalcError(f"f is partial at {(x1, x2)}")
            if f[(x1, x2)] not in targets:
                raise SheafcalcError(f"f leaves ys at {(x1, x2)}")
    return {x: alpha[f[(x, x)]] for x in xs}
