"""Cellular sheaves of rational vector spaces on simplicial complexes.

A sheaf stores one matrix per covering attachment (dimension gap one);
longer composites are derived on demand, which path independence makes
well defined.  Values are carried one attachment at a time along the
route a composite takes, so spreading vertex data over the faces costs
one matrix-vector product per face and builds no composite.  Section
extension adds its linear constraints face by face to one running row
reduction, and the obstruction search keeps one per face, so an
inconsistent seed is pinned to the first face whose constraint system
dies, the way the worked obstruction example walks it.
"""

from __future__ import annotations

from collections import deque

from ._record import Record
from .complexes import SimplicialComplex, _signed_facets, face_name
from .errors import SheafcalcError
from .rationals import (
    RationalMatrix, _augmented, _consistent, _particular, _reduce_row,
    block_assemble, decompose, rational)

__all__ = [
    "CellularSheaf",
    "Assignment",
    "SheafMorphism",
    "SheafReport",
    "SectionReport",
    "ExtendResult",
    "SectionSpace",
    "MorphismReport",
    "covering_pairs",
    "validate_sheaf",
    "composite_map",
    "is_global_section",
    "extend",
    "global_section_space",
    "direct_sum",
    "pullback",
    "check_morphism",
]


def covering_pairs(base: SimplicialComplex):
    """Attachment pairs (facet, face) with dimension gap one, in face order."""
    out = []
    for tau in base.all_faces():
        if len(tau) == 1:
            continue
        for sigma, _ in _signed_facets(tau):
            out.append((sigma, tau))
    return out


class CellularSheaf(Record):
    """Stalk dimensions per face plus one matrix per covering attachment.

    A sheaf map for sigma < tau has shape dim(tau) x dim(sigma); a
    cosheaf reverses the arrows, so its matrix maps the tau stalk down
    and has the transposed shape.
    """

    base: SimplicialComplex
    stalk_dim: dict
    restriction: dict
    variance: str = "sheaf"

    def __post_init__(self):
        if self.variance not in ("sheaf", "cosheaf"):
            raise SheafcalcError(f"unknown variance {self.variance!r}")
        for face in self.base.all_faces():
            dim = self.stalk_dim.get(face)
            if not (isinstance(dim, int) and dim >= 0):
                raise SheafcalcError(f"bad stalk dimension at {face}")
        covering = set(covering_pairs(self.base))
        for pair in self.restriction:
            if pair not in covering:
                raise SheafcalcError(f"not a covering attachment: {pair}")

    def expected_shape(self, sigma, tau):
        if self.variance == "sheaf":
            return self.stalk_dim[tau], self.stalk_dim[sigma]
        return self.stalk_dim[sigma], self.stalk_dim[tau]


class Assignment(Record):
    """Vectors on a subset of faces; partial assignments are allowed."""

    vectors: dict

    def __post_init__(self):
        clean = {face: tuple(rational(x) for x in vec)
                 for face, vec in self.vectors.items()}
        object.__setattr__(self, "vectors", clean)

    @property
    def support(self) -> frozenset:
        return frozenset(self.vectors)

    def __getitem__(self, face):
        return self.vectors[face]


class SheafReport(Record):
    ok: bool
    kind: str | None = None  # missing-map | shape | path-independence
    witness: tuple | None = None


class SectionReport(Record):
    ok: bool
    violations: tuple = ()


class ExtendResult(Record):
    result: Assignment | None = None
    obstruction: tuple | None = None
    kind: str | None = None  # no-consistent-value | conflicting-values
    detail: str | None = None
    propagated: Assignment | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class SectionSpace(Record):
    dimension: int
    basis: tuple  # of Assignment


class MorphismReport(Record):
    ok: bool
    squares: tuple = ()  # failing (sigma, tau) attachments
    induced: tuple = ()  # images of the source section basis
    induced_ok: bool = True


def validate_sheaf(s: CellularSheaf, require_complete: bool = True) -> SheafReport:
    """Dimension check plus every path-independence square.

    With require_complete=False, attachments without a stored matrix are
    skipped instead of reported; partially specified sheaves (only a
    chain of maps given) can then still be checked for what they do say.
    """
    pairs = covering_pairs(s.base)
    usable = set()
    for sigma, tau in pairs:
        mat = s.restriction.get((sigma, tau))
        if mat is None:
            if require_complete:
                return SheafReport(False, "missing-map", (sigma, tau))
            continue
        want = s.expected_shape(sigma, tau)
        if (mat.rows, mat.cols) != want:
            return SheafReport(
                False, "shape", (sigma, tau, (mat.rows, mat.cols), want))
        usable.add((sigma, tau))

    for tau in s.base.all_faces():
        m = len(tau)
        if m < 3:
            continue
        for i in range(m):
            for j in range(i + 1, m):
                # tau is sorted, so deleting vertices keeps each face sorted
                rho = tuple(v for k, v in enumerate(tau) if k not in (i, j))
                mid_a = tau[:j] + tau[j + 1:]
                mid_b = tau[:i] + tau[i + 1:]
                needed = [(rho, mid_a), (mid_a, tau), (rho, mid_b), (mid_b, tau)]
                if any(p not in usable for p in needed):
                    continue
                if s.variance == "sheaf":
                    route_a = s.restriction[(mid_a, tau)] @ s.restriction[(rho, mid_a)]
                    route_b = s.restriction[(mid_b, tau)] @ s.restriction[(rho, mid_b)]
                else:
                    route_a = s.restriction[(rho, mid_a)] @ s.restriction[(mid_a, tau)]
                    route_b = s.restriction[(rho, mid_b)] @ s.restriction[(mid_b, tau)]
                if route_a != route_b:
                    return SheafReport(
                        False, "path-independence", (rho, mid_a, mid_b, tau))
    return SheafReport(True)


def _require_valid(s: CellularSheaf):
    if s.variance != "sheaf":
        raise SheafcalcError(f"needs sheaf variance, got {s.variance!r}")
    report = validate_sheaf(s)
    if not report.ok:
        raise SheafcalcError(f"invalid sheaf: {report.kind} at {report.witness}")


def composite_map(s: CellularSheaf, rho, tau) -> RationalMatrix:
    """The derived map between nested faces, one covering step at a time.

    Path independence makes the choice of chain irrelevant; this one adds
    the missing vertices in complex order.
    """
    if not set(rho) <= set(tau):
        raise SheafcalcError(f"{rho} is not a face of {tau}")
    order = s.base._index.__getitem__
    out = RationalMatrix.identity(s.stalk_dim[rho])
    current = rho
    for v in sorted(set(tau) - set(rho), key=order):
        bigger = tuple(sorted(current + (v,), key=order))
        step = s.restriction[(current, bigger)]
        if s.variance == "sheaf":
            out = step @ out
        else:
            out = out @ step
        current = bigger
    return out


def _check_total(s: CellularSheaf, a: Assignment, faces):
    for face in faces:
        if face not in a.vectors:
            raise SheafcalcError(f"assignment is partial: no value at {face}")
    _check_lengths(s, a)


def _check_lengths(s: CellularSheaf, a: Assignment):
    for face, vec in a.vectors.items():
        if not s.base.has_face(face):
            raise SheafcalcError(f"unknown face {face}")
        if len(vec) != s.stalk_dim[face]:
            raise SheafcalcError(
                f"dimension mismatch at {face}: got {len(vec)}, "
                f"stalk has {s.stalk_dim[face]}")


def is_global_section(s: CellularSheaf, a: Assignment) -> SectionReport:
    """Check every covering attachment, listing all violated pairs."""
    faces = s.base.all_faces()
    _check_total(s, a, faces)
    violations = []
    for sigma, tau in covering_pairs(s.base):
        mat = s.restriction[(sigma, tau)]
        if s.variance == "sheaf":
            expected = mat.apply(a[sigma])
            got = a[tau]
            where = tau
        else:
            expected = mat.apply(a[tau])
            got = a[sigma]
            where = sigma
        if expected != got:
            violations.append((sigma, tau, where, expected, got))
    return SectionReport(not violations, tuple(violations))


def _coboundary(s: CellularSheaf, k: int) -> RationalMatrix:
    """``cohomology.coboundary`` without its checks, for callers that ran
    ``_require_valid``.  Degree zero's rows, edge by edge, are the layout
    ``_vertex_system`` slices; a faceless base raises through ``dimension``."""
    row_faces = s.base.k_faces(k + 1) if k + 1 <= s.base.dimension() else []
    col_faces = s.base.k_faces(k)
    col_of = {sigma: j for j, sigma in enumerate(col_faces)}
    blocks = {}
    for i, tau in enumerate(row_faces):
        for sigma, sign in _signed_facets(tau):
            if sigma not in col_of:
                continue
            mat = s.restriction.get((sigma, tau))
            if mat is None:
                raise SheafcalcError(
                    f"no attachment map {face_name(s.base, sigma)}->"
                    f"{face_name(s.base, tau)}")
            blocks[(i, col_of[sigma])] = mat if sign == 1 else -mat
    return block_assemble(
        blocks,
        tuple(s.stalk_dim[tau] for tau in row_faces),
        tuple(s.stalk_dim[sigma] for sigma in col_faces))


def _vertex_layout(s: CellularSheaf):
    offsets = {}
    total = 0
    for v in s.base.k_faces(0):
        offsets[v] = total
        total += s.stalk_dim[v]
    return offsets, total


def _vertex_system(s: CellularSheaf, seed: Assignment, offsets, total):
    """The extension problem as sparse rows of [A | b] over concatenated
    vertex stalks, b in column ``total``, grouped by face in face order:
    (face, rows).

    An edge contributes its degree-zero coboundary rows, which vanish on
    a global section; a seeded face contributes its value written
    through its first vertex.
    """
    delta0 = _coboundary(s, 0)._rows  # edge blocks in face order; never mutated
    groups = []
    at = 0
    for face in s.base.all_faces():
        rows = []
        if len(face) == 2:
            rows.extend(delta0[at:at + s.stalk_dim[face]])
            at += s.stalk_dim[face]
        if face in seed.vectors:
            v0 = (face[0],)
            block = composite_map(s, v0, face)
            rows.extend({total if c == block.cols else offsets[v0] + c: x
                         for c, x in r.items()}
                        for r in _augmented(block, seed[face]))
        if rows:
            groups.append((face, rows))
    return groups


def _spread(s: CellularSheaf, offsets, vertex_data) -> Assignment:
    """Vertex data carried to every face one attachment at a time.

    A vertex takes its block of ``vertex_data``; a higher face takes the
    image of its facet ``face[:-1]``, which comes earlier in face order.
    That is the route ``composite_map`` takes from the first vertex, so
    each face gets the value of the composite, one matrix-vector product
    per face and no composite matrix.
    """
    vectors = {}
    for face in s.base.all_faces():
        if len(face) == 1:
            at = offsets[face]
            vectors[face] = vertex_data[at:at + s.stalk_dim[face]]
        else:
            facet = face[:-1]
            vectors[face] = s.restriction[(facet, face)].apply(vectors[facet])
    return Assignment(vectors)


def extend(s: CellularSheaf, seed: Assignment) -> ExtendResult:
    """Grow a partial assignment into a global section, or say why not.

    Vertex data must lie in the kernel of the degree-zero coboundary and
    reproduce every seeded value.  The rows of that system go face by
    face into one running reduction; if all go in, the solution is
    spread to all faces.  If not, determined values are propagated
    breadth-first from the seed until some face's exact linear system
    dies, and that face is reported: with kind "no-consistent-value" when
    the newest constraint alone is already unsolvable, "conflicting-values"
    when only the combination is.  If none dies, the blame goes to the
    first face whose rows made the global system inconsistent, with the
    same two kinds for its rows alone.
    """
    _require_valid(s)
    _check_lengths(s, seed)

    offsets, total = _vertex_layout(s)
    reduced = {}
    for face, rows in _vertex_system(s, seed, offsets, total):
        if not _consistent(reduced, rows, total):
            return _localize_obstruction(s, seed, face, rows, total)

    result = _spread(s, offsets, _particular(reduced, total))
    for face in seed.vectors:
        assert result[face] == seed[face]
    return ExtendResult(result=result)


def _localize_obstruction(s: CellularSheaf, seed: Assignment,
                          swept, swept_rows, total) -> ExtendResult:
    faces = s.base.all_faces()
    neighbors = {g: [] for g in faces}
    for sigma, tau in covering_pairs(s.base):
        neighbors[sigma].append(tau)
        neighbors[tau].append(sigma)
    face_order = {g: i for i, g in enumerate(faces)}
    for g in faces:
        neighbors[g].sort(key=face_order.get)

    # Each face keeps a running reduction of its constraints [A | b], b in
    # column dim: inconsistent once b is a pivot, determined once there
    # are dim pivots, and then the value is the b column.
    reduced = {g: {} for g in faces}
    value = {}
    queue = deque()
    for g in faces:
        if g in seed.vectors:
            for row in _augmented(RationalMatrix.identity(len(seed[g])), seed[g]):
                _reduce_row(reduced[g], row)
            value[g] = seed[g]
            queue.append(g)

    while queue:
        g = queue.popleft()
        xg = value[g]
        for n in neighbors[g]:
            dim = s.stalk_dim[n]
            if len(n) > len(g):
                # value above is forced outright
                block = _augmented(RationalMatrix.identity(dim),
                                   s.restriction[(g, n)].apply(xg))
            else:
                # value below must map onto the determined value
                block = _augmented(s.restriction[(n, g)], xg)
            if not _consistent(reduced[n], block, dim):
                if not _consistent({}, block, dim):
                    kind = "no-consistent-value"
                    detail = (f"constraints at {face_name(s.base, n)} from "
                              f"{face_name(s.base, g)} admit no solution")
                else:
                    kind = "conflicting-values"
                    detail = f"{face_name(s.base, n)} is forced two different ways"
                return ExtendResult(
                    obstruction=n, kind=kind, detail=detail,
                    propagated=Assignment(dict(value)))
            if n not in value and len(reduced[n]) == dim:
                value[n] = _particular(reduced[n], dim)
                queue.append(n)

    # No face collected an inconsistent system from determined neighbors:
    # blame the face whose rows made the global system inconsistent.
    alone_ok = _consistent({}, swept_rows, total)
    return ExtendResult(
        obstruction=swept,
        kind="conflicting-values" if alone_ok else "no-consistent-value",
        detail=f"constraints through {face_name(s.base, swept)} close off "
               f"the remaining solutions",
        propagated=Assignment(dict(value)))


def global_section_space(s: CellularSheaf) -> SectionSpace:
    """Kernel of the degree-zero coboundary, spread over all faces.

    Each kernel vector is vertex data; values on higher faces follow
    uniquely through the restriction maps.
    """
    _require_valid(s)
    offsets, _ = _vertex_layout(s)
    dec = decompose(_coboundary(s, 0))
    basis = tuple(_spread(s, offsets, vec) for vec in dec.kernel_basis)
    return SectionSpace(len(basis), basis)


def _same_base(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    return (a.vertex_order == b.vertex_order
            and a.all_faces() == b.all_faces())


def direct_sum(f: CellularSheaf, g: CellularSheaf) -> CellularSheaf:
    """Stalkwise sum; restriction maps become block diagonal."""
    if not _same_base(f.base, g.base):
        raise SheafcalcError("base mismatch")
    if f.variance != g.variance:
        raise SheafcalcError("variance mismatch")
    dims = {face: f.stalk_dim[face] + g.stalk_dim[face]
            for face in f.base.all_faces()}
    restriction = {}
    for pair in covering_pairs(f.base):
        left = f.restriction[pair]
        right = g.restriction[pair]
        restriction[pair] = block_assemble(
            {(0, 0): left, (1, 1): right},
            (left.rows, right.rows), (left.cols, right.cols))
    return CellularSheaf(f.base, dims, restriction, f.variance)


def pullback(base: SimplicialComplex, f: dict, s: CellularSheaf) -> CellularSheaf:
    """Reindex a sheaf through an order-preserving face map into its base."""
    for face in base.all_faces():
        if face not in f:
            raise SheafcalcError(f"face map misses {face}")
        if not s.base.has_face(f[face]):
            raise SheafcalcError(f"face map leaves the target complex at {face}")
    for sigma, tau in covering_pairs(base):
        if not set(f[sigma]) <= set(f[tau]):
            raise SheafcalcError(
                f"face map is not order-preserving at {sigma} < {tau}")
    dims = {face: s.stalk_dim[f[face]] for face in base.all_faces()}
    restriction = {}
    for sigma, tau in covering_pairs(base):
        restriction[(sigma, tau)] = composite_map(s, f[sigma], f[tau])
    return CellularSheaf(base, dims, restriction, s.variance)


class SheafMorphism(Record):
    """Componentwise maps l_sigma : F(f(sigma)) -> G(sigma).

    The source sheaf lives over the image complex, the target over the
    domain of the face map, mirroring how pullback moves data.
    """

    source: CellularSheaf  # F
    target: CellularSheaf  # G
    cell_map: dict  # faces of target.base -> faces of source.base
    components: dict  # face of target.base -> RationalMatrix

    def __post_init__(self):
        if (self.source.variance, self.target.variance) != ("sheaf", "sheaf"):
            raise SheafcalcError("a sheaf morphism joins two sheaves")
        for face in self.target.base.all_faces():
            if face not in self.cell_map:
                raise SheafcalcError(f"cell map misses {face}")
            image = self.cell_map[face]
            if not self.source.base.has_face(image):
                raise SheafcalcError(f"cell map leaves the source at {face}")
            comp = self.components.get(face)
            if comp is None:
                raise SheafcalcError(f"no component at {face}")
            want = (self.target.stalk_dim[face], self.source.stalk_dim[image])
            if (comp.rows, comp.cols) != want:
                raise SheafcalcError(
                    f"component at {face} is {comp.rows}x{comp.cols}, not {want}")
        for sigma, tau in covering_pairs(self.target.base):
            if not set(self.cell_map[sigma]) <= set(self.cell_map[tau]):
                raise SheafcalcError(
                    f"cell map is not order-preserving at {sigma} < {tau}")


def check_morphism(m: SheafMorphism) -> MorphismReport:
    """Verify every commuting square and the induced map on sections."""
    failing = []
    for sigma, tau in covering_pairs(m.target.base):
        lhs = m.target.restriction[(sigma, tau)] @ m.components[sigma]
        rhs = m.components[tau] @ composite_map(
            m.source, m.cell_map[sigma], m.cell_map[tau])
        if lhs != rhs:
            failing.append((sigma, tau))

    space = global_section_space(m.source)
    images = []
    induced_ok = True
    for section in space.basis:
        image = Assignment({
            face: m.components[face].apply(section[m.cell_map[face]])
            for face in m.target.base.all_faces()})
        images.append(image)
        if not is_global_section(m.target, image).ok:
            induced_ok = False
    return MorphismReport(
        ok=not failing and induced_ok,
        squares=tuple(failing),
        induced=tuple(images),
        induced_ok=induced_ok)
