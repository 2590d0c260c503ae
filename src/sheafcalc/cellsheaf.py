"""Cellular sheaves of rational vector spaces on simplicial complexes.

A sheaf stores one matrix per covering attachment (dimension gap one);
longer composites are derived on demand, which path independence makes
well defined.  Values are carried one attachment at a time along the
route a composite takes, so spreading vertex data over the faces costs
one matrix-vector product per face and builds no composite.  Section
extension adds its linear constraints face by face to one running row
reduction.  The obstruction search keeps one per face still without a
value and checks a face that has one by evaluating each constraint at
it, so an inconsistent seed is pinned to the first face whose
constraint system dies, the way the worked obstruction example walks it.
"""

from __future__ import annotations

from collections import deque
from math import lcm

from ._record import Record
from .complexes import SimplicialComplex, _signed_facets, face_name
from .errors import SheafcalcError
from .rationals import (
    RationalMatrix, _augmented, _consistent, _image, _kernel, _particular,
    _reduced, _rref, _stored, block_assemble, rational)

__all__ = [
    "CellularSheaf",
    "Assignment",
    "SheafMorphism",
    "SheafReport",
    "InvalidSheaf",
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
    """Vectors on a subset of faces; partial assignments are allowed.
    Each vector is a tuple or a list of rationals."""

    vectors: dict

    def __post_init__(self):
        clean = {}
        for face, vec in self.vectors.items():
            if not isinstance(vec, (tuple, list)):
                raise SheafcalcError(
                    f"vector at {face} is a {type(vec).__name__}, "
                    f"not a tuple or list")
            clean[face] = tuple(rational(x) for x in vec)
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


class InvalidSheaf(SheafcalcError):
    """A sheaf refused by validation; ``report`` is its ``SheafReport``."""

    def __init__(self, kind, witness):
        self.report = SheafReport(False, kind, witness)
        super().__init__(f"invalid sheaf: {kind} at {witness}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not from the message
        return InvalidSheaf, (self.report.kind, self.report.witness)


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


def _then(s: CellularSheaf, first, second) -> RationalMatrix:
    """The map of ``first``, then ``second``, along s's arrows: a sheaf's
    matrices act on the left, a cosheaf's on the right."""
    return second @ first if s.variance == "sheaf" else first @ second


def _attachment(s: CellularSheaf, sigma, tau) -> RationalMatrix:
    """s's matrix for the covering attachment sigma < tau, refused with
    ``InvalidSheaf`` when it is missing or has the wrong shape."""
    mat = s.restriction.get((sigma, tau))
    if mat is None:
        raise InvalidSheaf("missing-map", (sigma, tau))
    want = s.expected_shape(sigma, tau)
    if (mat.rows, mat.cols) != want:
        raise InvalidSheaf("shape", (sigma, tau, (mat.rows, mat.cols), want))
    return mat


def validate_sheaf(s: CellularSheaf, require_complete: bool = True) -> SheafReport:
    """Dimension check plus every path-independence square.

    A complete sheaf or cosheaf gets the report of the ``InvalidSheaf``
    that ``_cochains`` raises: the first missing or misshapen attachment
    in ``covering_pairs`` order, else the least square whose two routes
    differ, read off the products of consecutive coboundaries.  With
    require_complete=False, attachments without a stored matrix are
    skipped instead of reported, and each square is compared on its own,
    since a missing map is not a zero map; partially specified sheaves
    (only a chain of maps given) can then still be checked for what they
    do say.
    """
    try:
        if require_complete:
            _cochains(s)
        else:
            for pair in covering_pairs(s.base):
                if s.restriction.get(pair) is not None:
                    _attachment(s, *pair)
            _square_fault(s, s.base.all_faces())
    except InvalidSheaf as err:
        return err.report
    return SheafReport(True)


def _square_fault(s: CellularSheaf, faces):
    """Refuse the first failing path-independence square with its top in
    ``faces``, in their order and then by the two deleted positions
    (i, j), with ``InvalidSheaf``.  A square with a missing map is
    skipped, and every stored map has the expected shape."""
    for tau in faces:
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
                if any(s.restriction.get(p) is None for p in needed):
                    continue
                route_a = _then(s, s.restriction[(rho, mid_a)],
                                s.restriction[(mid_a, tau)])
                route_b = _then(s, s.restriction[(rho, mid_b)],
                                s.restriction[(mid_b, tau)])
                if route_a != route_b:
                    raise InvalidSheaf(
                        "path-independence", (rho, mid_a, mid_b, tau))


def _layout(s: CellularSheaf, k: int):
    """Offsets of the k-face stalks laid end to end in face order, and
    their total: the block layout of degree k."""
    offsets = {}
    total = 0
    for face in s.base.k_faces(k):
        offsets[face] = total
        total += s.stalk_dim[face]
    return offsets, total


def _cochain_map(s: CellularSheaf, upper_layout, lower_layout) -> RationalMatrix:
    """delta^k of a sheaf or, of a cosheaf, the boundary from degree
    k + 1 to k, given the ``_layout`` of degrees k + 1 and k; the first
    missing or misshapen attachment between the two degrees, in
    ``covering_pairs`` order, raises ``InvalidSheaf``.

    The map is written as int rows, from the attachments' int rows, and
    makes no Fraction.  Each attachment row is written once into the
    sparse rows, shifted to its block and negated, as ints, when the
    incidence sign is -1.  A row that collects blocks with different
    denominators is brought to their lcm, the row's least denominator,
    since each block's is least.  A sheaf's rows run over the
    (k+1)-faces and its columns over the k-faces; a cosheaf's blocks sit
    in the transposed layout.  Degree zero's rows, edge by edge, are the
    layout ``_vertex_system`` slices.
    """
    sheaf = s.variance == "sheaf"
    (upper, n_upper), (lower, n_lower) = upper_layout, lower_layout
    n_rows = n_upper if sheaf else n_lower
    dens = [1] * n_rows
    out = tuple({} for _ in range(n_rows))
    for tau in upper:
        for sigma, sign in _signed_facets(tau):
            mat = s.restriction.get((sigma, tau))
            if mat is None or (mat.rows, mat.cols) != s.expected_shape(sigma, tau):
                _attachment(s, sigma, tau)  # names the fault
            at, col = (upper[tau], lower[sigma]) if sheaf else (lower[sigma], upper[tau])
            for r, (d, row) in enumerate(zip(mat._dens, mat._int_rows), start=at):
                line, den = out[r], dens[r]
                if den % d:
                    dens[r] = lcm(den, d)
                    up, den = dens[r] // den, dens[r]
                    for c in line:
                        line[c] *= up
                f = sign if d == den else sign * (den // d)
                for c, x in row.items():
                    line[col + c] = f * x
    cols = n_lower if sheaf else n_upper
    return RationalMatrix._from_ints(n_rows, cols, tuple(dens), out)


def _cochains(s: CellularSheaf) -> tuple:
    """Validate a complete sheaf or cosheaf and build its chain maps in
    one pass: ``_cochain_map`` of every degree, or ``InvalidSheaf``
    carrying ``validate_sheaf``'s report.  Each degree's ``_layout`` is
    built once.

    Every attachment is checked as its map is written, degree by degree,
    so the first fault is the first in ``covering_pairs`` order, and
    each comes before any square.  Then path independence: between faces
    rho < tau two dimensions apart lie exactly two faces, whose routes
    carry opposite incidence signs, so the (tau, rho) block of
    delta^(k+1) delta^k is plus or minus the difference of the two
    routes, and every square commutes exactly when each product of
    consecutive maps (for a cosheaf, boundaries in reverse order) is
    zero.  Only when one is not are the squares compared, over the
    least top face of a nonzero block, to name the witness.
    """
    layouts = [_layout(s, k) for k in range(len(s.base._layers()[1]) + 1)]
    maps = tuple(_cochain_map(s, upper, lower)
                 for lower, upper in zip(layouts, layouts[1:]))
    for k in range(len(maps) - 2):  # the top map meets no (top+1)-face
        square = _then(s, maps[k], maps[k + 1])
        if not square.is_zero():
            rows = (square if s.variance == "sheaf" else square.transpose())._int_rows
            offsets, _ = layouts[k + 2]
            tau = next(f for f, at in offsets.items()
                       if any(rows[at:at + s.stalk_dim[f]]))
            _square_fault(s, (tau,))  # a nonzero block is a failing square
    return maps


def _require_valid(s: CellularSheaf) -> tuple:
    """The coboundaries delta^0 .. delta^top of a valid sheaf, built by
    the pass that validates it; an invalid sheaf is refused with
    ``InvalidSheaf``, a cosheaf and a faceless base with
    ``SheafcalcError``."""
    if s.variance != "sheaf":
        raise SheafcalcError(f"needs sheaf variance, got {s.variance!r}")
    s.base.dimension()  # a faceless base has no cochains: this raises
    return _cochains(s)


def composite_map(s: CellularSheaf, rho, tau) -> RationalMatrix:
    """The derived map between nested faces, one covering step at a time.

    Path independence makes the choice of chain irrelevant; this one adds
    the missing vertices in complex order.
    """
    if not set(rho) <= set(tau):
        raise SheafcalcError(f"{rho} is not a face of {tau}")
    if not set(tau) <= s.base._index.keys() or not all(
            s.base.has_face(s.base._face(f)) for f in (rho, tau)):
        raise SheafcalcError(f"unknown face in {rho} < {tau}")
    rho = s.base._face(rho)
    out = RationalMatrix.identity(s.stalk_dim[rho])
    current = rho
    for v in s.base._face(set(tau) - set(rho)):
        bigger = s.base._face(current + (v,))
        out = _then(s, out, _attachment(s, current, bigger))
        current = bigger
    return out


def _check_total(s: CellularSheaf, a: Assignment, faces):
    for face in faces:
        if face not in a.vectors:
            raise SheafcalcError(f"assignment is partial: no value at {face}")
    _check_lengths(s, a)


def _check_lengths(s: CellularSheaf, a: Assignment):
    for face, vec in a.vectors.items():
        if face not in s.base.faces:
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
        mat = _attachment(s, sigma, tau)
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


def _vertex_system(s: CellularSheaf, seed: Assignment, offsets, total, delta0):
    """The extension problem as sparse int rows of [A | b] over
    concatenated vertex stalks, b in column ``total``, grouped by face in
    face order: (face, rows).

    An edge contributes its degree-zero coboundary rows, which vanish on
    a global section; a seeded face contributes its value written
    through its first vertex.
    """
    edge_rows = delta0._int_rows  # edge blocks in face order; never mutated
    groups = []
    at = 0
    for face in s.base.all_faces():
        rows = []
        if len(face) == 2:
            rows.extend(edge_rows[at:at + s.stalk_dim[face]])
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
    per face and no composite matrix.  Values are carried as stored
    entries, and the assignment makes them Fractions.
    """
    vertex_data = tuple(map(_stored, vertex_data))
    vectors = {}
    for face in s.base.all_faces():
        if len(face) == 1:
            at = offsets[face]
            vectors[face] = vertex_data[at:at + s.stalk_dim[face]]
        else:
            facet = face[:-1]
            vectors[face] = _image(s.restriction[(facet, face)], vectors[facet])
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
    when only the combination is.  A face with a value tests each new
    constraint by one matrix-vector product at that value; a face
    without one adds it to its own running reduction.  If none dies, the
    blame goes to the first face whose rows made the global system
    inconsistent, with the same two kinds for its rows alone.
    """
    deltas = _require_valid(s)
    _check_lengths(s, seed)

    offsets, total = _layout(s, 0)
    reduced = {}
    for face, rows in _vertex_system(s, seed, offsets, total, deltas[0]):
        if not _consistent(reduced, rows, total):
            return _localize_obstruction(s, seed, face, rows, total)

    return ExtendResult(result=_spread(s, offsets, _particular(reduced, total)))


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

    # A face with a value has exactly one solution, so a new constraint
    # holds there iff the value satisfies it: one matrix-vector product.
    # A face without one keeps a running reduction of its constraints
    # [A | b], b in column dim: inconsistent once b is a pivot,
    # determined once there are dim pivots, and then the value is the b
    # column.  An upward constraint to a face whose reduction is still
    # empty is that face's value.
    value = {g: tuple(map(_stored, seed[g])) for g in faces if g in seed.vectors}
    reduced = {g: {} for g in faces}
    queue = deque(value)

    while queue:
        g = queue.popleft()
        xg = value[g]
        for n in neighbors[g]:
            up = len(n) > len(g)
            if n in value:
                holds = (_image(s.restriction[(g, n)], xg) == value[n] if up
                         else _image(s.restriction[(n, g)], value[n]) == xg)
            elif up and not reduced[n]:
                value[n] = _image(s.restriction[(g, n)], xg)
                queue.append(n)
                continue
            else:
                dim = s.stalk_dim[n]
                holds = _consistent(reduced[n], _constraint(s, g, n, xg), dim)
                if holds and len(reduced[n]) == dim:
                    value[n] = tuple(map(_stored, _particular(reduced[n], dim)))
                    queue.append(n)
            if not holds:
                if not _consistent({}, _constraint(s, g, n, xg), s.stalk_dim[n]):
                    kind = "no-consistent-value"
                    detail = (f"constraints at {face_name(s.base, n)} from "
                              f"{face_name(s.base, g)} admit no solution")
                else:
                    kind = "conflicting-values"
                    detail = f"{face_name(s.base, n)} is forced two different ways"
                return ExtendResult(
                    obstruction=n, kind=kind, detail=detail,
                    propagated=Assignment(dict(value)))

    # No face collected an inconsistent system from determined neighbors:
    # blame the face whose rows made the global system inconsistent.
    alone_ok = _consistent({}, swept_rows, total)
    return ExtendResult(
        obstruction=swept,
        kind="conflicting-values" if alone_ok else "no-consistent-value",
        detail=f"constraints through {face_name(s.base, swept)} close off "
               f"the remaining solutions",
        propagated=Assignment(dict(value)))


def _constraint(s: CellularSheaf, g, n, xg) -> list:
    """Rows of [A | b], b in column dim(n), of the constraint that the
    value ``xg`` at g puts on its neighbour n: a value above is forced
    outright, and a value below must map onto ``xg``."""
    if len(n) > len(g):
        return _augmented(RationalMatrix.identity(s.stalk_dim[n]),
                          _image(s.restriction[(g, n)], xg))
    return _augmented(s.restriction[(n, g)], xg)


def global_section_space(s: CellularSheaf) -> SectionSpace:
    """Kernel of the degree-zero coboundary, spread over all faces.

    Each kernel vector is vertex data; values on higher faces follow
    uniquely through the restriction maps.
    """
    delta0 = _require_valid(s)[0]
    offsets, total = _layout(s, 0)
    kernel = _kernel(_rref(_reduced(delta0)), total)
    basis = tuple(_spread(s, offsets, vec) for vec in kernel)
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
        left = _attachment(f, *pair)
        right = _attachment(g, *pair)
        restriction[pair] = block_assemble(
            {(0, 0): left, (1, 1): right},
            (left.rows, right.rows), (left.cols, right.cols))
    return CellularSheaf(f.base, dims, restriction, f.variance)


def _check_face_map(base: SimplicialComplex, f: dict, image, map_name, image_name):
    """``f`` sends every face of ``base`` to a face of ``image`` and keeps
    the face order; refusals call the two ``map_name`` and ``image_name``."""
    for face in base.all_faces():
        if face not in f:
            raise SheafcalcError(f"{map_name} misses {face}")
        if not image.has_face(f[face]):
            raise SheafcalcError(f"{map_name} leaves the {image_name} at {face}")
    for sigma, tau in covering_pairs(base):
        if not set(f[sigma]) <= set(f[tau]):
            raise SheafcalcError(
                f"{map_name} is not order-preserving at {sigma} < {tau}")


def pullback(base: SimplicialComplex, f: dict, s: CellularSheaf) -> CellularSheaf:
    """Reindex a sheaf through an order-preserving face map into its base."""
    _check_face_map(base, f, s.base, "face map", "target complex")
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
        _check_face_map(self.target.base, self.cell_map, self.source.base,
                        "cell map", "source")
        for face in self.target.base.all_faces():
            comp = self.components.get(face)
            if comp is None:
                raise SheafcalcError(f"no component at {face}")
            want = (self.target.stalk_dim[face],
                    self.source.stalk_dim[self.cell_map[face]])
            if (comp.rows, comp.cols) != want:
                raise SheafcalcError(
                    f"component at {face} is {comp.rows}x{comp.cols}, not {want}")


def check_morphism(m: SheafMorphism) -> MorphismReport:
    """Verify every commuting square and the induced map on sections."""
    failing = []
    for sigma, tau in covering_pairs(m.target.base):
        lhs = _attachment(m.target, sigma, tau) @ m.components[sigma]
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
