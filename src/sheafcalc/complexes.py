"""Abstract simplicial complexes with exact simplicial homology.

Faces are tuples of vertex labels sorted under one global vertex order
fixed at construction; all matrix layouts list the k-faces in that
order, so signs and ranks are reproducible.  Input faces must already
be sorted; reordering silently would change every sign downstream.
"""

from __future__ import annotations

from itertools import combinations

from ._record import Record, _setattr
from .errors import SheafcalcError
from .poset import FinitePoset
from .rationals import RationalMatrix, _reduced, rational

__all__ = [
    "SimplicialComplex",
    "Chain",
    "validate_complex",
    "face_name",
    "face_poset",
    "open_star",
    "incidence",
    "boundary_matrix",
    "homology_dims",
]


class SimplicialComplex(Record):
    """Vertex order plus a downward-closed set of sorted faces.

    Trusts its caller to hand over distinct vertex labels and nonempty
    faces sorted by that order; build complexes of raw input with
    ``validate_complex``.
    """

    vertex_order: tuple
    faces: frozenset

    def __post_init__(self):
        vertex_order = tuple(self.vertex_order)
        _setattr(self, "vertex_order", vertex_order)
        _setattr(self, "faces", frozenset(tuple(f) for f in self.faces))
        _setattr(self, "_index", {v: i for i, v in enumerate(vertex_order)})
        _setattr(self, "_sorted", None)

    def __repr__(self):
        return (f"SimplicialComplex({len(self.vertex_order)} vertices, "
                f"{len(self.faces)} faces, dim {self.dimension()})")

    def dimension(self) -> int:
        if not self.faces:
            raise SheafcalcError("empty complex has no dimension")
        return max(len(f) for f in self.faces) - 1

    def face_key(self, face):
        return tuple(self._index[v] for v in face)

    def _layers(self) -> tuple:
        """Faces sorted once: the tuple of all faces, then one tuple of
        k-faces per dimension k."""
        if self._sorted is None:
            ordered = tuple(sorted(
                self.faces, key=lambda f: (len(f), self.face_key(f))))
            by_dim = [[] for _ in range(len(ordered[-1]) if ordered else 0)]
            for f in ordered:
                by_dim[len(f) - 1].append(f)
            _setattr(self, "_sorted", (ordered, tuple(map(tuple, by_dim))))
        return self._sorted

    def k_faces(self, k: int) -> tuple:
        """The k-dimensional faces in the fixed order."""
        by_dim = self._layers()[1]
        return by_dim[k] if 0 <= k < len(by_dim) else ()

    def all_faces(self) -> tuple:
        """Every face, by dimension and then in the fixed order."""
        return self._layers()[0]

    def has_face(self, face) -> bool:
        return tuple(face) in self.faces

    def _face(self, vertices) -> tuple:
        """The face on ``vertices``, sorted by the vertex order."""
        return tuple(sorted(set(vertices), key=self._index.__getitem__))


def _known_face(complex_: SimplicialComplex, face) -> tuple:
    """``face`` as a tuple, refused unless the complex has it."""
    face = tuple(face)
    if not complex_.has_face(face):
        raise SheafcalcError(f"{face} not a face")
    return face


class Chain(Record):
    dimension: int
    coefficients: tuple        # sorted (face, Rational) pairs

    @classmethod
    def of(cls, complex_: SimplicialComplex, k: int, coefficients):
        items = []
        for face, value in coefficients.items():
            face = _known_face(complex_, face)
            if len(face) != k + 1:
                raise SheafcalcError(f"{face} is not {k}-dimensional")
            items.append((face, rational(value)))
        items.sort(key=lambda fv: complex_.face_key(fv[0]))
        return cls(k, tuple(items))

    def vector(self, complex_: SimplicialComplex) -> tuple:
        table = dict(self.coefficients)
        return tuple(table.get(f, rational(0))
                     for f in complex_.k_faces(self.dimension))


def validate_complex(faces, vertices=None,
                     strict: bool = False) -> SimplicialComplex:
    """Build a complex, completing the downward closure (default) or
    rejecting input that is not already closed (strict), naming the
    first missing face."""
    faces = [tuple(f) for f in faces]
    for f in faces:
        if not f:
            raise SheafcalcError("empty face")
        if len(set(f)) != len(f):
            raise SheafcalcError(f"duplicate vertices in face {f}")
        for v in f:
            if "," in v or "->" in v:
                raise SheafcalcError(f"vertex label {v!r} uses reserved characters")
    if vertices is None:
        vertices = sorted({v for f in faces for v in f})
    else:
        vertices = list(vertices)
        known = set(vertices)
        if len(known) != len(vertices):
            raise SheafcalcError("duplicate vertex labels")
        for f in faces:
            for v in f:
                if v not in known:
                    raise SheafcalcError(f"face vertex {v!r} not in vertex list")
    index = {v: i for i, v in enumerate(vertices)}
    for f in faces:
        ranks = [index[v] for v in f]
        if ranks != sorted(set(ranks)):
            raise SheafcalcError(f"face {f} is not sorted by the vertex order")
    present = set(faces)
    closed = set(faces)
    for f in faces:
        for size in range(1, len(f)):
            for sub in combinations(f, size):
                if sub not in present:
                    if strict:
                        raise SheafcalcError(
                            f"not closed: {sub} missing under {f}")
                    closed.add(sub)
    return SimplicialComplex(vertices, closed)


def face_name(complex_: SimplicialComplex, face) -> str:
    """Printable face identifier: concatenated when every vertex label
    is one character, comma-joined otherwise."""
    face = _known_face(complex_, face)
    if all(len(v) == 1 for v in complex_.vertex_order):
        return "".join(face)
    return ",".join(face)


def _parse_face_name(complex_: SimplicialComplex, text) -> tuple:
    """The face ``face_name`` prints as ``text``: comma-joined labels, a
    bare vertex label, or concatenated single characters when every
    vertex label is one."""
    if not isinstance(text, str) or not text:
        raise SheafcalcError("face names are nonempty strings")
    vertices = complex_._index
    if "," in text:
        parts = tuple(text.split(","))
    elif text in vertices:
        parts = (text,)
    elif all(len(v) == 1 for v in vertices):
        parts = tuple(text)
    else:
        parts = (text,)
    for v in parts:
        if v not in vertices:
            raise SheafcalcError(f"unknown vertex {v!r} in face {text!r}")
    if complex_.has_face(parts):
        return parts
    if complex_._face(parts) != parts:
        raise SheafcalcError(f"face {text!r} is not sorted by the vertex order")
    raise SheafcalcError(f"unknown face {text!r}")


def face_poset(complex_: SimplicialComplex) -> FinitePoset:
    """Attachment order: a face sits below every face containing it.

    Each face lists its own subfaces: the complex is downward closed and
    its faces are sorted, so these are exactly the faces below it, spelled
    as the complex spells them.
    """
    faces = complex_.all_faces()
    names = {f: face_name(complex_, f) for f in faces}
    if len(set(names.values())) != len(faces):
        raise SheafcalcError("two faces share a name")
    pairs = [(names[a], names[b]) for b in faces
             for k in range(1, len(b) + 1) for a in combinations(b, k)]
    return FinitePoset(names.values(), pairs)


def open_star(complex_: SimplicialComplex, face) -> frozenset:
    face = _known_face(complex_, face)
    return frozenset(f for f in complex_.faces if set(face) <= set(f))


def incidence(complex_: SimplicialComplex, b, a) -> int:
    """[b:a] = 0 unless a arises from b by deleting one vertex, in
    which case the sign alternates with the deleted position."""
    b, a = _known_face(complex_, b), _known_face(complex_, a)
    if len(b) != len(a) + 1:
        raise SheafcalcError("incidence needs a dimension gap of one")
    return next((sign for facet, sign in _signed_facets(b) if facet == a), 0)


def _signed_facets(face):
    """(facet, [face:facet]) for every facet of `face`: deleting the
    vertex at position i gives sign (-1)^i.  The nonzero incidence
    numbers, without the quadratic search over all pairs."""
    for i in range(len(face)):
        yield face[:i] + face[i + 1:], -1 if i % 2 else 1


def boundary_matrix(complex_: SimplicialComplex, k: int) -> RationalMatrix:
    if not 1 <= k <= complex_.dimension():
        raise SheafcalcError(f"no boundary map in degree {k}")
    rows = complex_.k_faces(k - 1)
    cols = complex_.k_faces(k)
    row_of = {a: i for i, a in enumerate(rows)}
    sparse = tuple({} for _ in rows)
    for j, b in enumerate(cols):
        for a, sign in _signed_facets(b):
            if a in row_of:
                sparse[row_of[a]][j] = sign
    return RationalMatrix._from_ints(len(rows), len(cols), (1,) * len(rows), sparse)


def homology_dims(complex_: SimplicialComplex):
    """dim H_k = dim C_k - rank d_k - rank d_{k+1} for k = 0..dim; d_0
    and d_{dim+1} are zero maps."""
    dim = complex_.dimension()
    # rank d_k, read off its transpose: one row per k-face, with k + 1
    # nonzeros each, which reduces faster on grids than d_k's rows
    ranks = [0] + [len(_reduced(boundary_matrix(complex_, k).transpose()))
                   for k in range(1, dim + 1)] + [0]
    return [len(complex_.k_faces(k)) - ranks[k] - ranks[k + 1]
            for k in range(dim + 1)]
