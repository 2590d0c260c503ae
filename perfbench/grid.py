"""grid-cohomology: library calls on triangulated n x n grids.

Each grid comes whole and with one square removed (its two triangles
and its diagonal), which leaves a hole: homology (1, 0, 0) becomes
(1, 1, 0), so the answers are not all zeros.  Every complex carries two
sheaves:

* the constant sheaf Q^1;
* a random rational sheaf with stalk Q^2 and maps A_tau A_sigma^-1 for
  random diagonal A_f.  It is isomorphic to the constant sheaf Q^2, so
  its cohomology is twice the homology, but its entries are not +-1 and
  elimination has to carry growing fractions.

Every answer is known by construction: the global sections are exactly
f -> A_f c, so a one-vertex seed fixes c and the whole extension, and
two vertex seeds built from different c must conflict.
"""

from __future__ import annotations

import random
from fractions import Fraction

from common import Op, first_failure

SIZES = {"full": (3, 4), "small": (2,)}
MIN_ROUNDS = 3


def _label(i, j):
    return f"v{i:02d}{j:02d}"


def grid_faces(n, hole=None, label=_label):
    """Maximal faces of the triangulated n x n grid; ``hole`` names a
    square (row, column) whose triangles and diagonal are left out.
    ``label(i, j)`` must sort in row-major order."""
    faces = []
    for i in range(n + 1):
        for j in range(n):
            faces.append((label(i, j), label(i, j + 1)))
            faces.append((label(j, i), label(j + 1, i)))
    for i in range(n):
        for j in range(n):
            if (i, j) == hole:
                continue
            a, b = label(i, j), label(i, j + 1)
            c, d = label(i + 1, j), label(i + 1, j + 1)
            faces += [(a, b, d), (a, c, d)]
    return faces


def _small_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def diagonal_sheaf(lib, base, rng, dim):
    """Maps A_tau A_sigma^-1 for random diagonal A; returns the sheaf and
    the per-face diagonals.  dim 1 with A = 1 is the constant sheaf."""
    if dim == 1:
        scale = {f: (Fraction(1),) for f in base.all_faces()}
    else:
        scale = {f: tuple(_small_rational(rng) for _ in range(dim))
                 for f in base.all_faces()}
    maps = {}
    for sigma, tau in lib.cellsheaf.covering_pairs(base):
        entries = [Fraction(0)] * (dim * dim)
        for k in range(dim):
            entries[k * dim + k] = scale[tau][k] / scale[sigma][k]
        maps[(sigma, tau)] = lib.rationals.RationalMatrix(dim, dim, entries)
    sheaf = lib.cellsheaf.CellularSheaf(
        base, {f: dim for f in base.all_faces()}, maps)
    return sheaf, scale


def _section(scale, c):
    return {f: tuple(a * x for a, x in zip(diag, c)) for f, diag in scale.items()}


def _sheaf_ops(lib, rng, tag, n, base, dims, sheaf, scale):
    cs = lib.cellsheaf
    dim = sheaf.stalk_dim[base.all_faces()[0]]
    want_h = tuple(dim * h for h in dims)
    vertices = base.k_faces(0)
    c = tuple(_small_rational(rng) for _ in range(dim))
    section = _section(scale, c)
    v = rng.choice(vertices)
    seed_ok = cs.Assignment({v: section[v]})
    # opposite corners, so the obstruction search crosses the grid
    u, w = rng.choice(((vertices[0], vertices[-1]),
                       ((_label(0, n),), (_label(n, 0),))))
    other = _section(scale, (c[0] + 1,) + c[1:])
    seed_bad = cs.Assignment({u: section[u], w: other[w]})
    faces = set(base.faces)

    def check_dims(got):
        return None if tuple(got) == want_h else f"got {tuple(got)}, want {want_h}"

    def check_space(space):
        return first_failure(
            [(space.dimension == want_h[0],
              f"dimension {space.dimension}, want {want_h[0]}")]
            + [(cs.is_global_section(sheaf, a).ok, "basis vector is not a section")
               for a in space.basis])

    def check_ok(out):
        if not out.ok:
            return f"obstructed at {out.obstruction}"
        return first_failure([
            (cs.is_global_section(sheaf, out.result).ok, "not a global section"),
            (out.result.vectors == section, "differs from the section A_f c"),
        ])

    def check_bad(out):
        return first_failure([
            (not out.ok, "conflicting seed extended"),
            (out.obstruction in faces, f"obstruction {out.obstruction} is no face"),
            (out.kind == "conflicting-values", f"kind {out.kind}"),
        ])

    return [
        Op("cohomology_dims", tag,
           lambda: lib.cohomology.cohomology_dims(sheaf), check_dims),
        Op("global_section_space", tag,
           lambda: lib.cellsheaf.global_section_space(sheaf), check_space),
        Op("extend_ok", tag,
           lambda: lib.cellsheaf.extend(sheaf, seed_ok), check_ok),
        Op("extend_conflict", tag,
           lambda: lib.cellsheaf.extend(sheaf, seed_bad), check_bad),
    ]


def build(lib, seed, scale, workdir):
    rng = random.Random(seed)
    ops = []
    for n in SIZES[scale]:
        # a central square: holes elsewhere change the work from seed to seed
        middle = (n - 1) // 2
        hole = (middle + rng.randrange(2 - n % 2), middle + rng.randrange(2 - n % 2))
        for holed in (False, True):
            base = lib.complexes.validate_complex(
                grid_faces(n, hole if holed else None))
            dims = (1, 1, 0) if holed else (1, 0, 0)
            name = f"{n}x{n}{'-holed' if holed else ''}"

            def check_h(got, dims=dims):
                return None if tuple(got) == dims else f"got {got}, want {dims}"

            ops.append(Op("homology_dims", name,
                          lambda base=base: lib.complexes.homology_dims(base),
                          check_h))
            for dim in (1, 2):
                sheaf, diag = diagonal_sheaf(lib, base, rng, dim)
                ops += _sheaf_ops(lib, rng, f"Q{dim} {name}", n, base, dims,
                                  sheaf, diag)
    return ops, None
