"""Shared test helpers: random structure generators with explicit rngs."""

from itertools import (
    combinations, combinations_with_replacement, permutations, product)

from sheafcalc import modal
from sheafcalc.errors import SheafcalcError
from sheafcalc.modal import DirectedMultigraph, ModalTrace, Subgraph
from sheafcalc.poset import FinitePoset, validate_poset


def under_hash_seeds(source, seeds=range(6)) -> set:
    """The stdouts of ``python -c source`` under each string-hash seed,
    importing sheafcalc from this checkout; one element when the output
    does not depend on set order."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for seed in seeds:
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        outs.add(subprocess.run([sys.executable, "-c", source], env=env, check=True,
                                capture_output=True, text=True).stdout)
    return outs


def random_poset(rng, max_elements=6, edge_prob=0.4) -> FinitePoset:
    """Poset from a random DAG: edges only point from lower to higher
    index, so acyclicity (hence antisymmetry) holds by construction."""
    n = rng.randint(1, max_elements)
    labels = [f"p{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                pairs.append((labels[i], labels[j]))
    return validate_poset(labels, pairs)


def base_complex():
    """The 6-vertex, 9-edge complex with one triangle used across the
    sheaf and cohomology fixtures."""
    from sheafcalc.complexes import validate_complex
    return validate_complex(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "d"), ("c", "e"), ("d", "e"), ("e", "f"),
         ("c", "d", "e")])


def random_complex(rng, max_faces=8, vertex_pool="abcdef", max_size=3):
    """Closure-completion of up to max_faces random simplices of at most
    max_size vertices each."""
    from sheafcalc.complexes import validate_complex
    n_seeds = rng.randint(1, max_faces)
    faces = []
    for _ in range(n_seeds):
        size = rng.randint(1, max_size)
        face = tuple(sorted(rng.sample(vertex_pool, size)))
        faces.append(face)
    return validate_complex(faces)


def grid_complex(n, holes=()):
    """Triangulated n x n grid, each unit square cut along its diagonal;
    each of ``holes`` names a square (row, column) whose two triangles
    and diagonal are left out, which adds one loop to the homology."""
    from sheafcalc.complexes import validate_complex

    width = 2 if n < 100 else len(str(n))  # two digits up to n = 99, as ever

    def label(i, j):
        return f"v{i:0{width}d}{j:0{width}d}"  # sorts in row-major order

    faces = []
    for i in range(n + 1):
        for j in range(n):
            faces.append((label(i, j), label(i, j + 1)))
            faces.append((label(j, i), label(j + 1, i)))
    for i in range(n):
        for j in range(n):
            if (i, j) not in holes:
                a, b = label(i, j), label(i, j + 1)
                c, d = label(i + 1, j), label(i + 1, j + 1)
                faces += [(a, b, d), (a, c, d)]
    return validate_complex(faces)


def union_find_components(complex_) -> int:
    """Independent H_0 oracle over the 1-skeleton."""
    parent = {v: v for (v,) in complex_.k_faces(0)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v) in complex_.k_faces(1):
        parent[find(u)] = find(v)
    return len({find(v) for v in parent})


WINDOW = tuple(range(-2, 3))


def two_point_space():
    from sheafcalc.poset import validate_topology
    return validate_topology("pq", [(), ("p",), ("q",), ("p", "q")])


def _constant_section_presheaf(topology, window=WINDOW):
    """Same stalk everywhere, identity restrictions (presheaf P)."""
    from sheafcalc.finsheaf import FinitePresheaf
    stalk = {u: frozenset(window) for u in topology.opens}
    restriction = {}
    for u in topology.opens:
        for v in topology.opens:
            if v <= u:
                restriction[(u, v)] = {s: s for s in window}
    return FinitePresheaf(topology, stalk, restriction)


def presheaf_p():
    """Identity restrictions everywhere, even into the empty open."""
    return _constant_section_presheaf(two_point_space())


def presheaf_g():
    """Terminal stalk over the empty open, identities elsewhere."""
    from sheafcalc.finsheaf import FinitePresheaf
    topo = two_point_space()
    empty = frozenset()
    stalk = {u: frozenset(["*"]) if u == empty else frozenset(WINDOW)
             for u in topo.opens}
    restriction = {}
    for u in topo.opens:
        for v in topo.opens:
            if not v <= u:
                continue
            if v == empty:
                restriction[(u, v)] = {s: "*" for s in stalk[u]}
            else:
                restriction[(u, v)] = {s: s for s in stalk[u]}
    return FinitePresheaf(topo, stalk, restriction)


def presheaf_h():
    """Pairs over the whole space, coordinate projections downward."""
    from sheafcalc.finsheaf import FinitePresheaf
    topo = two_point_space()
    empty, p, q = frozenset(), frozenset("p"), frozenset("q")
    pq = frozenset("pq")
    stalk = {
        empty: frozenset(["*"]),
        p: frozenset(WINDOW),
        q: frozenset(WINDOW),
        pq: frozenset((m, n) for m in WINDOW for n in WINDOW),
    }
    restriction = {
        (pq, pq): {s: s for s in stalk[pq]},
        (pq, p): {(m, n): m for (m, n) in stalk[pq]},
        (pq, q): {(m, n): n for (m, n) in stalk[pq]},
        (pq, empty): {s: "*" for s in stalk[pq]},
        (p, p): {s: s for s in WINDOW},
        (p, empty): {s: "*" for s in WINDOW},
        (q, q): {s: s for s in WINDOW},
        (q, empty): {s: "*" for s in WINDOW},
        (empty, empty): {"*": "*"},
    }
    return FinitePresheaf(topo, stalk, restriction)


def _mat(rows):
    from sheafcalc.rationals import RationalMatrix
    return RationalMatrix.from_rows(rows)


RUNNING_STALK_DIMS = {
    ("a",): 2, ("b",): 3, ("c",): 2, ("d",): 1, ("e",): 3, ("f",): 3,
    ("a", "b"): 2, ("a", "c"): 2, ("a", "d"): 1, ("b", "c"): 1,
    ("b", "d"): 1, ("c", "d"): 2, ("c", "e"): 2, ("d", "e"): 2,
    ("e", "f"): 2, ("c", "d", "e"): 1,
}


def running_sheaf():
    """The worked 16-face sheaf used across validation, extension and
    cohomology tests.  All 21 attachment maps are pinned."""
    from fractions import Fraction as F

    from sheafcalc.cellsheaf import CellularSheaf

    half = F(1, 2)
    maps = {
        (("a",), ("a", "b")): _mat([[1, 0], [-1, 2]]),
        (("b",), ("a", "b")): _mat([[1, 0, 1], [0, -1, -1]]),
        (("a",), ("a", "c")): _mat([[1, 0], [0, 1]]),
        (("c",), ("a", "c")): _mat([[3, 3], [1, 1]]),
        (("a",), ("a", "d")): _mat([[0, -2]]),
        (("d",), ("a", "d")): _mat([[1]]),
        (("b",), ("b", "c")): _mat([[1, 2, 1]]),
        (("c",), ("b", "c")): _mat([[1, 1]]),
        (("b",), ("b", "d")): _mat([[2, 0, 2]]),
        (("d",), ("b", "d")): _mat([[-3]]),
        (("c",), ("c", "d")): _mat([[-1, -1], [3, 1]]),
        (("d",), ("c", "d")): _mat([[half], [1]]),
        (("c",), ("c", "e")): _mat([[1, -1], [-1, 2]]),
        (("e",), ("c", "e")): _mat([[2, -3, 2], [1, 0, F(15, 2)]]),
        (("d",), ("d", "e")): _mat([[3], [1]]),
        (("e",), ("d", "e")): _mat([[2, 0, 1], [0, 3, -1]]),
        (("e",), ("e", "f")): _mat([[2, 0, 2], [1, -1, 1]]),
        (("f",), ("e", "f")): _mat([[0, 1, 1], [1, -1, 0]]),
        (("c", "d"), ("c", "d", "e")): _mat([[2, 1]]),
        (("c", "e"), ("c", "d", "e")): _mat([[1, 0]]),
        (("d", "e"), ("c", "d", "e")): _mat([[1, -1]]),
    }
    return CellularSheaf(base_complex(), dict(RUNNING_STALK_DIMS), maps)


def constant_sheaf(base, n=1):
    """Stalk Q^n on every face, identity attachments."""
    from sheafcalc.cellsheaf import CellularSheaf, covering_pairs
    from sheafcalc.rationals import RationalMatrix

    dims = {face: n for face in base.all_faces()}
    eye = RationalMatrix.identity(n)
    maps = {pair: eye for pair in covering_pairs(base)}
    return CellularSheaf(base, dims, maps)


def zero_sheaf(base):
    from sheafcalc.cellsheaf import CellularSheaf, covering_pairs
    from sheafcalc.rationals import RationalMatrix

    dims = {face: 0 for face in base.all_faces()}
    maps = {pair: RationalMatrix.zero(0, 0) for pair in covering_pairs(base)}
    return CellularSheaf(base, dims, maps)


def random_unimodular(rng, n, steps=4):
    """A random integer matrix with exact inverse, via elementary row
    additions applied to the identity (inverse ops applied in reverse)."""
    from sheafcalc.rationals import RationalMatrix

    ops = []
    for _ in range(steps if n > 1 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i != j:
            ops.append((i, j, rng.randint(-2, 2)))

    def build(sequence):
        rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        for i, j, c in sequence:
            rows[j] = [rows[j][k] + c * rows[i][k] for k in range(n)]
        return RationalMatrix.from_rows(rows, cols=n)

    forward = build(ops)
    backward = build([(i, j, -c) for (i, j, c) in reversed(ops)])
    return forward, backward


def random_valid_sheaf(rng, base):
    """Path independence by construction: vertex-supported block
    inclusions conjugated by random invertible matrices per face.

    Each vertex contributes 0 or 1 coordinates; the stalk at a face is
    the sum over its vertices, and the raw attachment map includes the
    smaller face's blocks into the bigger one.  Those squares commute on
    the nose, and conjugation preserves that.
    """
    from fractions import Fraction

    from sheafcalc.cellsheaf import CellularSheaf, covering_pairs
    from sheafcalc.rationals import RationalMatrix

    weight = {v: rng.randint(0, 1) for (v,) in base.k_faces(0)}
    dims = {face: sum(weight[v] for v in face) for face in base.all_faces()}

    def offsets(face):
        out = {}
        at = 0
        for v in face:
            out[v] = at
            at += weight[v]
        return out

    twist = {}
    for face in base.all_faces():
        twist[face] = random_unimodular(rng, dims[face])

    maps = {}
    for sigma, tau in covering_pairs(base):
        rows = [[Fraction(0)] * dims[sigma] for _ in range(dims[tau])]
        down, up = offsets(sigma), offsets(tau)
        for v in sigma:
            for k in range(weight[v]):
                rows[up[v] + k][down[v] + k] = Fraction(1)
        raw = RationalMatrix.from_rows(rows, cols=dims[sigma])
        maps[(sigma, tau)] = twist[tau][0] @ raw @ twist[sigma][1]
    return CellularSheaf(base, dims, maps)


def sprinkler():
    """Three binary variables in a wet-grass chain: rain feeds both the
    sprinkler policy and the grass, so marginals must be reconstructed
    through two different routes."""
    from fractions import Fraction as f

    from sheafcalc.cohomology import BayesModel
    return BayesModel(
        variables=("W", "S", "R"),
        outcomes={"W": ("w", "~w"), "S": ("s", "~s"), "R": ("r", "~r")},
        parents={"W": ("S", "R"), "S": ("R",), "R": ()},
        cpt={
            "R": ((f(1, 5), f(4, 5)),),
            "S": ((f(1, 100), f(99, 100)), (f(2, 5), f(3, 5))),
            "W": ((f(99, 100), f(1, 100)), (f(9, 10), f(1, 10)),
                  (f(4, 5), f(1, 5)), (f(0), f(1))),
        })


def binary_chain(n):
    """X0 -> X1 -> ... -> X(n-1) over binary outcomes, no zero entries."""
    from fractions import Fraction as f

    from sheafcalc.cohomology import BayesModel
    names = tuple(f"X{i}" for i in range(n))
    step = ((f(1, 3), f(2, 3)), (f(3, 4), f(1, 4)))
    return BayesModel(
        variables=names,
        outcomes={v: ("0", "1") for v in names},
        parents={v: (names[i - 1],) if i else ()
                 for i, v in enumerate(names)},
        cpt={v: step if i else ((f(1, 2), f(1, 2)),)
             for i, v in enumerate(names)})


def random_bayes_model(rng, n_variables=(1, 4), n_outcomes=(1, 3)):
    """Variables V0.. with at most two parents each, added along a random
    order unrelated to the declaration order; every CPT entry is
    positive."""
    from fractions import Fraction

    from sheafcalc.cohomology import BayesModel
    names = [f"V{i}" for i in range(rng.randint(*n_variables))]
    order = rng.sample(names, len(names))
    outcomes = {v: tuple(f"o{j}" for j in range(rng.randint(*n_outcomes)))
                for v in names}
    parents, cpt = {}, {}
    for k, v in enumerate(order):
        parents[v] = tuple(rng.sample(order[:k], min(k, rng.randint(0, 2))))
        rows = 1
        for p in parents[v]:
            rows *= len(outcomes[p])
        table = []
        for _ in range(rows):
            weights = [rng.randint(1, 4) for _ in outcomes[v]]
            table.append(tuple(Fraction(w, sum(weights)) for w in weights))
        cpt[v] = tuple(table)
    return BayesModel(tuple(names), outcomes, parents, cpt)


def random_copresheaf(rng, poset):
    """Random functor on a poset: random stalks of size 1..3, maps built
    on covering relations and composed along lexicographically smallest
    chains.  Composition can break path independence on diamonds, so the
    result is validated; constant maps are the always-valid fallback."""
    from sheafcalc.finsheaf import Copresheaf, validate_copresheaf

    elems = poset.elements
    covers = []
    for x in elems:
        for y in elems:
            if x == y or not poset.leq(x, y):
                continue
            if any(z not in (x, y) and poset.leq(x, z) and poset.leq(z, y)
                   for z in elems):
                continue
            covers.append((x, y))

    for _ in range(64):
        stalk = {x: frozenset(range(rng.randint(1, 3))) for x in elems}
        step = {(x, y): {s: rng.choice(sorted(stalk[y])) for s in stalk[x]}
                for (x, y) in covers}

        def chain_map(x, y):
            if x == y:
                return {s: s for s in stalk[x]}
            best = None
            for (a, b) in covers:
                if a == x and poset.leq(b, y):
                    tail = chain_map(b, y)
                    candidate = {s: tail[step[(a, b)][s]] for s in stalk[x]}
                    if best is None or (b, tuple(sorted(candidate.items()))) < best[0]:
                        best = ((b, tuple(sorted(candidate.items()))), candidate)
            assert best is not None
            return best[1]

        action = {(x, y): chain_map(x, y)
                  for x in elems for y in elems if poset.leq(x, y)}
        functor = Copresheaf(poset, stalk, action)
        if validate_copresheaf(functor).ok:
            return functor

    stalk = {x: frozenset(range(rng.randint(1, 3))) for x in elems}
    action = {}
    for x in elems:
        for y in elems:
            if not poset.leq(x, y):
                continue
            if x == y:
                action[(x, y)] = {s: s for s in stalk[x]}
            else:
                bottom = min(stalk[y])
                action[(x, y)] = {s: bottom for s in stalk[x]}
    return Copresheaf(poset, stalk, action)


# ------------------------------------------------------------ dense oracles
# The dense loops that rationals.matmul and rationals.decompose replaced,
# kept verbatim: every Fraction cell takes part, zeros included.

def dense_matmul(a, b):
    """Exact product; (m x 0) @ (0 x n) is the m x n zero matrix."""
    from fractions import Fraction

    from sheafcalc.rationals import RationalMatrix

    assert a.cols == b.rows, f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}"
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            out.append(sum((arow[k] * b.data[k * b.cols + j] for k in range(a.cols)),
                           start=Fraction(0)))
    return RationalMatrix(a.rows, b.cols, out)


def dense_decompose(m):
    """Gauss-Jordan over Q: rank, kernel basis, image basis (pivot columns
    of the original matrix), the reduced row echelon form and its pivot
    columns."""
    from fractions import Fraction

    from sheafcalc.rationals import MatrixDecomposition, RationalMatrix

    work = m.row_lists()
    rows, cols = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        pivot_row = None
        for r in range(pr, rows):
            if work[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        pv = work[pr][pc]
        work[pr] = [x / pv for x in work[pr]]
        for r in range(rows):
            if r != pr and work[r][pc] != 0:
                f = work[r][pc]
                work[r] = [a - f * b for a, b in zip(work[r], work[pr])]
        pivots.append(pc)
        pr += 1

    pivot_set = set(pivots)
    kernel = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][fc]
        kernel.append(tuple(v))

    image = tuple(m.column(pc) for pc in pivots)
    rref = RationalMatrix(rows, cols, [x for r in work for x in r])
    return MatrixDecomposition(
        rank=len(pivots),
        kernel_basis=tuple(kernel),
        image_basis=image,
        rref=rref,
        pivots=tuple(pivots))


# --------------------------------------------------------------- rref oracle
# rationals._reduce_row as it was when it kept the reduced row echelon
# form, eliminating each new pivot from every stored row, with the
# kernel, particular solution, decompose and solve read off that form.
# The oracle does its own Fraction arithmetic: it reads the library's
# stored entries, which may be ints, through Fraction, and shares no
# elimination step with the library.

def rref_eliminate(r: dict, f, tail: dict):
    """r -= f * tail on sparse rows of Fractions, dropping entries that
    cancel."""
    for c, x in tail.items():
        v = r.get(c, 0) - f * x
        if v:
            r[c] = v
        else:
            r.pop(c, None)


def rref_reduce_row(reduced: dict, row):
    """Add one sparse row ({column: nonzero}, left unchanged) to
    ``reduced``, {pivot column: rest of its rref row}.  The row is
    reduced against the stored rows; its leftmost remaining nonzero
    becomes a pivot and is eliminated from them, so they stay the unique
    rref of the rows added.  Returns the new pivot column, or None."""
    from fractions import Fraction

    r = {c: Fraction(x) for c, x in row.items()}
    for pc in [c for c in r if c in reduced]:
        rref_eliminate(r, r.pop(pc), reduced[pc])
    if not r:
        return None
    p = min(r)
    pv = r.pop(p)
    r = {c: x / pv for c, x in r.items()}
    for other in reduced.values():
        f = other.pop(p, None)
        if f is not None:
            rref_eliminate(other, f, r)
    reduced[p] = r
    return p


def rref_reduced(m) -> dict:
    """The rref of m's rows as {pivot column: rest of its row}, built
    row by row with ``rref_reduce_row``; its length is the rank of m."""
    reduced = {}
    for row in m._rows:
        if len(reduced) == m.cols:
            break
        rref_reduce_row(reduced, row)
    return reduced


def rref_kernel(reduced: dict, cols: int) -> tuple:
    """The kernel basis of ``rref_reduced``'s result, one vector per free
    column c in increasing order: 1 at c, and minus each reduced row's
    entry in column c at that row's pivot."""
    from fractions import Fraction

    kernel = {c: [Fraction(0)] * cols for c in range(cols) if c not in reduced}
    for c, v in kernel.items():
        v[c] = Fraction(1)
    for pc, rest in reduced.items():
        for c, x in rest.items():
            kernel[c][pc] = -x
    return tuple(map(tuple, kernel.values()))


def rref_particular(reduced: dict, rhs: int) -> tuple:
    """The solution of a consistent reduction with every free variable 0."""
    from fractions import Fraction

    x = [Fraction(0)] * rhs
    for pc, rest in reduced.items():
        x[pc] = rest.get(rhs, Fraction(0))
    return tuple(x)


def rref_decompose(m):
    """Gauss-Jordan over Q: rank, kernel basis, image basis (pivot columns
    of the original matrix), the reduced row echelon form and its pivot
    columns, written out from ``rref_reduced``."""
    from fractions import Fraction

    from sheafcalc.rationals import MatrixDecomposition, RationalMatrix

    rows, cols = m.rows, m.cols
    reduced = rref_reduced(m)
    pivots = sorted(reduced)
    rref = [Fraction(0)] * (rows * cols)
    for i, pc in enumerate(pivots):
        rref[i * cols + pc] = Fraction(1)
        for c, x in reduced[pc].items():
            rref[i * cols + c] = x
    return MatrixDecomposition(
        rank=len(pivots),
        kernel_basis=rref_kernel(reduced, cols),
        image_basis=tuple(m.column(pc) for pc in pivots),
        rref=RationalMatrix(rows, cols, rref),
        pivots=tuple(pivots))


def rref_solve(a, b):
    """A particular exact solution of A x = b, or None if inconsistent."""
    from sheafcalc.rationals import rational

    b = tuple(rational(x) for x in b)
    augmented = [{c: x for c, x in enumerate(a.row(i) + (b[i],)) if x}
                 for i in range(a.rows)]
    reduced = {}
    if not all(rref_reduce_row(reduced, row) != a.cols for row in augmented):
        return None
    return rref_particular(reduced, a.cols)


def random_sparse_matrix(rng, rows, cols, density=0.3, combos=0.3):
    """Entries small fractions, each cell nonzero with ``density``; each
    row after the first is, with probability ``combos``, a combination
    of up to three earlier rows, so the rank falls short of the shape."""
    from fractions import Fraction

    from sheafcalc.rationals import RationalMatrix

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 5))

    grid = []
    for _ in range(rows):
        if grid and rng.random() < combos:
            picks = [(rng.randrange(len(grid)), entry())
                     for _ in range(rng.randint(1, 3))]
            grid.append([sum((f * grid[i][j] for i, f in picks), start=Fraction(0))
                         for j in range(cols)])
        else:
            grid.append([entry() if rng.random() < density else Fraction(0)
                         for _ in range(cols)])
    return RationalMatrix(rows, cols, [x for row in grid for x in row])


def diagonal_grid_sheaf(rng, base, dim):
    """Stalk Q^dim on every face and maps A_tau A_sigma^-1 for a random
    diagonal A_f per face, so the global sections are exactly f -> A_f c;
    dim 1 takes A = 1, the constant sheaf Q^1.  Returns the sheaf and
    each face's diagonal."""
    from fractions import Fraction

    from sheafcalc.cellsheaf import CellularSheaf, covering_pairs
    from sheafcalc.rationals import RationalMatrix

    def small():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    scale = {f: tuple(Fraction(1) if dim == 1 else small() for _ in range(dim))
             for f in base.all_faces()}
    maps = {}
    for sigma, tau in covering_pairs(base):
        entries = [Fraction(0)] * (dim * dim)
        for k in range(dim):
            entries[k * dim + k] = scale[tau][k] / scale[sigma][k]
        maps[(sigma, tau)] = RationalMatrix(dim, dim, entries)
    return CellularSheaf(base, {f: dim for f in base.all_faces()}, maps), scale


# ------------------------------------------------------------- scan oracles
# The index-space scans that validate_poset, downset_family and ncolor
# replaced, kept verbatim (the downset scan without its element cap).

def matrix_closure_poset(elements, pairs, poset_class=FinitePoset):
    """Close the relation reflexively and transitively, then check
    antisymmetry.  Raises OrderViolation naming a 2-cycle on failure.
    The closed pairs are handed to ``poset_class``.
    """
    from sheafcalc.errors import SheafcalcError
    from sheafcalc.poset import OrderViolation

    elements = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for x, y in pairs:
        for e in (x, y):
            if e not in index:
                raise SheafcalcError(f"unknown element {e!r}")
        reach[index[x]][index[y]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if reach[i][j] and reach[j][i]:
                raise OrderViolation(elements[i], elements[j])
    closed = [(elements[i], elements[j])
              for i in range(n) for j in range(n) if reach[i][j]]
    return poset_class(elements, closed)


def mask_downset_family(p):
    """Every down-closed subset, sorted by (size, members)."""
    elems = p.elements
    downs = {e: p.principal_down(e) for e in elems}
    found = []
    for mask in range(1 << len(elems)):
        subset = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        if all(downs[e] <= subset for e in subset):
            found.append(subset)
    found.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return found


# ------------------------------------------------- order and filter oracles
# FinitePoset as it was when it stored its closure as a set of pairs, the
# pixel-scan dilation and erosion, the lambda-built filter lattice and the
# pointwise aspect negation, kept verbatim (the poset without its
# immutability guard and its dunder methods).

class ScanPoset:
    """Every principal set, bound, join and meet rescans the elements."""

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(sorted(elements))
        self._leq = frozenset(leq_pairs)

    def leq(self, x, y) -> bool:
        return (x, y) in self._leq

    def pairs(self):
        """All related pairs (x, y) with x <= y, lexicographic order."""
        return sorted(self._leq)

    def principal_down(self, x) -> frozenset:
        return frozenset(y for y in self.elements if self.leq(y, x))

    def principal_up(self, x) -> frozenset:
        return frozenset(y for y in self.elements if self.leq(x, y))

    def dualize(self) -> "ScanPoset":
        return ScanPoset(self.elements, ((y, x) for x, y in self._leq))

    def upper_bounds(self, subset):
        subset = list(subset)
        return [u for u in self.elements
                if all(self.leq(x, u) for x in subset)]

    def lower_bounds(self, subset):
        subset = list(subset)
        return [l for l in self.elements
                if all(self.leq(l, x) for x in subset)]

    def join(self, subset):
        """Least upper bound, or None if it does not exist."""
        ubs = self.upper_bounds(subset)
        least = [u for u in ubs if all(self.leq(u, v) for v in ubs)]
        return least[0] if least else None

    def meet(self, subset):
        lbs = self.lower_bounds(subset)
        greatest = [l for l in lbs if all(self.leq(m, l) for m in lbs)]
        return greatest[0] if greatest else None

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


def scan_dilate(image, element):
    """Translate every foreground pixel by every offset, dropping the
    targets off the grid."""
    from sheafcalc.morphology import BinaryImage

    out = set()
    for px, py in image.foreground:
        for dx, dy in element.offsets:
            qx, qy = px + dx, py + dy
            if 0 <= qx < image.width and 0 <= qy < image.height:
                out.add((qx, qy))
    return BinaryImage(image.width, image.height, frozenset(out))


def scan_erode(image, element):
    """Keep each grid pixel whose on-grid samples all lie in the
    foreground; off-grid samples are vacuous."""
    from sheafcalc.morphology import BinaryImage

    out = set()
    for px in range(image.width):
        for py in range(image.height):
            if all((px + dx, py + dy) in image.foreground
                   for dx, dy in element.offsets
                   if 0 <= px + dx < image.width
                   and 0 <= py + dy < image.height):
                out.add((px, py))
    return BinaryImage(image.width, image.height, frozenset(out))


def slow_composite_filter_lattice(image, element):
    """Rebuild every composite from scratch, then again for idempotence
    and for closure.  Reads ``opening`` and ``closing`` off the module
    at call time."""
    from sheafcalc import morphology
    from sheafcalc.morphology import CHAIN, FilterLattice

    phi = lambda img: morphology.opening(img, element)
    kappa = lambda img: morphology.closing(img, element)
    composites = {
        "close_open": lambda v: kappa(phi(v)),
        "open_close": lambda v: phi(kappa(v)),
        "open_close_open": lambda v: phi(kappa(phi(v))),
        "close_open_close": lambda v: kappa(phi(kappa(v))),
    }
    values = {"identity": image, "open": phi(image), "close": kappa(image)}
    values.update((name, f(image)) for name, f in composites.items())
    witness = None
    idempotent = True
    for name, f in composites.items():
        if f(values[name]) != values[name]:
            idempotent = False
            witness = witness or ("idempotence", name)
    chain_ok = True
    for lo, hi in CHAIN:
        if not values[lo].issubset(values[hi]):
            chain_ok = False
            witness = witness or ("chain", lo, hi)
    closed = True
    known = set(values.values())
    for name, img in values.items():
        for opname, op in (("open", phi), ("close", kappa)):
            if op(img) not in known:
                closed = False
                witness = witness or ("escape", opname, name)
    return FilterLattice(values, idempotent, chain_ok, closed, witness)


def random_aspect_predicate(rng, max_aspects=6, carrier="uvwxy"):
    """A random truth table on a random poset, made functorial by
    passing truth at each aspect down to all its sub-aspects."""
    from sheafcalc.modal import AspectPredicate

    p = random_poset(rng, max_elements=max_aspects, edge_prob=rng.random())
    carrier = carrier[:rng.randint(0, len(carrier))]
    raw = {a: {x for x in carrier if rng.random() < 0.4} for a in p.elements}
    truth = {a: set().union(*(raw[b] for b in p.principal_up(a)))
             for a in p.elements}
    return AspectPredicate.of(p, carrier, truth)


def pointwise_aspect_neg(pred, which):
    """Test each carrier point against every aspect in the region."""
    from sheafcalc.modal import AspectPredicate

    if which not in ("heyting", "coheyting"):
        raise SheafcalcError(f"unknown negation {which!r}")
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


def pointwise_aspect_modal(pred, which):
    """Diamond is co-Heyting after Heyting, box the other way round."""
    first, second = (("heyting", "coheyting") if which == "diamond"
                     else ("coheyting", "heyting"))
    return pointwise_aspect_neg(pointwise_aspect_neg(pred, first), second)



# ------------------------------------------------- Galois and face oracles
# check_connection and right_adjoint_of as they were when each tested
# every (x, y) pair with leq, the monotonicity witness as it was when it
# tested every related pair, and face_poset's test of every pair of
# faces, kept verbatim.

def scan_check_connection(c):
    from sheafcalc.galois import ConnectionReport
    from sheafcalc.poset import _monotonicity_witness

    p, q = c.source, c.target
    for side, dom, cod, mapping in (("left", p, q, c.left), ("right", q, p, c.right)):
        bad = _monotonicity_witness(dom, cod, mapping)
        if bad is not None:
            return ConnectionReport(False, f"{side}-not-monotone", bad)
    for x in p.elements:
        for y in q.elements:
            if q.leq(c.left[x], y) != p.leq(x, c.right[y]):
                return ConnectionReport(False, "adjunction", (x, y))
    for x in p.elements:
        if not p.leq(x, c.right[c.left[x]]):
            return ConnectionReport(False, "unit", (x,))
    for y in q.elements:
        if not q.leq(c.left[c.right[y]], y):
            return ConnectionReport(False, "counit", (y,))
    return ConnectionReport(True)


def scan_right_adjoint_of(left, source, target):
    """G(q) as the join of every x whose image lies below q, each
    subset found by testing every x."""
    from sheafcalc.galois import AdjointSynthesisError, GaloisConnection
    from sheafcalc.poset import is_monotone

    if not is_monotone(source, target, left):
        raise SheafcalcError("map must be monotone")
    right = {}
    for q in target.elements:
        subset = [x for x in source.elements if target.leq(left[x], q)]
        j = source.join(subset)
        if j is None:
            raise AdjointSynthesisError("no-join", q, subset, None, None)
        if not target.leq(left[j], q):
            raise AdjointSynthesisError(
                "join-not-preserved", q, subset, j, left[j])
        right[q] = j
    report = scan_check_connection(
        GaloisConnection(source, target, dict(left), right))
    assert report.ok, report
    return right


def pair_scan_monotonicity_witness(source, target, mapping):
    """The first x <= y in ``source.pairs()`` mapped out of order, or None."""
    if set(mapping) != set(source.elements):
        raise SheafcalcError("mapping must be total")
    for v in mapping.values():
        if v not in target.elements:
            raise SheafcalcError(f"value {v!r} outside target")
    return next(((x, y) for x, y in source.pairs()
                 if not target.leq(mapping[x], mapping[y])), None)


def pair_scan_face_poset(complex_):
    """Attachment order: a face sits below every face containing it."""
    from sheafcalc.complexes import face_name

    faces = complex_.all_faces()
    names = {f: face_name(complex_, f) for f in faces}
    if len(set(names.values())) != len(faces):
        raise SheafcalcError("two faces share a name")
    pairs = [(names[a], names[b])
             for a in faces for b in faces if set(a) <= set(b)]
    return FinitePoset(names.values(), pairs)

def spans_connected(vertices, edges) -> bool:
    """Grow the vertices reached from the least one by every edge that
    touches them, level by level, until nothing new is reached."""
    vertices = set(vertices)
    if not vertices:
        return False
    reached = {min(vertices)}
    while True:
        grown = reached.union(*(e for e in edges if e & reached))
        if grown == reached:
            return reached == vertices
        reached = grown


def combination_subgraphs(vertices, edges):
    """label -> (vertices, edges) for every connected subgraph: the single
    vertices, then every edge subset that spans a connected graph."""
    from sheafcalc.finsheaf import _subgraph_label

    vertices = sorted(set(vertices))
    edges = sorted({frozenset(e) for e in edges}, key=sorted)
    subgraphs = {}
    for v in vertices:
        subgraphs[_subgraph_label([v], [])] = (frozenset([v]), frozenset())
    for r in range(1, len(edges) + 1):
        for combo in combinations(edges, r):
            vs = frozenset().union(*combo)
            if spans_connected(vs, combo):
                subgraphs[_subgraph_label(vs, combo)] = (vs, frozenset(combo))
    return subgraphs


# ------------------------------------------------------------ route oracle
# The two elimination routes bayes_check compared before it read each
# marginal through composite_map, kept verbatim.

def route_matrix(m, cosheaf, sub, face, reverse):
    """Compose single-step marginalizations, dropping variables in the
    given direction; any two routes must agree."""
    from sheafcalc.rationals import RationalMatrix

    current = face
    out = RationalMatrix.identity(cosheaf.stalk_dim[face])
    extra = [v for v in face if v not in sub]
    if reverse:
        extra = list(reversed(extra))
    for name in extra:
        smaller = tuple(v for v in current if v != name)
        out = cosheaf.restriction[(smaller, current)] @ out
        current = smaller
    return out


# ------------------------------------------------------------ spread oracle
# The per-face composite spread that cellsheaf._spread replaced, kept
# verbatim: each face builds the composite map from its first vertex.

def composite_spread(s, offsets, vertex_data):
    """Vertex data carried to every face through its first vertex."""
    from sheafcalc.cellsheaf import Assignment, composite_map

    vectors = {}
    for face in s.base.all_faces():
        v0 = (face[0],)
        block = vertex_data[offsets[v0]:offsets[v0] + s.stalk_dim[v0]]
        vectors[face] = composite_map(s, v0, face).apply(block)
    return Assignment(vectors)


# ------------------------------------------------------ square-scan oracle
# validate_sheaf as it was before its verdict was read off the products
# of consecutive coboundaries, kept verbatim but for the two helpers it
# called, inlined: every attachment in covering order, then every
# path-independence square compared with two small products.

def scan_validate_sheaf(s, require_complete=True):
    """Dimension check plus every path-independence square, one square at
    a time; with require_complete=False a missing map is skipped."""
    from sheafcalc.cellsheaf import SheafReport, covering_pairs

    def then(first, second):
        return second @ first if s.variance == "sheaf" else first @ second

    for sigma, tau in covering_pairs(s.base):
        mat = s.restriction.get((sigma, tau))
        if mat is None:
            if require_complete:
                return SheafReport(False, "missing-map", (sigma, tau))
            continue
        want = s.expected_shape(sigma, tau)
        if (mat.rows, mat.cols) != want:
            return SheafReport(
                False, "shape", (sigma, tau, (mat.rows, mat.cols), want))

    for tau in s.base.all_faces():
        m = len(tau)
        if m < 3:
            continue
        for i in range(m):
            for j in range(i + 1, m):
                rho = tuple(v for k, v in enumerate(tau) if k not in (i, j))
                mid_a = tau[:j] + tau[j + 1:]
                mid_b = tau[:i] + tau[i + 1:]
                needed = [(rho, mid_a), (mid_a, tau), (rho, mid_b), (mid_b, tau)]
                if any(s.restriction.get(p) is None for p in needed):
                    continue
                route_a = then(s.restriction[(rho, mid_a)],
                               s.restriction[(mid_a, tau)])
                route_b = then(s.restriction[(rho, mid_b)],
                               s.restriction[(mid_b, tau)])
                if route_a != route_b:
                    return SheafReport(
                        False, "path-independence", (rho, mid_a, mid_b, tau))
    return SheafReport(True)


# ------------------------------------------------------ outcome-tuple oracles
# The outcome-tuple helpers that cohomology._outcome_indices replaced,
# kept verbatim, and the Bayes matrices, joint and brute marginal as
# bayes_build and bayes_check built them with these helpers.

def combos(m, face):
    """All outcome assignments over the face, first variable slowest."""
    out = [()]
    for name in face:
        out = [c + (o,) for c in out for o in m.outcomes[name]]
    return out


def index_map(m, face):
    return {combo: i for i, combo in enumerate(combos(m, face))}


def restrict_combo(face, sub, combo):
    pick = {name: value for name, value in zip(face, combo)}
    return tuple(pick[name] for name in sub)


def cpt_value(m, name, own, parent_combo):
    row = 0
    for p, value in zip(m.parents[name], parent_combo):
        row = row * len(m.outcomes[p]) + m.outcomes[p].index(value)
    return m.cpt[name][row][m.outcomes[name].index(own)]


def tuple_marginalize_matrix(m, sub, face):
    """0/1 summation matrix collapsing the face's distribution onto sub."""
    from fractions import Fraction

    from sheafcalc.rationals import RationalMatrix

    sub_index = index_map(m, sub)
    cols = combos(m, face)
    rows = tuple({} for _ in sub_index)
    for j, combo in enumerate(cols):
        rows[sub_index[restrict_combo(face, sub, combo)]][j] = Fraction(1)
    return RationalMatrix._from_sparse(len(rows), len(cols), rows)


def tuple_conditional_matrix(m, small, big):
    """Multiplication by the CPT of the one variable big adds to small."""
    from sheafcalc.rationals import RationalMatrix

    (new,) = set(big) - set(small)
    small_index = index_map(m, small)
    rows = []
    for combo in combos(m, big):
        below = restrict_combo(big, small, combo)
        own = combo[big.index(new)]
        parent_combo = restrict_combo(big, m.parents[new], combo)
        p = cpt_value(m, new, own, parent_combo)
        rows.append({small_index[below]: p} if p else {})
    return RationalMatrix._from_sparse(len(rows), len(small_index), tuple(rows))


def tuple_joint(m):
    """The CPT product at each outcome of the full face."""
    from fractions import Fraction

    full = tuple(m.variables)
    joint = []
    for combo in combos(m, full):
        p = Fraction(1)
        for name, own in zip(full, combo):
            p *= cpt_value(m, name, own,
                           restrict_combo(full, m.parents[name], combo))
        joint.append(p)
    return tuple(joint)


def tuple_brute_marginal(m, face, joint):
    """Marginal by direct summation over outcomes, bypassing the matrices."""
    from fractions import Fraction

    full = tuple(m.variables)
    index = index_map(m, face)
    sums = [Fraction(0)] * len(index)
    for j, combo in enumerate(combos(m, full)):
        sums[index[restrict_combo(full, face, combo)]] += joint[j]
    return tuple(sums)


# ----------------------------------------------------------- modal oracle
# The subgraph lattice operations as they were before DirectedMultigraph
# carried an incidence index, kept verbatim: each one walks the whole
# edge dict in Python on every call.

def slow_heyting_neg(g: DirectedMultigraph, y: Subgraph) -> Subgraph:
    """Largest subgraph disjoint from y: the induced subgraph on the
    complementary vertices (edges needing a y-vertex are discarded)."""
    keep = frozenset(g.vertices) - y.vertices
    edges = frozenset(e for e, (s, d) in g.edges.items()
                      if s in keep and d in keep)
    return Subgraph(keep, edges)


def slow_coheyting_neg(g: DirectedMultigraph, y: Subgraph) -> Subgraph:
    """Smallest subgraph whose join with y restores g: complement edges
    pull in their endpoints, complement vertices come along."""
    edges = frozenset(e for e in g.edges if e not in y.edges)
    verts = set(g.vertices) - set(y.vertices)
    for e in edges:
        s, d = g.edges[e]
        verts.add(s)
        verts.add(d)
    return Subgraph(frozenset(verts), edges)


def slow_modal_iterate(g: DirectedMultigraph, x: Subgraph,
                       which: str) -> ModalTrace:
    """Iterate diamond = co-neg after neg (or box = neg after co-neg)
    to its fixpoint.  Diamond ascends and box descends, so the finite
    lattice forces stabilization; equality of consecutive stages is the
    exact stopping rule."""
    if which not in ("diamond", "box"):
        raise SheafcalcError(f"which must be diamond or box, not {which!r}")
    stages = [x]
    current = x
    while True:
        if which == "diamond":
            nxt = slow_coheyting_neg(g, slow_heyting_neg(g, current))
        else:
            nxt = slow_heyting_neg(g, slow_coheyting_neg(g, current))
        if nxt == current:
            break
        stages.append(nxt)
        current = nxt
    return ModalTrace(tuple(stages), current, len(stages) - 1)


def slow_reach_oracle(g: DirectedMultigraph, x: Subgraph, which: str) -> Subgraph:
    """Independent reachability routes for checking the modal fixpoints:
    plain BFS forward along arrows, or whole weakly-connected components.
    """
    if which not in ("forward-reach", "weak-components"):
        raise SheafcalcError(f"unknown oracle {which!r}")
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


def slow_all_subgraphs(g: DirectedMultigraph):
    """Every closed subgraph, for exhaustive lattice sweeps; refused when
    there are more than 2^ENUMERATION_LIMIT of them, counted before any
    is built: a vertex subset with k edges inside it has 2^k subgraphs,
    so more vertices than the limit are past the cap already."""
    cap = 1 << modal.ENUMERATION_LIMIT
    refusal = SheafcalcError(f"subgraph enumeration capped at {cap} subgraphs")
    verts = list(g.vertices)
    if len(verts) > modal.ENUMERATION_LIMIT:
        raise refusal
    layers = []
    for vmask in range(1 << len(verts)):
        vs = frozenset(v for i, v in enumerate(verts) if vmask >> i & 1)
        layers.append((vs, [e for e, (s, d) in sorted(g.edges.items())
                            if s in vs and d in vs]))
    if sum(1 << len(eligible) for _, eligible in layers) > cap:
        raise refusal
    out = []
    for vs, eligible in layers:
        for emask in range(1 << len(eligible)):
            es = frozenset(e for i, e in enumerate(eligible)
                           if emask >> i & 1)
            out.append(Subgraph(vs, es))
    return out


def multigraphs_up_to(max_vertices=3, max_edges=4):
    """Every directed multigraph on at most max_vertices labelled
    vertices with at most max_edges edges, loops and parallels included:
    a multiset of (source, target) slots of each size."""
    labels = "abc"[:max_vertices]
    for n in range(max_vertices + 1):
        verts = labels[:n]
        slots = [(s, d) for s in verts for d in verts]
        for k in range(max_edges + 1):
            if k > 0 and not slots:
                break
            for combo in combinations_with_replacement(slots, k):
                edges = [(f"e{i}", s, d) for i, (s, d) in enumerate(combo)]
                yield DirectedMultigraph(verts, edges)


def simple_digraph_classes(n=4):
    """Loopless simple digraphs on n vertices, one representative per
    isomorphism class (canonical minimum arc bitmask over S_n)."""
    labels = "abcd"[:n]
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {arc: k for k, arc in enumerate(arcs)}
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(arcs)):
        canon = min(
            sum(1 << index[(p[i], p[j])]
                for k, (i, j) in enumerate(arcs) if mask >> k & 1)
            for p in perms)
        if canon in seen:
            continue
        seen.add(canon)
        edges = [(f"e{k}", labels[i], labels[j])
                 for k, (i, j) in enumerate(arcs) if mask >> k & 1]
        out.append(DirectedMultigraph(labels, edges))
    return out


# ---------------------------------------------------------- sheaf oracle
# The sheaf axioms as finsheaf checked them before one restriction table
# per cover and one cover per open: locality compares every pair of
# target sections, gluing rescans every target section for each matching
# family, and is_sheaf walks every irredundant cover.  The families come
# from a brute product over the members' sections, not from the pruned
# search in finsheaf.

def brute_matching_families(p, cover):
    """Yield every matching family over the cover: the distinct members
    largest first (ties by sorted points), each choice of one section
    per member from the product of their sections sorted by repr, kept
    when every two choices restrict to one section of the overlap."""
    from sheafcalc.finsheaf import MatchingFamily

    members = sorted(set(cover), key=lambda u: (-len(u), tuple(sorted(u))))
    for u in members:
        if not p.topology.is_open(u):
            raise SheafcalcError(f"cover member {sorted(u)} is not open")
    for choice in product(*(sorted(p.stalk[u], key=repr) for u in members)):
        chosen = tuple(zip(members, choice))
        if all(p.restriction[(u, u & v)][s] == p.restriction[(v, u & v)][t]
               for (u, s), (v, t) in combinations(chosen, 2)):
            yield MatchingFamily(tuple(members), chosen)


def slow_sheaf_check(p, cover, target):
    """Test locality and gluing for one cover of one open.

    The cover must be a family of opens whose union is the target open;
    anything else is a usage error, not a sheaf failure.
    """
    from sheafcalc.finsheaf import SheafCondition, _ordered, restrict

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
    for family in brute_matching_families(p, members):
        glued = [s for s in sections
                 if all(restrict(p, target, u, s) == family.section(u)
                        for u in set(members))]
        if not glued:
            gluing = ("fail", family)
            break

    return SheafCondition(locality, gluing)


def slow_is_sheaf(p):
    """Both sheaf axioms over every irredundant cover of every open.

    Redundant covers add no information: dropping a member contained in
    the union of the rest never changes the matching families that
    matter, so checking irredundant covers decides the full condition.
    """
    from sheafcalc.finsheaf import irredundant_covers

    for target in p.topology.opens_sorted():
        for cover in irredundant_covers(p.topology, target):
            if not slow_sheaf_check(p, cover, target).ok:
                return False
    return True


# -------------------------------------------------------- transfer oracles
# The per-open search that poset_transfer's growth from the open one point
# smaller replaced, and the table checks as they tested every pair of
# objects for an arrow inside their loops, kept verbatim.

def slow_compatible_tuples(f, points):
    """All assignments over the given points that the action maps force.

    Points are filled along a linear extension, so each new value is
    either free (no predecessor yet assigned) or forced by every
    assigned predecessor at once.
    """
    from sheafcalc.finsheaf import _ordered

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


def slow_check_tables(objects, arrow, stalk, maps):
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


def slow_functor_laws(objects, arrow, stalk, maps):
    """Identity and composition laws of the tables, scanning objects
    in the given order; returns the first violation found."""
    from sheafcalc.finsheaf import PresheafReport, _ordered

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


def slow_parse_complex(doc, where):
    """``cli._parse_complex`` as it was: every face probed on its own
    before the whole list is validated, so each document pays a
    validation per face plus one for the list."""
    from sheafcalc.cli import InputError, _as_object, _refusing, _string_list
    from sheafcalc.complexes import validate_complex

    obj = _as_object(doc, where, keys={"vertices", "faces"}, required=("faces",))
    vertices = None
    if "vertices" in obj:
        vertices = _string_list(obj["vertices"], f"{where}:vertices",
                                unique="vertex labels")
    faces_doc = obj["faces"]
    if not isinstance(faces_doc, list) or not faces_doc:
        raise InputError("faces must be a nonempty array", f"{where}:faces")
    faces = [tuple(_string_list(f, f"{where}:faces[{i}]"))
             for i, f in enumerate(faces_doc)]
    for i, face in enumerate(faces):
        _refusing(f"{where}:faces[{i}]", validate_complex, [face], vertices=vertices)
    return validate_complex(faces, vertices=vertices)
