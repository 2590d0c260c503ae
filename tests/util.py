"""Shared test helpers: random structure generators with explicit rngs."""

from sheafcalc.poset import FinitePoset, validate_poset


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


def poset_from_edges(labels, edges) -> FinitePoset:
    return validate_poset(labels, edges)


def base_complex():
    """The 6-vertex, 9-edge complex with one triangle used across the
    sheaf and cohomology fixtures."""
    from sheafcalc.complexes import validate_complex
    return validate_complex(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "d"), ("c", "e"), ("d", "e"), ("e", "f"),
         ("c", "d", "e")])


def random_complex(rng, max_faces=8, vertex_pool="abcdef"):
    """Closure-completion of up to max_faces random simplices."""
    from sheafcalc.complexes import validate_complex
    n_seeds = rng.randint(1, max_faces)
    faces = []
    for _ in range(n_seeds):
        size = rng.randint(1, 3)
        face = tuple(sorted(rng.sample(vertex_pool, size)))
        faces.append(face)
    return validate_complex(faces)


def grid_complex(n, hole=None):
    """Triangulated n x n grid, each unit square cut along its diagonal;
    ``hole`` names a square (row, column) whose two triangles and
    diagonal are left out, which adds one loop to the homology."""
    from sheafcalc.complexes import validate_complex

    def label(i, j):
        return f"v{i:02d}{j:02d}"  # sorts in row-major order

    faces = []
    for i in range(n + 1):
        for j in range(n):
            faces.append((label(i, j), label(i, j + 1)))
            faces.append((label(j, i), label(j + 1, i)))
    for i in range(n):
        for j in range(n):
            if (i, j) != hole:
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


# ------------------------------------------------------------- scan oracles
# The index-space scans that validate_poset, downset_family and ncolor
# replaced, kept verbatim (the downset scan without its element cap).

def matrix_closure_poset(elements, pairs):
    """Close the relation reflexively and transitively, then check
    antisymmetry.  Raises OrderViolation naming a 2-cycle on failure.
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
    return FinitePoset(elements, closed)


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


def combination_subgraphs(vertices, edges):
    """label -> (vertices, edges) for every connected subgraph: the single
    vertices, then every edge subset that spans a connected graph."""
    from itertools import combinations

    from sheafcalc.finsheaf import _connected, _subgraph_label

    vertices = sorted(set(vertices))
    edges = sorted({frozenset(e) for e in edges}, key=sorted)
    subgraphs = {}
    for v in vertices:
        subgraphs[_subgraph_label([v], [])] = (frozenset([v]), frozenset())
    for r in range(1, len(edges) + 1):
        for combo in combinations(edges, r):
            vs = frozenset().union(*combo)
            if _connected(vs, combo):
                subgraphs[_subgraph_label(vs, combo)] = (vs, frozenset(combo))
    return subgraphs
