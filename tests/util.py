"""Shared test helpers: random structure generators with explicit rngs."""

from itertools import combinations, combinations_with_replacement, permutations

from sheafcalc.errors import SheafcalcError
from sheafcalc.modal import (
    ENUMERATION_LIMIT, DirectedMultigraph, ModalTrace, Subgraph)
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

    from sheafcalc.cohomology import _face_of

    full = _face_of(m, m.variables)
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

    from sheafcalc.cohomology import _face_of

    full = _face_of(m, m.variables)
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
    """Every closed subgraph, for exhaustive lattice sweeps."""
    if len(g.vertices) > ENUMERATION_LIMIT or len(g.edges) > ENUMERATION_LIMIT:
        raise SheafcalcError(
            f"subgraph enumeration capped at {ENUMERATION_LIMIT} "
            "vertices/edges")
    verts = list(g.vertices)
    out = []
    for vmask in range(1 << len(verts)):
        vs = frozenset(v for i, v in enumerate(verts) if vmask >> i & 1)
        eligible = [e for e, (s, d) in sorted(g.edges.items())
                    if s in vs and d in vs]
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
# per cover and one cover per open, kept verbatim: locality compares
# every pair of target sections, gluing rescans every target section for
# each matching family, and is_sheaf walks every irredundant cover.

def slow_sheaf_check(p, cover, target):
    """Test locality and gluing for one cover of one open.

    The cover must be a family of opens whose union is the target open;
    anything else is a usage error, not a sheaf failure.
    """
    from sheafcalc.finsheaf import (
        SheafCondition, _ordered, matching_families, restrict)

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
