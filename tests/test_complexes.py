import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.errors import SheafcalcError
from sheafcalc.complexes import (
    Chain, SimplicialComplex, boundary_matrix, face_name, face_poset,
    homology_dims, incidence, open_star, validate_complex)
from sheafcalc.poset import alexandrov
from sheafcalc.rationals import RationalMatrix, matmul

from util import (
    base_complex, facet_neighbours, facet_pairs, grid_complex,
    pair_scan_face_poset, random_complex, union_find_components)


# ------------------------------------------------------------ validation

def test_closure_completion():
    c = validate_complex([("a", "b", "c")])
    assert c.faces == {("a",), ("b",), ("c",),
                       ("a", "b"), ("a", "c"), ("b", "c"),
                       ("a", "b", "c")}
    assert c.dimension() == 2


def test_strict_mode_names_missing_face():
    with pytest.raises(ValueError, match=r"\('a',\) missing"):
        validate_complex([("a", "b")], strict=True)
    ok = validate_complex([("a",), ("b",), ("a", "b")], strict=True)
    assert ok.dimension() == 1


def test_bad_faces_rejected():
    with pytest.raises(ValueError, match="empty"):
        validate_complex([()])
    with pytest.raises(ValueError, match="duplicate"):
        validate_complex([("a", "a")])
    with pytest.raises(ValueError, match="not sorted"):
        validate_complex([("b", "a")])
    with pytest.raises(ValueError, match="not in vertex list"):
        validate_complex([("a", "z")], vertices=["a", "b"])
    with pytest.raises(ValueError, match="reserved"):
        validate_complex([("a,b",)])


def test_duplicate_vertex_labels_rejected():
    with pytest.raises(ValueError, match="duplicate vertex labels"):
        validate_complex([("a", "b")], vertices=["a", "a", "b"])


def test_explicit_vertex_order_controls_sorting():
    # the vertex list fixes the order; unused names only order, they
    # do not become 0-faces
    c = validate_complex([("w", "r"), ("s",)], vertices=["w", "s", "r"])
    assert c.k_faces(0) == (("w",), ("s",), ("r",))
    assert c.k_faces(1) == (("w", "r"),)
    with pytest.raises(ValueError, match="not sorted"):
        validate_complex([("r", "w")], vertices=["w", "s", "r"])


def test_base_complex_shape():
    c = base_complex()
    assert c.dimension() == 2
    assert len(c.k_faces(0)) == 6
    assert len(c.k_faces(1)) == 9
    assert c.k_faces(2) == (("c", "d", "e"),)


# ------------------------------------------------------------ face poset

def test_face_poset_single_edge():
    c = validate_complex([("a", "b")])
    p = face_poset(c)
    assert set(p.elements) == {"a", "b", "ab"}
    assert p.leq("a", "ab") and p.leq("b", "ab")
    assert not p.leq("a", "b")


def test_up_set_of_cd_and_open_star_of_c():
    c = base_complex()
    p = face_poset(c)
    assert p.principal_up("cd") == {"cd", "cde"}
    star = open_star(c, ("c",))
    assert {face_name(c, f) for f in star} == {
        "c", "ac", "bc", "cd", "ce", "cde"}


def test_alexandrov_up_minimal_opens_are_stars():
    c = base_complex()
    p = face_poset(c)
    topo = alexandrov(p, "up")
    for f in c.all_faces():
        name = face_name(c, f)
        star_names = {face_name(c, g) for g in open_star(c, f)}
        assert topo.minimal_open_containing(name) == star_names


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_face_poset_matches_the_pair_scan(seed):
    c = random_complex(random.Random(seed))
    assert face_poset(c) == pair_scan_face_poset(c)


def test_face_poset_matches_the_pair_scan_on_holed_grids():
    # multi-character vertex labels, so the names are comma-joined
    for n, holes in ((1, ()), (2, [(0, 0)]), (3, [(1, 1)]), (4, [(0, 3), (2, 1)])):
        grid = grid_complex(n, holes=holes)
        assert face_poset(grid) == pair_scan_face_poset(grid)


def test_grid_labels_widen_past_99_and_keep_their_spelling_below():
    # two-digit labels stop sorting row-major past n = 99, where the
    # label widens; below 100 the labels, and every digest of a grid
    # answer, stay as they were
    assert grid_complex(2).vertex_order[:4] == ("v0000", "v0001", "v0002", "v0100")
    assert grid_complex(99).vertex_order[-1] == "v9999"
    grid = grid_complex(100, holes=[(50, 50)])
    assert grid.vertex_order[:2] == ("v000000", "v000001")
    assert grid.vertex_order[-1] == "v100100"
    assert len(grid.k_faces(0)) == 101 * 101
    assert len(grid.k_faces(2)) == 2 * 100 * 100 - 2


def test_face_name_refuses_a_face_the_complex_lacks():
    c = base_complex()
    assert face_name(c, ("c", "d", "e")) == "cde"
    for face in (("zz",), ("b", "a"), ("a", "b", "c")):
        with pytest.raises(SheafcalcError, match=rf"^{re.escape(str(face))} not a face$"):
            face_name(c, face)


# ------------------------------------------------------------- incidence

def test_incidence_signs():
    c = validate_complex([("a", "b", "c"), ("d", "e")])
    abc = ("a", "b", "c")
    assert incidence(c, abc, ("b", "c")) == 1
    assert incidence(c, abc, ("a", "c")) == -1
    assert incidence(c, abc, ("a", "b")) == 1
    assert incidence(c, abc, ("d", "e")) == 0
    with pytest.raises(SheafcalcError, match="dimension gap"):
        incidence(c, abc, ("a",))


# ------------------------------------------------------------- boundaries

def test_edge_complex_boundary():
    c = validate_complex([("v0", "v1")], vertices=["v0", "v1"])
    assert boundary_matrix(c, 1) == RationalMatrix.from_rows([[-1], [1]])


def test_triangle_boundary_column():
    c = validate_complex([("a", "b", "c")])
    d2 = boundary_matrix(c, 2)
    # rows are ab, ac, bc in order
    assert d2 == RationalMatrix.from_rows([[1], [-1], [1]])


def test_boundary_squares_to_zero_on_base_complex():
    c = base_complex()
    assert matmul(boundary_matrix(c, 1), boundary_matrix(c, 2)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_boundary_squares_to_zero_randomized(seed):
    c = random_complex(random.Random(seed))
    for k in range(2, c.dimension() + 1):
        assert matmul(boundary_matrix(c, k - 1),
                      boundary_matrix(c, k)).is_zero()


def _boundary_from_incidence(c, k):
    """Reference d_k: the incidence number of every (row, column) pair."""
    rows, cols = c.k_faces(k - 1), c.k_faces(k)
    return RationalMatrix(len(rows), len(cols),
                          [incidence(c, b, a) for a in rows for b in cols])


def _deletion_sign(b, a):
    """0 unless a is b less one vertex, else -1 to that vertex's
    position in b."""
    if not set(a) <= set(b):
        return 0
    return (-1) ** b.index((set(b) - set(a)).pop())


def _reversed(c):
    """The same complex with its vertex order reversed."""
    order = [v for (v,) in c.k_faces(0)][::-1]
    return validate_complex([f[::-1] for f in c.faces], vertices=order)


def test_boundary_matches_incidence_on_random_complexes():
    # each complex in its own vertex order and in the reversed one
    rng = random.Random(31)
    complexes = [random_complex(rng) for _ in range(60)]
    complexes.append(validate_complex([("a", "b", "c", "d"), ("d", "e")]))
    for c in complexes + [_reversed(c) for c in complexes]:
        for k in range(1, c.dimension() + 1):
            assert boundary_matrix(c, k) == _boundary_from_incidence(c, k)
            assert all(incidence(c, b, a) == _deletion_sign(b, a)
                       for a in c.k_faces(k - 1) for b in c.k_faces(k))


# -------------------------------------------------------------- homology

def test_homology_of_edge():
    c = validate_complex([("v0", "v1")], vertices=["v0", "v1"])
    assert homology_dims(c) == [1, 0]


def test_homology_of_hollow_triangle():
    c = validate_complex([("a", "b"), ("a", "c"), ("b", "c")])
    assert homology_dims(c) == [1, 1]


def test_homology_of_two_points():
    c = validate_complex([("a",), ("b",)])
    assert homology_dims(c) == [2]


def test_homology_of_base_complex():
    # regression: one component, three independent unfilled cycles
    assert homology_dims(base_complex()) == [1, 3, 0]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_h0_matches_union_find(seed):
    c = random_complex(random.Random(seed))
    assert homology_dims(c)[0] == union_find_components(c)


# ----------------------------------------------------------------- chains

def test_chain_validation_and_vector():
    c = validate_complex([("a", "b"), ("b", "c")])
    ch = Chain.of(c, 1, {("a", "b"): "1/2", ("b", "c"): -1})
    assert ch.vector(c) == (rationalize("1/2"), rationalize(-1))
    with pytest.raises(SheafcalcError):
        Chain.of(c, 1, {("a", "c"): 1})
    with pytest.raises(SheafcalcError):
        Chain.of(c, 0, {("a", "b"): 1})


def rationalize(x):
    from sheafcalc.rationals import rational
    return rational(x)


# -------------------------------------------------------- incidence index

def index_corpus():
    """Random complexes up to 4-simplices, the running base and holed
    grids."""
    rng = random.Random(71)
    yield base_complex()
    yield grid_complex(4, holes=[(1, 2)])
    for _ in range(60):
        yield random_complex(rng)
    for _ in range(30):
        yield random_complex(rng, max_faces=4, vertex_pool="abcdefg", max_size=5)


def test_the_incidence_index_lists_the_covering_pairs_in_their_order():
    from sheafcalc.cellsheaf import covering_pairs
    from sheafcalc.complexes import _signed_facets

    for c in index_corpus():
        index = c._incidence()
        assert [[tau for tau, _ in layer] for layer in index] == [
            list(c.k_faces(k)) for k in range(c.dimension() + 1)]
        pairs = [pair for layer in index for _, facets in layer
                 for _, _, pair in facets]
        assert pairs == facet_pairs(c) == covering_pairs(c)
        for layer in index:
            for tau, facets in layer:
                want = list(_signed_facets(tau)) if len(tau) > 1 else []
                assert [(sigma, sign) for sigma, sign, _ in facets] == want
                for sigma, sign, pair in facets:
                    assert pair == (sigma, tau)
                    assert incidence(c, tau, sigma) == sign
        assert c._neighbours() == {
            f: tuple(near) for f, near in facet_neighbours(c).items()}


def test_covering_pairs_is_a_new_list_each_call():
    from sheafcalc.cellsheaf import covering_pairs

    c = base_complex()
    pairs = covering_pairs(c)
    pairs.clear()
    assert covering_pairs(c) == facet_pairs(c)
    assert covering_pairs(c) is not covering_pairs(c)


def test_a_copied_or_unpickled_complex_rebuilds_its_index():
    import copy
    import pickle

    c = grid_complex(3, holes=[(1, 1)])
    index, near = c._incidence(), c._neighbours()
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert twin == c
        assert twin._incidence() == index and twin._incidence() is not index
        assert twin._neighbours() == near and twin._neighbours() is not near
        assert homology_dims(twin) == [1, 1, 0]


# ------------------------------------------------------------- refusals

EDGE = validate_complex([("a", "b")])
# trusted construction: "a,b" is a vertex label validate_complex refuses,
# and it prints like the edge a-b
CLASHING = SimplicialComplex(
    ("a", "b", "a,b"), [("a",), ("b",), ("a,b",), ("a", "b")])

REFUSALS = {
    "shared-name": (lambda: face_poset(CLASHING), "two faces share a name"),
    "open-star": (lambda: open_star(EDGE, ("z",)), "('z',) not a face"),
    "incidence-upper": (lambda: incidence(EDGE, ("z", "y"), ("a",)),
                        "('z', 'y') not a face"),
    "incidence-lower": (lambda: incidence(EDGE, ("a", "b"), ("z",)),
                        "('z',) not a face"),
    "boundary-degree": (lambda: boundary_matrix(EDGE, 2), "no boundary map in degree 2"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(SheafcalcError) as refused:
        call()
    assert str(refused.value) == message
