import hashlib
import random
from fractions import Fraction

import pytest

from sheafcalc.cellsheaf import (
    Assignment, CellularSheaf, composite_map, covering_pairs, direct_sum,
    extend, global_section_space, validate_sheaf)
from sheafcalc.cohomology import (
    BayesModel, _brute_marginals, bayes_build, bayes_check, coboundary,
    cochain_complex, cohomology_dims)
from sheafcalc.complexes import (
    SimplicialComplex, boundary_matrix, homology_dims, incidence,
    validate_complex)
from sheafcalc.errors import SheafcalcError
from sheafcalc.rationals import RationalMatrix, block_assemble, decompose

from util import (
    binary_chain, constant_sheaf, base_complex, dense_decompose, dense_matmul,
    grid_complex, random_bayes_model, random_complex, random_unimodular,
    random_valid_sheaf, route_matrix, running_sheaf, sprinkler, stored_rows,
    tuple_brute_marginal, tuple_conditional_matrix, tuple_joint,
    tuple_marginalize_matrix, union_find_components, zero_sheaf)


# ----------------------------------------------------------- coboundaries

def test_two_vertex_coboundary_signs():
    # deleting the i-th vertex contributes (-1)^i, so the first vertex
    # block enters negated and the second one plain
    c = validate_complex([("u", "v")])
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[1, 0, 1], [0, 1, 0]])
    s = CellularSheaf(
        c, {("u",): 2, ("v",): 3, ("u", "v"): 2},
        {(("u",), ("u", "v")): a, (("v",), ("u", "v")): b})
    delta0 = coboundary(s, 0)
    expected = block_assemble(
        {(0, 0): a.scale(-1), (0, 1): b}, (2,), (2, 3))
    assert delta0 == expected


def test_coboundary_shapes_on_running_sheaf():
    s = running_sheaf()
    assert coboundary(s, 0).rows == 15 and coboundary(s, 0).cols == 14
    assert coboundary(s, 1).rows == 1 and coboundary(s, 1).cols == 15
    top = coboundary(s, 2)
    assert (top.rows, top.cols) == (0, 1)


def test_coboundary_rejects_cosheaves():
    s = running_sheaf()
    dual = CellularSheaf(
        s.base, s.stalk_dim,
        {p: m.transpose() for p, m in s.restriction.items()}, "cosheaf")
    with pytest.raises(SheafcalcError):
        coboundary(dual, 0)
    with pytest.raises(SheafcalcError, match="needs sheaf variance"):
        cohomology_dims(dual)
    with pytest.raises(SheafcalcError, match="no coboundary in degree -1"):
        coboundary(s, -1)


def test_coboundary_names_a_missing_attachment():
    s = CellularSheaf(
        validate_complex([("a", "b")]), {("a",): 1, ("b",): 1, ("a", "b"): 1},
        {(("a",), ("a", "b")): RationalMatrix.identity(1)})
    with pytest.raises(SheafcalcError) as err:
        coboundary(s, 0)
    assert str(err.value) == "no attachment map b->ab"


def test_faceless_complex_has_no_coboundary():
    s = CellularSheaf(validate_complex([]), {}, {})
    for call in (lambda: coboundary(s, 0), lambda: global_section_space(s),
                 lambda: extend(s, Assignment({}))):
        with pytest.raises(SheafcalcError) as err:
            call()
        assert str(err.value) == "empty complex has no dimension"


def test_cochain_complex_of_running_sheaf():
    s = running_sheaf()
    cc = cochain_complex(s)
    assert cc.dims == (14, 15, 1)
    assert cc.layout[0] == tuple(s.base.k_faces(0))
    assert cc.layout[2] == (("c", "d", "e"),)
    assert (cc.deltas[1] @ cc.deltas[0]).is_zero()


def test_cochain_complex_propagates_validation_failure():
    s = running_sheaf()
    maps = dict(s.restriction)
    maps[(("c", "e"), ("c", "d", "e"))] = RationalMatrix.from_rows([[0, 1]])
    with pytest.raises(ValueError, match="invalid sheaf: path-independence"):
        cochain_complex(CellularSheaf(s.base, s.stalk_dim, maps))


def test_delta_squared_vanishes_on_random_sheaves():
    rng = random.Random(23)
    for _ in range(25):
        s = random_valid_sheaf(rng, random_complex(rng))
        cc = cochain_complex(s)
        for k in range(len(cc.deltas) - 1):
            assert (cc.deltas[k + 1] @ cc.deltas[k]).is_zero()


def _coboundary_from_incidence(s, k):
    """Reference delta^k: every (tau, sigma) pair, signed by incidence."""
    rows = s.base.k_faces(k + 1) if k + 1 <= s.base.dimension() else []
    cols = s.base.k_faces(k)
    blocks = {}
    for i, tau in enumerate(rows):
        for j, sigma in enumerate(cols):
            sign = incidence(s.base, tau, sigma)
            if sign:
                blocks[(i, j)] = s.restriction[(sigma, tau)].scale(sign)
    return block_assemble(blocks, [s.stalk_dim[f] for f in rows],
                          [s.stalk_dim[f] for f in cols])


def test_coboundary_matches_incidence_on_random_sheaves():
    rng = random.Random(29)
    sheaves = [random_valid_sheaf(rng, random_complex(rng)) for _ in range(40)]
    sheaves.append(running_sheaf())
    sheaves.append(constant_sheaf(
        validate_complex([("a", "b", "c", "d"), ("d", "e")]), 2))
    for s in sheaves:
        for k in range(s.base.dimension() + 1):
            assert coboundary(s, k) == _coboundary_from_incidence(s, k)


def test_coboundary_elimination_equals_dense_oracle():
    rng = random.Random(31)
    sheaves = [random_valid_sheaf(rng, random_complex(rng)) for _ in range(30)]
    sheaves.append(running_sheaf())
    for s in sheaves:
        deltas = [coboundary(s, k) for k in range(s.base.dimension() + 1)]
        for delta in deltas:
            assert decompose(delta) == dense_decompose(delta)
        for lower, upper in zip(deltas, deltas[1:]):
            assert upper @ lower == dense_matmul(upper, lower)


# ------------------------------------------------------- cohomology dims

def test_running_sheaf_cohomology_regression():
    assert cohomology_dims(running_sheaf()) == (2, 2, 0)


def test_degree_zero_matches_global_sections():
    s = running_sheaf()
    assert cohomology_dims(s)[0] == global_section_space(s).dimension
    rng = random.Random(5)
    for _ in range(15):
        t = random_valid_sheaf(rng, random_complex(rng))
        assert cohomology_dims(t)[0] == global_section_space(t).dimension


def test_zero_sheaf_has_zero_cohomology():
    dims = cohomology_dims(zero_sheaf(base_complex()))
    assert dims == (0, 0, 0)


def test_constant_sheaf_on_edge_complex():
    c = validate_complex([("a", "b")])
    assert cohomology_dims(constant_sheaf(c, 1)) == (1, 0)
    assert homology_dims(c) == [1, 0]


def test_constant_sheaf_matches_homology():
    c = base_complex()
    assert cohomology_dims(constant_sheaf(c, 1)) == (1, 3, 0)
    assert homology_dims(c) == [1, 3, 0]


def test_constant_sheaf_matches_homology_randomly():
    rng = random.Random(41)
    for _ in range(30):
        c = random_complex(rng)
        sheaf_dims = cohomology_dims(constant_sheaf(c, 1))
        cycle_dims = homology_dims(c)
        assert list(sheaf_dims) == cycle_dims
        assert sheaf_dims[0] == union_find_components(c)


def test_holed_ten_by_ten_grid_constant_sheaf():
    # 638 faces; the sparse elimination makes this a tier-1 size
    base = grid_complex(10, holes=[(4, 4)])
    s = constant_sheaf(base, 1)
    assert cohomology_dims(s) == tuple(homology_dims(base)) == (1, 1, 0)
    assert global_section_space(s).dimension == 1


def test_each_holed_square_adds_one_loop():
    # three pairwise non-adjacent holes in a 6 x 6 grid: Betti numbers
    # (1, h, 0) with h = 3, read without any elimination oracle
    base = grid_complex(6, holes=[(1, 1), (1, 4), (4, 2)])
    assert union_find_components(base) == 1
    assert homology_dims(base) == [1, 3, 0]
    assert cohomology_dims(constant_sheaf(base, 1)) == (1, 3, 0)


def reversed_vertex_order(s):
    """s over its complex with the vertex order reversed: every face
    re-sorted for the new order, every stalk and map kept."""
    def flip(face):
        return tuple(reversed(face))

    base = SimplicialComplex(reversed(s.base.vertex_order),
                             [flip(f) for f in s.base.faces])
    return CellularSheaf(
        base, {flip(f): d for f, d in s.stalk_dim.items()},
        {(flip(a), flip(b)): m for (a, b), m in s.restriction.items()},
        s.variance)


def dimensions(s):
    return (cochain_complex(s).dims, cohomology_dims(s),
            homology_dims(s.base), global_section_space(s).dimension)


def test_dimensions_ignore_the_vertex_order():
    # reversing the order flips incidence signs and every pivot order,
    # not the ranks
    rng = random.Random(2017)
    sheaves = [random_valid_sheaf(rng, random_complex(rng)) for _ in range(40)]
    sheaves.append(constant_sheaf(grid_complex(6, holes=[(1, 1), (4, 2)]), 1))
    for s in sheaves:
        assert dimensions(reversed_vertex_order(s)) == dimensions(s)


def test_dimensions_ignore_a_stalkwise_change_of_basis():
    # F'(sigma, tau) = T_tau F(sigma, tau) T_sigma^-1 is isomorphic to F
    rng = random.Random(2018)
    sheaves = [random_valid_sheaf(rng, random_complex(rng)) for _ in range(40)]
    sheaves.append(running_sheaf())
    moved = 0
    for s in sheaves:
        twist = {f: random_unimodular(rng, d) for f, d in s.stalk_dim.items()}
        rebased = CellularSheaf(s.base, dict(s.stalk_dim), {
            (a, b): twist[b][0] @ m @ twist[a][1]
            for (a, b), m in s.restriction.items()})
        moved += rebased.restriction != s.restriction
        assert cohomology_dims(rebased) == cohomology_dims(s)
        assert (global_section_space(rebased).dimension
                == global_section_space(s).dimension)
    assert moved > len(sheaves) // 2


def test_direct_sums_add_cohomology_dimensions():
    # F + G over one complex: every dimension is the sum of the two
    rng = random.Random(2019)
    nontrivial = 0
    for _ in range(40):
        base = random_complex(rng)
        f, g = random_valid_sheaf(rng, base), random_valid_sheaf(rng, base)
        dims_f, dims_g = cohomology_dims(f), cohomology_dims(g)
        both = direct_sum(f, g)
        assert cohomology_dims(both) == tuple(
            a + b for a, b in zip(dims_f, dims_g))
        assert (global_section_space(both).dimension
                == global_section_space(f).dimension
                + global_section_space(g).dimension)
        nontrivial += any(dims_f) and any(dims_g)
    assert nontrivial > 20
    holed = constant_sheaf(grid_complex(6, holes=[(1, 1), (1, 4), (4, 2)]), 1)
    assert cohomology_dims(direct_sum(holed, holed)) == (2, 6, 0)


def _dense_rank(m):
    # rank is transpose-invariant, and the dense oracle runs several
    # times faster on the orientation with fewer rows
    return dense_decompose(m.transpose() if m.rows > m.cols else m).rank


def test_betti_numbers_match_dense_ranks():
    # both Betti routines read ranks off the sparse reduction; the dense
    # oracle's ranks give dim C_k minus the ranks of the maps at degree k
    rng = random.Random(43)
    sheaves = [random_valid_sheaf(rng, random_complex(rng)) for _ in range(40)]
    sheaves.append(constant_sheaf(grid_complex(10, holes=[(4, 4)]), 1))
    for s in sheaves:
        degrees = range(s.base.dimension() + 1)
        ranks = [0] + [_dense_rank(coboundary(s, k)) for k in degrees]
        assert cohomology_dims(s) == tuple(
            sum(s.stalk_dim[f] for f in s.base.k_faces(k)) - ranks[k] - ranks[k + 1]
            for k in degrees)
        ranks = [0] + [_dense_rank(boundary_matrix(s.base, k))
                       for k in degrees[1:]] + [0]
        assert homology_dims(s.base) == [
            len(s.base.k_faces(k)) - ranks[k] - ranks[k + 1] for k in degrees]


def test_euler_characteristic_is_chain_level():
    rng = random.Random(9)
    for _ in range(15):
        s = random_valid_sheaf(rng, random_complex(rng))
        cc = cochain_complex(s)
        chains = sum((-1) ** k * d for k, d in enumerate(cc.dims))
        homs = sum((-1) ** k * h
                   for k, h in enumerate(cohomology_dims(s)))
        assert chains == homs


# ------------------------------------------------------------ bayes nets

def test_model_validation_errors():
    m = sprinkler()
    with pytest.raises(ValueError, match="cycle"):
        bayes_build(BayesModel(
            ("A", "B"), {"A": ("0", "1"), "B": ("0", "1")},
            {"A": ("B",), "B": ("A",)},
            {"A": ((Fraction(1, 2), Fraction(1, 2)),) * 2,
             "B": ((Fraction(1, 2), Fraction(1, 2)),) * 2}))
    with pytest.raises(ValueError, match="does not sum to 1"):
        bad = dict(m.cpt)
        bad["R"] = ((Fraction(1, 5), Fraction(1, 2)),)
        bayes_build(BayesModel(m.variables, m.outcomes, m.parents, bad))
    with pytest.raises(ValueError, match="unknown parent"):
        bayes_build(BayesModel(
            m.variables, m.outcomes,
            {"W": ("S", "R"), "S": ("Z",), "R": ()}, m.cpt))
    with pytest.raises(ValueError, match="needs 4 rows"):
        bad = dict(m.cpt)
        bad["W"] = bad["W"][:2]
        bayes_build(BayesModel(m.variables, m.outcomes, m.parents, bad))


def test_model_holes_raise_typed_errors_naming_the_variable():
    m = sprinkler()
    tables = {"outcomes": m.outcomes, "parents": m.parents, "cpt": m.cpt}
    for field in tables:
        holed = {name: dict(table) for name, table in tables.items()}
        del holed[field]["S"]
        with pytest.raises(SheafcalcError, match=f"no {field} entry for 'S'"):
            BayesModel(m.variables, **holed)
    half = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(SheafcalcError, match="duplicate outcomes for 'A'"):
        bayes_build(BayesModel(
            ("A",), {"A": ("0", "0")}, {"A": ()}, {"A": (half,)}))
    with pytest.raises(SheafcalcError, match="duplicate parents of 'B'"):
        bayes_build(BayesModel(
            ("A", "B"), {"A": ("0", "1"), "B": ("0", "1")},
            {"A": (), "B": ("A", "A")}, {"A": (half,), "B": (half,) * 4}))


def test_outcome_space_guard(monkeypatch):
    from sheafcalc import cohomology

    def unreachable(*args):
        raise AssertionError("the outcome cap let the model through")

    # 2 ** bit_length outcomes always exceed the cap, whatever it is; a
    # cap that admits them fails here instead of building the cosheaf
    monkeypatch.setattr(cohomology, "_marginalize_matrix", unreachable)
    names = tuple(f"V{i}" for i in range(cohomology.OUTCOME_LIMIT.bit_length()))
    with pytest.raises(ValueError, match="too large"):
        bayes_build(BayesModel(
            names, {n: ("0", "1") for n in names},
            {n: () for n in names},
            {n: ((Fraction(1, 2), Fraction(1, 2)),) for n in names}))


def test_marginalization_matrices_are_pinned():
    a = bayes_build(sprinkler())
    drop_w = a.cosheaf.restriction[(("S", "R"), ("W", "S", "R"))]
    assert drop_w.row_lists() == [
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1]]
    drop_r = a.cosheaf.restriction[(("W", "S"), ("W", "S", "R"))]
    assert drop_r.row_lists() == [
        [1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1]]
    drop_s = a.cosheaf.restriction[(("W", "R"), ("W", "S", "R"))]
    assert drop_s.row_lists() == [
        [1, 0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0, 1, 0, 1]]
    assert a.cosheaf.restriction[(("R",), ("S", "R"))].row_lists() == [
        [1, 0, 1, 0], [0, 1, 0, 1]]
    assert a.cosheaf.restriction[(("S",), ("S", "R"))].row_lists() == [
        [1, 1, 0, 0], [0, 0, 1, 1]]


def test_cosheaf_is_total_and_path_independent():
    a = bayes_build(sprinkler())
    assert a.cosheaf.variance == "cosheaf"
    assert set(a.cosheaf.restriction) == set(covering_pairs(a.cosheaf.base))
    assert validate_sheaf(a.cosheaf).ok


def test_conditional_chain_follows_the_dag():
    a = bayes_build(sprinkler())
    assert a.chain == (("R",), ("S", "R"), ("W", "S", "R"))
    assert set(a.sheaf.restriction) == {
        (("R",), ("S", "R")), (("S", "R"), ("W", "S", "R"))}
    assert validate_sheaf(a.sheaf, require_complete=False).ok
    assert validate_sheaf(a.sheaf).kind == "missing-map"
    # multiplying by P(S | R) : rows run over (S, R), columns over R
    grow_s = a.sheaf.restriction[(("R",), ("S", "R"))]
    assert grow_s.row_lists() == [
        [Fraction(1, 100), 0],
        [0, Fraction(2, 5)],
        [Fraction(99, 100), 0],
        [0, Fraction(3, 5)]]
    # one CPT entry per row, and P(w | ~s, ~r) = 0 is left out of the
    # stored rows, so the matrix equals the one its dense entries build
    grow_w = a.sheaf.restriction[(("S", "R"), ("W", "S", "R"))]
    assert [len(row) for row in stored_rows(grow_w)] == [1, 1, 1, 0, 1, 1, 1, 1]
    assert grow_w == RationalMatrix(grow_w.rows, grow_w.cols, grow_w.data)


def test_joint_is_the_cpt_product():
    a = bayes_build(sprinkler())
    assert sum(a.joint) == 1
    # (w, s, r) is the first index in the w-slowest layout
    assert a.joint[0] == Fraction(99, 50000)
    # (~w, ~s, ~r) is the last one: 4/5 * 3/5 * 1
    assert a.joint[-1] == Fraction(12, 25)


def test_sprinkler_passes_both_axes():
    report = bayes_check(sprinkler())
    assert report.ok
    assert report.violations == ()


def test_perturbed_joint_fails_only_the_conditionals():
    # the chain and the random models have two or more variables of two
    # or more outcomes and no zero CPT entry, so moving any joint entry
    # breaks at least the last chain step
    rng = random.Random(4096)
    models = [sprinkler(), binary_chain(6)] + [
        random_bayes_model(rng, n_variables=(2, 4), n_outcomes=(2, 3))
        for _ in range(20)]
    for m in models:
        assert bayes_check(m).ok
        vec = list(bayes_build(m).joint)
        vec[rng.randrange(len(vec))] += Fraction(1, 7)
        total = sum(vec)
        vec = [x / total for x in vec]
        report = bayes_check(m, joint=vec)
        assert not report.ok
        assert report.violations
        assert all(kind == "conditional-component"
                   for kind, _ in report.violations)


def test_composite_map_agrees_with_both_elimination_routes():
    rng = random.Random(2020)
    for _ in range(30):
        m = random_bayes_model(rng)
        cosheaf = bayes_build(m).cosheaf
        full = m.variables
        for face in cosheaf.base.all_faces():
            forward = route_matrix(m, cosheaf, face, full, False)
            backward = route_matrix(m, cosheaf, face, full, True)
            assert forward == backward == composite_map(cosheaf, face, full)


def test_carried_marginals_match_the_composite_maps():
    # bayes_check carries the joint down one attachment per face; the
    # composite map from the full face gives the same values exactly
    from sheafcalc.cohomology import _carried_marginals

    rng = random.Random(303)
    models = [random_bayes_model(rng) for _ in range(30)] + [binary_chain(6)]
    for m in models:
        assembly = bayes_build(m)
        cosheaf = assembly.cosheaf
        full = m.variables
        raw = [Fraction(rng.randint(0, 5)) for _ in assembly.joint]
        for vec in (assembly.joint, tuple(raw)):
            carried = _carried_marginals(cosheaf, vec)
            assert set(carried) == set(cosheaf.base.all_faces())
            for face in cosheaf.base.all_faces():
                want = composite_map(cosheaf, face, full).apply(vec)
                assert repr(carried[face]) == repr(want), face


def test_mixed_radix_indices_rebuild_the_outcome_tuple_oracles():
    f = Fraction
    # C has one outcome, B's CPT has a zero entry, and C's parents are
    # declared against the variable order
    uneven = BayesModel(
        variables=("A", "B", "C"),
        outcomes={"A": ("a0", "a1", "a2"), "B": ("b0", "b1"), "C": ("c",)},
        parents={"A": (), "B": ("A",), "C": ("B", "A")},
        cpt={"A": ((f(1, 6), f(1, 3), f(1, 2)),),
             "B": ((f(0), f(1)), (f(1, 2), f(1, 2)), (f(3, 4), f(1, 4))),
             "C": ((f(1),),) * 6})
    rng = random.Random(1313)
    models = [sprinkler(), binary_chain(6), uneven] + [
        random_bayes_model(rng) for _ in range(60)]
    for m in models:
        a = bayes_build(m)
        rebuilt = [(a.cosheaf.restriction[(sigma, tau)],
                    tuple_marginalize_matrix(m, sigma, tau))
                   for sigma, tau in covering_pairs(a.cosheaf.base)]
        rebuilt += [(a.sheaf.restriction[(small, big)],
                     tuple_conditional_matrix(m, small, big))
                    for small, big in zip(a.chain, a.chain[1:])]
        for got, want in rebuilt:
            assert got == want and repr(got) == repr(want)
        assert repr(a.joint) == repr(tuple_joint(m))
        raw = tuple(Fraction(rng.randint(0, 5)) for _ in a.joint)
        # caller-given fractional joints: one entry moved and renormalized,
        # and unnormalized entries with unrelated denominators
        bumped = list(a.joint)
        bumped[rng.randrange(len(bumped))] += Fraction(1, 7)
        bumped = tuple(x / sum(bumped) for x in bumped)
        ragged = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                       for _ in a.joint)
        faces = a.cosheaf.base.all_faces()
        for vec in (a.joint, raw, bumped, ragged):
            marginals = _brute_marginals(m, faces, vec)
            assert list(marginals) == list(faces)
            for face in faces:
                assert repr(marginals[face]) == repr(
                    tuple_brute_marginal(m, face, vec)), face


def test_joint_override_length_is_checked():
    with pytest.raises(ValueError, match="wrong length"):
        bayes_check(sprinkler(), joint=[1])


def test_deterministic_chain_model():
    f = Fraction
    m = BayesModel(
        variables=("X", "Y"),
        outcomes={"X": ("x0", "x1"), "Y": ("y0", "y1")},
        parents={"X": (), "Y": ("X",)},
        cpt={"X": ((f(1, 2), f(1, 2)),),
             "Y": ((f(0), f(1)), (f(1), f(0)))})
    a = bayes_build(m)
    assert a.joint == (0, f(1, 2), f(1, 2), 0)
    assert bayes_check(m).ok


# --------------------------------------------- Bayes answers, pinned digests

def bayes_answers(m, rng):
    """The assembly's matrices, in covering order and then along the
    chain, its joint, and ``bayes_check`` on the CPT joint, on that joint
    with one entry moved and renormalized, and on a raw vector of small
    integers, as one repr."""
    a = bayes_build(m)
    bumped = list(a.joint)
    bumped[rng.randrange(len(bumped))] += Fraction(1, 7)
    total = sum(bumped)
    bumped = [x / total for x in bumped]
    raw = [Fraction(rng.randint(0, 5)) for _ in a.joint]
    maps = [a.cosheaf.restriction[pair] for pair in covering_pairs(a.cosheaf.base)]
    maps += [a.sheaf.restriction[pair] for pair in zip(a.chain, a.chain[1:])]
    return repr((maps, a.joint, bayes_check(m), bayes_check(m, joint=bumped),
                 bayes_check(m, joint=raw)))


def bayes_corpus(family, k):
    """("random", k): the random models of seeds 10k to 10k + 9, six
    blocks of ten; ("chain", n): the binary chain of n variables."""
    if family == "chain":
        yield binary_chain(k), random.Random(k)
        return
    for seed in range(10 * k, 10 * k + 10):
        rng = random.Random(seed)
        yield random_bayes_model(rng), rng


# recorded with every matrix entry stored as a Fraction
BAYES_DIGESTS = {
    ("random", 0): "8c16a485d74180159e915ad44f3b8f10a9c7fed1c730c7bc5265672369890f56",
    ("random", 1): "eb78f5342429f4c058799940d77b17503c7c17c57b863b9bb116e1ab5866aeab",
    ("random", 2): "d2ef64a22ae2b38f1cce5e334b3e719c5b8f1a28b16d52c55219488d2963fce0",
    ("random", 3): "85d35686e745ad9321fc89ee6f179491ce56ffcd0653e317e3d677ea27c70b62",
    ("random", 4): "66a87aeea0509bf2c8726f275056273f0de691a7569f6b0f17141731f2a71c72",
    ("random", 5): "fef1cc97aad0c56a0aff23c286f9200e8447b66d42c3cddb6b343571a82c96c9",
    ("chain", 3): "f35b2f28ca20a7a1330dcde1ccc3c1c21b35b5a12ea6e7cbef422435dc3402eb",
    ("chain", 4): "0538b4cd51463704e6e8276bca83091390ef15d31473705e39e7da70f98164e9",
    ("chain", 5): "395bb9ee441e2caccb122e99b604f1a05ab77b5fe0abf6f3535ef948fede990f",
    ("chain", 6): "e4504e9143d27aeb939fb4999d6afed1d0606a665db5a09aeb99a7286a14a73c",
    ("chain", 7): "51a180d07b2c2d1431b8b34291a4006d62b1931af32d18ca827fc3d0ee91d6dd",
}


@pytest.mark.parametrize("family,k", sorted(BAYES_DIGESTS))
def test_bayes_answers_match_their_recorded_digests(family, k):
    digest = hashlib.sha256()
    for m, rng in bayes_corpus(family, k):
        digest.update(bayes_answers(m, rng).encode())
    assert digest.hexdigest() == BAYES_DIGESTS[family, k]


# ------------------------------------------------------------- refusals

REFUSALS = {
    "duplicate-variable": (
        lambda: BayesModel(("x", "x"), {"x": ("0",)}, {"x": ()}, {"x": ((1,),)}),
        "duplicate variable"),
    "no-outcomes": (lambda: BayesModel(("x",), {"x": ()}, {"x": ()}, {"x": ()}),
                    "no outcomes for x"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(SheafcalcError) as refused:
        call()
    assert str(refused.value) == message
