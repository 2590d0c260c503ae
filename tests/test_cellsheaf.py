import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from sheafcalc.cellsheaf import (
    Assignment, CellularSheaf, ExtendResult, InvalidSheaf, SheafMorphism,
    check_morphism, composite_map, SectionReport, SheafReport, covering_pairs,
    direct_sum, extend, global_section_space, is_global_section, pullback,
    validate_sheaf)
from sheafcalc.cohomology import coboundary, cochain_complex, cohomology_dims
from sheafcalc.complexes import validate_complex
from sheafcalc.errors import SheafcalcError
from sheafcalc.rationals import RationalMatrix, decompose, solve

from util import (
    RUNNING_STALK_DIMS, binary_chain, composite_spread, constant_sheaf,
    base_complex, eliminating_localize_obstruction, grid_complex,
    random_bayes_model, random_complex, random_unimodular, random_valid_sheaf,
    running_sheaf, scan_validate_sheaf, zero_sheaf)


# ------------------------------------------------------ structure checks

def test_covering_pairs_single_edge():
    c = validate_complex([("a", "b")])
    assert covering_pairs(c) == [(("b",), ("a", "b")),
                                 (("a",), ("a", "b"))]


def test_covering_pairs_count_matches_stored_maps():
    s = running_sheaf()
    pairs = covering_pairs(s.base)
    assert len(pairs) == 21
    assert set(pairs) == set(s.restriction)
    for sigma, tau in pairs:
        assert len(tau) == len(sigma) + 1
        assert set(sigma) < set(tau)


def test_sheaf_rejects_non_covering_key():
    c = base_complex()
    dims = {f: 1 for f in c.all_faces()}
    bad = {(("a",), ("c", "d", "e")): RationalMatrix.identity(1)}
    with pytest.raises(SheafcalcError, match="covering"):
        CellularSheaf(c, dims, bad)


def test_sheaf_rejects_missing_stalk_dimension():
    c = validate_complex([("a", "b")])
    with pytest.raises(SheafcalcError, match="stalk dimension"):
        CellularSheaf(c, {("a",): 1}, {})


def test_expected_shape_by_variance():
    s = running_sheaf()
    assert s.expected_shape(("b",), ("a", "b")) == (2, 3)
    flipped = CellularSheaf(s.base, s.stalk_dim, {}, "cosheaf")
    assert flipped.expected_shape(("b",), ("a", "b")) == (3, 2)


# ------------------------------------------------------------ validation

def test_running_sheaf_validates():
    report = validate_sheaf(running_sheaf())
    assert report.ok
    assert report.kind is None and report.witness is None


def test_missing_map_is_named():
    s = running_sheaf()
    maps = dict(s.restriction)
    del maps[(("c",), ("c", "e"))]
    partial = CellularSheaf(s.base, s.stalk_dim, maps)
    report = validate_sheaf(partial)
    assert not report.ok
    assert report.kind == "missing-map"
    assert report.witness == (("c",), ("c", "e"))
    # the same sheaf is fine when incompleteness is allowed
    assert validate_sheaf(partial, require_complete=False).ok


def test_wrong_shape_is_named():
    s = running_sheaf()
    maps = dict(s.restriction)
    maps[(("d",), ("a", "d"))] = RationalMatrix.from_rows([[1, 2]])
    report = validate_sheaf(CellularSheaf(s.base, s.stalk_dim, maps))
    assert report.kind == "shape"
    assert report.witness[0:2] == (("d",), ("a", "d"))
    assert report.witness[2:] == ((1, 2), (1, 1))


def test_perturbed_triangle_map_breaks_path_independence():
    s = running_sheaf()
    maps = dict(s.restriction)
    maps[(("c", "e"), ("c", "d", "e"))] = RationalMatrix.from_rows([[0, 1]])
    report = validate_sheaf(CellularSheaf(s.base, s.stalk_dim, maps))
    assert not report.ok
    assert report.kind == "path-independence"
    rho, mid_a, mid_b, tau = report.witness
    assert tau == ("c", "d", "e")
    assert ("c", "e") in (mid_a, mid_b)
    assert rho in (("c",), ("e",))
    # first pair scanned: both routes from e disagree through ce vs de
    assert report.witness == (("e",), ("c", "e"), ("d", "e"),
                              ("c", "d", "e"))


def test_cosheaf_validation_is_dual():
    s = running_sheaf()
    dual_maps = {pair: mat.transpose() for pair, mat in s.restriction.items()}
    dual = CellularSheaf(s.base, s.stalk_dim, dual_maps, "cosheaf")
    assert validate_sheaf(dual).ok

    broken = dict(dual_maps)
    broken[(("c", "e"), ("c", "d", "e"))] = RationalMatrix.from_rows(
        [[0], [1]])
    report = validate_sheaf(
        CellularSheaf(s.base, s.stalk_dim, broken, "cosheaf"))
    assert report.kind == "path-independence"
    assert report.witness[3] == ("c", "d", "e")


def _dual(s):
    """The cosheaf of s's transposed maps; valid exactly when s is."""
    return CellularSheaf(
        s.base, s.stalk_dim,
        {pair: mat.transpose() for pair, mat in s.restriction.items()},
        "cosheaf")


def _broken(rng, s, how):
    """s with one covering attachment perturbed (one entry moved by a
    small nonzero rational), missing, or misshapen (one row too many);
    None when s has no attachment that the change can touch."""
    maps = dict(s.restriction)
    pairs = [p for p in covering_pairs(s.base) if p in maps and (
        how != "perturbed" or (maps[p].rows and maps[p].cols))]
    if not pairs:
        return None
    pair = rng.choice(pairs)
    mat = maps.pop(pair)
    if how == "perturbed":
        entries = list(mat.data)
        entries[rng.randrange(len(entries))] += Fraction(
            rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
        maps[pair] = RationalMatrix(mat.rows, mat.cols, entries)
    elif how == "misshapen":
        maps[pair] = RationalMatrix.zero(mat.rows + 1, mat.cols)
    return CellularSheaf(s.base, s.stalk_dim, maps, s.variance)


def _oracle_corpus(seed):
    """Valid sheaves and cosheaves on random complexes, some with
    tetrahedra and 4-simplices so that delta^2 delta^1 and delta^3
    delta^2 are products too, each whole and with one or two attachments
    perturbed, missing or misshapen."""
    rng = random.Random(seed)
    valid = [running_sheaf(), constant_sheaf(
        validate_complex([("a", "b", "c", "d", "e"), ("e", "f")]), 2)]
    for _ in range(60):
        valid.append(random_valid_sheaf(rng, random_complex(rng)))
    for _ in range(40):
        valid.append(random_valid_sheaf(rng, random_complex(
            rng, max_faces=4, vertex_pool="abcdefg", max_size=5)))
    valid += [_dual(s) for s in valid[::3]]
    for s in valid:
        yield s
        for how in ("perturbed", "missing", "misshapen"):
            once = _broken(rng, s, how)
            if once is not None:
                yield once
                twice = _broken(rng, once, rng.choice(("perturbed", how)))
                if twice is not None:
                    yield twice


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_validation_reports_equal_the_square_scan(seed):
    kinds = set()
    deep = 0
    for s in _oracle_corpus(seed):
        for complete in (True, False):
            got = validate_sheaf(s, require_complete=complete)
            assert repr(got) == repr(scan_validate_sheaf(s, complete))
            kinds.add((s.variance, got.kind))
            # a failing square on a tetrahedron or larger face
            deep += got.kind == "path-independence" and len(got.witness[3]) > 3
    # every verdict, on both variances, and squares in degree 1 and up
    assert kinds >= {(v, k) for v in ("sheaf", "cosheaf") for k in (
        None, "missing-map", "shape", "path-independence")}
    assert deep


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_a_refused_sheaf_carries_the_validation_report(seed):
    # every library call that validates a sheaf refuses it with the
    # report validate_sheaf gives, and with the message it always had
    calls = (lambda s: extend(s, Assignment({})), global_section_space,
             cohomology_dims, cochain_complex)
    kinds = set()
    for s in _oracle_corpus(seed):
        report = validate_sheaf(s)
        if s.variance != "sheaf" or report.ok:
            continue
        kinds.add(report.kind)
        for call in calls:
            with pytest.raises(InvalidSheaf) as refused:
                call(s)
            assert refused.value.report == report
            assert str(refused.value) == (
                f"invalid sheaf: {report.kind} at {report.witness}")
    assert kinds == {"missing-map", "shape", "path-independence"}


def test_a_refusal_survives_copy_and_pickle():
    import copy
    import pickle

    err = InvalidSheaf("missing-map", (("a",), ("a", "b")))
    for twin in (copy.copy(err), pickle.loads(pickle.dumps(err))):
        assert type(twin) is InvalidSheaf
        assert (twin.report, str(twin)) == (err.report, str(err))


def test_bayes_cosheaf_reports_equal_the_square_scan():
    from sheafcalc.cohomology import bayes_build

    rng = random.Random(47)
    models = [binary_chain(4)] + [random_bayes_model(rng) for _ in range(12)]
    for m in models:
        cosheaf = bayes_build(m).cosheaf
        for s in (cosheaf, _broken(rng, cosheaf, "perturbed")):
            if s is not None:
                assert repr(validate_sheaf(s)) == repr(scan_validate_sheaf(s))


def test_the_least_failing_square_is_named_across_degrees():
    # one square broken on a tetrahedron and one on an earlier triangle:
    # the triangle's square is named, as the scan in face order names it
    s = constant_sheaf(validate_complex([("a", "b", "c", "d")]))
    maps = dict(s.restriction)
    maps[(("a", "b", "c"), ("a", "b", "c", "d"))] = RationalMatrix.from_rows([[2]])
    maps[(("b", "d"), ("b", "c", "d"))] = RationalMatrix.from_rows([[3]])
    report = validate_sheaf(CellularSheaf(s.base, s.stalk_dim, maps))
    assert report == scan_validate_sheaf(CellularSheaf(s.base, s.stalk_dim, maps))
    assert report.witness[3] == ("b", "c", "d")
    # a pair fault in the top degree comes before every square
    del maps[(("a", "c", "d"), ("a", "b", "c", "d"))]
    report = validate_sheaf(CellularSheaf(s.base, s.stalk_dim, maps))
    assert (report.kind, report.witness) == (
        "missing-map", (("a", "c", "d"), ("a", "b", "c", "d")))


def _rescaled(rng, s):
    """s conjugated by a random fractional diagonal per face: maps
    D_tau F D_sigma^-1, valid exactly when s is, with its ranks."""
    scale = {f: [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(s.stalk_dim[f])] for f in s.base.all_faces()}

    def diag(face, invert=False):
        n = s.stalk_dim[face]
        return RationalMatrix.from_rows(
            [[(1 / x if invert else x) if i == j else 0 for j, x in enumerate(scale[face])]
             for i in range(n)], cols=n)

    return CellularSheaf(s.base, s.stalk_dim, {
        (sigma, tau): diag(tau) @ mat @ diag(sigma, invert=True)
        for (sigma, tau), mat in s.restriction.items()})


def _assembly_corpus(seed):
    """Sheaves and cosheaves whose coboundaries are written as int rows:
    all-int maps (unimodular conjugates of rank-deficient inclusions) and
    their fractional rescalings, on random complexes, some with
    tetrahedra and 4-simplices, fractional diagonal grids, the Bayes
    cosheaf of the 4-variable binary chain, and each one also with one
    attachment perturbed, so that its products are not zero."""
    from sheafcalc.cohomology import bayes_build
    from util import diagonal_grid_sheaf

    rng = random.Random(seed)
    grid = grid_complex(2, holes=[(0, 1)])
    sheaves = [running_sheaf(), bayes_build(binary_chain(4)).cosheaf]
    sheaves += [diagonal_grid_sheaf(rng, grid, dim)[0] for dim in (1, 2, 3)]
    for _ in range(25):
        for base in (random_complex(rng), random_complex(
                rng, max_faces=4, vertex_pool="abcdefg", max_size=5)):
            whole = random_valid_sheaf(rng, base)
            sheaves += [whole, _rescaled(rng, whole)]
    sheaves += [_dual(s) for s in sheaves[::3]]
    for s in sheaves:
        yield s
        bent = _broken(rng, s, "perturbed")
        if bent is not None:
            yield bent


@pytest.mark.parametrize("seed", [51, 52])
def test_int_row_coboundaries_and_products_equal_the_storage_oracle(seed):
    from sheafcalc.cellsheaf import _cochain_map, _layout, _then
    from util import storage_cochain_map, storage_matmul

    seen = Counter()
    for s in _assembly_corpus(seed):
        degrees = range(len(s.base._layers()[1]))
        got = [_cochain_map(s, _layout(s, k + 1), _layout(s, k)) for k in degrees]
        want = [storage_cochain_map(s, k) for k in degrees]
        for g, w in zip(got, want):
            assert (g._dens, g._int_rows) == (w._dens, w._int_rows)  # least denominators
            assert (g, hash(g), repr(g)) == (w, hash(w), repr(w))
            seen[s.variance, "fractional" if any(
                d > 1 for d in g._dens) else "int"] += 1
        for k in range(len(got) - 2):
            g = _then(s, got[k], got[k + 1])
            w = (storage_matmul(want[k + 1], want[k]) if s.variance == "sheaf"
                 else storage_matmul(want[k], want[k + 1]))
            assert g.is_zero() == w.is_zero()
            assert (g._dens, g._int_rows) == (w._dens, w._int_rows)
            assert (g, hash(g), repr(g)) == (w, hash(w), repr(w))
            seen["products", "zero" if w.is_zero() else "nonzero"] += 1
    assert set(seen) == {(v, kind) for v in ("sheaf", "cosheaf")
                         for kind in ("fractional", "int")} | {
        ("products", "zero"), ("products", "nonzero")}


def _failing_squares(s) -> list:
    """Every path-independence square of s whose two routes differ."""
    from sheafcalc.cellsheaf import _then

    out = []
    for tau in s.base.all_faces():
        for i in range(len(tau) if len(tau) > 2 else 0):
            for j in range(i + 1, len(tau)):
                rho = tuple(v for k, v in enumerate(tau) if k not in (i, j))
                mid_a, mid_b = tau[:j] + tau[j + 1:], tau[:i] + tau[i + 1:]
                m = s.restriction
                if (_then(s, m[(rho, mid_a)], m[(mid_a, tau)])
                        != _then(s, m[(rho, mid_b)], m[(mid_b, tau)])):
                    out.append((rho, mid_a, mid_b, tau))
    return out


def test_one_failing_square_is_named_as_the_square_scan_names_it():
    # each sheaf below has exactly one square that does not commute: a
    # vertex map bent into an edge that lies in one triangle only
    rng = random.Random(53)
    checked = Counter()
    for s in _assembly_corpus(54):
        if validate_sheaf(s) != SheafReport(True):
            continue
        lone = [(v, e) for v, e in covering_pairs(s.base) if len(e) == 2
                and sum(set(e) <= set(t) for t in s.base.k_faces(2)) == 1
                and s.restriction[(v, e)].rows and s.restriction[(v, e)].cols]
        if not lone:
            continue
        pair = rng.choice(lone)
        mat = s.restriction[pair]
        entries = list(mat.data)
        entries[rng.randrange(len(entries))] += Fraction(rng.choice((-2, 1, 3)), 2)
        bent = CellularSheaf(s.base, s.stalk_dim, {
            **s.restriction, pair: RationalMatrix(mat.rows, mat.cols, entries)},
            s.variance)
        if len(_failing_squares(bent)) != 1:
            continue  # the bend fell in a kernel
        report = validate_sheaf(bent)
        assert report == scan_validate_sheaf(bent)
        assert (report.kind, report.witness) == (
            "path-independence", _failing_squares(bent)[0])
        checked[s.variance] += 1
    assert checked["sheaf"] >= 10 and checked["cosheaf"] >= 3


def test_each_library_call_writes_each_coboundary_once(monkeypatch):
    import sheafcalc.cellsheaf as cellsheaf
    from sheafcalc.cohomology import cohomology_dims

    written = []

    def counted(s, upper, lower):
        written.append(tuple(lower[0]))  # the faces of degree k
        return write(s, upper, lower)

    write = cellsheaf._cochain_map
    monkeypatch.setattr(cellsheaf, "_cochain_map", counted)
    s = running_sheaf()
    calls = [lambda: cohomology_dims(s), lambda: global_section_space(s),
             lambda: extend(s, Assignment({("e",): (1, 0, -1)})),
             lambda: extend(s, Assignment({("a",): (1, 0)}))]
    for call in calls:
        written.clear()
        call()
        assert written == [s.base.k_faces(k) for k in range(3)]


def test_composite_map_matches_manual_chain():
    s = running_sheaf()
    via_ce = (s.restriction[(("c", "e"), ("c", "d", "e"))]
              @ s.restriction[(("c",), ("c", "e"))])
    assert composite_map(s, ("c",), ("c", "d", "e")) == via_ce
    eye = composite_map(s, ("b",), ("b",))
    assert eye == RationalMatrix.identity(3)


# ------------------------------------------------------- section checking

def test_zero_assignment_is_global_section():
    s = running_sheaf()
    zero = Assignment({f: (0,) * s.stalk_dim[f] for f in s.base.all_faces()})
    assert is_global_section(s, zero).ok


FIGURE_ASSIGNMENT = {
    ("a",): (3, 1), ("b",): (1, -1, 2),
    ("c",): (Fraction(-3, 2), Fraction(5, 2)), ("d",): (-2,),
    ("e",): (-1, 2, 2), ("f",): (2, 3, -1),
    ("a", "b"): (3, -1), ("a", "c"): (3, 1), ("a", "d"): (1,),
    ("b", "c"): (1,), ("b", "d"): (6,), ("c", "d"): (-1, -2),
    ("c", "e"): (-4, Fraction(13, 2)), ("d", "e"): (-6, -2),
    ("e", "f"): (2, -1), ("c", "d", "e"): (-4,),
}


def test_figure_assignment_fails_at_exactly_four_attachments():
    # the worked full-diagram assignment is off at ad and on both maps
    # out of e; everything else checks out
    s = running_sheaf()
    report = is_global_section(s, Assignment(FIGURE_ASSIGNMENT))
    assert not report.ok
    failed = {(sigma, tau) for sigma, tau, *_ in report.violations}
    assert failed == {
        (("a",), ("a", "d")),
        (("d",), ("a", "d")),
        (("e",), ("c", "e")),
        (("e",), ("d", "e")),
    }
    by_pair = {(sigma, tau): (where, expected, got)
               for sigma, tau, where, expected, got in report.violations}
    where, expected, got = by_pair[(("a",), ("a", "d"))]
    assert where == ("a", "d")
    assert expected == (Fraction(-2),)
    assert got == (Fraction(1),)
    _, expected, got = by_pair[(("e",), ("c", "e"))]
    assert expected == (Fraction(-4), Fraction(14))


def test_figure_assignment_cannot_be_repaired_on_the_edges():
    # forcing the three bad edges to the values the vertex data demands
    # just moves the failures: ce then disagrees with c and de with d, so
    # no section at all has e = (-1, 2, 2)
    fixed = dict(FIGURE_ASSIGNMENT)
    fixed[("a", "d")] = (-2,)
    fixed[("c", "e")] = (-4, 14)
    fixed[("d", "e")] = (0, 4)
    s = running_sheaf()
    report = is_global_section(s, Assignment(fixed))
    assert not report.ok
    failed = {(sigma, tau) for sigma, tau, *_ in report.violations}
    assert failed == {(("c",), ("c", "e")), (("d",), ("d", "e"))}
    assert not extend(s, Assignment({("e",): (-1, 2, 2)})).ok


def test_section_check_requires_total_assignment():
    s = running_sheaf()
    zero = {f: (0,) * s.stalk_dim[f] for f in s.base.all_faces()}
    with pytest.raises(ValueError, match="partial"):
        is_global_section(s, Assignment({("a",): (1, 2)}))
    with pytest.raises(ValueError, match="unknown face"):
        is_global_section(s, Assignment({**zero, ("z",): (1,)}))
    with pytest.raises(ValueError, match="dimension mismatch"):
        is_global_section(s, Assignment({**zero, ("a",): (1, 2, 3)}))


def test_cosheaf_section_check_compares_below():
    # a cosheaf maps the ab stalk down to a and b, so a violation is
    # reported at the smaller face
    edge = validate_complex([("a", "b")])
    s = CellularSheaf(edge, {("a",): 1, ("b",): 1, ("a", "b"): 2}, {
        (("a",), ("a", "b")): RationalMatrix.from_rows([[1, 0]]),
        (("b",), ("a", "b")): RationalMatrix.from_rows([[0, 1]])}, "cosheaf")
    a = Assignment({("a",): (1,), ("b",): (5,), ("a", "b"): (1, 2)})
    assert is_global_section(s, a) == SectionReport(False, (
        (("b",), ("a", "b"), ("b",), (Fraction(2),), (Fraction(5),)),))
    fixed = Assignment({("a",): (1,), ("b",): (2,), ("a", "b"): (1, 2)})
    assert is_global_section(s, fixed) == SectionReport(True)


def test_assignment_coerces_and_reports_support():
    a = Assignment({("a",): ("1/2", 3)})
    assert a[("a",)] == (Fraction(1, 2), Fraction(3))
    assert a.support == frozenset({("a",)})


def test_assignment_refuses_a_vector_that_is_not_a_tuple_or_list():
    # a string is not read as its characters, and a bare number is not
    # a one-entry vector; both are refused as input, not with TypeError
    for vec, kind in (("12", "str"), (5, "int"), (Fraction(5), "Fraction"),
                      (None, "NoneType"), (iter([1, 2]), "list_iterator")):
        with pytest.raises(SheafcalcError) as err:
            Assignment({("b",): (1,), ("a",): vec})
        assert str(err.value) == f"vector at ('a',) is a {kind}, not a tuple or list"
    assert Assignment({("a",): [1, "2"]})[("a",)] == (Fraction(1), Fraction(2))


# ------------------------------------------------------------- extension

def test_obstructed_seed_is_pinned_to_vertex_d():
    s = running_sheaf()
    result = extend(s, Assignment({("e",): (1, 0, -1)}))
    assert not result.ok
    assert result.result is None
    assert result.obstruction == ("d",)
    assert result.kind == "no-consistent-value"
    assert "d" in result.detail

    got = result.propagated.vectors
    assert got[("c", "e")] == (Fraction(0), Fraction(-13, 2))
    assert got[("d", "e")] == (Fraction(1), Fraction(1))
    assert got[("e", "f")] == (Fraction(0), Fraction(0))
    # propagation also reaches c, cde and of course the seed itself
    assert got[("c",)] == (Fraction(-13, 2), Fraction(-13, 2))
    assert got[("c", "d", "e")] == (Fraction(0),)
    assert set(got) == {("e",), ("c",), ("c", "e"), ("d", "e"),
                        ("e", "f"), ("c", "d", "e")}


def test_empty_seed_extends_to_zero():
    s = running_sheaf()
    result = extend(s, Assignment({}))
    assert result.ok
    assert is_global_section(s, result.result).ok
    assert all(all(x == 0 for x in vec)
               for vec in result.result.vectors.values())


def test_extendable_seed_round_trips():
    s = running_sheaf()
    section = global_section_space(s).basis[0]
    seed = Assignment({("a",): section[("a",)], ("f",): section[("f",)]})
    result = extend(s, seed)
    assert result.ok
    assert is_global_section(s, result.result).ok
    assert result.result[("a",)] == section[("a",)]
    assert result.result[("f",)] == section[("f",)]


def _line_sheaf():
    c = validate_complex([("a", "b")])
    one = RationalMatrix.identity(1)
    return CellularSheaf(
        c, {f: 1 for f in c.all_faces()},
        {pair: one for pair in covering_pairs(c)})


def test_conflicting_seeds_blame_the_edge():
    result = extend(_line_sheaf(), Assignment({("a",): (1,), ("b",): (2,)}))
    assert not result.ok
    assert result.obstruction == ("a", "b")
    assert result.kind == "conflicting-values"
    assert "two different ways" in result.detail
    # the first seed already pushed its value onto the edge before the
    # second seed's constraint arrived
    assert result.propagated.vectors == {("a",): (Fraction(1),),
                                         ("b",): (Fraction(2),),
                                         ("a", "b"): (Fraction(1),)}


def test_seeded_edge_disagreeing_with_its_seeded_vertex_is_blamed():
    # the edge's own seed is part of its constraint system, so the value
    # pushed up from the vertex conflicts with it there
    result = extend(_line_sheaf(), Assignment({("a",): (1,), ("a", "b"): (2,)}))
    assert (result.obstruction, result.kind, result.detail) == (
        ("a", "b"), "conflicting-values", "ab is forced two different ways")
    assert result.propagated.vectors == {("a",): (Fraction(1),),
                                         ("a", "b"): (Fraction(2),)}


def test_edge_seed_propagates_downward():
    result = extend(_line_sheaf(), Assignment({("a", "b"): (5,)}))
    assert result.ok
    assert result.result[("a",)] == (Fraction(5),)
    assert result.result[("b",)] == (Fraction(5),)


def _listed_sheaf(faces, dims, maps):
    """A sheaf on the complex of ``faces``, stalk dimensions keyed by
    face and each attachment given as a list of rows."""
    base = validate_complex(faces)
    return CellularSheaf(base, dims, {
        pair: RationalMatrix.from_rows(rows, cols=dims[pair[0]])
        for pair, rows in maps.items()})


def _result(obstruction, kind, detail, propagated):
    return ExtendResult(obstruction=obstruction, kind=kind, detail=detail,
                        propagated=Assignment(propagated))


def test_edge_seed_alone_is_refused_at_a_vertex_it_cannot_reach():
    # the edge seed determines a, and b's map is zero, so the one
    # downward constraint on b already has no solution
    s = _listed_sheaf([("a", "b")], {("a",): 1, ("b",): 1, ("a", "b"): 1},
                      {(("a",), ("a", "b")): [[1]], (("b",), ("a", "b")): [[0]]})
    got = extend(s, Assignment({("a", "b"): (2,)}))
    assert repr(got) == repr(_result(
        ("b",), "no-consistent-value", "constraints at b from ab admit no solution",
        {("a", "b"): (2,), ("a",): (2,)}))


def test_zero_stalk_on_the_search_path_takes_the_empty_value():
    # ab has a zero stalk: a pushes () onto it, b's check there is an
    # empty comparison, and nothing comes back down from it to b
    dims = {("a",): 1, ("b",): 1, ("c",): 1, ("a", "b"): 0, ("b", "c"): 1}
    s = _listed_sheaf([("a", "b"), ("b", "c")], dims, {
        (("a",), ("a", "b")): [], (("b",), ("a", "b")): [],
        (("b",), ("b", "c")): [[1]], (("c",), ("b", "c")): [[1]]})
    got = extend(s, Assignment({("a",): (1,), ("b",): (3,), ("c",): (2,)}))
    assert repr(got) == repr(_result(
        ("b", "c"), "conflicting-values", "bc is forced two different ways",
        {("a",): (1,), ("b",): (3,), ("c",): (2,), ("a", "b"): (),
         ("b", "c"): (3,)}))
    got = extend(s, Assignment({("a",): (1,), ("c",): (2,)}))
    assert repr(got) == repr(ExtendResult(result=Assignment(
        {("a",): (1,), ("b",): (2,), ("c",): (2,), ("a", "b"): (),
         ("b", "c"): (2,)})))


def test_valued_face_whose_downward_constraint_fails_alone():
    # ab's seed determines a; then ac's seed asks a's zero map for 2
    dims = {("a",): 1, ("b",): 1, ("c",): 1, ("a", "b"): 1, ("a", "c"): 1}
    s = _listed_sheaf([("a", "b"), ("a", "c")], dims, {
        (("a",), ("a", "b")): [[1]], (("b",), ("a", "b")): [[1]],
        (("a",), ("a", "c")): [[0]], (("c",), ("a", "c")): [[1]]})
    got = extend(s, Assignment({("a", "b"): (1,), ("a", "c"): (2,)}))
    assert repr(got) == repr(_result(
        ("a",), "no-consistent-value", "constraints at a from ac admit no solution",
        {("a", "b"): (1,), ("a", "c"): (2,), ("a",): (1,), ("b",): (1,)}))


def test_upward_constraint_meets_partial_constraints():
    # The triangle's seed puts one row of two on each of its edges;
    # c, determined through cd, then forces ac upward, and the running
    # reduction there decides against the triangle's row, or with it.
    dims = {("a",): 1, ("b",): 1, ("c",): 1, ("d",): 1, ("a", "b"): 2,
            ("a", "c"): 2, ("b", "c"): 2, ("c", "d"): 1, ("a", "b", "c"): 1}
    maps = {(("c",), ("c", "d")): [[1]], (("d",), ("c", "d")): [[1]]}
    for edge in (("a", "b"), ("a", "c"), ("b", "c")):
        maps.update({((v,), edge): [[1], [0]] for v in edge})
        maps[(edge, ("a", "b", "c"))] = [[1, 0]]
    s = _listed_sheaf([("a", "b", "c"), ("c", "d")], dims, maps)
    got = extend(s, Assignment({("a", "b", "c"): (5,), ("d",): (7,)}))
    assert repr(got) == repr(_result(
        ("a", "c"), "conflicting-values", "ac is forced two different ways",
        {("d",): (7,), ("a", "b", "c"): (5,), ("c", "d"): (7,), ("c",): (7,)}))
    got = extend(s, Assignment({("a", "b", "c"): (5,), ("d",): (5,)}))
    assert repr(got) == repr(ExtendResult(result=Assignment({
        **{(v,): (5,) for v in "abcd"},
        **{e: (5, 0) for e in (("a", "b"), ("a", "c"), ("b", "c"))},
        ("c", "d"): (5,), ("a", "b", "c"): (5,)})))


def test_extend_checks_seed_shapes():
    s = running_sheaf()
    with pytest.raises(ValueError, match="dimension mismatch"):
        extend(s, Assignment({("e",): (1, 0)}))
    with pytest.raises(ValueError, match="unknown face"):
        extend(s, Assignment({("q",): (1,)}))


@pytest.mark.parametrize("key", ["a", "ab", frozenset({"a"})])
def test_a_key_that_only_spells_a_face_is_an_unknown_face(key):
    # tuple() makes each key a face of the base, but faces are keyed by
    # their vertex tuples, and the stalk table has no entry for these
    s = running_sheaf()
    zero = {f: (0,) * s.stalk_dim[f] for f in s.base.all_faces()}
    with pytest.raises(SheafcalcError, match=r"^unknown face "):
        extend(s, Assignment({key: (0, 0)}))
    with pytest.raises(SheafcalcError, match=r"^unknown face "):
        is_global_section(s, Assignment({**zero, key: (0, 0)}))


def test_extend_refuses_invalid_or_cosheaf_input():
    s = running_sheaf()
    maps = dict(s.restriction)
    del maps[(("c",), ("c", "e"))]
    with pytest.raises(SheafcalcError):
        extend(CellularSheaf(s.base, s.stalk_dim, maps),
               Assignment({}))
    dual = CellularSheaf(
        s.base, s.stalk_dim,
        {p: m.transpose() for p, m in s.restriction.items()}, "cosheaf")
    with pytest.raises(SheafcalcError):
        extend(dual, Assignment({}))


# --------------------------------------------------------- section spaces

def test_running_section_space_has_dimension_two():
    s = running_sheaf()
    space = global_section_space(s)
    assert space.dimension == 2
    assert len(space.basis) == 2
    for section in space.basis:
        assert is_global_section(s, section).ok
    assert space.dimension == len(decompose(coboundary(s, 0)).kernel_basis)


def test_constant_sheaf_sections_count_components():
    connected = constant_sheaf(base_complex(), 3)
    assert global_section_space(connected).dimension == 3
    split = validate_complex([("a", "b"), ("c",)])
    assert global_section_space(constant_sheaf(split, 1)).dimension == 2
    assert global_section_space(zero_sheaf(base_complex())).dimension == 0


def test_section_space_refuses_invalid_sheaves():
    # unchecked, the broken square gave a basis vector that is not a
    # section and the missing map a bare KeyError
    s = constant_sheaf(validate_complex([("a", "b", "c")]), 1)
    maps = dict(s.restriction)
    maps[(("a", "b"), ("a", "b", "c"))] = RationalMatrix.from_rows([[2]])
    with pytest.raises(ValueError, match="invalid sheaf: path-independence"):
        global_section_space(CellularSheaf(s.base, s.stalk_dim, maps))
    del maps[(("a", "b"), ("a", "b", "c"))]
    with pytest.raises(ValueError, match="invalid sheaf: missing-map"):
        global_section_space(CellularSheaf(s.base, s.stalk_dim, maps))
    dual = CellularSheaf(
        s.base, s.stalk_dim,
        {p: m.transpose() for p, m in s.restriction.items()}, "cosheaf")
    with pytest.raises(SheafcalcError, match="needs sheaf variance"):
        global_section_space(dual)


def test_section_space_members_restrict_consistently():
    rng = random.Random(7)
    for _ in range(10):
        s = random_valid_sheaf(rng, random_complex(rng))
        space = global_section_space(s)
        for section in space.basis:
            assert is_global_section(s, section).ok


def test_extend_agrees_with_section_space_membership():
    # a vertex seed extends exactly when it lies in the image of the
    # section space on those vertices; check both verdicts against a
    # solve over the basis
    from sheafcalc.rationals import solve

    rng = random.Random(19)
    tried_ok = tried_fail = 0
    for _ in range(40):
        s = random_valid_sheaf(rng, random_complex(rng))
        space = global_section_space(s)
        vertices = s.base.k_faces(0)
        seed_vec = {}
        for v in vertices[: max(1, len(vertices) // 2)]:
            seed_vec[v] = tuple(Fraction(rng.randint(-2, 2))
                                for _ in range(s.stalk_dim[v]))
        stacked_cols = []
        for section in space.basis:
            col = []
            for v in sorted(seed_vec):
                col.extend(section[v])
            stacked_cols.append(col)
        rhs = []
        for v in sorted(seed_vec):
            rhs.extend(seed_vec[v])
        system = RationalMatrix.from_rows(
            [list(row) for row in zip(*stacked_cols)] if stacked_cols
            else [[] for _ in rhs],
            cols=len(stacked_cols))
        expected_ok = solve(system, tuple(rhs)) is not None

        result = extend(s, Assignment(seed_vec))
        assert result.ok == expected_ok
        if result.ok:
            tried_ok += 1
            assert is_global_section(s, result.result).ok
            assert all(result.result[v] == vec for v, vec in seed_vec.items())
        else:
            tried_fail += 1
            assert result.obstruction is not None
            assert result.kind in ("no-consistent-value",
                                   "conflicting-values")
    assert tried_ok and tried_fail


def test_sections_and_extensions_match_the_composite_spread():
    # _spread carries each face's value from its facet; the oracle builds
    # the composite from the first vertex.  Exact arithmetic makes the
    # two byte-identical.
    from sheafcalc.cellsheaf import _layout

    rng = random.Random(9)
    triangles = 0
    for _ in range(60):
        s = random_valid_sheaf(rng, random_complex(rng))
        faces = s.base.all_faces()
        offsets, total = _layout(s, 0)
        kernel = decompose(coboundary(s, 0)).kernel_basis
        space = global_section_space(s)
        assert repr(space.basis) == repr(
            tuple(composite_spread(s, offsets, vec) for vec in kernel))

        # seed some faces of a random section, so the extension exists
        mixed = [Fraction(0)] * total
        for vec in kernel:
            c = rng.randint(-2, 2)
            mixed = [x + c * y for x, y in zip(mixed, vec)]
        section = composite_spread(s, offsets, tuple(mixed))
        seeded = rng.sample(faces, min(len(faces), rng.randint(1, 3)))
        result = extend(s, Assignment({f: section[f] for f in seeded}))
        assert result.ok
        vertex_data = tuple(x for v in s.base.k_faces(0)
                            for x in result.result[v])
        assert repr(result.result) == repr(
            composite_spread(s, offsets, vertex_data))
        triangles += sum(1 for f in faces if len(f) == 3 and s.stalk_dim[f])
    assert triangles  # routes of two attachments were carried


def test_section_space_spreads_the_kernel_decompose_finds():
    # global_section_space reduces the degree-zero coboundary without
    # decompose's image basis and rref; its basis is still the spread of
    # decompose's kernel basis, byte for byte
    from sheafcalc.cellsheaf import _layout, _spread

    rng = random.Random(19)
    sheaves = [running_sheaf(), zero_sheaf(base_complex()),
               constant_sheaf(grid_complex(6, holes=[(1, 1), (4, 2)]), 2)]
    sheaves += [random_valid_sheaf(rng, random_complex(rng)) for _ in range(150)]
    for s in sheaves:
        offsets, _ = _layout(s, 0)
        kernel = decompose(coboundary(s, 0)).kernel_basis
        assert repr(global_section_space(s).basis) == repr(
            tuple(_spread(s, offsets, vec) for vec in kernel))


def _path_or_cycle_case(seed):
    """A 5-vertex path, or a cycle when a coin says so, with stalks of
    dimension 1 or 2, rank <= 1 integer maps and two seeded vertices.
    Rank-deficient maps leave vertices undetermined, which is what sends
    some inconsistent seeds past the breadth-first search."""
    rng = random.Random(seed)
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
    if rng.random() < 0.5:
        edges.append(("a", "e"))
    base = validate_complex(edges)
    dims = {face: rng.randint(1, 2) for face in base.all_faces()}
    maps = {}
    for sigma, tau in covering_pairs(base):
        u = [rng.randint(-2, 2) for _ in range(dims[tau])]
        v = [rng.randint(-2, 2) for _ in range(dims[sigma])]
        maps[(sigma, tau)] = RationalMatrix.from_rows(
            [[a * b for b in v] for a in u], cols=dims[sigma])
    seeded = rng.sample(base.k_faces(0), 2)
    seed_values = Assignment({
        face: [rng.randint(-2, 2) for _ in range(dims[face])]
        for face in seeded})
    return CellularSheaf(base, dims, maps), seed_values


# (case seed, ok, obstruction, kind, detail, digest), recorded before
# extend and its obstruction search shared one elimination routine.  The
# digest is the first 16 hex digits of the sha256 of repr(result), so it
# pins the whole result, propagated values included.
EXTEND_CORPUS = [
    # extendable
    (5, True, None, None, None, '3cc53d3495865f59'),
    (6, True, None, None, None, 'd33711821200f196'),
    (20, True, None, None, None, 'a967a9212b7adb2f'),
    # breadth-first search: the newest constraint alone fails
    (0, False, ('b',), 'no-consistent-value',
     'constraints at b from ab admit no solution', '364b700ada396fb2'),
    (1, False, ('e',), 'no-consistent-value',
     'constraints at e from ae admit no solution', 'bd6372344e3d70de'),
    (4, False, ('b',), 'no-consistent-value',
     'constraints at b from bc admit no solution', 'e54656b523ef0d4c'),
    # breadth-first search: only the combination fails
    (2, False, ('a', 'b'), 'conflicting-values',
     'ab is forced two different ways', '507233bb53714fd0'),
    (3, False, ('b', 'c'), 'conflicting-values',
     'bc is forced two different ways', '6453582ecf2b7871'),
    (7, False, ('a', 'e'), 'conflicting-values',
     'ae is forced two different ways', '530a41d7ed5f6fa6'),
    # no face collects an inconsistent system from determined
    # neighbors, so the face sweep after the search blames one
    (1228, False, ('c', 'd'), 'conflicting-values',
     'constraints through cd close off the remaining solutions', '1f75bf8d91ce2f0b'),
    (1345, False, ('a', 'e'), 'conflicting-values',
     'constraints through ae close off the remaining solutions', '2a69de2773ae3d07'),
    (1627, False, ('c', 'd'), 'conflicting-values',
     'constraints through cd close off the remaining solutions', '980cecc3a872e3be'),
    (1846, False, ('d', 'e'), 'conflicting-values',
     'constraints through de close off the remaining solutions', 'c7cb7167a48d3f21'),
    (2963, False, ('d', 'e'), 'conflicting-values',
     'constraints through de close off the remaining solutions', '4fd6da60b7effb3b'),
    (3341, False, ('c', 'd'), 'conflicting-values',
     'constraints through cd close off the remaining solutions', 'ebdce4f2c68fca1a'),
]


@pytest.mark.parametrize("case", EXTEND_CORPUS, ids=lambda c: str(c[0]))
def test_extend_reproduces_recorded_corpus(case):
    seed, *expected = case
    result = extend(*_path_or_cycle_case(seed))
    digest = hashlib.sha256(repr(result).encode()).hexdigest()[:16]
    got = (result.ok, result.obstruction, result.kind, result.detail, digest)
    assert got == tuple(expected)


# The complexes of the obstruction-search corpus: paths and cycles take
# any maps, the filled triangle (with a tail edge) maps solved to commute,
# and the tetrahedron maps that commute by construction.
SEARCH_SHAPES = {
    "path": [("a", "b"), ("b", "c"), ("c", "d")],
    "cycle": [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
    "long cycle": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
    "triangle": [("a", "b", "c"), ("c", "d")],
    "tetrahedron": [("a", "b", "c", "d")],
}


def _small_entry(rng):
    if rng.random() < 0.5:
        return Fraction(rng.randint(-2, 2))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))


def _random_map(rng, rows, cols, rank_one):
    """A rows x cols matrix of small integers and fractions, or, when
    ``rank_one``, the outer product of two such vectors."""
    if rank_one:
        u = [_small_entry(rng) for _ in range(rows)]
        v = [_small_entry(rng) for _ in range(cols)]
        return RationalMatrix.from_rows([[a * b for b in v] for a in u], cols=cols)
    return RationalMatrix.from_rows(
        [[_small_entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)


def _free_sheaf(rng, base):
    """Vertex stalks of dimension 0-2, edge stalks of 1-2, and arbitrary
    maps, some of rank at most one: valid on a graph, where there is no
    square to commute.  A zero vertex stalk forces its edges to zero, and
    so each edge's other end into the kernel of its map; the search never
    starts from an unseeded vertex, so some inconsistent seeds pass it
    and reach the sweep."""
    dims = {face: rng.randint(0 if len(face) == 1 else 1, 2)
            for face in base.all_faces()}
    return CellularSheaf(base, dims, {
        (sigma, tau): _random_map(rng, dims[tau], dims[sigma], rng.random() < 0.3)
        for sigma, tau in covering_pairs(base)})


def _solved_sheaf(rng, base):
    """Random maps on a complex with one triangle t, made to commute: each
    vertex v of t takes a random map into its first edge e1 of t, and its
    map into the second, e2, solves F(e2 -> t) X = F(e1 -> t) F(v -> e1),
    plus a random kernel vector in each column.  Half the sheaves give
    the edges of t stalks of dimension 2 under a triangle and vertices of
    dimension 1, so t fixes one coordinate of each edge and leaves the
    other open; the rest have stalks of dimension 0-2.  A system with no
    solution draws again."""
    (top,) = base.k_faces(2)
    inside = [e for e in base.k_faces(1) if set(e) <= set(top)]
    while True:
        thick = rng.random() < 0.5
        dims = {face: 2 if thick and face in inside else 1 if thick
                else rng.randint(0, 2) for face in base.all_faces()}
        maps = {(sigma, tau): _random_map(rng, dims[tau], dims[sigma],
                                          rng.random() < 0.3)
                for sigma, tau in covering_pairs(base)
                if tau == top or tau not in inside}
        for v in top:
            e1, e2 = [e for e in inside if v in e]
            first = _random_map(rng, dims[e1], dims[(v,)], rng.random() < 0.5)
            want = maps[(e1, top)] @ first
            onto = maps[(e2, top)]
            kernel = decompose(onto).kernel_basis
            cols = [solve(onto, want.column(j)) for j in range(dims[(v,)])]
            if None in cols:
                break
            for j in range(len(cols)):
                for k in kernel:
                    c = rng.randint(-1, 1)
                    cols[j] = [x + c * y for x, y in zip(cols[j], k)]
            maps[((v,), e1)] = first
            maps[((v,), e2)] = RationalMatrix(
                dims[e2], dims[(v,)], [x for row in zip(*cols) for x in row])
        else:
            return CellularSheaf(base, dims, maps)


def _interval_sheaf(rng, base):
    """A sheaf of coordinates, each living on an interval of faces
    {f : low <= f <= high}, conjugated by a random invertible matrix with
    fractional entries per face.  Attachments keep the coordinates both
    faces have and drop the rest, so they are often rank-deficient; an
    interval is convex in the face order, so every square commutes.
    Stalks have dimension 0-2."""
    faces = base.all_faces()
    while True:
        intervals = []
        for _ in range(rng.randint(1, 3)):
            low = set(rng.choice(faces))
            high = set(rng.choice([f for f in faces if low <= set(f)]))
            intervals.append({f for f in faces if low <= set(f) <= high})
        coords = {f: [c for c, on in enumerate(intervals) if f in on] for f in faces}
        if all(len(c) <= 2 for c in coords.values()):
            break
    twist = {}
    for face, cs in coords.items():
        forward, backward = random_unimodular(rng, len(cs))
        q = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in cs]
        twist[face] = (RationalMatrix.from_rows(
            [[q[i] * x for x in row] for i, row in enumerate(forward.row_lists())],
            cols=len(cs)), RationalMatrix.from_rows(
            [[x / q[j] for j, x in enumerate(row)] for row in backward.row_lists()],
            cols=len(cs)))
    maps = {}
    for sigma, tau in covering_pairs(base):
        keep = RationalMatrix.from_rows(
            [[int(c == d) for d in coords[sigma]] for c in coords[tau]],
            cols=len(coords[sigma]))
        maps[(sigma, tau)] = twist[tau][0] @ keep @ twist[sigma][1]
    return CellularSheaf(base, {f: len(c) for f, c in coords.items()}, maps)


SEARCH_SHEAVES = {"path": _free_sheaf, "cycle": _free_sheaf,
                  "long cycle": _free_sheaf, "triangle": _solved_sheaf,
                  "tetrahedron": _interval_sheaf}


def _search_case(seed):
    """A sheaf on one of ``SEARCH_SHAPES`` and seeds on its maximal faces
    (a third of the time) or on one to three faces of any dimension,
    valued from a random global section (one value nudged half the time)
    or at random.  Seeding a triangle and its tail edge sends a value up
    into an edge the triangle has only partly fixed."""
    rng = random.Random(seed)
    shape = rng.choice(sorted(SEARCH_SHAPES))
    base = validate_complex(SEARCH_SHAPES[shape])
    s = SEARCH_SHEAVES[shape](rng, base)
    faces = base.all_faces()
    if rng.random() < 1 / 3:
        seeded = [f for f in faces
                  if not any(set(f) < set(g) for g in base.faces)]
    else:
        seeded = rng.sample(faces, rng.randint(1, 3))
    if rng.random() < 0.5:
        section = {f: [0] * s.stalk_dim[f] for f in faces}
        for vec in global_section_space(s).basis:
            c = rng.randint(-2, 2)
            section = {f: [x + c * y for x, y in zip(section[f], vec[f])]
                       for f in faces}
        values = {f: section[f] for f in seeded}
        nudged = rng.choice(seeded)
        if values[nudged] and rng.random() < 0.5:
            values[nudged] = [values[nudged][0] + 1] + values[nudged][1:]
    else:
        values = {f: [_small_entry(rng) for _ in range(s.stalk_dim[f])]
                  for f in seeded}
    return s, Assignment(values)


def test_obstruction_search_matches_the_eliminating_oracle(monkeypatch):
    # The search evaluates each constraint at a face's value once it has
    # one; the oracle adds it to that face's reduction.  Every result,
    # propagated values included, must be the same to the byte.
    from sheafcalc import cellsheaf

    outcomes = Counter()
    for seed in range(2000):
        s, seed_values = _search_case(seed)
        got = extend(s, seed_values)
        with monkeypatch.context() as m:
            m.setattr(cellsheaf, "_localize_obstruction",
                      eliminating_localize_obstruction)
            want = extend(s, seed_values)
        assert repr(got) == repr(want), seed
        if got.ok:
            outcomes["ok"] += 1
        elif got.detail.startswith("constraints through"):
            outcomes["sweep"] += 1
        else:
            outcomes[got.kind] += 1
    assert set(outcomes) == {
        "ok", "conflicting-values", "no-consistent-value", "sweep"}, outcomes


# ------------------------------------------------------------ direct sum

def test_direct_sum_adds_dimensions():
    s = running_sheaf()
    both = direct_sum(s, s)
    assert validate_sheaf(both).ok
    for face in s.base.all_faces():
        assert both.stalk_dim[face] == 2 * RUNNING_STALK_DIMS[face]
    assert global_section_space(both).dimension == 4


def test_direct_sum_with_zero_changes_nothing():
    s = running_sheaf()
    padded = direct_sum(s, zero_sheaf(s.base))
    assert padded.stalk_dim == s.stalk_dim
    assert all(padded.restriction[p] == s.restriction[p]
               for p in covering_pairs(s.base))


def test_direct_sum_rejects_mismatches():
    s = running_sheaf()
    other = constant_sheaf(validate_complex([("a", "b")]), 1)
    with pytest.raises(ValueError, match="base mismatch"):
        direct_sum(s, other)
    dual = CellularSheaf(
        s.base, s.stalk_dim,
        {p: m.transpose() for p, m in s.restriction.items()}, "cosheaf")
    with pytest.raises(ValueError, match="variance mismatch"):
        direct_sum(s, dual)


# ------------------------------------------------------------- pullback

def test_pullback_along_identity_is_the_same_sheaf():
    s = running_sheaf()
    f = {face: face for face in s.base.all_faces()}
    back = pullback(s.base, f, s)
    assert back.stalk_dim == s.stalk_dim
    assert all(back.restriction[p] == s.restriction[p]
               for p in covering_pairs(s.base))


def test_pullback_of_point_sheaf_is_constant():
    point = validate_complex([("x",)])
    s = CellularSheaf(point, {("x",): 2}, {})
    edge = validate_complex([("a", "b")])
    f = {face: ("x",) for face in edge.all_faces()}
    back = pullback(edge, f, s)
    assert validate_sheaf(back).ok
    assert all(back.stalk_dim[face] == 2 for face in edge.all_faces())
    assert global_section_space(back).dimension == 2


def test_pullback_composes_multi_step_chains():
    rng = random.Random(3)
    triangle = validate_complex([("u", "v", "w")])
    s = random_valid_sheaf(rng, triangle)
    edge = validate_complex([("a", "b")])
    f = {("a",): ("u",), ("b",): ("v",), ("a", "b"): ("u", "v", "w")}
    back = pullback(edge, f, s)
    assert back.restriction[(("a",), ("a", "b"))] == composite_map(
        s, ("u",), ("u", "v", "w"))
    assert validate_sheaf(back).ok


def test_pullback_functoriality():
    rng = random.Random(11)
    z = validate_complex([("u", "v", "w")])
    sz = random_valid_sheaf(rng, z)
    y = validate_complex([("p", "q"), ("q", "r")])
    g = {("p",): ("u",), ("q",): ("v",), ("r",): ("v",),
         ("p", "q"): ("u", "v"), ("q", "r"): ("v",)}
    x = validate_complex([("a", "b")])
    f = {("a",): ("p",), ("b",): ("q",), ("a", "b"): ("p", "q")}
    two_steps = pullback(x, f, pullback(y, g, sz))
    one_step = pullback(x, {face: g[f[face]] for face in f}, sz)
    assert two_steps.stalk_dim == one_step.stalk_dim
    assert two_steps.restriction == one_step.restriction


def test_pullback_rejects_bad_face_maps():
    s = running_sheaf()
    edge = validate_complex([("a", "b")])
    with pytest.raises(ValueError, match="misses"):
        pullback(edge, {("a",): ("a",)}, s)
    with pytest.raises(ValueError, match="leaves the target"):
        pullback(edge, {("a",): ("z",), ("b",): ("a",),
                        ("a", "b"): ("a", "b")}, s)
    with pytest.raises(ValueError, match="not order-preserving"):
        pullback(edge, {("a",): ("a",), ("b",): ("b",),
                        ("a", "b"): ("a",)}, s)


# ------------------------------------------------------------- morphisms

def test_identity_morphism_checks_out():
    s = running_sheaf()
    m = SheafMorphism(
        source=s, target=s,
        cell_map={face: face for face in s.base.all_faces()},
        components={face: RationalMatrix.identity(s.stalk_dim[face])
                    for face in s.base.all_faces()})
    report = check_morphism(m)
    assert report.ok
    assert report.squares == ()
    assert report.induced_ok
    assert len(report.induced) == 2
    for image in report.induced:
        assert is_global_section(s, image).ok


def test_projection_morphism_between_constant_sheaves():
    edge = validate_complex([("a", "b")])
    wide = constant_sheaf(edge, 2)
    narrow = constant_sheaf(edge, 1)
    proj = RationalMatrix.from_rows([[1, 0]])
    m = SheafMorphism(
        source=wide, target=narrow,
        cell_map={face: face for face in edge.all_faces()},
        components={face: proj for face in edge.all_faces()})
    report = check_morphism(m)
    assert report.ok and report.induced_ok


def test_broken_component_is_caught():
    edge = validate_complex([("a", "b")])
    wide = constant_sheaf(edge, 2)
    narrow = constant_sheaf(edge, 1)
    components = {face: RationalMatrix.from_rows([[1, 0]])
                  for face in edge.all_faces()}
    components[("a", "b")] = RationalMatrix.from_rows([[0, 1]])
    m = SheafMorphism(
        source=wide, target=narrow,
        cell_map={face: face for face in edge.all_faces()},
        components=components)
    report = check_morphism(m)
    assert not report.ok
    assert set(report.squares) == {(("a",), ("a", "b")),
                                   (("b",), ("a", "b"))}
    assert not report.induced_ok


def test_morphism_structural_asserts():
    s = running_sheaf()
    ident = {face: face for face in s.base.all_faces()}
    eyes = {face: RationalMatrix.identity(s.stalk_dim[face])
            for face in s.base.all_faces()}
    with pytest.raises(SheafcalcError, match="no component"):
        missing = dict(eyes)
        del missing[("a",)]
        SheafMorphism(s, s, ident, missing)
    with pytest.raises(SheafcalcError):
        wrong = dict(eyes)
        wrong[("a",)] = RationalMatrix.identity(5)
        SheafMorphism(s, s, ident, wrong)


# ---------------------------------------------------- incomplete sheaves

CE = (("c",), ("c", "e"))
MISSING_CE = r"invalid sheaf: missing-map at \(\('c',\), \('c', 'e'\)\)"


def _without_ce(s):
    maps = dict(s.restriction)
    del maps[CE]
    return CellularSheaf(s.base, s.stalk_dim, maps)


def _identity_morphism(source, target):
    faces = target.base.all_faces()
    return SheafMorphism(
        source, target, {face: face for face in faces},
        {face: RationalMatrix.identity(target.stalk_dim[face]) for face in faces})


def test_section_check_refuses_an_incomplete_sheaf():
    s = _without_ce(running_sheaf())
    zero = Assignment({f: (0,) * s.stalk_dim[f] for f in s.base.all_faces()})
    with pytest.raises(SheafcalcError, match=MISSING_CE):
        is_global_section(s, zero)
    maps = {**running_sheaf().restriction, CE: RationalMatrix.identity(3)}
    with pytest.raises(SheafcalcError,
                       match=r"invalid sheaf: shape at .*\(3, 3\), \(2, 2\)\)"):
        is_global_section(CellularSheaf(s.base, s.stalk_dim, maps), zero)


def test_composite_map_refuses_only_the_steps_it_walks():
    s = _without_ce(running_sheaf())
    with pytest.raises(SheafcalcError, match=MISSING_CE):
        composite_map(s, ("c",), ("c", "e"))
    # c < cd < cde adds d before e and never needs c < ce
    assert composite_map(s, ("c",), ("c", "d", "e")) == composite_map(
        running_sheaf(), ("c",), ("c", "d", "e"))


def test_composite_map_refuses_a_face_the_complex_lacks():
    s = running_sheaf()
    for rho, tau in ((("a",), ("a", "zz")), (("zz",), ("zz",)),
                     (("zz",), ("a", "zz")), (("a",), ("a", "e"))):
        with pytest.raises(SheafcalcError, match=r"^unknown face in "):
            composite_map(s, rho, tau)
    # either face may be named in any vertex order
    assert composite_map(s, ("c",), ("e", "d", "c")) == composite_map(
        s, ("c",), ("c", "d", "e"))
    assert composite_map(s, ("d", "c"), ("c", "d", "e")) == composite_map(
        s, ("c", "d"), ("c", "d", "e"))


def test_direct_sum_refuses_missing_and_misshapen_maps():
    line = constant_sheaf(validate_complex([("a", "b")]), 1)
    pair = (("a",), ("a", "b"))
    wide = CellularSheaf(line.base, line.stalk_dim,
                         {**line.restriction, pair: RationalMatrix.identity(2)})
    with pytest.raises(SheafcalcError, match=r"invalid sheaf: shape at"):
        direct_sum(line, wide)
    bare = CellularSheaf(line.base, line.stalk_dim, {})
    with pytest.raises(SheafcalcError, match=r"invalid sheaf: missing-map at"):
        direct_sum(bare, line)
    with pytest.raises(SheafcalcError, match=r"invalid sheaf: missing-map at"):
        direct_sum(line, bare)


def test_pullback_refuses_a_missing_map_on_its_route():
    s = _without_ce(running_sheaf())
    edge = validate_complex([("x", "y")])
    with pytest.raises(SheafcalcError, match=MISSING_CE):
        pullback(edge, {("x",): ("c",), ("y",): ("e",),
                        ("x", "y"): ("c", "e")}, s)
    # a route that avoids c < ce still pulls back
    back = pullback(edge, {("x",): ("c",), ("y",): ("d",),
                           ("x", "y"): ("c", "d")}, s)
    assert back.restriction[(("x",), ("x", "y"))] == s.restriction[
        (("c",), ("c", "d"))]


def test_check_morphism_refuses_incomplete_sheaves():
    s = running_sheaf()
    broken = _without_ce(s)
    with pytest.raises(SheafcalcError, match=MISSING_CE):
        check_morphism(_identity_morphism(s, broken))
    with pytest.raises(SheafcalcError, match=MISSING_CE):
        check_morphism(_identity_morphism(broken, s))


# ------------------------------------------------------------- refusals

EDGE = validate_complex([("a", "b")])
EDGE_SHEAF = constant_sheaf(EDGE)
EDGE_COSHEAF = CellularSheaf(EDGE, EDGE_SHEAF.stalk_dim, {}, "cosheaf")

REFUSALS = {
    "variance": (lambda: CellularSheaf(EDGE, {}, {}, "other"),
                 "unknown variance 'other'"),
    "composite-not-nested": (lambda: composite_map(EDGE_SHEAF, ("a", "b"), ("a",)),
                             "('a', 'b') is not a face of ('a',)"),
    "morphism-of-a-cosheaf": (lambda: SheafMorphism(EDGE_COSHEAF, EDGE_SHEAF, {}, {}),
                              "a sheaf morphism joins two sheaves"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(SheafcalcError) as refused:
        call()
    assert str(refused.value) == message
