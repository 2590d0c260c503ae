import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.errors import SheafcalcError
from sheafcalc.galois import (
    AdjointSynthesisError, GaloisConnection, cantor_diagonal,
    check_connection, compose_connections, induced_operators,
    left_adjoint_of, right_adjoint_of)
from sheafcalc.poset import all_downsets, downset_family, set_label, validate_poset

from util import random_poset


def chain(labels):
    return validate_poset(labels, list(zip(labels, labels[1:])))


def hand_connection():
    # F collapses a<b onto x, sends c to y; G picks the largest preimages
    p = chain("abc")
    q = chain("xy")
    f = {"a": "x", "b": "x", "c": "y"}
    g = {"x": "b", "y": "c"}
    return GaloisConnection(p, q, f, g)


# ---------------------------------------------------------------- checker

def test_hand_connection_passes():
    assert check_connection(hand_connection()).ok


def test_broken_right_map_reports_adjunction_witness():
    c = hand_connection()
    bad = GaloisConnection(c.source, c.target, c.left, {"x": "a", "y": "c"})
    report = check_connection(bad)
    assert not report.ok
    assert report.kind == "adjunction"
    assert report.witness == ("b", "x")  # F(b)=x<=x but b<=G(x)=a fails


def test_nonmonotone_left_reported():
    p = chain("ab")
    q = chain("xy")
    report = check_connection(
        GaloisConnection(p, q, {"a": "y", "b": "x"}, {"x": "a", "y": "b"}))
    assert not report.ok
    assert report.kind == "left-not-monotone"
    assert report.witness == ("a", "b")
    # the right leg is checked the same way once the left one passes
    report = check_connection(
        GaloisConnection(p, q, {"a": "x", "b": "y"}, {"x": "b", "y": "a"}))
    assert not report.ok
    assert report.kind == "right-not-monotone"
    assert report.witness == ("x", "y")


def test_partial_maps_rejected():
    c = hand_connection()
    with pytest.raises(SheafcalcError):
        check_connection(GaloisConnection(c.source, c.target, {"a": "x"}, c.right))


# -------------------------------------------------------------- synthesis

def test_right_adjoint_recovered_from_left():
    c = hand_connection()
    assert right_adjoint_of(c.left, c.source, c.target) == c.right


def test_left_adjoint_recovered_from_right():
    c = hand_connection()
    assert left_adjoint_of(c.right, c.source, c.target) == c.left


def test_join_breaker_is_refused_with_the_join():
    # boolean 4 onto a 2-chain, sending both atoms low but the top high:
    # the join {a} | {b} escapes, so no right adjoint exists
    square = all_downsets(validate_poset("ab", []))
    two = chain(["c0", "c1"])
    bot, atom_a, atom_b, top = "{}", "{a}", "{b}", "{a,b}"
    f = {bot: "c0", atom_a: "c0", atom_b: "c0", top: "c1"}
    with pytest.raises(AdjointSynthesisError) as err:
        right_adjoint_of(f, square, two)
    assert err.value.kind == "join-not-preserved"
    assert err.value.at == "c0"
    assert set(err.value.subset) == {bot, atom_a, atom_b}
    assert err.value.bound == top and err.value.image == "c1"


def test_meet_breaker_is_refused_with_the_meet():
    # dual of the join breaker: both atoms of the boolean 4 map high but
    # their meet maps low, so no left adjoint exists
    square = all_downsets(validate_poset("ab", []))
    two = chain(["c0", "c1"])
    g = {"{}": "c0", "{a}": "c1", "{b}": "c1", "{a,b}": "c1"}
    with pytest.raises(AdjointSynthesisError) as err:
        left_adjoint_of(g, two, square)
    assert err.value.kind == "meet-not-preserved"
    assert err.value.at == "c1"
    assert err.value.subset == ("{a,b}", "{a}", "{b}")
    assert err.value.bound == "{}" and err.value.image == "c0"
    assert str(err.value) == (
        "meet-not-preserved at 'c1': bound of ('{a,b}', '{a}', '{b}') "
        "is '{}', mapped to 'c0'")


def test_missing_meet_is_refused():
    # x and y are incomparable, so the pair above p has no meet
    point = chain(["p"])
    antichain = validate_poset("xy", [])
    with pytest.raises(AdjointSynthesisError) as err:
        left_adjoint_of({"x": "p", "y": "p"}, point, antichain)
    assert err.value.kind == "no-meet"
    assert err.value.at == "p"
    assert err.value.subset == ("x", "y")
    assert err.value.bound is None and err.value.image is None


def monotone_join_map(rng, p, lattice):
    """Random join-semilattice map D(p) -> lattice via a pointwise seed."""
    seed = {x: rng.choice(lattice.elements) for x in p.elements}
    f = {}
    for a in downset_family(p):
        f[set_label(a)] = lattice.join([seed[x] for x in a])
    return f


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_synthesis_succeeds_for_join_preserving_maps(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_elements=4)
    lattice = all_downsets(random_poset(rng, max_elements=3))
    dp = all_downsets(p)
    f = monotone_join_map(rng, p, lattice)
    g = right_adjoint_of(f, dp, lattice)
    conn = GaloisConnection(dp, lattice, f, g)
    assert check_connection(conn).ok
    ops = induced_operators(conn)
    assert ops["closure"].kind == "closure"
    # re-deriving the left adjoint from the synthesized right one
    # closes the loop
    assert left_adjoint_of(g, dp, lattice) == f


# ---------------------------------------------------- induced + composed

def test_induced_operators_on_hand_connection():
    ops = induced_operators(hand_connection())
    assert ops["closure"].mapping == {"a": "b", "b": "b", "c": "c"}
    assert ops["kernel"].mapping == {"x": "x", "y": "y"}


def test_induced_operators_require_a_connection():
    c = hand_connection()
    bad = GaloisConnection(c.source, c.target, c.left, {"x": "a", "y": "c"})
    with pytest.raises(SheafcalcError):
        induced_operators(bad)


def test_composition_is_a_connection():
    c1 = hand_connection()
    q = c1.target
    r = chain(["u"])
    c2 = GaloisConnection(q, r, {"x": "u", "y": "u"}, {"u": "y"})
    assert check_connection(c2).ok
    comp = compose_connections(c1, c2)
    assert comp.left == {"a": "u", "b": "u", "c": "u"}
    assert comp.right == {"u": "c"}


def test_composition_rejects_mismatched_middle():
    c1 = hand_connection()
    with pytest.raises(SheafcalcError):
        compose_connections(c1, c1)


def test_composition_rejects_a_middle_with_the_same_labels():
    # the maps compose, but the middle orders differ
    ident = {"a": "a", "b": "b"}
    ordered = GaloisConnection(chain("ab"), chain("ab"), ident, ident)
    flat_poset = validate_poset("ab", [])
    flat = GaloisConnection(flat_poset, flat_poset, ident, ident)
    with pytest.raises(SheafcalcError, match="middle posets must agree"):
        compose_connections(ordered, flat)


def test_composition_rejects_a_leg_that_is_no_connection():
    c = hand_connection()
    partial = GaloisConnection(c.source, c.target, {"a": "x"}, c.right)
    with pytest.raises(SheafcalcError, match="mapping must be total"):
        compose_connections(partial, GaloisConnection(
            c.target, c.target, {"x": "x", "y": "y"}, {"x": "x", "y": "y"}))
    swapped = GaloisConnection(c.target, c.source, c.right, c.left)
    with pytest.raises(SheafcalcError, match="not a Galois connection"):
        compose_connections(c, swapped)


# ------------------------------------------------------------- antitone

def test_complement_is_an_antitone_connection_via_dualize():
    # complement on the boolean lattice: an antitone self-adjunction,
    # rendered monotone by dualizing the target
    square = all_downsets(validate_poset("ab", []))
    family = downset_family(validate_poset("ab", []))
    full = frozenset("ab")
    comp = {set_label(s): set_label(full - s) for s in family}
    conn = GaloisConnection(square, square.dualize(), comp, comp)
    assert check_connection(conn).ok


# ------------------------------------------------------------- diagonal

def test_cantor_diagonal_escapes_every_row():
    xs = ("0", "1", "2")
    ys = ("u", "v")
    alpha = {"u": "v", "v": "u"}
    f = {(x1, x2): ys[(int(x1) + int(x2)) % 2] for x1 in xs for x2 in xs}
    g = cantor_diagonal(f, xs, ys, alpha)
    for x0 in xs:
        assert any(g[x] != f[(x, x0)] for x in xs)
        assert g[x0] != f[(x0, x0)]


def test_cantor_rejects_fixed_points():
    xs = ("0",)
    ys = ("u", "v")
    f = {("0", "0"): "u"}
    with pytest.raises(ValueError, match="fixed point"):
        cantor_diagonal(f, xs, ys, {"u": "u", "v": "u"})


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_cantor_diagonal_random_tables(seed):
    rng = random.Random(seed)
    xs = tuple(str(i) for i in range(rng.randint(1, 4)))
    ys = ("u", "v", "w")
    alpha = {"u": "v", "v": "w", "w": "u"}
    f = {pair: rng.choice(ys) for pair in product(xs, xs)}
    g = cantor_diagonal(f, xs, ys, alpha)
    for x0 in xs:
        assert g[x0] != f[(x0, x0)]
