import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc import galois
from sheafcalc.errors import SheafcalcError
from sheafcalc.galois import (
    AdjointSynthesisError, GaloisConnection, cantor_diagonal,
    check_connection, compose_connections, induced_operators,
    left_adjoint_of, right_adjoint_of)
from sheafcalc.poset import (
    FinitePoset, all_downsets, downset_family, is_monotone, set_label,
    validate_poset)

from util import random_poset, scan_check_connection, scan_right_adjoint_of


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


def test_a_connection_with_a_missing_leg_is_refused():
    # the CLI parses a connection document with either leg left out as
    # None; every function that checks the connection refuses it by side
    p = chain("ab")
    ident = {"a": "a", "b": "b"}
    for left, right, side in ((ident, None, "right"), (None, ident, "left")):
        c = GaloisConnection(p, p, left, right)
        for fn, args in ((check_connection, (c,)), (induced_operators, (c,)),
                         (compose_connections, (c, identity_connection(p))),
                         (compose_connections, (identity_connection(p), c))):
            with pytest.raises(SheafcalcError, match=f"^connection has no {side} map$"):
                fn(*args)


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


# ---------------------------------------------- against the pair scans

def random_map(rng, dom, cod):
    return {x: rng.choice(cod.elements) for x in dom.elements}


def random_monotone_map(rng, dom, cod):
    """Along a linear extension, each element goes to a random upper
    bound of the images below it; None when there is no such bound."""
    f = {}
    for x in sorted(dom.elements, key=lambda e: (len(dom.principal_down(e)), e)):
        above = cod.upper_bounds([f[y] for y in dom.principal_down(x) - {x}])
        if not above:
            return None
        f[x] = rng.choice(above)
    return f


def closure_connection(rng, p):
    """A random Moore family on D(p), ordered by inclusion: the closure
    onto it is left adjoint to its inclusion into D(p)."""
    dp = all_downsets(p)
    family = {frozenset(p.elements)}
    for a in downset_family(p):
        if rng.random() < 0.3:
            family |= {a & b for b in family} | {a}
    closed = validate_poset(
        [set_label(a) for a in family],
        [(set_label(a), set_label(b)) for a in family for b in family if a <= b])
    close = {set_label(a): set_label(min((b for b in family if a <= b), key=len))
             for a in downset_family(p)}
    include = {y: y for y in closed.elements}
    return GaloisConnection(dp, closed, close, include)


def galois_corpus(rng):
    """One connection from each family: random maps, random monotone
    maps, a join-preserving map of downset lattices with its right
    adjoint, and a closure with its inclusion.  The last two have a leg
    moved at one point half the time."""
    p, q = random_poset(rng, max_elements=5), random_poset(rng, max_elements=5)
    yield GaloisConnection(p, q, random_map(rng, p, q), random_map(rng, q, p))
    f, g = random_monotone_map(rng, p, q), random_monotone_map(rng, q, p)
    yield GaloisConnection(p, q, f or random_map(rng, p, q),
                           g or random_map(rng, q, p))
    p = random_poset(rng, max_elements=4)
    dp, lattice = all_downsets(p), all_downsets(random_poset(rng, max_elements=3))
    f = monotone_join_map(rng, p, lattice)
    conn = GaloisConnection(dp, lattice, f, scan_right_adjoint_of(f, dp, lattice))
    for c in (conn, closure_connection(rng, random_poset(rng, max_elements=4))):
        if rng.random() < 0.5:
            right = dict(c.right)
            right[rng.choice(c.target.elements)] = rng.choice(c.source.elements)
            c = GaloisConnection(c.source, c.target, c.left, right)
        yield c


def outcome(fn, *args):
    """fn's value by repr, or its refusal with every field."""
    try:
        return ("value", repr(fn(*args)))
    except AdjointSynthesisError as err:
        return (type(err).__name__, err.kind,
                repr((err.at, err.subset, err.bound, err.image)), str(err))
    except SheafcalcError as err:
        return (type(err).__name__, str(err))


def identity_connection(p):
    ident = {x: x for x in p.elements}
    return GaloisConnection(p, p, ident, ident)


def galois_answers(c):
    p, q = c.source, c.target
    return [
        outcome(check_connection, c),
        outcome(right_adjoint_of, c.left, p, q),
        outcome(left_adjoint_of, c.right, p, q),
        outcome(induced_operators, c),
        outcome(compose_connections, c, identity_connection(q)),
        outcome(compose_connections, identity_connection(p), c),
    ]


def scan_galois_answers(c):
    """galois_answers with the scan bodies patched in, so every caller
    of check_connection and right_adjoint_of reaches them too."""
    with mock.patch.object(galois, "check_connection", scan_check_connection), \
            mock.patch.object(galois, "right_adjoint_of", scan_right_adjoint_of):
        return galois_answers(c)


def test_galois_answers_match_the_pair_scans():
    rng = random.Random(2222)
    kinds = set()
    for _ in range(250):
        for c in galois_corpus(rng):
            answers = galois_answers(c)
            assert answers == scan_galois_answers(c)
            kinds.add(check_connection(c).kind)
            kinds.update(a[1] for a in answers[1:3]
                         if a[0] == "AdjointSynthesisError")
    # every report kind a validated poset allows, and every kind of
    # synthesis refusal
    assert kinds == {None, "left-not-monotone", "right-not-monotone",
                     "adjunction", "no-join", "join-not-preserved",
                     "no-meet", "meet-not-preserved"}


def test_adjunction_witness_is_the_first_failing_pair_in_scan_order():
    # (a, y) and (b, x) both fail; the scan meets (a, y) first
    p, q = validate_poset("ab", []), validate_poset("xy", [])
    c = GaloisConnection(p, q, {"a": "x", "b": "x"}, {"x": "a", "y": "a"})
    assert check_connection(c) == scan_check_connection(c)
    assert check_connection(c).witness == ("a", "y")


def test_no_leq_call_per_pair():
    # the identity on a 30-point antichain: the scans made 900 leq calls
    # per pass over the pairs; the check now makes none (the monotonicity
    # check tests set inclusions, and the adjunction compares cones), and
    # the synthesis a constant number per element, in its join test
    n = 30
    p = validate_poset([f"e{i:02d}" for i in range(n)], [])
    ident = {x: x for x in p.elements}
    leq = FinitePoset.leq
    calls = []

    def counted(self, x, y):
        calls.append((x, y))
        return leq(self, x, y)

    with mock.patch.object(FinitePoset, "leq", counted):
        assert check_connection(GaloisConnection(p, p, ident, ident)).ok
        assert calls == []
        assert right_adjoint_of(ident, p, p) == ident
        assert len(calls) <= 6 * n


# ---------------------------------------------------- induced + composed

def test_induced_operators_on_hand_connection():
    ops = induced_operators(hand_connection())
    assert ops["closure"].mapping == {"a": "b", "b": "b", "c": "c"}
    assert ops["kernel"].mapping == {"x": "x", "y": "y"}


def join_connection(rng, p, r):
    """A random join-preserving map D(p) -> D(r) with its right adjoint
    found by the pair scan."""
    dp, dr = all_downsets(p), all_downsets(r)
    f = monotone_join_map(rng, p, dr)
    return GaloisConnection(dp, dr, f, scan_right_adjoint_of(f, dp, dr))


def connection_corpus(rng):
    """The connections of galois_corpus that pass the checker, then a
    join-preserving map with its adjoint and a closure with its
    inclusion, which always do."""
    yield from (c for c in galois_corpus(rng) if check_connection(c).ok)
    yield join_connection(rng, random_poset(rng, max_elements=4),
                          random_poset(rng, max_elements=3))
    yield closure_connection(rng, random_poset(rng, max_elements=4))


def test_induced_operators_obey_the_closure_and_kernel_laws():
    rng = random.Random(3131)
    seen = 0
    for _ in range(150):
        for c in connection_corpus(rng):
            p, q, f, g = c.source, c.target, c.left, c.right
            ops = induced_operators(c)
            closure, kernel = ops["closure"].mapping, ops["kernel"].mapping
            assert (ops["closure"].poset, ops["kernel"].poset) == (p, q)
            assert (ops["closure"].kind, ops["kernel"].kind) == ("closure", "kernel")
            assert all(f[g[f[x]]] == f[x] for x in p.elements)  # FGF = F
            assert all(g[f[g[y]]] == g[y] for y in q.elements)  # GFG = G
            assert closure == {x: g[f[x]] for x in p.elements}
            assert kernel == {y: f[g[y]] for y in q.elements}
            for x in p.elements:
                assert p.leq(x, closure[x])
                assert closure[closure[x]] == closure[x]
            for y in q.elements:
                assert q.leq(kernel[y], y)
                assert kernel[kernel[y]] == kernel[y]
            assert is_monotone(p, p, closure) and is_monotone(q, q, kernel)
            seen += 1
    assert seen > 300


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


def test_composites_of_random_connections_are_connections():
    # D(p) -> D(r) by a join-preserving map, then on from D(r) by another
    # join-preserving map or by the closure onto a Moore family
    rng = random.Random(3232)
    for _ in range(100):
        p, r, s = (random_poset(rng, max_elements=n) for n in (4, 3, 3))
        inner = join_connection(rng, p, r)
        for outer in (join_connection(rng, r, s), closure_connection(rng, r)):
            comp = compose_connections(inner, outer)
            assert (comp.source, comp.target) == (inner.source, outer.target)
            assert comp.left == {x: outer.left[inner.left[x]]
                                 for x in inner.source.elements}
            assert comp.right == {z: inner.right[outer.right[z]]
                                  for z in outer.target.elements}
            assert check_connection(comp).ok
            assert scan_check_connection(comp).ok


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


# ------------------------------------------------------------- refusals

SWAP = {"0": "1", "1": "0"}

REFUSALS = {
    "alpha-partial": (lambda: cantor_diagonal({}, "a", "01", {"0": "1"}),
                      "alpha must be total"),
    "alpha-leaves": (lambda: cantor_diagonal({}, "a", "01", {"0": "2", "1": "0"}),
                     "alpha leaves ys at '0'"),
    "f-partial": (lambda: cantor_diagonal({}, "a", "01", SWAP),
                  "f is partial at ('a', 'a')"),
    "f-leaves": (lambda: cantor_diagonal({("a", "a"): "2"}, "a", "01", SWAP),
                 "f leaves ys at ('a', 'a')"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(SheafcalcError) as refused:
        call()
    assert str(refused.value) == message
