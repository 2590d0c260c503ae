import random

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.errors import SheafcalcError
from sheafcalc.poset import (
    FinitePoset, OrderViolation, alexandrov, all_downsets, downset_family,
    is_monotone, set_label, validate_poset, validate_topology, yoneda_check)

from util import random_poset


def fence():
    # a <= c, b <= c, b <= d: the smallest poset whose downset lattice
    # is not a chain or a boolean algebra
    return validate_poset("abcd", [("a", "c"), ("b", "c"), ("b", "d")])


# ------------------------------------------------------------ validation

def test_validate_closes_transitively_and_reflexively():
    p = validate_poset("xyz", [("x", "y"), ("y", "z")])
    assert p.leq("x", "z")
    assert all(p.leq(e, e) for e in "xyz")
    assert not p.leq("z", "x")


def test_validate_rejects_two_cycle_with_witness():
    with pytest.raises(OrderViolation) as err:
        validate_poset("ab", [("a", "b"), ("b", "a")])
    assert set(err.value.cycle) == {"a", "b"}


def test_validate_rejects_longer_cycle():
    with pytest.raises(OrderViolation):
        validate_poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def test_validate_rejects_unknown_labels():
    with pytest.raises(SheafcalcError):
        validate_poset("ab", [("a", "q")])


# ------------------------------------------------------------ principals

def test_principal_sets():
    p = fence()
    assert p.principal_down("c") == {"a", "b", "c"}
    assert p.principal_down("a") == {"a"}
    assert p.principal_up("b") == {"b", "c", "d"}
    assert p.principal_up("c") == {"c"}


def test_dualize_swaps_principals_and_is_involutive():
    p = fence()
    d = p.dualize()
    assert d.principal_down("b") == p.principal_up("b")
    assert d.dualize() == p


# -------------------------------------------------------------- downsets

def test_fence_has_exactly_eight_downsets():
    expected = [set(), {"a"}, {"b"}, {"a", "b"}, {"b", "d"},
                {"a", "b", "c"}, {"a", "b", "d"}, {"a", "b", "c", "d"}]
    family = downset_family(fence())
    assert [set(s) for s in family] == sorted(
        expected, key=lambda s: (len(s), tuple(sorted(s))))
    assert len(family) == 8


def test_chain_and_antichain_downset_counts():
    chain = validate_poset("abc", [("a", "b"), ("b", "c")])
    assert len(downset_family(chain)) == 4
    antichain = validate_poset("abc", [])
    assert len(downset_family(antichain)) == 8


def test_downset_lattice_orders_by_inclusion_and_is_a_lattice():
    lat = all_downsets(fence())
    family = downset_family(fence())
    assert len(lat) == len(family)
    for s in family:
        for t in family:
            assert lat.leq(set_label(s), set_label(t)) == (s <= t)
    assert lat.is_lattice()
    # joins are unions, meets are intersections
    for s in family:
        for t in family:
            assert lat.join((set_label(s), set_label(t))) == set_label(s | t)
            assert lat.meet((set_label(s), set_label(t))) == set_label(s & t)


def test_downset_guard():
    big = validate_poset([f"e{i:02d}" for i in range(17)], [])
    with pytest.raises(ValueError, match="capped"):
        downset_family(big)


# ---------------------------------------------------------------- yoneda

def test_yoneda_on_fence():
    ok, witness = yoneda_check(fence())
    assert ok, witness


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_yoneda_on_random_posets(seed):
    p = random_poset(random.Random(seed), max_elements=5)
    ok, witness = yoneda_check(p)
    assert ok, witness


# -------------------------------------------------------------- monotone

def test_is_monotone():
    chain = validate_poset("ab", [("a", "b")])
    p = fence()
    assert is_monotone(p, chain, {"a": "a", "b": "a", "c": "b", "d": "b"})
    assert not is_monotone(p, chain, {"a": "b", "b": "a", "c": "a", "d": "b"})
    with pytest.raises(SheafcalcError):
        is_monotone(p, chain, {"a": "a"})  # partial map


# -------------------------------------------------------------- topology

def test_alexandrov_down_opens_are_downsets():
    p = fence()
    topo = alexandrov(p, "down")
    assert topo.opens == frozenset(downset_family(p))
    assert topo.minimal_open_containing("c") == p.principal_down("c")


def test_alexandrov_up_minimal_opens_are_upsets():
    p = fence()
    topo = alexandrov(p, "up")
    assert topo.minimal_open_containing("b") == p.principal_up("b")
    assert topo.is_open(frozenset({"c", "d"}))
    assert not topo.is_open(frozenset({"b"}))


def test_validate_topology_accepts_and_rejects():
    t = validate_topology("ab", [set(), {"a"}, {"a", "b"}])
    assert t.is_open({"a"})
    with pytest.raises(ValueError, match="union"):
        validate_topology("abc", [set(), {"a"}, {"b"}, {"a", "b", "c"}])
    with pytest.raises(ValueError, match="empty"):
        validate_topology("a", [{"a"}])


def test_validate_topology_refuses_opens_outside_the_space():
    with pytest.raises(SheafcalcError, match="leaves the space"):
        validate_topology("ab", [set(), {"a", "z"}, {"a", "b"}])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_alexandrov_topologies_always_validate(seed):
    p = random_poset(random.Random(seed), max_elements=5)
    for direction in ("up", "down"):
        topo = alexandrov(p, direction)
        validate_topology(topo.points, topo.opens)


# ------------------------------------------------------------ immutability

def test_poset_is_immutable():
    p = fence()
    with pytest.raises(AttributeError):
        p.elements = ()
