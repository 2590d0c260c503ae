import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.cli import main
from sheafcalc.errors import SheafcalcError
from sheafcalc.poset import (
    FinitePoset, OrderViolation, _monotonicity_witness, alexandrov,
    all_downsets, downset_family, is_monotone, set_label, validate_poset,
    validate_topology, yoneda_check)

from util import (
    ScanPoset, mask_downset_family, matrix_closure_poset,
    pair_scan_monotonicity_witness, random_poset, under_hash_seeds)


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


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_validate_matches_the_matrix_closure(seed):
    # arbitrary relations, so cycles of every length show up
    rng = random.Random(seed)
    labels = [f"e{i}" for i in range(rng.randint(1, 9))]
    pairs = [(rng.choice(labels), rng.choice(labels))
             for _ in range(rng.randint(0, 2 * len(labels)))]
    try:
        expected = matrix_closure_poset(labels, pairs)
    except OrderViolation as err:
        with pytest.raises(OrderViolation) as got:
            validate_poset(labels, pairs)
        assert got.value.cycle == err.cycle
        return
    assert validate_poset(labels, pairs) == expected


# ------------------------------------------------------------ principals

def test_principal_sets():
    p = fence()
    assert p.principal_down("c") == {"a", "b", "c"}
    assert p.principal_down("a") == {"a"}
    assert p.principal_up("b") == {"b", "c", "d"}
    assert p.principal_up("c") == {"c"}


def test_unknown_labels_get_empty_answers():
    # a FinitePoset is a trusted value: a label it does not have is
    # below, above and bounded by nothing, and is not refused
    p = fence()
    assert p.principal_down("zz") == frozenset()
    assert p.principal_up("zz") == frozenset()
    assert p.join(["zz"]) is None and p.meet(["zz"]) is None
    assert p.join(["a", "zz"]) is None
    assert p.upper_bounds(["zz"]) == [] and p.lower_bounds(["zz"]) == []
    assert p.leq("zz", "a") is False and p.leq("a", "zz") is False
    assert p.leq("zz", "zz") is False


def random_relation(rng, n):
    """A random relation on n labels with no cycles of length > 1."""
    labels = [f"p{i}" for i in range(n)]
    return labels, [(labels[i], labels[j]) for i in range(n)
                    for j in range(i + 1, n) if rng.random() < 0.4]


def order_answers(p, subsets):
    """Every order query on p, for each element and each subset."""
    probes = list(p.elements) + ["zz"]
    return (
        p.pairs(), p.top(), p.bottom(), p.is_lattice(), p.dualize().pairs(),
        downset_family(p), yoneda_check(p),
        [(p.principal_down(x), p.principal_up(x)) for x in probes],
        [p.leq(x, y) for x in probes for y in probes],
        [(p.upper_bounds(s), p.lower_bounds(s), p.join(s), p.meet(s))
         for s in subsets])


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_order_queries_match_the_pair_scan(seed):
    rng = random.Random(seed)
    labels, raw = random_relation(rng, rng.randint(0, 7))
    p = matrix_closure_poset(labels, raw)
    if rng.random() < 0.5 and len(p) <= 4:
        # a downset lattice, so that joins and meets exist
        lattice = all_downsets(p)
        labels, raw = lattice.elements, lattice.pairs()
        p = matrix_closure_poset(labels, raw)
    scan = matrix_closure_poset(labels, raw, ScanPoset)
    subsets = [rng.sample(p.elements, rng.randint(0, min(3, len(p))))
               for _ in range(12)]
    subsets += [s + ["zz"] for s in subsets[:3]]
    assert order_answers(p, subsets) == order_answers(scan, subsets)
    assert p.dualize() == validate_poset(labels, [(y, x) for x, y in raw])


def test_top_is_the_greatest_element_and_bottom_the_least():
    chain = validate_poset("abc", [("a", "b"), ("b", "c")])
    assert (chain.top(), chain.bottom()) == ("c", "a")
    lattice = all_downsets(validate_poset([f"e{i}" for i in range(8)], []))
    assert lattice.top() == "{e0,e1,e2,e3,e4,e5,e6,e7}"
    assert lattice.bottom() == "{}"
    antichain = validate_poset("ab", [])
    assert antichain.top() is None and antichain.bottom() is None


def test_pairs_must_name_elements():
    with pytest.raises(SheafcalcError, match=r"^pair 'a' <= 'zz' leaves the poset$"):
        FinitePoset("ab", [("a", "a"), ("a", "zz")])
    with pytest.raises(SheafcalcError, match=r"^pair 'zz' <= 'b' leaves the poset$"):
        FinitePoset("ab", [("zz", "b")])


def test_copies_keep_equality_hash_and_order():
    p = fence()
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and hash(clone) == hash(p)
        assert clone.pairs() == p.pairs() and repr(clone) == repr(p)
    assert p != validate_poset("abcd", [("a", "c")])
    assert p != fence().dualize()


def test_dualize_swaps_principals_and_is_involutive():
    p = fence()
    d = p.dualize()
    assert d.principal_down("b") == p.principal_up("b")
    assert d.dualize() == p


def test_dualize_equals_the_dual_built_from_the_reversed_pairs():
    rng = random.Random(11)
    for _ in range(300):
        p = random_poset(rng, max_elements=9, edge_prob=rng.choice((0.2, 0.4, 0.7)))
        d = p.dualize()
        built = FinitePoset(p.elements, [(y, x) for x, y in p.pairs()])
        assert d == built and hash(d) == hash(built)
        assert d.pairs() == built.pairs()
        assert [(d.principal_down(x), d.principal_up(x)) for x in p.elements] == [
            (built.principal_down(x), built.principal_up(x)) for x in p.elements]
        assert d.dualize() == p and hash(d.dualize()) == hash(p)
        assert pickle.loads(pickle.dumps(d)) == built


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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_downset_family_matches_the_mask_scan(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_elements=10, edge_prob=rng.random())
    assert downset_family(p) == mask_downset_family(p)


def chain(n):
    labels = [f"c{i:02d}" for i in range(n)]
    return labels, [[x, y] for x, y in zip(labels, labels[1:])]


def test_forty_chain_has_its_forty_one_prefixes():
    labels, pairs = chain(40)
    family = downset_family(validate_poset(labels, pairs))
    assert family == [frozenset(labels[:k]) for k in range(41)]


def test_downset_cap_admits_the_sixteen_antichain():
    # 2^16 downsets, the most any 16-element poset has, is not refused
    p = validate_poset([f"e{i:02d}" for i in range(16)], [])
    assert len(downset_family(p)) == 65536


def test_cli_refuses_too_many_downsets_with_exit_2(tmp_path, capsys):
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps(
        {"elements": [f"e{i:02d}" for i in range(17)], "leq": []}))
    for action in ("downsets", "yoneda"):
        code = main(["poset", action, "--poset", str(path)])
        assert (code, capsys.readouterr().out) == (2, (
            '{"error":"downset enumeration capped at 65536 downsets",'
            '"location":"poset:elements"}\n'))


def test_cli_enumerates_a_twenty_chain(tmp_path, capsys):
    labels, pairs = chain(20)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"elements": labels, "leq": pairs}))
    assert main(["poset", "downsets", "--poset", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == [
        set_label(labels[:k]) for k in range(21)]
    assert main(["poset", "yoneda", "--poset", str(path)]) == 0
    assert capsys.readouterr().out == '{"ok":true}\n'


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


def test_monotonicity_witness_is_the_first_failing_pair_of_the_scan():
    rng = random.Random(12)
    kinds = set()
    for _ in range(600):
        source = random_poset(rng, max_elements=8, edge_prob=rng.choice((0.2, 0.5)))
        target = random_poset(rng, max_elements=5, edge_prob=rng.choice((0.3, 0.7)))
        # monotone by construction (the identity or a constant map) or
        # random, then perhaps one value moved
        roll = rng.random()
        if roll < 0.25:
            target = source
            mapping = {x: x for x in source.elements}
        elif roll < 0.5:
            mapping = {x: target.elements[0] for x in source.elements}
        else:
            mapping = {x: rng.choice(target.elements) for x in source.elements}
        if rng.random() < 0.3:
            mapping[rng.choice(source.elements)] = rng.choice(target.elements)
        got = _monotonicity_witness(source, target, mapping)
        assert got == pair_scan_monotonicity_witness(source, target, mapping)
        kinds.add(got is None)
    assert kinds == {True, False}
    p, chain = fence(), validate_poset("ab", [("a", "b")])
    # a partial map, a value outside the target, and an unhashable value,
    # which no element equals, so it too is refused as outside
    for mapping in ({"a": "a"}, {"a": "a", "b": "a", "c": "zz", "d": "b"},
                    {"a": "a", "b": ["a"], "c": "b", "d": "b"}):
        with pytest.raises(SheafcalcError) as got:
            _monotonicity_witness(p, chain, mapping)
        with pytest.raises(SheafcalcError) as want:
            pair_scan_monotonicity_witness(p, chain, mapping)
        assert str(got.value) == str(want.value)


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


def test_the_least_open_outside_the_space_is_named_under_every_hash_seed():
    # opens by size, then by sorted members, never in set order
    assert under_hash_seeds(
        "from sheafcalc.poset import validate_topology\n"
        "try:\n"
        "    validate_topology('ab', [(), 'ab', 'az', 'vw', 'y', 'x', 'b'])\n"
        "except ValueError as err:\n"
        "    print(err)\n") == {"open set ['x'] leaves the space\n"}


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
