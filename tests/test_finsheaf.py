import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.errors import SheafcalcError
from sheafcalc.finsheaf import (
    Copresheaf,
    FinitePresheaf,
    copresheaf_from_presheaf,
    irredundant_covers,
    is_sheaf,
    matching_families,
    ncolor,
    poset_transfer,
    predict,
    restrict,
    sheaf_check,
    stalk_at,
    validate_copresheaf,
    validate_presheaf,
)
from sheafcalc.poset import (
    FinitePoset, FiniteTopology, alexandrov, validate_poset, validate_topology)

from util import (
    WINDOW,
    brute_matching_families,
    combination_subgraphs,
    presheaf_g,
    presheaf_h,
    presheaf_p,
    random_copresheaf,
    random_poset,
    slow_check_tables,
    slow_compatible_tuples,
    slow_functor_laws,
    slow_is_sheaf,
    slow_sheaf_check,
    two_point_space,
)

EMPTY = frozenset()
P_OPEN = frozenset("p")
Q_OPEN = frozenset("q")
PQ = frozenset("pq")


def every_cover_verdict(p):
    """(target, cover) -> SheafCondition over all irredundant covers."""
    out = {}
    for target in p.topology.opens_sorted():
        for cover in irredundant_covers(p.topology, target):
            out[(target, cover)] = sheaf_check(p, cover, target)
    return out


class TestPresheafLaws:
    def test_fixtures_validate(self):
        for p in (presheaf_p(), presheaf_g(), presheaf_h()):
            assert validate_presheaf(p).ok

    def test_identity_violation_reported(self):
        p = presheaf_p()
        broken = dict(p.restriction)
        broken[(P_OPEN, P_OPEN)] = {s: (s if s != 0 else 1) for s in WINDOW}
        report = validate_presheaf(FinitePresheaf(p.topology, p.stalk, broken))
        assert not report.ok
        assert report.kind == "identity"
        assert report.witness[0] == P_OPEN

    def test_composition_violation_reported(self):
        topo = validate_topology("pq", [(), ("p",), ("p", "q")])
        two = frozenset((0, 1))
        stalk = {u: two for u in topo.opens}
        swap = {0: 1, 1: 0}
        ident = {0: 0, 1: 1}
        restriction = {
            (PQ, PQ): ident, (P_OPEN, P_OPEN): ident, (EMPTY, EMPTY): ident,
            (PQ, P_OPEN): ident, (P_OPEN, EMPTY): ident, (PQ, EMPTY): swap,
        }
        report = validate_presheaf(FinitePresheaf(topo, stalk, restriction))
        assert not report.ok
        assert report.kind == "composition"
        u, v, w, s, direct, stepped = report.witness
        assert (u, v, w) == (PQ, P_OPEN, EMPTY)
        assert direct != stepped

    def test_missing_restriction_rejected(self):
        p = presheaf_p()
        partial = {k: v for k, v in p.restriction.items() if k != (PQ, P_OPEN)}
        with pytest.raises(SheafcalcError):
            FinitePresheaf(p.topology, p.stalk, partial)


class TestSheafCheckFixtures:
    def test_constant_presheaf_fails_exactly_locality_at_empty(self):
        p = presheaf_p()
        verdicts = every_cover_verdict(p)
        failures = {k: v for k, v in verdicts.items() if not v.ok}
        assert set(failures) == {(EMPTY, frozenset())}
        bad = failures[(EMPTY, frozenset())]
        assert bad.locality[0] == "fail"
        assert bad.gluing[0] == "pass"
        s, t = bad.locality[1]
        assert s != t

    def test_terminal_empty_stalk_fails_exactly_gluing(self):
        g = presheaf_g()
        verdicts = every_cover_verdict(g)
        failures = {k: v for k, v in verdicts.items() if not v.ok}
        assert set(failures) == {(PQ, frozenset([P_OPEN, Q_OPEN]))}
        bad = failures[(PQ, frozenset([P_OPEN, Q_OPEN]))]
        assert bad.locality[0] == "pass"
        assert bad.gluing[0] == "fail"
        family = bad.gluing[1]
        assert family.section(P_OPEN) != family.section(Q_OPEN)

    def test_pair_presheaf_passes_everywhere(self):
        h = presheaf_h()
        assert all(v.ok for v in every_cover_verdict(h).values())
        assert is_sheaf(h)

    def test_is_sheaf_flags_both_counterexamples(self):
        assert not is_sheaf(presheaf_p())
        assert not is_sheaf(presheaf_g())

    def test_cover_union_mismatch_raises(self):
        with pytest.raises(ValueError, match="union"):
            sheaf_check(presheaf_h(), [P_OPEN], PQ)

    def test_target_must_be_open(self):
        with pytest.raises(ValueError, match="not open"):
            sheaf_check(presheaf_h(), [P_OPEN], frozenset("x"))


class TestEqualizerAgreement:
    """The check must agree with the one-shot equalizer computation:
    restriction tuples are injective iff locality holds and hit every
    matching family iff gluing holds."""

    @pytest.mark.parametrize("build", [presheaf_p, presheaf_g, presheaf_h])
    def test_direct_set_computation(self, build):
        p = build()
        for target in p.topology.opens_sorted():
            for cover in irredundant_covers(p.topology, target):
                members = sorted(cover, key=lambda u: (len(u), tuple(sorted(u))))
                image = [tuple(restrict(p, target, u, s) for u in members)
                         for s in p.stalk[target]]
                matching = {
                    tuple(fam.section(u) for u in members)
                    for fam in matching_families(p, members)}
                injective = len(set(image)) == len(image)
                surjective = matching <= set(image)
                report = sheaf_check(p, cover, target)
                assert injective == (report.locality[0] == "pass")
                assert surjective == (report.gluing[0] == "pass")


def duplicate_sections(p, u):
    """Copy every section over u, each restricting like its original;
    nothing above u restricts onto a copy.  The copies sort after the
    originals and in reverse, so the first row two sections share is
    not the row of the first section that repeats an earlier row."""
    # equal-width integers sort by repr as by value, and after any tuple
    originals = sorted(p.stalk[u], key=repr)
    copies = {2 * 10**6 - i: s for i, s in enumerate(originals)}
    stalk = dict(p.stalk)
    stalk[u] = p.stalk[u] | set(copies)
    restriction = dict(p.restriction)
    for (w, v), table in p.restriction.items():
        if w == u:
            restriction[(w, v)] = {**table, **{
                c: c if v == u else table[s] for c, s in copies.items()}}
    return FinitePresheaf(p.topology, stalk, restriction)


def remove_section(p, u, s):
    """Drop section s over u together with every section above u that
    restricts onto it."""
    stalk = {w: frozenset(r for r in p.stalk[w]
                          if not (u <= w and p.restriction[(w, u)][r] == s))
             for w in p.topology.opens}
    restriction = {(w, v): {r: t for r, t in table.items() if r in stalk[w]}
                   for (w, v), table in p.restriction.items()}
    return FinitePresheaf(p.topology, stalk, restriction)


def oracle_corpus():
    """The fixtures, transfers of random copresheaves, and those
    transfers with the sections over a random open duplicated, or with
    one section removed."""
    yield from (presheaf_p(), presheaf_g(), presheaf_h())
    for seed in range(40):
        rng = random.Random(seed)
        q = poset_transfer(random_copresheaf(rng, random_poset(rng, 4)))
        yield q
        inhabited = [w for w in q.topology.opens_sorted() if q.stalk[w]]
        yield duplicate_sections(q, rng.choice(inhabited))
        u = rng.choice(inhabited)
        yield remove_section(q, u, rng.choice(sorted(q.stalk[u], key=repr)))


def test_sheaf_checks_agree_with_the_pairwise_oracle():
    """``sheaf_check`` gives the oracle's verdicts and witnesses on every
    irredundant cover of every open, and on each open's minimal-open
    cover; ``is_sheaf`` gives the oracle's answer.  Both answer for
    presheaves that pass ``validate_presheaf``: the one-cover-per-open
    reduction composes restrictions, as the irredundant-cover reduction
    did."""
    failed = set()
    verdicts = set()
    for p in oracle_corpus():
        assert validate_presheaf(p).ok
        topology = p.topology
        for target in topology.opens_sorted():
            minimal = frozenset(topology.minimal_open_containing(x)
                                for x in target)
            for cover in [minimal, *irredundant_covers(topology, target)]:
                got = sheaf_check(p, cover, target)
                assert repr(got) == repr(slow_sheaf_check(p, cover, target))
                failed |= {axiom for axiom in ("locality", "gluing")
                           if getattr(got, axiom)[0] == "fail"}
        verdict = is_sheaf(p)
        assert verdict == slow_is_sheaf(p)
        verdicts.add(verdict)
    assert failed == {"locality", "gluing"}
    assert verdicts == {True, False}


def test_matching_families_match_the_brute_product():
    """The pruned search lists the brute product's families in its
    order, on every irredundant cover and minimal-open cover of every
    open, and on covers with a repeated member or a member nested in
    another.  The corpus has the fixtures, random transfers, and
    transfers with sections duplicated (locality fails) or removed
    (gluing fails)."""
    sizes = set()
    for p in oracle_corpus():
        topology = p.topology
        for target in topology.opens_sorted():
            minimal = [topology.minimal_open_containing(x) for x in sorted(target)]
            inside = [u for u in topology.opens_sorted() if u < target]
            covers = [minimal, minimal + minimal[:1], [target] + inside[-1:],
                      *irredundant_covers(topology, target)]
            for cover in covers:
                got = list(matching_families(p, cover))
                assert got == list(brute_matching_families(p, cover))
                sizes.add(min(len(got), 2))
    assert sizes == {0, 1, 2}


def test_cover_member_that_is_not_open_is_refused():
    sierpinski = validate_topology("pq", [(), ("p",), ("p", "q")])
    two = frozenset((0, 1))
    opens = sierpinski.opens
    p = FinitePresheaf(sierpinski, {u: two for u in opens},
                       {(u, v): {0: 0, 1: 1}
                        for u in opens for v in opens if v <= u})
    with pytest.raises(SheafcalcError, match=r"cover member \['q'\] is not open"):
        sheaf_check(p, [Q_OPEN, P_OPEN], PQ)


def test_a_matching_family_refuses_an_open_outside_its_cover():
    family = next(matching_families(presheaf_p(), [P_OPEN, Q_OPEN]))
    assert family.section(P_OPEN) == dict(family.choice)[P_OPEN]
    with pytest.raises(SheafcalcError, match=r"^\['p', 'q'\] is not in the cover$"):
        family.section(PQ)


def test_restrict_takes_any_iterable_for_either_open():
    p = presheaf_p()
    assert restrict(p, {"p", "q"}, frozenset(), 0) == restrict(p, PQ, EMPTY, 0)
    assert restrict(p, ["p", "q"], ["p"], 2) == restrict(p, PQ, P_OPEN, 2)
    with pytest.raises(SheafcalcError, match=r"^\['p', 'q'\] is not inside \['p'\]$"):
        restrict(p, ["p"], {"p", "q"}, 2)
    with pytest.raises(SheafcalcError, match=r"^\['z'\] is not open$"):
        restrict(p, {"z"}, [], "x")


def test_restrict_refuses_what_it_cannot_restrict():
    """Nesting is checked first, then that both sets are open, then
    that the section lies over the larger open; each refusal is a
    SheafcalcError, not the table's KeyError."""
    p = presheaf_p()
    assert restrict(p, PQ, P_OPEN, 2) == 2
    with pytest.raises(SheafcalcError, match=r"^\['p', 'q'\] is not inside \['p'\]$"):
        restrict(p, P_OPEN, PQ, 2)
    with pytest.raises(SheafcalcError, match=r"^\['y'\] is not inside \['z'\]$"):
        restrict(p, frozenset("z"), frozenset("y"), "x")
    with pytest.raises(SheafcalcError, match=r"^\['z'\] is not open$"):
        restrict(p, frozenset("z"), EMPTY, "x")
    with pytest.raises(SheafcalcError,
                       match=r"^'nosuch' is not a section over \['p', 'q'\]$"):
        restrict(p, PQ, EMPTY, "nosuch")
    sierpinski = validate_topology("pq", [(), ("p",), ("p", "q")])
    s = FinitePresheaf(sierpinski, {u: frozenset([0]) for u in sierpinski.opens},
                       {(u, v): {0: 0} for u in sierpinski.opens
                        for v in sierpinski.opens if v <= u})
    with pytest.raises(SheafcalcError, match=r"^\['q'\] is not open$"):
        restrict(s, PQ, Q_OPEN, 0)


class TestIrredundantCovers:
    def test_empty_target_has_only_the_empty_cover(self):
        topo = two_point_space()
        assert list(irredundant_covers(topo, EMPTY)) == [frozenset()]

    def test_discrete_three_point_count_and_private_points(self):
        pts = "xyz"
        opens = [frozenset(s) for s in
                 ["", "x", "y", "z", "xy", "xz", "yz", "xyz"]]
        topo = validate_topology(pts, opens)
        covers = list(irredundant_covers(topo, frozenset(pts)))
        # minimal covers of a 3-set: the whole set, three pair+point splits,
        # three pair+pair overlaps, and the partition into singletons
        assert len(covers) == 8
        assert len(set(covers)) == 8
        for cover in covers:
            assert frozenset().union(*cover) == frozenset(pts)
            for u in cover:
                rest = [v for v in cover if v != u]
                union = frozenset().union(*rest) if rest else frozenset()
                assert not u <= union

    @pytest.mark.parametrize("build", [presheaf_p, presheaf_g, presheaf_h])
    def test_irredundant_covers_decide_the_full_condition(self, build):
        # dropping redundant members changes nothing: brute force over
        # every cover whatsoever must agree with the irredundant scan
        p = build()
        opens = p.topology.opens_sorted()
        brute = True
        for target in opens:
            inside = [u for u in opens if u <= target]
            for mask in range(1 << len(inside)):
                cover = [u for i, u in enumerate(inside) if mask >> i & 1]
                union = frozenset().union(*cover) if cover else frozenset()
                if union != target:
                    continue
                if not sheaf_check(p, cover, target).ok:
                    brute = False
        assert brute == is_sheaf(p)


class TestStalkAt:
    def test_minimal_open_stalk(self):
        h = presheaf_h()
        assert stalk_at(h, "p") == frozenset(WINDOW)

    def test_non_alexandrov_point_raises(self):
        opens = frozenset(
            [frozenset([1, 2]), frozenset([2, 3]), frozenset([1, 2, 3])])
        topo = FiniteTopology((1, 2, 3), opens)
        one = frozenset([0])
        stalk = {u: one for u in opens}
        restriction = {(u, v): {0: 0} for u in opens for v in opens if v <= u}
        p = FinitePresheaf(topo, stalk, restriction)
        with pytest.raises(ValueError, match="minimal open"):
            stalk_at(p, 2)


def fence_functor():
    poset = validate_poset("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
    stalk = {"a": frozenset([0, 1]), "b": frozenset([0]),
             "c": frozenset([0, 1]), "d": frozenset([0, 1])}
    action = {
        ("a", "a"): {0: 0, 1: 1}, ("b", "b"): {0: 0},
        ("c", "c"): {0: 0, 1: 1}, ("d", "d"): {0: 0, 1: 1},
        ("a", "c"): {0: 1, 1: 0},
        ("b", "c"): {0: 0},
        ("b", "d"): {0: 1},
    }
    return Copresheaf(poset, stalk, action)


class TestCopresheafLaws:
    def test_identity_violation_reported(self):
        f = fence_functor()
        action = dict(f.action)
        action[("a", "a")] = {0: 1, 1: 0}
        report = validate_copresheaf(Copresheaf(f.poset, f.stalk, action))
        assert not report.ok
        assert report.kind == "identity"
        assert report.witness == ("a", 0, 1)

    def test_composition_violation_reported(self):
        poset = validate_poset("abc", [("a", "b"), ("b", "c")])
        two = frozenset((0, 1))
        ident = {0: 0, 1: 1}
        action = {(x, y): ident for x, y in poset.pairs()}
        action[("a", "c")] = {0: 1, 1: 0}
        report = validate_copresheaf(
            Copresheaf(poset, {x: two for x in "abc"}, action))
        assert not report.ok
        assert report.kind == "composition"
        assert report.witness == ("a", "b", "c", 0, 1, 0)


class TestPosetTransfer:
    def test_hand_functor_transfers_to_a_sheaf(self):
        f = fence_functor()
        q = poset_transfer(f)
        assert validate_presheaf(q).ok
        assert is_sheaf(q)
        assert q.stalk[EMPTY] == frozenset([()])
        up_a = frozenset("ac")
        assert q.stalk[up_a] == frozenset(
            [(("a", 0), ("c", 1)), (("a", 1), ("c", 0))])

    def test_sections_project_coherently(self):
        q = poset_transfer(fence_functor())
        whole = frozenset("abcd")
        for s in q.stalk[whole]:
            values = dict(s)
            assert values["c"] == {0: 1, 1: 0}[values["a"]]
            assert values["c"] == 0
            assert values["d"] == 1

    def test_round_trip_recovers_the_functor(self):
        f = fence_functor()
        back = copresheaf_from_presheaf(poset_transfer(f), f.poset)
        assert back.stalk == f.stalk
        assert back.action == f.action

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_functors_transfer_and_return(self, seed):
        rng = random.Random(seed)
        poset = random_poset(rng, max_elements=4)
        f = random_copresheaf(rng, poset)
        assert validate_copresheaf(f).ok
        q = poset_transfer(f)
        assert is_sheaf(q)
        back = copresheaf_from_presheaf(q, poset)
        assert back.stalk == f.stalk
        assert back.action == f.action

    def test_reading_back_over_another_poset_refuses_a_closed_up_set(self):
        # transferred over a <= b, read back over a <= c: the up-set of a
        # is {a, c}, which is no open of the transfer's space
        ab, ac = validate_poset("ab", [("a", "b")]), validate_poset("ac", [("a", "c")])
        one = {0: 0}
        f = Copresheaf(ab, {"a": frozenset([0]), "b": frozenset([0])},
                       {("a", "a"): one, ("b", "b"): one, ("a", "b"): one})
        with pytest.raises(SheafcalcError, match=r"^\['a', 'c'\] is not open$"):
            copresheaf_from_presheaf(poset_transfer(f), ac)

    def test_reading_back_refuses_sections_that_are_not_point_value_pairs(self):
        # presheaf P's sections are bare ints, not (point, value) tuples
        with pytest.raises(SheafcalcError,
                           match=r"^-1 is not a section of \(point, value\) pairs at 'p'$"):
            copresheaf_from_presheaf(presheaf_p(), validate_poset("pq", [("p", "q")]))


K3_EDGES = [("a", "b"), ("a", "c"), ("b", "c")]


class TestNColor:
    def test_triangle_three_colors_has_six_sections(self):
        nc = ncolor("abc", K3_EDGES, 3)
        assert len(stalk_at(nc.presheaf, nc.top)) == 6
        tops = nc.colorings(nc.top)
        assert len(tops) == 6
        for coloring in tops:
            values = dict(coloring)
            assert values["a"] != values["b"]
            assert values["a"] != values["c"]
            assert values["b"] != values["c"]

    def test_triangle_two_colors_has_none(self):
        nc = ncolor("abc", K3_EDGES, 2)
        assert len(stalk_at(nc.presheaf, nc.top)) == 0

    def test_path_two_colors(self):
        nc = ncolor("abc", [("a", "b"), ("b", "c")], 2)
        assert len(nc.colorings(nc.top)) == 2

    def test_transfer_validates(self):
        nc = ncolor("abc", K3_EDGES, 3)
        assert validate_presheaf(nc.presheaf).ok

    def test_edge_covers_glue(self):
        nc = ncolor("abc", K3_EDGES, 3)
        covers = [
            ["a,b,c/ab,bc", "a,c/ac"],
            ["a,b/ab", "a,c/ac", "b,c/bc"],
            ["a,b,c/ab,ac", "a,b,c/ab,bc"],
        ]
        for labels in covers:
            members = [nc.principal_open(l) for l in labels]
            target = frozenset().union(*members)
            report = sheaf_check(nc.presheaf, members, target)
            assert report.ok
            # compatible families over an edge cover are whole colorings
            assert len(nc.presheaf.stalk[target]) == 6

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            ncolor("abcd", [("a", "b"), ("c", "d")], 3)

    def test_connectivity_is_read_off_the_growth(self):
        # an empty graph never grows; K4 plus an isolated vertex passes
        # the cap of 24 before the growth could show it disconnected
        with pytest.raises(SheafcalcError, match="^graph is not connected$"):
            ncolor("", [], 3)
        k4 = list(combinations("abcd", 2))
        with pytest.raises(SheafcalcError, match="too many connected subgraphs"):
            ncolor("abcde", k4, 3)

    def test_loops_rejected(self):
        with pytest.raises(SheafcalcError):
            ncolor("ab", [("a", "a"), ("a", "b")], 2)

    def test_k4_hits_the_subgraph_cap(self):
        # K4 has 64 connected subgraphs; the cap is 24
        k4 = [("a", "b"), ("a", "c"), ("a", "d"),
              ("b", "c"), ("b", "d"), ("c", "d")]
        with pytest.raises(SheafcalcError, match="too many connected subgraphs"):
            ncolor("abcd", k4, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_growth_matches_the_combination_scan(self, seed):
        # connected by construction: a random tree plus random chords
        rng = random.Random(seed)
        vertices = "abcde"[:rng.randint(1, 5)]
        edges = {frozenset((v, rng.choice(vertices[:i])))
                 for i, v in enumerate(vertices) if i}
        edges |= {frozenset(e) for e in combinations(vertices, 2)
                  if rng.random() < 0.2}
        expected = combination_subgraphs(vertices, edges)
        if len(expected) > 24:
            with pytest.raises(SheafcalcError, match="too many connected"):
                ncolor(vertices, edges, 2)
            return
        if len(expected) > 16:
            return  # slow to build; the six-path test covers 17 to 24
        nc = ncolor(vertices, edges, 2)
        assert nc.labels == expected
        assert expected[nc.top] == (frozenset(vertices), frozenset(edges))
        assert nc.poset == FinitePoset(expected, [
            (a, b) for a, (va, ea) in expected.items()
            for b, (vb, eb) in expected.items() if va <= vb and ea <= eb])
        for label, (vs, es) in expected.items():
            order = sorted(vs)
            colorings = [dict(zip(order, colors))
                         for colors in product(range(2), repeat=len(order))]
            proper = {tuple(sorted(c.items())) for c in colorings
                      if all(len({c[v] for v in e}) == 2 for e in es)}
            assert nc.colorings(label) == proper

    def test_six_path_builds_all_twenty_one_subgraphs(self):
        # 21 subgraphs: more than 16 poset elements, within the cap of 24
        nc = ncolor("abcdef", [("a", "b"), ("b", "c"), ("c", "d"),
                               ("d", "e"), ("e", "f")], 2)
        assert len(nc.labels) == 21
        assert len(nc.colorings(nc.top)) == 2

    def test_k7_refuses_without_scanning_edge_subsets(self):
        k7 = list(combinations("abcdefg", 2))
        start = time.perf_counter()
        with pytest.raises(SheafcalcError, match="too many connected subgraphs"):
            ncolor("abcdefg", k7, 3)
        assert time.perf_counter() - start < 1.0


PATH3 = [("a", "b"), ("b", "c")]
PATH4 = [("a", "b"), ("b", "c"), ("c", "d")]


def coloring_functor(nc):
    """The copresheaf ``ncolor`` transfers, rebuilt by brute force: the
    proper colourings of each subgraph, forgetting vertices along the
    dual containment order."""
    stalk = {}
    for label, (vs, es) in nc.labels.items():
        order = sorted(vs)
        stalk[label] = frozenset(
            tuple(zip(order, colors))
            for colors in product(range(nc.colors), repeat=len(order))
            if all(len({colors[order.index(v)] for v in e}) == 2 for e in es))
    dual = nc.poset.dualize()
    action = {(a, b): {s: tuple(pair for pair in s if pair[0] in nc.labels[b][0])
                       for s in stalk[a]}
              for a, b in dual.pairs()}
    return Copresheaf(dual, stalk, action)


def oracle_transfer(f):
    """The transfer with each open's sections found by the per-open
    search, restriction forgetting coordinates."""
    topology = alexandrov(f.poset, "up")
    stalk = {u: frozenset(slow_compatible_tuples(f, u)) for u in topology.opens}
    restriction = {(u, v): {s: tuple(pair for pair in s if pair[0] in v)
                            for s in stalk[u]}
                   for u in topology.opens for v in topology.opens if v <= u}
    return FinitePresheaf(topology, stalk, restriction)


def transfer_corpus():
    """(functor, transfer) pairs: random copresheaves on posets of up to
    six elements, then the three-colouring functors of the 3-path, the
    4-path and the triangle with ``ncolor``'s presheaf."""
    for seed in range(100):
        rng = random.Random(seed)
        f = random_copresheaf(rng, random_poset(rng, 6))
        yield f, poset_transfer(f)
    for edges in (PATH3, PATH4, K3_EDGES):
        nc = ncolor(sorted(set().union(*edges)), edges, 3)
        yield coloring_functor(nc), nc.presheaf


def test_poset_transfer_matches_the_search_oracle():
    for f, q in transfer_corpus():
        want = oracle_transfer(f)
        assert q == want
        assert list(q.stalk) == list(want.stalk)


def recomposed(rng, stalk, maps):
    """maps with one table between distinct objects sending its first
    section elsewhere in the target stalk, or None if no table can."""
    keys = sorted((k for k in maps if k[0] != k[1]
                   and stalk[k[0]] and len(stalk[k[1]]) > 1), key=repr)
    if not keys:
        return None
    k = rng.choice(keys)
    table = dict(maps[k])
    s = min(table, key=repr)
    table[s] = rng.choice(sorted(stalk[k[1]] - {table[s]}, key=repr))
    return {**maps, k: table}


def untabled(rng, stalk, maps):
    """maps with one table missing, one table missing a section, and
    one table sending a section out of its target stalk."""
    keys = sorted((k for k in maps if stalk[k[0]]), key=repr)
    missing = dict(maps)
    del missing[rng.choice(keys)]
    yield missing
    for value in (None, "outside"):
        k = rng.choice(keys)
        table = dict(maps[k])
        s = min(table, key=repr)
        if value is None:
            del table[s]
        else:
            table[s] = value
        yield {**maps, k: table}


KINDS = ("no map", "wrong domain", "leaves the stalk")


def refusal(check, *args):
    try:
        check(*args)
    except SheafcalcError as err:
        return str(err)
    return None


def test_table_checks_match_the_scan_oracles():
    """The functor laws give the oracle's report, and the table check
    its refusal, on the transfer corpus, its functors and the P/G/H
    fixtures, each as given and with tables broken."""
    def contains(u, v):
        return v <= u

    cases = []
    presheaves = [presheaf_p(), presheaf_g(), presheaf_h()]
    for f, q in transfer_corpus():
        cases.append((f.poset.elements, f.poset.elements, f.poset.leq,
                      f.stalk, f.action, validate_copresheaf,
                      lambda a, f=f: Copresheaf(f.poset, f.stalk, a)))
        presheaves.append(q)
    for p in presheaves:
        cases.append((p.topology.opens, p.topology.opens_sorted(), contains,
                      p.stalk, p.restriction, validate_presheaf,
                      lambda r, p=p: FinitePresheaf(p.topology, p.stalk, r)))
    rng = random.Random(1717)
    kinds, refused = set(), set()
    for tabled, scanned, arrow, stalk, maps, validate, build in cases:
        for laws in (maps, recomposed(rng, stalk, maps)):
            if laws is not None:
                got = validate(build(laws))
                assert repr(got) == repr(
                    slow_functor_laws(scanned, arrow, stalk, laws))
                kinds.add(got.kind)
        for broken in untabled(rng, stalk, maps):
            got = refusal(build, broken)
            assert got == refusal(slow_check_tables, tabled, arrow, stalk, broken)
            refused.add(next(kind for kind in KINDS if kind in got))
    assert kinds == {None, "composition"}
    assert refused == set(KINDS)


class TestPredict:
    def test_independent_coordinates_predict_nothing(self):
        h = presheaf_h()
        assert predict(h, P_OPEN, Q_OPEN, {2}) == frozenset(WINDOW)

    def test_self_prediction_returns_the_observation(self):
        h = presheaf_h()
        assert predict(h, P_OPEN, P_OPEN, {2}) == frozenset([2])

    def test_fully_correlated_chain(self):
        poset = validate_poset("ab", [("a", "b")])
        two = frozenset([0, 1])
        f = Copresheaf(
            poset,
            {"a": two, "b": two},
            {("a", "a"): {0: 0, 1: 1}, ("b", "b"): {0: 0, 1: 1},
             ("a", "b"): {0: 0, 1: 1}})
        q = poset_transfer(f)
        up_b = frozenset("b")
        whole = frozenset("ab")
        observed = frozenset([(("b", 1),)])
        assert predict(q, up_b, whole, observed) == frozenset(
            [(("a", 1), ("b", 1))])

    def test_unknown_observation_rejected(self):
        h = presheaf_h()
        with pytest.raises(SheafcalcError):
            predict(h, P_OPEN, Q_OPEN, {99})
