"""End-to-end acceptance sweep, one test per release gate.

Each test is self-contained and pins exact values or exhausts a finite
corpus outright; the timed ones assert their own wall-clock budget so a
regression in the exact kernels shows up here before it shows up for a
user.  Everything is rational arithmetic or finite sets, so every
comparison below is equality, never a tolerance.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

from sheafcalc.cellsheaf import (
    Assignment, extend, global_section_space, validate_sheaf)
from sheafcalc.cli import _assignment_json, main
from sheafcalc.cohomology import bayes_build, bayes_check, coboundary, cohomology_dims
from sheafcalc.complexes import face_poset, homology_dims, validate_complex
from sheafcalc.finsheaf import (
    copresheaf_from_presheaf, irredundant_covers, is_sheaf, ncolor,
    poset_transfer, sheaf_check, stalk_at)
from sheafcalc.galois import GaloisConnection, check_connection, right_adjoint_of
from sheafcalc.modal import (
    all_subgraphs, boundary, coheyting_neg,
    empty_subgraph, full_subgraph, heyting_neg, meet_join, modal_iterate,
    reach_oracle, subgraph_leq)
from sheafcalc.morphology import (
    BinaryImage, StructuringElement, composite_filter_lattice, dilate, erode)
from sheafcalc.poset import all_downsets, set_label, validate_poset, yoneda_check
from sheafcalc.rationals import decompose

from util import (
    binary_chain, constant_sheaf, grid_complex, multigraphs_up_to, presheaf_g, presheaf_h,
    presheaf_p, random_complex, random_copresheaf, random_poset,
    running_sheaf, simple_digraph_classes, sprinkler)


# ----------------------------------------------------- shared corpora

# one per shape family: a point, an asymmetric pair, a pair that skips
# the origin, and a symmetric bar
GRID_ELEMENTS = (
    StructuringElement.of((0, 0)),
    StructuringElement.of((0, 0), (1, 0)),
    StructuringElement.of((1, 0), (0, 1)),
    StructuringElement.of((-1, 0), (0, 0), (1, 0)),
)

GRID_PIXELS = tuple((x, y) for y in range(2) for x in range(3))


def grid_image(mask):
    return BinaryImage.of(
        3, 2, [GRID_PIXELS[i] for i in range(6) if mask >> i & 1])


def grid_images():
    return [grid_image(mask) for mask in range(64)]


# -------------------------------------------------------- the 15 gates

def test_running_sheaf_validates_and_obstructed_seed_is_exact():
    start = time.perf_counter()
    s = running_sheaf()
    assert len(s.restriction) == 21
    assert validate_sheaf(s).ok

    out = extend(s, Assignment({("e",): (1, 0, -1)}))
    assert not out.ok
    assert out.obstruction == ("d",)
    got = out.propagated.vectors
    assert got[("c", "e")] == (Fraction(0), Fraction(-13, 2))
    assert got[("d", "e")] == (Fraction(1), Fraction(1))
    assert got[("e", "f")] == (Fraction(0), Fraction(0))
    assert time.perf_counter() - start < 1.0


def test_section_space_agrees_with_kernel_and_deltas_compose_to_zero():
    start = time.perf_counter()
    s = running_sheaf()
    delta0 = coboundary(s, 0)
    delta1 = coboundary(s, 1)
    assert (delta1 @ delta0).is_zero()

    kernel = decompose(delta0).kernel_basis
    assert global_section_space(s).dimension == len(kernel)
    # regression values from the first exact derivation
    assert cohomology_dims(s) == (2, 2, 0)
    assert time.perf_counter() - start < 1.0


def test_single_edge_complex_has_connected_acyclic_homology():
    base = validate_complex([("v0", "v1")])
    assert homology_dims(base) == [1, 0]


def test_constant_sheaf_cohomology_matches_homology_on_random_complexes():
    start = time.perf_counter()
    rng = random.Random(44000)
    for _ in range(50):
        base = random_complex(rng, max_faces=8)
        h = homology_dims(base)
        c = cohomology_dims(constant_sheaf(base))
        assert c[0] == h[0]
        # degree 1 is absent on 0-dimensional complexes, on both sides
        assert (c[1] if len(c) > 1 else 0) == (h[1] if len(h) > 1 else 0)
    assert time.perf_counter() - start < 10.0


def test_dilation_erosion_adjunction_is_exhaustive_on_the_grid():
    start = time.perf_counter()
    images = grid_images()
    violations = 0
    for element in GRID_ELEMENTS:
        dilated = [dilate(x, element) for x in images]
        eroded = [erode(y, element) for y in images]
        for i, x in enumerate(images):
            for j, y in enumerate(images):
                if dilated[i].issubset(y) != x.issubset(eroded[j]):
                    violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 5.0


def test_opening_closing_generate_exactly_four_more_idempotent_filters():
    names = {"identity", "open", "close", "close_open", "open_close",
             "open_close_open", "close_open_close"}
    for element in GRID_ELEMENTS:
        for image in grid_images():
            lattice = composite_filter_lattice(image, element)
            assert set(lattice.filters) == names
            assert lattice.idempotent, lattice.witness
            assert lattice.chain_ok, lattice.witness
            assert lattice.closed, lattice.witness


def test_biheyting_and_modal_laws_hold_on_every_small_multigraph():
    start = time.perf_counter()
    graphs = list(multigraphs_up_to())
    assert len(graphs) == 791
    for g in graphs:
        lattice = all_subgraphs(g)
        bot = empty_subgraph(g)
        top = full_subgraph(g)
        neg = {a: heyting_neg(g, a) for a in lattice}
        coneg = {a: coheyting_neg(g, a) for a in lattice}
        dia = {a: modal_iterate(g, a, "diamond").stabilized for a in lattice}
        box = {a: modal_iterate(g, a, "box").stabilized for a in lattice}
        for a in lattice:
            assert meet_join(g, a, neg[a], "meet") == bot
            assert meet_join(g, a, coneg[a], "join") == top
            assert neg[a] == neg[neg[neg[a]]]
            assert subgraph_leq(coneg[coneg[a]], a)
            # box deflates, diamond inflates, both idempotent at the
            # fixpoint, and they interleave the identity
            assert subgraph_leq(box[a], a) and subgraph_leq(a, dia[a])
            assert dia[dia[a]] == dia[a] and box[box[a]] == box[a]
            assert subgraph_leq(a, box[dia[a]])
            assert subgraph_leq(dia[box[a]], a)
        for a in lattice:
            da = dia[a]
            for b in lattice:
                bb = box[b]
                assert subgraph_leq(da, b) == subgraph_leq(a, bb)
                frobenius = dia[meet_join(g, a, bb, "meet")]
                assert frobenius == meet_join(g, da, bb, "meet"), (g, a, b)
    assert time.perf_counter() - start < 30.0


def test_diamond_fixpoint_is_exactly_the_weak_component_closure():
    classes = simple_digraph_classes()
    assert len(classes) == 218
    corpus = classes + list(multigraphs_up_to())
    for g in corpus:
        bot = empty_subgraph(g)
        for x in all_subgraphs(g):
            dia = modal_iterate(g, x, "diamond").stabilized
            forward = reach_oracle(g, x, "forward-reach")
            weak = reach_oracle(g, x, "weak-components")
            assert subgraph_leq(forward, dia), (g, x)
            assert subgraph_leq(dia, weak), (g, x)
            assert dia == weak, (g, x)
            assert boundary(g, dia) == bot, (g, x)


def test_sheaf_axiom_fixtures_fail_where_they_should():
    empty = frozenset()
    p_open, q_open = frozenset("p"), frozenset("q")

    def failures(presheaf):
        out = {}
        for target in presheaf.topology.opens_sorted():
            for cover in irredundant_covers(presheaf.topology, target):
                verdict = sheaf_check(presheaf, cover, target)
                if not verdict.ok:
                    out[(target, cover)] = verdict
        return out

    p_failures = failures(presheaf_p())
    assert set(p_failures) == {(empty, frozenset())}
    bad = p_failures[(empty, frozenset())]
    assert bad.locality[0] == "fail" and bad.gluing[0] == "pass"
    s, t = bad.locality[1]
    assert s != t

    g_failures = failures(presheaf_g())
    assert set(g_failures) == {(frozenset("pq"), frozenset([p_open, q_open]))}
    bad = g_failures[(frozenset("pq"), frozenset([p_open, q_open]))]
    assert bad.locality[0] == "pass" and bad.gluing[0] == "fail"
    family = bad.gluing[1]
    assert family.section(p_open) != family.section(q_open)

    assert not failures(presheaf_h())
    assert is_sheaf(presheaf_h())


def test_poset_functors_transfer_to_sheaves_and_back():
    start = time.perf_counter()
    rng = random.Random(101010)
    for _ in range(100):
        poset = random_poset(rng, max_elements=5)
        functor = random_copresheaf(rng, poset)
        transferred = poset_transfer(functor)
        assert is_sheaf(transferred)
        back = copresheaf_from_presheaf(transferred, poset)
        assert back.stalk == functor.stalk
        assert back.action == functor.action
    assert time.perf_counter() - start < 20.0


def test_triangle_three_colorings_count_and_glue_over_edge_covers():
    nc = ncolor("abc", [("a", "b"), ("a", "c"), ("b", "c")], 3)
    assert len(stalk_at(nc.presheaf, nc.top)) == 6

    # an edge-cover is any family of connected subgraphs whose edge sets
    # union to the full edge set; sweep every one of them
    labels = sorted(nc.labels)
    all_edges = nc.labels[nc.top][1]
    covers = [
        combo for r in range(1, len(labels) + 1)
        for combo in combinations(labels, r)
        if frozenset().union(*(nc.labels[l][1] for l in combo)) == all_edges]
    assert len(covers) == 872
    for combo in covers:
        members = [nc.principal_open(label) for label in combo]
        assert sheaf_check(
            nc.presheaf, members, frozenset().union(*members)).ok, combo

    # the bare single-edge cover pins the footnote claim: a compatible
    # family of edge colorings is the same thing as a whole coloring
    edges_only = sorted(
        label for label, (vs, es) in nc.labels.items() if len(es) == 1)
    assert len(edges_only) == 3
    members = [nc.principal_open(label) for label in edges_only]
    target = frozenset().union(*members)
    assert sheaf_check(nc.presheaf, members, target).ok
    assert len(nc.presheaf.stalk[target]) == 6


def test_marginalization_matrices_pin_and_joint_perturbations_fail():
    model = sprinkler()
    assembly = bayes_build(model)
    joint_face = ("W", "S", "R")
    drop_w = assembly.cosheaf.restriction[(("S", "R"), joint_face)]
    assert drop_w.row_lists() == [
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1],
    ]
    drop_r = assembly.cosheaf.restriction[(("W", "S"), joint_face)]
    assert drop_r.row_lists() == [
        [1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1],
    ]

    assert bayes_check(model).ok
    for i in range(len(assembly.joint)):
        vec = list(assembly.joint)
        vec[i] += Fraction(1, 7)
        total = sum(vec)
        assert not bayes_check(model, joint=[x / total for x in vec]).ok, i


def test_yoneda_embeds_and_adjoint_synthesis_recovers_erosion():
    rng = random.Random(131313)
    for _ in range(200):
        poset = random_poset(rng, max_elements=6)
        ok, witness = yoneda_check(poset)
        assert ok, witness

    name = {p: f"g{p[0]}{p[1]}" for p in GRID_PIXELS}
    lattice = all_downsets(validate_poset(name.values(), []))
    assert len(lattice) == 64

    def label_of(image):
        return set_label(name[p] for p in image.foreground)

    for element in GRID_ELEMENTS:
        left = {label_of(x): label_of(dilate(x, element))
                for x in grid_images()}
        expected = {label_of(y): label_of(erode(y, element))
                    for y in grid_images()}
        assert right_adjoint_of(left, lattice, lattice) == expected


def test_a_40x40_grid_document_validates_within_budget(tmp_path, capsys):
    # 9,761 faces and their vertex list, validated once
    base = grid_complex(40)
    doc = {"vertices": list(base.vertex_order),
           "faces": [list(f) for f in base.all_faces()]}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["complex", "validate", "--complex", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out) == doc


def holed_30x30():
    return grid_complex(30, holes=[(14, 14)])


def test_a_holed_30x30_section_prints_within_budget():
    holed = holed_30x30()
    full = Assignment({face: (1,) for face in holed.all_faces()})
    start = time.perf_counter()
    printed = _assignment_json(holed, full)
    assert time.perf_counter() - start < 0.25
    assert len(printed) == len(holed.faces) == 5518


def test_holed_30x30_cohomology_within_budget():
    s = constant_sheaf(holed_30x30())
    start = time.perf_counter()
    dims = cohomology_dims(s)
    assert time.perf_counter() - start < 1.0
    assert dims == (1, 1, 0)


def test_holed_30x30_homology_within_budget():
    base = holed_30x30()
    start = time.perf_counter()
    dims = homology_dims(base)
    assert time.perf_counter() - start < 1.0
    assert dims == [1, 1, 0]


def test_holed_30x30_section_space_within_budget():
    s = constant_sheaf(holed_30x30())
    start = time.perf_counter()
    space = global_section_space(s)
    assert time.perf_counter() - start < 1.0
    assert space.dimension == 1
    assert set(space.basis[0].vectors.values()) == {(Fraction(1),)}


def test_the_9_variable_binary_chain_checks_within_budget():
    # 511 faces and 2,295 covering pairs of 0/1 marginalization matrices,
    # whose 9,144 path-independence products are int arithmetic
    model = binary_chain(9)
    start = time.perf_counter()
    report = bayes_check(model)
    assert time.perf_counter() - start < 1.9
    assert report.ok


def test_the_256_element_downset_lattice_is_a_lattice_within_budget():
    # the Boolean lattice on 8 atoms: 32,640 pairs, each joined and met
    lattice = all_downsets(validate_poset([f"e{i}" for i in range(8)], []))
    assert len(lattice) == 256
    start = time.perf_counter()
    assert lattice.is_lattice()
    assert time.perf_counter() - start < 4.0


def test_the_20x20_face_poset_builds_within_budget():
    # 2,481 faces, each related to the subfaces it lists
    grid = grid_complex(20)
    start = time.perf_counter()
    poset = face_poset(grid)
    assert time.perf_counter() - start < 0.5
    assert len(poset) == len(grid.faces) == 2481
    assert len(poset.pairs()) == sum(2 ** len(f) - 1 for f in grid.faces)


def test_the_1024_element_dilation_erosion_connection_checks_within_budget():
    # the downset lattice of the 10 pixels of a 5x2 grid, with the
    # dilation by an L-shaped element and its erosion
    pixels = [(x, y) for y in range(2) for x in range(5)]
    name = {p: f"g{p[0]}{p[1]}" for p in pixels}
    lattice = all_downsets(validate_poset(name.values(), []))
    assert len(lattice) == 1024
    element = StructuringElement.of((0, 0), (1, 0), (0, 1))
    images = [BinaryImage.of(5, 2, [p for i, p in enumerate(pixels) if mask >> i & 1])
              for mask in range(1024)]

    def label_of(image):
        return set_label(name[p] for p in image.foreground)

    left = {label_of(x): label_of(dilate(x, element)) for x in images}
    right = {label_of(y): label_of(erode(y, element)) for y in images}
    connection = GaloisConnection(lattice, lattice, left, right)
    start = time.perf_counter()
    assert check_connection(connection).ok
    assert time.perf_counter() - start < 0.25
