"""lattice-sweep: exhaustive finite-set sweeps with no rationals at all.

* the bi-Heyting and modal laws on every directed multigraph with at
  most 3 vertices and 4 edges (791 graphs, 23,437 subgraphs); the
  two-subgraph laws (adjunction, Frobenius) on seeded pairs;
* the diamond fixpoint against ``reach_oracle`` on the 218 classes of
  simple 4-vertex digraphs;
* ``downset_family`` on a 16-chain (65,536 masks, 17 downsets) and on a
  14-antichain (16,384 masks, all of them downsets);
* ``right_adjoint_of`` applied to a grid dilation on the 256-element
  downset lattice of 8 pixels, which must give erosion back;
* ``poset_transfer`` plus ``is_sheaf`` on randomly labelled copresheaves
  over every four-element poset shape and choice of stalk sizes;
* ``composite_filter_lattice`` on random bitmaps.

modal, poset, galois, morphology and finsheaf do the work; a change to
the linear algebra should move nothing here.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement, permutations

from common import Op, first_failure

SIZES = {
    # graphs (vertices, edges), digraph class order, chain, antichain,
    # adjoint grid (w, h), copresheaves, filter bitmaps
    "full": dict(multigraph=(3, 4), classes=4, chain=16, antichain=14,
                 adjoint=(4, 2), copresheaves=112, filters=128),
    "small": dict(multigraph=(2, 2), classes=3, chain=5, antichain=4,
                  adjoint=(2, 2), copresheaves=7, filters=4),
}
MIN_ROUNDS = 3
PAIRS_PER_SUBGRAPH = 2

ELEMENTS = (((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 0), (0, 1)),
            ((-1, 0), (0, 0), (1, 0)), ((1, 0), (0, 1)))
# the adjoint's element: an L whose orientation the seed picks; the
# grid's symmetries make every orientation the same amount of work
L_SHAPES = tuple(((0, 0), (sx, 0), (0, sy)) for sx in (1, -1) for sy in (1, -1))


def multigraph_specs(max_vertices, max_edges):
    """Every directed multigraph on up to max_vertices labelled vertices
    with up to max_edges edges, loops and parallels included."""
    labels = "abc"[:max_vertices]
    out = []
    for n in range(max_vertices + 1):
        verts = labels[:n]
        slots = [(s, d) for s in verts for d in verts]
        for k in range(max_edges + 1):
            if k and not slots:
                break
            for combo in combinations_with_replacement(slots, k):
                out.append((verts, [(f"e{i}", s, d) for i, (s, d) in enumerate(combo)]))
    return out


def digraph_class_specs(n):
    """Loopless simple digraphs on n vertices, one per isomorphism class."""
    labels = "abcd"[:n]
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {arc: k for k, arc in enumerate(arcs)}
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(arcs)):
        canon = min(sum(1 << index[(p[i], p[j])]
                        for k, (i, j) in enumerate(arcs) if mask >> k & 1)
                    for p in perms)
        if canon not in seen:
            seen.add(canon)
            out.append((labels, [(f"e{k}", labels[i], labels[j])
                                 for k, (i, j) in enumerate(arcs) if mask >> k & 1]))
    return out


def _leq(a, b):
    return a.vertices <= b.vertices and a.edges <= b.edges


def _modal_laws_op(lib, g, rng):
    m = lib.modal
    size = len(m.all_subgraphs(g))
    picks = [(i, rng.randrange(size)) for i in range(size)
             for _ in range(PAIRS_PER_SUBGRAPH)]

    def run():
        lattice = m.all_subgraphs(g)
        neg = {a: m.heyting_neg(g, a) for a in lattice}
        coneg = {a: m.coheyting_neg(g, a) for a in lattice}
        dia = {a: m.modal_iterate(g, a, "diamond").stabilized for a in lattice}
        box = {a: m.modal_iterate(g, a, "box").stabilized for a in lattice}
        meets = {a: m.meet_join(g, a, neg[a], "meet") for a in lattice}
        joins = {a: m.meet_join(g, a, coneg[a], "join") for a in lattice}
        frob = []
        for i, j in picks:
            a, b = lattice[i], lattice[j]
            frob.append((a, b, m.meet_join(g, a, box[b], "meet"),
                         m.meet_join(g, dia[a], box[b], "meet")))
        return lattice, neg, coneg, dia, box, meets, joins, frob

    def check(result):
        lattice, neg, coneg, dia, box, meets, joins, frob = result
        verts, edges = frozenset(g.vertices), frozenset(g.edges)
        for a in lattice:
            bad = first_failure([
                (meets[a].vertices == frozenset() and meets[a].edges == frozenset(),
                 "a meet not-a is not empty"),
                ((joins[a].vertices, joins[a].edges) == (verts, edges),
                 "a join co-not-a is not everything"),
                (neg[a] == neg[neg[neg[a]]], "not-a differs from its triple"),
                (_leq(coneg[coneg[a]], a), "co-double-negation is not below a"),
                (_leq(box[a], a) and _leq(a, dia[a]), "box a <= a <= dia a fails"),
                (dia[dia[a]] == dia[a] and box[box[a]] == box[a],
                 "fixpoint is not idempotent"),
                (_leq(a, box[dia[a]]) and _leq(dia[box[a]], a),
                 "interleaving fails"),
            ])
            if bad:
                return f"{bad} at {sorted(a.vertices)}/{sorted(a.edges)}"
        for a, b, a_box_b, dia_a_box_b in frob:
            if _leq(dia[a], b) != _leq(a, box[b]):
                return "diamond is not left adjoint to box"
            if dia[a_box_b] != dia_a_box_b:
                return "Frobenius law fails"
        return None

    return Op("modal_laws", f"{len(g.vertices)}v{len(g.edges)}e", run, check)


def _diamond_op(lib, g):
    m = lib.modal

    def run():
        return [(m.modal_iterate(g, x, "diamond").stabilized,
                 m.reach_oracle(g, x, "weak-components"))
                for x in m.all_subgraphs(g)]

    def check(pairs):
        for dia, weak in pairs:
            if dia != weak:
                return "diamond differs from the weak-component closure"
        return None

    return Op("diamond_vs_oracle", f"{len(g.edges)} arcs", run, check)


def _downset_ops(lib, size):
    p = lib.poset
    chain = p.validate_poset([f"c{i:02d}" for i in range(size["chain"])],
                             [(f"c{i:02d}", f"c{i + 1:02d}")
                              for i in range(size["chain"] - 1)])
    anti = p.validate_poset([f"a{i:02d}" for i in range(size["antichain"])], [])
    n, k = size["chain"], size["antichain"]
    prefixes = [frozenset(f"c{i:02d}" for i in range(j)) for j in range(n + 1)]
    return [
        Op("downsets_chain", f"{n}-chain",
           lambda: lib.poset.downset_family(chain),
           lambda got: None if got == prefixes
           else f"{len(got)} downsets, want the {n + 1} prefixes"),
        Op("downsets_antichain", f"{k}-antichain",
           lambda: lib.poset.downset_family(anti),
           lambda got: None if len(set(got)) == 2 ** k
           else f"{len(set(got))} downsets, want {2 ** k}"),
    ]


def _adjoint_op(lib, size, rng):
    w, h = size["adjoint"]
    mo = lib.morphology
    pixels = [(x, y) for y in range(h) for x in range(w)]
    name = {px: f"p{px[0]}{px[1]}" for px in pixels}
    lattice = lib.poset.all_downsets(lib.poset.validate_poset(name.values(), []))
    element = mo.StructuringElement.of(*rng.choice(L_SHAPES))
    images = [mo.BinaryImage.of(w, h, [pixels[i] for i in range(len(pixels))
                                       if mask >> i & 1])
              for mask in range(1 << len(pixels))]

    def label(image):
        return lib.poset.set_label(name[px] for px in image.foreground)

    left = {label(x): label(mo.dilate(x, element)) for x in images}
    erosion = {label(y): label(mo.erode(y, element)) for y in images}
    return Op("right_adjoint", f"{len(lattice)} elements",
              lambda: lib.galois.right_adjoint_of(left, lattice, lattice),
              lambda got: None if got == erosion else "adjoint differs from erosion")


# four-element poset shapes, as index pairs i <= j
SHAPES = (
    (), ((0, 1), (1, 2), (2, 3)), ((0, 1), (0, 2)), ((0, 2), (1, 2)),
    ((0, 1), (0, 2), (1, 3), (2, 3)), ((0, 2), (1, 2), (1, 3)),
    ((0, 2), (0, 3), (1, 2), (1, 3)),
)


def copresheaf_family(lib, rng, count):
    """Copresheaves that are functors by construction, cycling through
    every shape and every choice of factors; the seed relabels them.

    Element x gets a modulus d_x, the lcm of the factors at every
    element above it, so x <= y makes d_y divide d_x; the stalk at x is
    range(d_x) and the action to y reduces mod d_y.
    """
    out = []
    for k in range(count):
        shape = SHAPES[k % len(SHAPES)]
        factors = [1 + (k // len(SHAPES) >> i & 1) for i in range(4)]
        labels = [f"q{i}" for i in range(4)]
        rng.shuffle(labels)
        poset = lib.poset.validate_poset(
            labels, [(labels[i], labels[j]) for i, j in shape])
        factor = dict(zip(labels, factors))
        modulus = {x: math.lcm(*(factor[y] for y in poset.principal_up(x)))
                   for x in labels}
        stalk = {x: frozenset(range(modulus[x])) for x in labels}
        action = {(x, y): {s: s % modulus[y] for s in stalk[x]}
                  for x, y in poset.pairs()}
        out.append(lib.finsheaf.Copresheaf(poset, stalk, action))
    return out


def _transfer_op(lib, functor):
    f = lib.finsheaf
    return Op("transfer_is_sheaf", f"{len(functor.poset)} elements",
              lambda: f.is_sheaf(f.poset_transfer(functor)),
              lambda ok: None if ok is True else "transferred presheaf is not a sheaf")


def _filter_op(lib, image, element):
    def check(lattice):
        return first_failure([
            (len(lattice.filters) == 7, f"{len(lattice.filters)} filters, want 7"),
            (lattice.idempotent, f"not idempotent: {lattice.witness}"),
            (lattice.chain_ok, f"chain order fails: {lattice.witness}"),
            (lattice.closed, f"escapes the seven values: {lattice.witness}"),
        ])

    return Op("filter_lattice", f"{len(image.foreground)} pixels",
              lambda: lib.morphology.composite_filter_lattice(image, element), check)


def build(lib, seed, scale, workdir):
    rng = random.Random(seed)
    size = SIZES[scale]
    modal = lib.modal
    ops = [_modal_laws_op(lib, modal.DirectedMultigraph(v, e), rng)
           for v, e in multigraph_specs(*size["multigraph"])]
    ops += [_diamond_op(lib, modal.DirectedMultigraph(v, e))
            for v, e in digraph_class_specs(size["classes"])]
    ops += _downset_ops(lib, size)
    ops.append(_adjoint_op(lib, size, rng))
    ops += [_transfer_op(lib, functor)
            for functor in copresheaf_family(lib, rng, size["copresheaves"])]
    mo = lib.morphology
    for _ in range(size["filters"]):
        w, h = 4, 3
        image = mo.BinaryImage.of(w, h, [(x, y) for x in range(w) for y in range(h)
                                         if rng.random() < 0.5])
        ops.append(_filter_op(lib, image, mo.StructuringElement.of(*rng.choice(ELEMENTS))))
    rng.shuffle(ops)
    return ops, None
