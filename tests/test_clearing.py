"""Clearing against the unskipped reduction.

``rationals._cleared`` reduces a chain of maps from the top degree down
and leaves out the rows of each map that sit at the pivot columns of the
map above it.  The rows kept span the same row space, so every rank,
every pivot, the rref and the kernel must be those of ``_reduced`` on
all the rows; the oracles here reduce every row.  At scale the Betti
numbers are known by construction, and a rank over GF(p) of the int rows
checks them with arithmetic that shares no step with the library.
"""

import random
from itertools import combinations

from sheafcalc.cellsheaf import global_section_space
from sheafcalc.cohomology import cochain_complex, cohomology_dims
from sheafcalc.complexes import boundary_matrix, homology_dims, validate_complex
from sheafcalc.rationals import _cleared, _kernel, _reduced, _rref

from util import (
    constant_sheaf, diagonal_grid_sheaf, gf_rank, grid_complex, random_complex,
    random_valid_sheaf)


def skeleton(n, k):
    """The k-skeleton of the simplex on n vertices: every face of at most
    k + 1 of them."""
    return validate_complex(combinations("abcdefg"[:n], k + 1))


def sphere_corpus():
    """Random valid sheaves on the boundaries and skeleta of tetrahedra
    and 4-simplices, whose top cohomology is not zero, and on random
    complexes with faces up to 4-simplices."""
    rng = random.Random(61)
    bases = [skeleton(4, 1), skeleton(4, 2), skeleton(5, 1), skeleton(5, 2),
             skeleton(5, 3), skeleton(6, 2)]
    for base in bases:
        yield constant_sheaf(base)
        for _ in range(6):
            yield random_valid_sheaf(rng, base)
    for _ in range(40):
        yield random_valid_sheaf(rng, random_complex(
            rng, max_faces=5, vertex_pool="abcdef", max_size=5))


def betti(ranks, dims):
    """dim C^k - rank delta^k - rank delta^(k-1), degree by degree."""
    ranks = [0] + list(ranks)
    return tuple(n - ranks[k + 1] - ranks[k] for k, n in enumerate(dims))


def test_cleared_coboundaries_keep_every_rank_pivot_rref_and_kernel():
    seen = set()
    skipped = 0
    for s in sphere_corpus():
        cc = cochain_complex(s)
        cleared = _cleared(cc.deltas)
        full = [_reduced(delta) for delta in cc.deltas]
        for delta, got, want in zip(cc.deltas, cleared, full):
            assert len(got) == len(want)
            assert sorted(got) == sorted(want)
            assert _rref(got) == _rref(want)
            assert _kernel(_rref(got), delta.cols) == _kernel(_rref(want), delta.cols)
        dims = cohomology_dims(s)
        assert dims == betti(map(len, full), cc.dims)
        assert global_section_space(s).dimension == dims[0]
        seen.update(k for k, d in enumerate(dims) if d and k)
        skipped += sum(len(r) for r in cleared[1:])
    # H^1, H^2 and H^3 all occur, and rows were left out
    assert seen >= {1, 2, 3}
    assert skipped


def test_cleared_boundaries_keep_every_homology_rank():
    rng = random.Random(67)
    for _ in range(80):
        c = random_complex(rng, max_faces=6, vertex_pool="abcdefg", max_size=4)
        transposes = [boundary_matrix(c, k).transpose()
                      for k in range(1, c.dimension() + 1)]
        full = [len(_reduced(t)) for t in transposes]
        assert [len(r) for r in _cleared(transposes)] == full
        assert homology_dims(c) == [
            len(c.k_faces(k)) - r - s
            for k, (r, s) in enumerate(zip([0] + full, full + [0]))]


def test_holed_grids_have_the_betti_numbers_of_their_holes():
    # h separated holes: (1, h, 0) for Q^1 and (2, 2h, 0) for Q^2, read
    # off the cleared ranks and off ranks over GF(2^61 - 1)
    for n, holes in ((12, [(3, 3), (8, 8)]), (30, [(6, 6), (6, 20), (21, 13)])):
        h = len(holes)
        base = grid_complex(n, holes=holes)
        assert homology_dims(base) == [1, h, 0]
        for dim in (1, 2):
            s, _ = diagonal_grid_sheaf(random.Random(n), base, dim)
            cc = cochain_complex(s)
            want = (dim, dim * h, 0)
            assert cohomology_dims(s) == want
            ranks = [gf_rank(delta) for delta in cc.deltas]
            assert ranks == [len(r) for r in _cleared(cc.deltas)]
            assert betti(ranks, cc.dims) == want
            assert global_section_space(s).dimension == dim
