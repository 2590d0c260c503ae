"""Cochain complexes and cohomology of cellular sheaves; Bayes nets as a
paired sheaf/cosheaf over the complete simplex on the variables.

Coboundaries are assembled blockwise from signed incidence numbers, so
delta-squared vanishing is a mechanical consequence that the constructor
still verifies outright.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .cellsheaf import (
    CellularSheaf, _require_valid, covering_pairs, validate_sheaf)
from .complexes import _signed_facets, face_name, validate_complex
from .errors import SheafcalcError
from .rationals import (
    RationalMatrix, block_assemble, decompose, rational)

__all__ = [
    "CochainComplex",
    "BayesModel",
    "BayesAssembly",
    "BayesReport",
    "coboundary",
    "cochain_complex",
    "cohomology_dims",
    "bayes_build",
    "bayes_check",
]

OUTCOME_LIMIT = 4096  # entries of a Bayes model's joint distribution


class CochainComplex(Record):
    dims: tuple    # dim C^k per degree
    deltas: tuple  # delta^k : C^k -> C^{k+1}
    layout: tuple  # faces whose stalks occupy each degree, in block order


def coboundary(s: CellularSheaf, k: int) -> RationalMatrix:
    """delta^k, blocked by the global face order in each degree.

    The (tau, sigma) block is the incidence sign times the attachment
    map; it is nonzero only for the facets sigma of tau.
    """
    if s.variance != "sheaf":
        raise SheafcalcError(f"needs sheaf variance, got {s.variance!r}")
    if k < 0:
        raise SheafcalcError(f"no coboundary in degree {k}")
    row_faces = s.base.k_faces(k + 1) if k + 1 <= s.base.dimension() else []
    col_faces = s.base.k_faces(k)
    col_of = {sigma: j for j, sigma in enumerate(col_faces)}
    blocks = {}
    for i, tau in enumerate(row_faces):
        for sigma, sign in _signed_facets(tau):
            if sigma not in col_of:
                continue
            mat = s.restriction.get((sigma, tau))
            if mat is None:
                raise SheafcalcError(
                    f"no attachment map {face_name(s.base, sigma)}->"
                    f"{face_name(s.base, tau)}")
            blocks[(i, col_of[sigma])] = (
                mat if sign == 1 else mat.scale(Fraction(-1)))
    return block_assemble(
        blocks,
        tuple(s.stalk_dim[tau] for tau in row_faces),
        tuple(s.stalk_dim[sigma] for sigma in col_faces))


def cochain_complex(s: CellularSheaf) -> CochainComplex:
    _require_valid(s)
    top = s.base.dimension()
    layout = tuple(tuple(s.base.k_faces(k)) for k in range(top + 1))
    dims = tuple(sum(s.stalk_dim[f] for f in layer) for layer in layout)
    deltas = tuple(coboundary(s, k) for k in range(top + 1))
    for k in range(top):
        assert (deltas[k + 1] @ deltas[k]).is_zero(), f"delta^2 != 0 at {k}"
    return CochainComplex(dims, deltas, layout)


def cohomology_dims(s: CellularSheaf) -> tuple:
    """dim H^k = dim ker delta^k - rank delta^(k-1), degree by degree."""
    cc = cochain_complex(s)
    out = []
    previous_rank = 0
    for k, delta in enumerate(cc.deltas):
        dec = decompose(delta)
        kernel_dim = cc.dims[k] - dec.rank
        out.append(kernel_dim - previous_rank)
        previous_rank = dec.rank
    return tuple(out)


class BayesModel(Record):
    """Finite-outcome variables, a parent DAG, and exact-rational CPTs.

    ``cpt[name]`` has one row per combination of parent outcomes (first
    parent slowest, in the declared parent order) and one column per own
    outcome; every row sums to one exactly.
    """

    variables: tuple  # names in declaration order
    outcomes: dict    # name -> tuple of outcome labels
    parents: dict     # name -> tuple of parent names
    cpt: dict         # name -> tuple of rows of Fractions

    def __post_init__(self):
        for name in self.variables:
            for field in ("outcomes", "parents", "cpt"):
                if name not in getattr(self, field):
                    raise SheafcalcError(f"no {field} entry for {name!r}")
        clean = {name: tuple(tuple(rational(x) for x in row)
                             for row in self.cpt[name])
                 for name in self.variables}
        object.__setattr__(self, "cpt", clean)


class BayesAssembly(Record):
    cosheaf: CellularSheaf
    sheaf: CellularSheaf  # partial: maps only along the chain
    chain: tuple          # the DAG-selected nested faces
    joint: tuple


class BayesReport(Record):
    ok: bool
    violations: tuple = ()


def _validate_model(m: BayesModel):
    if len(set(m.variables)) != len(m.variables):
        raise SheafcalcError("duplicate variable")
    for name in m.variables:
        if not m.outcomes[name]:
            raise SheafcalcError(f"no outcomes for {name}")
        if len(set(m.outcomes[name])) != len(m.outcomes[name]):
            raise SheafcalcError(f"duplicate outcomes for {name!r}")
        for p in m.parents[name]:
            if p not in m.variables:
                raise SheafcalcError(f"unknown parent {p!r} of {name!r}")
        if len(set(m.parents[name])) != len(m.parents[name]):
            raise SheafcalcError(f"duplicate parents of {name!r}")
        want_rows = 1
        for p in m.parents[name]:
            want_rows *= len(m.outcomes[p])
        rows = m.cpt[name]
        if len(rows) != want_rows:
            raise SheafcalcError(
                f"CPT for {name!r} needs {want_rows} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != len(m.outcomes[name]):
                raise SheafcalcError(f"CPT row {i} for {name!r} has wrong width")
            if sum(row, Fraction(0)) != 1:
                raise SheafcalcError(f"CPT row {i} for {name!r} does not sum to 1")
    if _outcome_count(m) > OUTCOME_LIMIT:
        raise SheafcalcError(
            f"outcome space too large (limit {OUTCOME_LIMIT})")


def _outcome_count(m: BayesModel) -> int:
    """Entries of the joint distribution: the product of outcome counts."""
    n = 1
    for name in m.variables:
        n *= len(m.outcomes[name])
    return n


def _topological(m: BayesModel):
    remaining = set(m.variables)
    order = []
    while remaining:
        ready = [v for v in m.variables
                 if v in remaining
                 and all(p not in remaining for p in m.parents[v])]
        if not ready:
            raise SheafcalcError("cycle in dag")
        order.append(ready[0])
        remaining.remove(ready[0])
    return order


def _face_of(m: BayesModel, names) -> tuple:
    return tuple(sorted(names, key=m.variables.index))


def _combos(m: BayesModel, face):
    """All outcome assignments over the face, first variable slowest."""
    out = [()]
    for name in face:
        out = [c + (o,) for c in out for o in m.outcomes[name]]
    return out


def _index_map(m: BayesModel, face):
    return {combo: i for i, combo in enumerate(_combos(m, face))}


def _restrict_combo(face, sub, combo):
    pick = {name: value for name, value in zip(face, combo)}
    return tuple(pick[name] for name in sub)


def _marginalize_matrix(m: BayesModel, sub, face) -> RationalMatrix:
    """0/1 summation matrix collapsing the face's distribution onto sub."""
    sub_index = _index_map(m, sub)
    cols = _combos(m, face)
    rows = tuple({} for _ in sub_index)
    for j, combo in enumerate(cols):
        rows[sub_index[_restrict_combo(face, sub, combo)]][j] = Fraction(1)
    return RationalMatrix._from_sparse(len(rows), len(cols), rows)


def _cpt_value(m: BayesModel, name, own, parent_combo) -> Fraction:
    row = 0
    for p, value in zip(m.parents[name], parent_combo):
        row = row * len(m.outcomes[p]) + m.outcomes[p].index(value)
    return m.cpt[name][row][m.outcomes[name].index(own)]


def _conditional_matrix(m: BayesModel, small, big) -> RationalMatrix:
    """Multiplication by the CPT of the one variable big adds to small."""
    (new,) = set(big) - set(small)
    small_index = _index_map(m, small)
    rows = []
    for combo in _combos(m, big):
        below = _restrict_combo(big, small, combo)
        own = combo[big.index(new)]
        parent_combo = _restrict_combo(big, m.parents[new], combo)
        p = _cpt_value(m, new, own, parent_combo)
        rows.append({small_index[below]: p} if p else {})
    return RationalMatrix._from_sparse(len(rows), len(small_index), tuple(rows))


def bayes_build(m: BayesModel) -> BayesAssembly:
    """The complete-simplex cosheaf of marginalizations, the chain sheaf
    of conditional-probability maps, and the exact joint distribution.

    The cosheaf is total: every attachment carries a 0/1 summation
    matrix.  The sheaf is deliberately partial, storing maps only along
    the nested faces a topological order of the DAG selects; its k-th
    map multiplies a distribution by the CPT of the k-th variable added.
    """
    _validate_model(m)
    order = _topological(m)

    subsets = [[]]
    for name in m.variables:
        subsets += [s + [name] for s in subsets]
    faces = [_face_of(m, s) for s in subsets if s]
    base = validate_complex(faces, vertices=m.variables)

    dim_of = {}
    for face in base.all_faces():
        d = 1
        for name in face:
            d *= len(m.outcomes[name])
        dim_of[face] = d

    marg = {}
    for sigma, tau in covering_pairs(base):
        marg[(sigma, tau)] = _marginalize_matrix(m, sigma, tau)
    cosheaf = CellularSheaf(base, dim_of, marg, "cosheaf")

    chain = tuple(_face_of(m, order[:i + 1]) for i in range(len(order)))
    conditional = {}
    for small, big in zip(chain, chain[1:]):
        conditional[(small, big)] = _conditional_matrix(m, small, big)
    sheaf = CellularSheaf(base, dim_of, conditional, "sheaf")

    full = _face_of(m, m.variables)
    joint = []
    for combo in _combos(m, full):
        p = Fraction(1)
        for name, own in zip(full, combo):
            p *= _cpt_value(m, name, own,
                            _restrict_combo(full, m.parents[name], combo))
        joint.append(p)

    return BayesAssembly(cosheaf, sheaf, chain, tuple(joint))


def _brute_marginal(m: BayesModel, face, joint) -> tuple:
    """Marginal by direct summation over outcomes, bypassing the matrices."""
    full = _face_of(m, m.variables)
    index = _index_map(m, face)
    sums = [Fraction(0)] * len(index)
    for j, combo in enumerate(_combos(m, full)):
        sums[index[_restrict_combo(full, face, combo)]] += joint[j]
    return tuple(sums)


def _carried_marginals(cosheaf: CellularSheaf, vec) -> dict:
    """face -> image of ``vec``, a vector on the top face of a complete
    simplex, carried down the cosheaf one attachment at a time.

    Walking the faces from largest to smallest, a face takes the image
    of the face one larger: itself plus its first missing vertex in
    vertex order.  That is the route ``composite_map(cosheaf, face,
    top)`` takes, so each face gets the value of the composite, one
    matrix-vector product per face and no composite matrix.
    """
    base = cosheaf.base
    order = base._index.__getitem__
    faces = base.all_faces()
    out = {faces[-1]: vec}
    for face in reversed(faces[:-1]):
        missing = next(v for v in base.vertex_order if v not in face)
        bigger = tuple(sorted(face + (missing,), key=order))
        out[face] = cosheaf.restriction[(face, bigger)].apply(out[bigger])
    return out


def bayes_check(m: BayesModel, joint=None) -> BayesReport:
    """Marginalization consistency plus CPT-chain reproduction.

    The default joint is the CPT product; passing a vector checks that
    distribution instead.  Marginals are recomputed by brute-force
    summation and compared against the cosheaf's image of the joint on
    each face, carried down one attachment at a time along the route
    ``composite_map`` takes.  One route per face is enough: on a simplex
    any two routes differ by a sequence of square swaps, so a route
    disagreement implies a failed square, and the cosheaf's
    path-independence check reports those.  The sheaf side must rebuild
    each chain marginal from the previous one.
    """
    assembly = bayes_build(m)
    if joint is None:
        vec = assembly.joint
    else:
        vec = tuple(rational(x) for x in joint)
        if len(vec) != len(assembly.joint):
            raise SheafcalcError("joint vector has the wrong length")

    violations = []
    structural = validate_sheaf(assembly.cosheaf)
    if not structural.ok:
        violations.append(("cosheaf-path-independence", structural.witness))

    marginal = {}
    carried = _carried_marginals(assembly.cosheaf, vec)
    for face in assembly.cosheaf.base.all_faces():
        marginal[face] = _brute_marginal(m, face, vec)
        if carried[face] != marginal[face]:
            violations.append(("marginalization", face))

    for small, big in zip(assembly.chain, assembly.chain[1:]):
        got = assembly.sheaf.restriction[(small, big)].apply(marginal[small])
        if got != marginal[big]:
            violations.append(("conditional-component", (small, big)))

    return BayesReport(not violations, tuple(violations))
