"""Cochain complexes and cohomology of cellular sheaves; Bayes nets as a
paired sheaf/cosheaf over the complete simplex on the variables.

Coboundaries are written blockwise from signed incidence numbers by
``cellsheaf``, whose section code slices the same rows.  Delta-squared
vanishing is exactly path independence, so the pass that validates a
sheaf builds the coboundaries and reads its verdict off their products,
under ``python -O`` too.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from ._record import Record
from .cellsheaf import (
    CellularSheaf, InvalidSheaf, _cochain_map, _require_valid, covering_pairs,
    validate_sheaf)
from .complexes import SimplicialComplex, face_name
from .errors import SheafcalcError
from .rationals import RationalMatrix, _ints, _reduced, _stored, rational

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
    map; it is nonzero only for the facets sigma of tau.  The sheaf is
    not validated: the first missing or misshapen attachment map between
    the two degrees is named when it is reached.
    """
    if s.variance != "sheaf":
        raise SheafcalcError(f"needs sheaf variance, got {s.variance!r}")
    if k < 0:
        raise SheafcalcError(f"no coboundary in degree {k}")
    s.base.dimension()  # a faceless base has no cochains: this raises
    try:
        return _cochain_map(s, k)
    except InvalidSheaf as err:
        if err.report.kind != "missing-map":
            raise
        sigma, tau = err.report.witness
        raise SheafcalcError(f"no attachment map {face_name(s.base, sigma)}->"
                             f"{face_name(s.base, tau)}") from None


def cochain_complex(s: CellularSheaf) -> CochainComplex:
    """The validated sheaf's cochain groups and coboundaries, as the pass
    that checked delta^(k+1) delta^k = 0 built them."""
    deltas = _require_valid(s)
    layout = tuple(tuple(s.base.k_faces(k)) for k in range(len(deltas)))
    dims = tuple(sum(s.stalk_dim[f] for f in layer) for layer in layout)
    return CochainComplex(dims, deltas, layout)


def cohomology_dims(s: CellularSheaf) -> tuple:
    """dim H^k = dim C^k - rank delta^k - rank delta^(k-1), degree by
    degree, with delta^(-1) zero."""
    cc = cochain_complex(s)
    ranks = [0] + [len(_reduced(delta)) for delta in cc.deltas]
    return tuple(n - ranks[k + 1] - ranks[k] for k, n in enumerate(cc.dims))


class BayesModel(Record):
    """Finite-outcome variables, a parent DAG, and exact-rational CPTs.

    ``cpt[name]`` has one row per combination of parent outcomes (first
    parent slowest, in the declared parent order) and one column per own
    outcome; every row sums to one exactly.  The model is checked as it
    is built, the outcome cap first; a cycle among the parents is found
    when ``bayes_build`` orders the variables.
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
        _validate_model(self)


class BayesAssembly(Record):
    cosheaf: CellularSheaf
    sheaf: CellularSheaf  # partial: maps only along the chain
    chain: tuple          # the DAG-selected nested faces
    joint: tuple


class BayesReport(Record):
    ok: bool
    violations: tuple = ()


def _validate_model(m: BayesModel):
    if _outcome_count(m, m.variables) > OUTCOME_LIMIT:
        raise SheafcalcError(
            f"outcome space too large (limit {OUTCOME_LIMIT})")
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
        want_rows = _outcome_count(m, m.parents[name])
        rows = m.cpt[name]
        if len(rows) != want_rows:
            raise SheafcalcError(
                f"CPT for {name!r} needs {want_rows} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != len(m.outcomes[name]):
                raise SheafcalcError(f"CPT row {i} for {name!r} has wrong width")
            if sum(row, Fraction(0)) != 1:
                raise SheafcalcError(f"CPT row {i} for {name!r} does not sum to 1")


def _outcome_count(m: BayesModel, face) -> int:
    """Outcomes of a face, the product of its variables' outcome counts;
    over all the variables, the entries of the joint distribution."""
    return prod(len(m.outcomes[name]) for name in face)


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


def _outcome_indices(m: BayesModel, face, sub) -> list:
    """For each outcome of ``face``, the index of its restriction to
    ``sub``, a subset of face's variables in any order.

    A face's outcomes are numbered in mixed radix, first variable
    slowest, so restricting one to ``sub`` keeps its digits on sub's
    variables and weighs them by sub's own place values.
    """
    place = {}
    weight = 1
    for name in reversed(sub):
        place[name] = weight
        weight *= len(m.outcomes[name])
    out = [0]
    for name in face:
        step = place.get(name, 0)
        out = [i + d * step for i in out for d in range(len(m.outcomes[name]))]
    return out


def _marginalize_matrix(m: BayesModel, sub, face) -> RationalMatrix:
    """0/1 summation matrix collapsing the face's distribution onto sub."""
    below = _outcome_indices(m, face, sub)
    rows = tuple({} for _ in range(_outcome_count(m, sub)))
    for j, i in enumerate(below):
        rows[i][j] = 1
    return RationalMatrix._from_sparse(len(rows), len(below), rows)


def _cpt_entries(m: BayesModel, face, name) -> list:
    """P(name | its parents) at each outcome of ``face``, a face holding
    name and its parents: the CPT row is the parents' outcome index, the
    column name's own."""
    table = m.cpt[name]
    return [table[row][col] for row, col in zip(
        _outcome_indices(m, face, m.parents[name]),
        _outcome_indices(m, face, (name,)))]


def _conditional_matrix(m: BayesModel, small, big) -> RationalMatrix:
    """Multiplication by the CPT of the one variable big adds to small."""
    (new,) = set(big) - set(small)
    rows = tuple({i: _stored(p)} if p else {} for i, p in zip(
        _outcome_indices(m, big, small), _cpt_entries(m, big, new)))
    return RationalMatrix._from_sparse(
        len(rows), _outcome_count(m, small), rows)


def bayes_build(m: BayesModel) -> BayesAssembly:
    """The complete-simplex cosheaf of marginalizations, the chain sheaf
    of conditional-probability maps, and the exact joint distribution.

    The cosheaf is total: every attachment carries a 0/1 summation
    matrix.  The sheaf is deliberately partial, storing maps only along
    the nested faces a topological order of the DAG selects; its k-th
    map multiplies a distribution by the CPT of the k-th variable added.
    """
    order = _topological(m)

    subsets = [()]
    for name in m.variables:
        subsets += [s + (name,) for s in subsets]
    base = SimplicialComplex(m.variables, subsets[1:])

    dim_of = {face: _outcome_count(m, face) for face in base.all_faces()}

    marg = {}
    for sigma, tau in covering_pairs(base):
        marg[(sigma, tau)] = _marginalize_matrix(m, sigma, tau)
    cosheaf = CellularSheaf(base, dim_of, marg, "cosheaf")

    chain = tuple(base._face(order[:i + 1]) for i in range(len(order)))
    conditional = {}
    for small, big in zip(chain, chain[1:]):
        conditional[(small, big)] = _conditional_matrix(m, small, big)
    sheaf = CellularSheaf(base, dim_of, conditional, "sheaf")

    full = tuple(m.variables)
    joint = [Fraction(1)] * _outcome_count(m, full)
    for name in full:
        joint = [p * q for p, q in zip(joint, _cpt_entries(m, full, name))]

    return BayesAssembly(cosheaf, sheaf, chain, tuple(joint))


def _brute_marginals(m: BayesModel, faces, joint) -> dict:
    """face -> marginal of ``joint`` by direct summation over outcomes,
    bypassing the matrices.  The joint is written over its common
    denominator once, by ``_ints``, the numerators are added as ints,
    and each sum becomes a canonical Fraction, the value summing
    Fractions gives."""
    den, nums = _ints(dict(enumerate(joint)))
    full = tuple(m.variables)
    out = {}
    for face in faces:
        sums = [0] * _outcome_count(m, face)
        for i, p in zip(_outcome_indices(m, full, face), nums.values()):
            sums[i] += p
        out[face] = tuple(Fraction(x, den) for x in sums)
    return out


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
    faces = base.all_faces()
    out = {faces[-1]: vec}
    for face in reversed(faces[:-1]):
        missing = next(v for v in base.vertex_order if v not in face)
        bigger = base._face(face + (missing,))
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

    faces = assembly.cosheaf.base.all_faces()
    marginal = _brute_marginals(m, faces, vec)
    carried = _carried_marginals(assembly.cosheaf, vec)
    for face in faces:
        if carried[face] != marginal[face]:
            violations.append(("marginalization", face))

    for small, big in zip(assembly.chain, assembly.chain[1:]):
        got = assembly.sheaf.restriction[(small, big)].apply(marginal[small])
        if got != marginal[big]:
            violations.append(("conditional-component", (small, big)))

    return BayesReport(not violations, tuple(violations))
