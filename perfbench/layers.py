"""Per-layer metrics, read off a ``spans.Tracer`` after one traced round.

Each entry is (metric, unit, source, exact).  ``exact`` metrics are
counts taken at the call boundary and must repeat in every traced
round; the rest are self times in seconds, reported as medians.  Which
end-to-end metric each layer should move, and on which workload, is
listed in ``README.md``.
"""

from __future__ import annotations


def _calls(span, parent=None):
    return lambda t: t.stat(span, parent)[0]


def _self(span, parent=None):
    return lambda t: t.stat(span, parent)[1]


def _count(key):
    return lambda t: t.counts.get(key, 0)


def _ratio(top, base):
    return lambda t: t.counts.get(top, 0) / t.counts[base] if t.counts.get(base) else 0.0


def _layer(prefix, rows):
    out = []
    for suffix, unit, source in rows:
        out.append((f"{prefix}.{suffix}", unit, source, unit != "s"))
    return out


PER_LAYER = (
    _layer("rationals", [
        ("decompose.calls", "count", _calls("rationals.decompose")),
        ("decompose.self_s", "s", _self("rationals.decompose")),
        ("decompose.cells", "count", _count("rationals.decompose.cells")),
        ("decompose.nonzero_ratio", "ratio",
         _ratio("rationals.decompose.nonzeros", "rationals.decompose.cells")),
        ("decompose.max_bits", "bits", _count("rationals.decompose.max_bits")),
        ("matmul.calls", "count", _calls("rationals.matmul")),
        ("matmul.self_s", "s", _self("rationals.matmul")),
        ("matmul.mults", "count", _count("rationals.matmul.mults")),
        ("solve.calls", "count", _calls("rationals.solve")),
        ("solve.self_s", "s", _self("rationals.solve")),
        ("block_assemble.self_s", "s", _self("rationals.block_assemble")),
    ])
    + _layer("complexes", [
        ("k_faces.calls", "count", _calls("complexes.k_faces")),
        ("k_faces.self_s", "s", _self("complexes.k_faces")),
        ("incidence.calls", "count", _calls("complexes.incidence")),
        ("boundary_matrix.self_s", "s", _self("complexes.boundary_matrix")),
    ])
    + _layer("cellsheaf", [
        ("validate_sheaf.calls", "count", _calls("cellsheaf.validate_sheaf")),
        ("validate_sheaf.self_s", "s", _self("cellsheaf.validate_sheaf")),
        ("composite_map.calls", "count", _calls("cellsheaf.composite_map")),
        ("composite_map.self_s", "s", _self("cellsheaf.composite_map")),
        ("extend.self_s", "s", _self("cellsheaf.extend")),
        ("extend.localize_solves", "count",
         _calls("rationals.solve", "cellsheaf._localize_obstruction")),
        ("localize_obstruction.self_s", "s", _self("cellsheaf._localize_obstruction")),
        ("global_section_space.self_s", "s", _self("cellsheaf.global_section_space")),
    ])
    + _layer("cohomology", [
        ("coboundary.calls", "count", _calls("cohomology.coboundary")),
        ("coboundary.self_s", "s", _self("cohomology.coboundary")),
        ("delta2_check.self_s", "s",
         _self("rationals.matmul", "cohomology.cochain_complex")),
        ("bayes_build.self_s", "s", _self("cohomology.bayes_build")),
        ("bayes_check.self_s", "s", _self("cohomology.bayes_check")),
    ])
    + _layer("modal", [
        ("validate_subgraph.calls", "count", _calls("modal.validate_subgraph")),
        ("validate_subgraph.self_s", "s", _self("modal.validate_subgraph")),
        ("meet_join.calls", "count", _calls("modal.meet_join")),
        ("meet_join.self_s", "s", _self("modal.meet_join")),
        ("heyting_neg.self_s", "s", _self("modal.heyting_neg")),
        ("coheyting_neg.self_s", "s", _self("modal.coheyting_neg")),
        ("modal_iterate.calls", "count", _calls("modal.modal_iterate")),
        ("modal_iterate.self_s", "s", _self("modal.modal_iterate")),
        ("modal_iterate.steps", "count", _count("modal.modal_iterate.steps")),
        ("reach_oracle.self_s", "s", _self("modal.reach_oracle")),
    ])
    + _layer("poset", [
        ("downset_family.self_s", "s", _self("poset.downset_family")),
        ("downset_family.masks", "count", _count("poset.downset_family.masks")),
        ("downset_family.found", "count", _count("poset.downset_family.found")),
        ("downset_family.yield_ratio", "ratio",
         _ratio("poset.downset_family.found", "poset.downset_family.masks")),
        ("join.calls", "count", _calls("poset.join")),
        ("join.self_s", "s", _self("poset.join")),
        ("validate_poset.self_s", "s", _self("poset.validate_poset")),
    ])
    + _layer("galois", [
        ("right_adjoint_of.self_s", "s", _self("galois.right_adjoint_of")),
        ("check_connection.self_s", "s", _self("galois.check_connection")),
    ])
    + _layer("morphology", [
        ("dilate.self_s", "s", _self("morphology.dilate")),
        ("erode.self_s", "s", _self("morphology.erode")),
        ("composite_filter_lattice.self_s", "s",
         _self("morphology.composite_filter_lattice")),
    ])
    + _layer("finsheaf", [
        ("poset_transfer.self_s", "s", _self("finsheaf.poset_transfer")),
        ("is_sheaf.self_s", "s", _self("finsheaf.is_sheaf")),
        ("sheaf_check.calls", "count", _calls("finsheaf.sheaf_check")),
        ("irredundant_covers.covers", "count",
         _count("finsheaf.irredundant_covers.covers")),
        ("matching_families.families", "count",
         _count("finsheaf.matching_families.families")),
    ])
    + _layer("cli", [
        ("parse_inputs.self_s", "s", _self("cli.parse_inputs")),
        ("action.self_s", "s", _self("cli.action")),
    ])
)
