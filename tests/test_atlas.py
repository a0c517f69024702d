"""Boolean atlas axioms, the two table conversions, and the relation predicates."""

import pytest

import partlogic as P
from conftest import boolean_table, corpus_entry, corpus_table

fs = frozenset


def nontransitive_atlas():
    return corpus_entry("nontransitive").payload


def test_example_atlas_is_valid():
    report = P.verify_atlas(nontransitive_atlas())
    assert report.passed
    assert report.structure_class == "atlas"


def test_atlas_needs_a_chart():
    with pytest.raises(P.StructureError) as err:
        P.BooleanAtlas([])
    assert str(err.value) == "atlas needs at least one chart"


def test_blocks_atlas_of_firefly_is_valid(firefly):
    atlas = P.quasi_oa_to_atlas(firefly)
    assert P.verify_atlas(atlas).passed


def test_single_chart_is_valid_atlas():
    chart = P.BooleanChart.from_cells([fs({"1"}), fs({"2"})])
    assert P.verify_atlas(P.BooleanAtlas([chart])).passed


def test_duplicate_charts_rejected():
    chart = P.BooleanChart.from_cells([fs({"1"}), fs({"2"})])
    report = P.verify_atlas(P.BooleanAtlas([chart, chart]))
    assert "atlas-no-containment" in report.failing_axioms()


def test_charts_with_different_zeros_fail_shared_bounds():
    left = P.BooleanChart(["a", "b"], ["0", "a", "b", "1"])
    right = P.BooleanChart(["a", "c"], ["z", "a", "c", "1"])
    report = P.verify_atlas(P.BooleanAtlas([left, right]))
    # the complements of 1 differ too
    assert report.failing_axioms() == ("atlas-shared-bounds", "atlas-complement-agreement")
    zeros, ones = report.violations[0].witness
    assert (sorted(zeros), ones) == (["0", "z"], ("1",))


def test_an_atlas_failing_every_axiom_reports_each_first_witness():
    c = P.BooleanChart(["x", "w"], ["z", "x", "w", "1"])
    b = P.BooleanChart(["x", "q", "r"], ["0", "x", "q", "y", "r", "xr", "c", "1"])
    a = P.BooleanChart(["x", "y"], ["0", "x", "y", "1"])
    report = P.verify_atlas(P.BooleanAtlas([c, b, a, a]))
    assert report.structure_class == "not_atlas"
    # ordered pairs for containment and joins, unordered ones for order and
    # complements: each axiom keeps the first pair and labels that fail it
    containment, order, bounds, complement, join = report.violations
    assert [v.axiom for v in report.violations] == [
        "atlas-no-containment",
        "atlas-order-agreement",
        "atlas-shared-bounds",
        "atlas-complement-agreement",
        "atlas-join-agreement",
    ]
    assert containment.witness == (2, 1)
    assert order.witness == ("x", "y", 1, 2)
    zeros, ones = bounds.witness
    assert (sorted(zeros), ones) == (["0", "z"], ("1",))
    assert complement.witness == ("1", 0, 1)
    assert join.witness == ("x", "y", 2, 1)


def test_label_collision_is_structural():
    with pytest.raises(P.StructureError, match="label collision inside a chart"):
        P.BooleanChart(("a", "b"), ["0", "x", "x", "1"])


def test_repeated_chart_atoms_are_structural():
    with pytest.raises(P.StructureError, match="chart atoms repeat"):
        P.BooleanChart(("a", "a"), ["0", "a", "b", "1"])


def test_chart_labels_must_cover_every_mask():
    for labels in (["0", "a", "1"], ["0", "a", "b", "1", "c"]):
        with pytest.raises(P.StructureError, match="not total over atom subsets"):
            P.BooleanChart(("a", "b"), labels)


def test_chart_lists_labels_by_atom_mask():
    # bit i of a mask is atoms[i]: d = a v b, e = a v c, f = b v c
    chart = P.BooleanChart(("a", "b", "c"), ["0", "a", "b", "d", "c", "e", "f", "1"])
    assert (chart.zero, chart.one) == ("0", "1")
    assert (chart.meet("d", "e"), chart.join("a", "b")) == ("a", "d")
    assert chart.complement("a") == "f"
    assert chart.leq("a", "e") and not chart.leq("e", "a")
    assert chart.members() == ["0", "a", "b", "c", "d", "e", "f", "1"]


def test_manifold_checks():
    assert P.is_manifold(nontransitive_atlas())
    chart = P.BooleanChart.from_cells([fs({"1"}), fs({"2"})])
    assert P.is_manifold(P.BooleanAtlas([chart]))


def test_wright_blocks_atlas_is_manifold(wright):
    atlas = P.quasi_oa_to_atlas(wright)
    assert len(atlas.charts) == 3
    assert P.is_manifold(atlas)


# Boolean atlas <-> quasi-orthoalgebra -----------------------------------------


def test_atlas_to_quasi_oa_is_nontransitive(nontransitive):
    assert P.verify_quasi_oa(nontransitive).passed
    assert P.verify_oa(nontransitive).structure_class == "quasi_oa"
    assert len(nontransitive.elements) == 48


def test_blocks_atlas_round_trip(firefly):
    atlas = P.quasi_oa_to_atlas(firefly)
    again = P.atlas_to_quasi_oa(atlas)
    assert P.isomorphic(firefly, again) is not None


def test_single_chart_gives_boolean():
    chart = P.BooleanChart.from_cells([fs({"1"}), fs({"2"}), fs({"3"})])
    t = P.atlas_to_quasi_oa(P.BooleanAtlas([chart]))
    assert len(t.elements) == 8
    assert P.classify(t) == "boolean"


def test_firefly_chart_atom_sets(firefly):
    atlas = P.quasi_oa_to_atlas(firefly)
    atom_sets = {fs(c.atoms) for c in atlas.charts}
    assert atom_sets == {fs({"l", "r", "n"}), fs({"f", "b", "n"})}


def test_atlas_coherence_on_corpus(tables):
    # atlas -> table -> blocks-atlas -> table is isomorphic to the first table
    for eid in ("firefly", "wright", "nontransitive"):
        t = corpus_table(eid)
        again = P.atlas_to_quasi_oa(P.quasi_oa_to_atlas(t))
        assert P.isomorphic(t, again) is not None, eid


def test_boolean_table_gives_single_chart():
    t = boolean_table(2)
    atlas = P.quasi_oa_to_atlas(t)
    assert len(atlas.charts) == 1
    assert set(atlas.charts[0].labels) == set(t.elements)


def test_order_agrees_with_chart_order(nontransitive):
    atlas = nontransitive_atlas()
    # chart order implies table order
    for chart in atlas.charts:
        for a in chart.members():
            for b in chart.members():
                if chart.leq(a, b):
                    assert P.leq(nontransitive, a, b)
    # and table order only holds via some common chart
    for a in nontransitive.elements:
        for b in nontransitive.elements:
            if P.leq(nontransitive, a, b):
                assert any(
                    a in c and b in c and c.leq(a, b) for c in atlas.charts
                )


# relation predicates ----------------------------------------------------------


def test_compatibility_examples():
    atlas = nontransitive_atlas()
    assert P.compatible(atlas, fs({"3"}), fs({"4"}))
    assert P.orthogonal(atlas, fs({"3"}), fs({"4"}))
    assert not P.compatible(atlas, fs({"3"}), fs({"5"}))


def test_single_element_jointly_compatible():
    atlas = nontransitive_atlas()
    assert P.jointly_compatible(atlas, [fs({"3"})])


def test_unknown_label_raises():
    atlas = nontransitive_atlas()
    with pytest.raises(P.StructureError):
        P.compatible(atlas, fs({"3"}), fs({"7"}))
    # of two unknown labels, the pair predicates name the second
    for predicate in (P.compatible, P.orthogonal):
        with pytest.raises(P.StructureError) as err:
            predicate(atlas, fs({"7"}), fs({"8"}))
        assert str(err.value) == "unknown label {8}"


def test_joint_implies_pairwise(wright):
    atlas = P.quasi_oa_to_atlas(wright)
    chart = atlas.charts[0]
    members = chart.members()[1:4]
    assert P.jointly_compatible(atlas, members)
    assert P.pairwise_compatible(atlas, members)


def test_pairwise_orthogonal_corners_not_jointly(wright):
    atlas = P.quasi_oa_to_atlas(wright)
    corners = ["a", "c", "e"]
    assert P.pairwise_orthogonal(atlas, corners)
    assert not P.jointly_orthogonal(atlas, corners)
    assert P.pairwise_compatible(atlas, corners)
    assert not P.jointly_compatible(atlas, corners)
