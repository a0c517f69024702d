"""Partition logics, urn models, and isomorphism of small logics."""

import pytest

import partlogic as P
from conftest import boolean_table, corpus_entry, corpus_table
from test_pasting_oracle import loop_diagram

fs = frozenset


def pl_wright():
    return corpus_entry("pl-wright").payload


def test_partition_logic_validation():
    # each family of cells raises, naming its first fault cell by cell
    cases = [
        ([[{"1"}]], "partition does not cover the ground set"),
        ([[{"1"}, {"1", "2"}]], "overlapping cells in partition"),
        ([[{"1"}, set()]], "empty cell in partition"),
        ([[{"1"}, set(), {"2"}]], "empty cell in partition"),
        ([[{"1", "3"}, set()]], "cell {1,3} leaves the ground set"),
        # the sizes sum to the ground's, but a point is met twice
        ([[{"1"}, {"1"}]], "overlapping cells in partition"),
        ([[]], "partition does not cover the ground set"),
        # the same set of cells as the valid partition before it
        ([[{"1"}, {"2"}], [{"1"}, {"2"}, {"1"}]], "overlapping cells in partition"),
        ([[{"1", "2"}], [{"1"}, {"2"}], [{"2"}]], "partition does not cover the ground set"),
    ]
    for partitions, message in cases:
        with pytest.raises(P.StructureError) as err:
            P.PartitionLogic(["1", "2"], partitions)
        assert str(err.value) == message, partitions


def test_duplicate_partitions_removed():
    pl = P.PartitionLogic(
        ["1", "2"], [[{"1"}, {"2"}], [{"2"}, {"1"}]]
    )
    assert len(pl.partitions) == 1


def test_pl_wright_pastes_to_triangle_logic(wright):
    t = P.pasting_to_oa(pl_wright())
    assert len(t.elements) == 14
    assert P.isomorphic(t, wright) is not None


def test_pl_fig12_pastes_isomorphic(fig12):
    t = P.pasting_to_oa(corpus_entry("pl-fig12").payload)
    assert P.isomorphic(t, fig12) is not None


def test_single_partition_pastes_to_boolean():
    pl = P.PartitionLogic(["1", "2", "3"], [[{"1"}, {"2"}, {"3"}]])
    t = P.pasting_to_oa(pl)
    assert len(t.elements) == 8
    assert P.classify(t) == "boolean"


def test_pasting_outputs_verify(tables):
    for eid in ("pl-wright", "pl-fig12"):
        t = P.pasting_to_oa(corpus_entry(eid).payload)
        assert P.verify_oa(t).structure_class == "orthoalgebra"


def test_point_evaluations_separate():
    for eid in ("pl-wright", "pl-fig12"):
        pl = corpus_entry(eid).payload
        t = P.pasting_to_oa(pl)
        evs = P.point_evaluations(pl, t)
        for s in evs:
            rs = P.RationalState(t, {e: s(e) for e in t.elements})
            assert P.is_state(t, rs)
        assert P.is_prime(t)
        # without a table, the evaluations are read on the pasting
        own = P.point_evaluations(pl)
        assert [[s(e) for e in t.elements] for s in own] == [[s(e) for e in t.elements] for s in evs]


# oa -> partition logic -------------------------------------------------------


def test_wright_partition_representation(wright):
    import itertools

    pl = P.oa_to_partition_logic(wright)
    assert len(pl.ground) == 4
    three_cell = {
        fs(fs(c) for c in part) for part in pl.partitions if len(part) == 3
    }
    assert len(three_cell) == 3
    # equal to the classic three partitions of {1,2,3,4} under some relabeling
    reference = {
        fs(fs(c) for c in part) for part in pl_wright().partitions
    }
    hit = False
    for perm in itertools.permutations("1234"):
        relabel = dict(zip(pl.ground, perm))
        mapped = {
            fs(fs(relabel[p] for p in cell) for cell in part)
            for part in three_cell
        }
        if mapped == reference:
            hit = True
            break
    assert hit


def test_boolean_two_gives_two_points():
    t = boolean_table(2)
    pl = P.oa_to_partition_logic(t)
    assert len(pl.ground) == 2
    assert any(
        sorted(len(c) for c in part) == [1, 1] for part in pl.partitions
    )


def test_firefly_round_trip(firefly):
    pl = P.oa_to_partition_logic(firefly)
    assert len(pl.ground) == 5
    back = P.pasting_to_oa(pl)
    assert P.isomorphic(firefly, back) is not None


def test_non_prime_table_raises(fano):
    with pytest.raises(P.PrimenessError) as err:
        P.oa_to_partition_logic(fano)
    assert err.value.pair is not None


def test_partition_representation_round_trip_all_prime(tables):
    for eid in ("firefly", "wright", "fig12", "fig15", "fig16"):
        t = corpus_table(eid)
        back = P.pasting_to_oa(P.oa_to_partition_logic(t))
        assert P.isomorphic(t, back) is not None, eid


# urns ------------------------------------------------------------------------


def test_urn_firefly(firefly):
    urn = corpus_entry("urn-firefly").payload
    pl = P.urn_to_partition_logic(urn)
    assert len(pl.partitions) == 2
    assert P.isomorphic(P.pasting_to_oa(pl), firefly) is not None


def test_urn_wright(wright):
    urn = corpus_entry("urn-wright").payload
    pl = P.urn_to_partition_logic(urn)
    assert len(pl.partitions) == 3
    assert P.isomorphic(P.pasting_to_oa(pl), wright) is not None


def test_single_color_distinct_symbols_is_discrete():
    urn = P.UrnModel(
        ["1", "2", "3"],
        ["red"],
        {("1", "red"): "x", ("2", "red"): "y", ("3", "red"): "z"},
    )
    pl = P.urn_to_partition_logic(urn)
    t = P.pasting_to_oa(pl)
    assert len(t.elements) == 8
    assert P.classify(t) == "boolean"


def test_urn_totality_enforced():
    with pytest.raises(P.StructureError):
        P.UrnModel(["1"], ["red", "green"], {("1", "red"): "x"})


# isomorphism -----------------------------------------------------------------


def test_iso_ex72_to_wright_diagram(wright):
    t = P.pasting_to_oa(pl_wright())
    iso = P.isomorphic(t, wright)
    assert iso is not None
    for (a, b), c in t.table.items():
        assert wright.value(iso[a], iso[b]) == iso[c]
    back = iso.inverse()
    assert all(back[iso[a]] == a for a in t.elements)
    for (a, b), c in wright.table.items():
        assert t.value(back[a], back[b]) == back[c]


def test_iso_respects_cardinality(firefly, wright):
    assert P.isomorphic(firefly, wright) is None


def test_iso_symmetric(firefly):
    pl = P.oa_to_partition_logic(firefly)
    t2 = P.pasting_to_oa(pl)
    fwd = P.isomorphic(firefly, t2)
    bwd = P.isomorphic(t2, firefly)
    assert fwd is not None and bwd is not None


def test_iso_recovers_relabeling(fig12):
    # relabel the atoms of the fig12 diagram and recover an isomorphism
    relabel = dict(zip("abcdefghi", "ihgfedcba"))
    blocks = [
        [relabel[a] for a in blk]
        for blk in corpus_entry("fig12").payload.blocks
    ]
    atoms = [relabel[a] for a in corpus_entry("fig12").payload.atoms]
    other = P.from_greechie(P.GreechieDiagram(atoms, blocks))
    iso = P.isomorphic(fig12, other)
    assert iso is not None
    # atoms map to atoms and the mapping preserves every sum
    other_atoms = set(P.atoms_of(other))
    for atom in "abcdefghi":
        assert iso[atom] in other_atoms
    for (a, b), c in fig12.table.items():
        assert other.value(iso[a], iso[b]) == iso[c]


def test_iso_distinguishes_fig15_fig16(tables):
    # same sizes, different gluing
    assert len(tables["fig15"].elements) == len(tables["fig16"].elements)
    assert P.isomorphic(tables["fig15"], tables["fig16"]) is None


@pytest.mark.parametrize("k", [3, 4, 5])
def test_pasting_sums_name_the_elements_themselves(k):
    pls = [pl_wright(), P.oa_to_partition_logic(P.from_greechie(loop_diagram(k)))]
    pls.append(P.parse("partition_logic", P.serialize(pls[-1])))
    for pl in pls:
        t = P.pasting_to_oa(pl)
        own = {id(e) for e in t.elements}
        assert id(t.zero) in own and id(t.one) in own
        for (a, b), c in t.table.items():
            assert t.elements[t.index(a)] is a
            assert t.elements[t.index(b)] is b
            assert t.elements[t.index(c)] is c
