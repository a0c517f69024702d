"""Core table behavior: axioms, order, complements, blocks, decompositions."""

import itertools
import random

import pytest

import partlogic as P
from conftest import boolean_table, corpus_entry, corpus_table
from partlogic import oa

fs = frozenset


def test_firefly_passes_all_quasi_axioms(firefly):
    report = P.verify_quasi_oa(firefly)
    assert report.passed
    assert report.structure_class == "quasi_oa"


def test_nontransitive_union_is_quasi_oa(nontransitive):
    assert P.verify_quasi_oa(nontransitive).passed


def test_zero_equals_one_is_structural_error():
    t = P.FiniteQuasiOrthoalgebra(["0", "1"], "0", "0", {})
    with pytest.raises(P.StructureError):
        P.verify_quasi_oa(t)


def test_sum_value_outside_elements_is_structural_error():
    t = P.FiniteQuasiOrthoalgebra(
        ["0", "1"], "0", "1", {("0", "0"): "0", ("0", "1"): "ghost"}
    )
    with pytest.raises(P.StructureError):
        P.verify_quasi_oa(t)


def _boolean2_with(extra):
    base = {
        ("0", "0"): "0",
        ("0", "1"): "1",
        ("1", "0"): "1",
        ("a", "0"): "a",
        ("0", "a"): "a",
        ("b", "0"): "b",
        ("0", "b"): "b",
        ("a", "b"): "1",
        ("b", "a"): "1",
    }
    base.update(extra)
    return P.FiniteQuasiOrthoalgebra(["0", "a", "b", "1"], "0", "1", base)


def test_commutativity_violation_is_witnessed():
    # drop the (b, a) orientation so commutativity fails
    t = P.FiniteQuasiOrthoalgebra(
        ["0", "a", "b", "1"],
        "0",
        "1",
        {
            ("0", "0"): "0",
            ("0", "1"): "1",
            ("1", "0"): "1",
            ("a", "0"): "a",
            ("0", "a"): "a",
            ("b", "0"): "b",
            ("0", "b"): "b",
            ("a", "b"): "1",
        },
    )
    report = P.verify_quasi_oa(t)
    assert "oai" in report.failing_axioms()


def test_missing_complement_fails_oaiii():
    t = P.FiniteQuasiOrthoalgebra(
        ["0", "a", "b", "1"],
        "0",
        "1",
        {
            ("0", "0"): "0",
            ("0", "1"): "1",
            ("1", "0"): "1",
            ("a", "0"): "a",
            ("0", "a"): "a",
            ("b", "0"): "b",
            ("0", "b"): "b",
        },
    )
    report = P.verify_quasi_oa(t)
    assert "oaiii" in report.failing_axioms()


def test_two_complements_fail_oaiii():
    t = _boolean2_with(
        {("a", "a"): "1"}
    )
    report = P.verify_quasi_oa(t)
    assert "oaiii" in report.failing_axioms() or "oav" in report.failing_axioms()


def test_wright_is_orthoalgebra(wright):
    assert P.verify_oa(wright).structure_class == "orthoalgebra"


def test_nontransitive_fails_oa(nontransitive):
    report = P.verify_oa(nontransitive)
    assert report.structure_class == "quasi_oa"
    assert report.failing_axioms() == ("oavii",)


def test_powerset_of_two_is_orthoalgebra():
    t = boolean_table(2)
    assert P.verify_oa(t).structure_class == "orthoalgebra"
    assert P.classify(t) == "boolean"


def test_golfin_agrees_on_corpus(tables):
    for eid, t in tables.items():
        oa = P.verify_oa(t).structure_class == "orthoalgebra"
        golfin = P.verify_oa_golfin(t).structure_class == "orthoalgebra"
        assert oa == golfin, eid


def test_golfin_on_fano_pasting_matches_verify_oa(fano):
    assert P.verify_oa(fano).passed
    assert P.verify_oa_golfin(fano).passed


# orthocomplement -----------------------------------------------------------


def test_firefly_shared_coatom(firefly):
    n1 = P.orthocomplement(firefly, "n")
    assert firefly.value("l", "r") == n1
    assert firefly.value("f", "b") == n1


def test_complement_of_zero_is_one(tables):
    for t in tables.values():
        assert P.orthocomplement(t, t.zero) == t.one
        assert P.orthocomplement(t, t.one) == t.zero


def test_wright_corner_complement_two_ways(wright):
    a1 = P.orthocomplement(wright, "a")
    assert wright.value("b", "c") == a1
    assert wright.value("e", "f") == a1


def test_complement_error_names_oaiii():
    t = P.FiniteQuasiOrthoalgebra(
        ["0", "a", "b", "1"],
        "0",
        "1",
        {
            ("0", "0"): "0",
            ("0", "1"): "1",
            ("1", "0"): "1",
            ("a", "0"): "a",
            ("0", "a"): "a",
            ("b", "0"): "b",
            ("0", "b"): "b",
        },
    )
    with pytest.raises(P.AxiomViolationError) as err:
        P.orthocomplement(t, "a")
    assert err.value.axiom == "oaiii"


def test_involution_on_corpus(tables):
    for t in tables.values():
        for a in t.elements:
            assert P.orthocomplement(t, P.orthocomplement(t, a)) == a


# order ---------------------------------------------------------------------


def test_leq_examples(nontransitive, firefly):
    assert P.leq(nontransitive, fs({"3"}), fs({"3", "4"}))
    assert P.leq(nontransitive, fs({"3", "4"}), fs({"3", "4", "5"}))
    assert P.leq(firefly, "l", P.orthocomplement(firefly, "n"))


def test_everything_below_one(tables):
    for t in tables.values():
        for a in t.elements:
            assert P.leq(t, a, t.one)


def test_order_reflexive_antisymmetric(tables):
    for t in tables.values():
        for a in t.elements:
            assert P.leq(t, a, a)
        for a, b in itertools.combinations(t.elements, 2):
            assert not (P.leq(t, a, b) and P.leq(t, b, a))


def test_transitivity_counterexample_nontransitive(nontransitive):
    cex = P.order_transitivity_counterexample(nontransitive)
    assert cex == (fs({"3"}), fs({"3", "4"}), fs({"3", "4", "5"}))


def test_orthoalgebra_order_is_transitive(tables):
    for eid, t in tables.items():
        if P.verify_oa(t).structure_class == "orthoalgebra":
            assert P.order_transitivity_counterexample(t) is None, eid


def test_transitivity_none_on_boolean():
    assert P.order_transitivity_counterexample(boolean_table(2)) is None


def test_minimal_upper_bound_property(tables):
    for eid, t in tables.items():
        if P.verify_oa(t).structure_class != "orthoalgebra":
            continue
        for a, b, s in t.pairs():
            assert P.leq(t, a, s) and P.leq(t, b, s)
            for c in t.elements:
                if c != s and P.leq(t, a, c) and P.leq(t, b, c) and P.leq(t, c, s):
                    raise AssertionError(
                        "strict middle above %r,%r in %s" % (a, b, eid)
                    )


# Proposition 1 invariants ---------------------------------------------------


def test_cancellation_on_corpus(tables):
    for t in tables.values():
        for a in t.elements:
            row = t.sums_from(a)
            seen = {}
            for b, c in row.items():
                assert seen.setdefault(c, b) == b
        for a, b, c in t.pairs():
            if c == t.one:
                assert b == P.orthocomplement(t, a)


# blocks ----------------------------------------------------------------------


def test_firefly_blocks(firefly):
    blks = P.blocks(firefly)
    assert len(blks) == 2
    assert all(len(b) == 8 for b in blks)
    shared = set(blks[0]) & set(blks[1])
    n1 = P.orthocomplement(firefly, "n")
    assert shared == {"0", "n", n1, "1"}


def test_wright_blocks(wright):
    blks = P.blocks(wright)
    assert len(blks) == 3
    assert all(len(b) == 8 for b in blks)


def test_boolean_single_block():
    t = boolean_table(2)
    blks = P.blocks(t)
    assert len(blks) == 1
    assert set(blks[0]) == set(t.elements)


def test_pasting_blocks_recover_diagram(tables):
    for eid in ("firefly", "wright", "fano", "fig12", "fig15", "fig16"):
        diagram = corpus_entry(eid).payload
        t = corpus_table(eid)
        got = {
            frozenset(P.boolean_atoms(t, frozenset(blk))[0])
            for blk in P.blocks(t)
        }
        want = {frozenset(b) for b in diagram.blocks}
        assert got == want, eid


def named_loop(k, order):
    """L_k, k three-atom blocks in a ring, with its atoms named in an order.

    Structural names sort around the loop, grouped names sort every middle
    atom before every shared atom, shuffled names are a seeded permutation.
    """
    if order == "grouped":
        names = ["%s%03d" % ("sm"[i % 2], i) for i in range(2 * k)]
    else:
        names = ["a%03d" % i for i in range(2 * k)]
        if order == "shuffled":
            random.Random(k).shuffle(names)
    blocks = [
        names[2 * i : 2 * i + 2] + [names[(2 * i + 2) % (2 * k)]] for i in range(k)
    ]
    return P.from_greechie(P.GreechieDiagram(names, blocks))


def closure_calls(monkeypatch, table):
    """The blocks of table and the number of `_closure` calls they took."""
    calls = []
    closure = oa._closure

    def counted(table, seed):
        calls.append(None)
        return closure(table, seed)

    monkeypatch.setattr(oa, "_closure", counted)
    return P.blocks(table), len(calls)


@pytest.mark.parametrize("order", ["structural", "grouped", "shuffled"])
@pytest.mark.parametrize("k", [8, 16, 32])
def test_blocks_of_a_loop_try_only_compatible_elements(monkeypatch, k, order):
    # one call closes {0, 1}, which tries the 4k other elements; then the
    # {0, a, a', 1} of a middle atom a tries the 4 others of its block, that
    # of a shared atom the 8 of its two blocks, and a block tries none.  The
    # loop over every element took 721 calls on L_8 and 12,097 on L_32
    blks, calls = closure_calls(monkeypatch, named_loop(k, order))
    assert len(blks) == k
    assert calls == 16 * k + 1


@pytest.mark.parametrize("n, want", [(5, 1211), (6, 10563)])
def test_blocks_of_a_boolean_block_try_every_element(monkeypatch, n, want):
    # in a Boolean algebra every element is compatible with every other
    t = boolean_table(n)
    blks, calls = closure_calls(monkeypatch, t)
    assert blks == [t.elements]
    assert calls == want


# OMP check -------------------------------------------------------------------


def test_wright_not_omp(wright):
    report = P.is_omp(wright)
    assert not report.passed
    assert report.violations[0].axiom == "omp-orthogonal-join"


def test_firefly_is_omp(firefly):
    assert P.is_omp(firefly).passed


def test_boolean_cube_is_omp():
    assert P.is_omp(boolean_table(3)).passed


def test_is_omp_reports_verify_oa_outside_orthoalgebras():
    # MO2 with b + 0 dropped and b + a' = b added: once called an OMP
    el = ["0", "a", "a'", "b", "b'", "1"]
    oplus = {(x, "0"): x for x in el} | {("0", x): x for x in el}
    for x, y in (("a", "a'"), ("b", "b'")):
        oplus[(x, y)] = oplus[(y, x)] = "1"
    del oplus[("b", "0")]
    oplus[("b", "a'")] = "b"
    t = P.FiniteQuasiOrthoalgebra(el, "0", "1", oplus)
    report = P.is_omp(t)
    assert report == P.verify_oa(t)
    assert report.structure_class == P.classify(t) == "not_quasi_oa"


# Mackey decompositions -------------------------------------------------------


def test_mackey_forced_triple(firefly):
    assert P.mackey_decompositions(firefly, "l", "l") == [("0", "0", "l")]


def test_mackey_wright_corners(wright):
    assert P.mackey_decompositions(wright, "a", "c") == [("a", "c", "0")]


def test_mackey_unique_on_prime_orthoalgebras(tables):
    for eid, t in tables.items():
        if P.verify_oa(t).structure_class != "orthoalgebra":
            continue
        if not P.is_prime(t):
            continue
        for a, b in itertools.product(t.elements, repeat=2):
            assert len(P.mackey_decompositions(t, a, b)) <= 1, (eid, a, b)


# pasting ---------------------------------------------------------------------


def test_pasting_sizes():
    assert len(corpus_table("firefly").elements) == 12
    assert len(corpus_table("wright").elements) == 14


def test_two_atom_block_pastes_to_boolean():
    d = P.GreechieDiagram(["a", "b"], [["a", "b"]])
    t = P.from_greechie(d)
    assert len(t.elements) == 4
    assert P.classify(t) == "boolean"


def test_pasting_collapse_raises():
    d = P.GreechieDiagram(["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]])
    with pytest.raises(P.PastingError):
        P.from_greechie(d)


def test_derived_labels_give_way_to_atoms():
    # atoms are never renamed: a derived label that an atom holds takes "~"
    t = P.from_greechie(P.GreechieDiagram(["0", "1", "a"], [["0", "1", "a"]]))
    assert (t.zero, t.one) == ("0~", "1~")
    t = P.from_greechie(P.GreechieDiagram(["a", "a'", "b"], [["a", "a'", "b"]]))
    assert list(t.elements) == ["0", "a", "a'", "b", "a'~", "a+b", "b'", "1"]
    # two atoms whose str collide still raise
    with pytest.raises(P.PastingError, match="colliding"):
        P.from_greechie(P.GreechieDiagram([1, "1", "a"], [[1, "1", "a"]]))


def test_diagram_validation():
    with pytest.raises(P.StructureError):
        P.GreechieDiagram(["a"], [["a", "a"]])
    with pytest.raises(P.StructureError):
        P.GreechieDiagram(["a", "b", "c"], [["a", "b"]])
    with pytest.raises(P.StructureError):
        P.GreechieDiagram(["a", "b", "c"], [["a", "b", "c"], ["a", "b"]])


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: P.verify_quasi_oa(P.FiniteQuasiOrthoalgebra(["0", "0", "1"], "0", "1", {})),
            "duplicate element label 0",
        ),
        (lambda: P.GreechieDiagram(["a"], []), "diagram needs at least one block"),
    ],
)
def test_table_and_diagram_input_errors(build, message):
    with pytest.raises(P.StructureError) as err:
        build()
    assert str(err.value) == message


def test_corpus_tables_verify(tables):
    for eid, t in tables.items():
        assert P.verify_quasi_oa(t).passed, eid


def test_nested_blocks_name_the_first_pair_inner_block_first():
    # (0, 2) and (0, 3) are nested; (0, 2) comes first in pair order, though
    # block 3's atoms come first in block 0
    blocks = [("a", "b", "c", "d"), ("e", "f"), ("c", "d"), ("a", "b")]
    message = r"^block \('c', 'd'\) is contained in block \('a', 'b', 'c', 'd'\)$"
    with pytest.raises(P.StructureError, match=message):
        P.GreechieDiagram("abcdef", blocks)
