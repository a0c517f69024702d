"""Charts listed by atom mask agree with the `frozenset`-keyed charts they replaced.

`atlas_oracle` holds verbatim copies of the old `BooleanChart`,
`verify_atlas`, `is_manifold`, the six relation predicates,
`atlas_to_quasi_oa` and `quasi_oa_to_atlas`.  On the corpus atlas, on
`from_cells` atlases of random partition logics, on random labelled atlases
and on the blocks atlases of random diagrams, the new code must give the
same charts, chart operations, axiom report with witnesses, manifold check,
predicate answers and table, or raise the same exception type with the same
message.
"""

import itertools
import random
from collections import Counter

import atlas_oracle as old
import partlogic as P
from test_pasting_oracle import (
    SEED,
    random_diagrams,
    random_labelled_charts,
    random_partition_logic,
)


def outcome(fn, *args):
    try:
        res = fn(*args)
    except P.LogicError as exc:
        return type(exc), str(exc)
    if isinstance(res, P.FiniteQuasiOrthoalgebra):
        return res.elements, res.zero, res.one, res.table
    return res


def same_charts(new, ref):
    """The two atlases hold the same charts, and each chart operates alike."""
    assert len(new.charts) == len(ref.charts)
    labels = new.labels()
    assert labels == ref.labels()
    for c, o in zip(new.charts, ref.charts):
        assert (c.atoms, c.labels) == (o.atoms, old.labels_by_mask(o))
        assert (c.zero, c.one, c.members()) == (o.zero, o.one, o.members())
        assert [x in c for x in labels] == [x in o for x in labels]
        members = c.members()
        assert [c.complement(a) for a in members] == [o.complement(a) for a in members]
        for a, b in itertools.product(members[:16], repeat=2):
            assert c.meet(a, b) == o.meet(a, b), (a, b)
            assert c.join(a, b) == o.join(a, b), (a, b)
            assert c.leq(a, b) == o.leq(a, b), (a, b)


PAIR_PREDICATES = ("compatible", "orthogonal")
SET_PREDICATES = (
    "jointly_compatible",
    "pairwise_compatible",
    "jointly_orthogonal",
    "pairwise_orthogonal",
)


def agree(new, ref, rng):
    """Compare one atlas built both ways; returns the table outcome."""
    same_charts(new, ref)
    assert P.verify_atlas(new) == old.verify_atlas(ref)
    assert P.is_manifold(new) == old.is_manifold(ref)
    # an unknown label makes the predicates raise
    labels = new.labels() + ["unknown"]
    for _ in range(40):
        a, b = rng.choice(labels), rng.choice(labels)
        for name in PAIR_PREDICATES:
            got = outcome(getattr(P, name), new, a, b)
            assert got == outcome(getattr(old, name), ref, a, b), (name, a, b)
        subset = rng.sample(labels, rng.randint(1, min(3, len(labels))))
        for name in SET_PREDICATES:
            got = outcome(getattr(P, name), new, subset)
            assert got == outcome(getattr(old, name), ref, subset), (name, subset)
    table = outcome(P.atlas_to_quasi_oa, new)
    assert table == outcome(old.atlas_to_quasi_oa, ref)
    return table


def old_chart(atoms, labels):
    return old.BooleanChart(atoms, zip(old.subsets(atoms), labels))


def test_corpus_atlas_matches_old_charts():
    rng = random.Random(SEED + 10)
    entries = [e for e in P.corpus() if e.kind == "atlas"]
    assert entries
    for e in entries:
        ref = P.BooleanAtlas(
            [old.BooleanChart.from_cells(c.atoms) for c in e.payload.charts]
        )
        agree(e.payload, ref, rng)


def test_from_cells_atlases_match_old_charts():
    rng = random.Random(SEED + 11)
    for _ in range(400):
        pl = random_partition_logic(rng)
        new = P.BooleanAtlas([P.BooleanChart.from_cells(p) for p in pl.partitions])
        ref = P.BooleanAtlas([old.BooleanChart.from_cells(p) for p in pl.partitions])
        agree(new, ref, rng)


def test_labelled_atlases_match_old_charts():
    rng = random.Random(SEED + 12)
    kinds = Counter()
    for _ in range(1500):
        charts = random_labelled_charts(rng)
        new = P.BooleanAtlas([P.BooleanChart(a, ls) for a, ls in charts])
        ref = P.BooleanAtlas([old_chart(a, ls) for a, ls in charts])
        table = agree(new, ref, rng)
        kinds["ok" if isinstance(table[0], tuple) else table[1][:19]] += 1
        kinds[P.verify_atlas(new).structure_class] += 1
        kinds["manifold" if P.is_manifold(new) else "not manifold"] += 1
    # both table outcomes, both atlas classes and both manifold answers occur
    assert kinds["ok"] >= 100 and kinds["charts disagree on "] >= 100
    assert kinds["atlas"] >= 100 and kinds["not_atlas"] >= 100
    assert kinds["manifold"] >= 100 and kinds["not manifold"] >= 100


def test_blocks_atlases_match_old_charts():
    rng = random.Random(SEED + 13)
    built = 0
    for d in random_diagrams(SEED + 14, 150):
        try:
            table = P.from_greechie(d)
        except P.LogicError:
            continue
        new, ref = P.quasi_oa_to_atlas(table), old.quasi_oa_to_atlas(table)
        assert isinstance(agree(new, ref, rng)[0], tuple)
        built += 1
    assert built >= 50
