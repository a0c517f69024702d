"""The bitmask order kernel agrees with the label scans it replaced.

`order_oracle` holds verbatim copies of the old label-based order code.  On
seeded random tables, a third of them missing one `a + 0` entry, on random
Greechie pastings, partition logics and atlases, and on the corpus, every
order query must give the same value, witness and exception.  The blocks
search, which prunes by compatibility on orthoalgebras only, is compared on
larger loops and Fano-plane pastings too.  The old `is_omp` assumed an
orthoalgebra, so it is compared on orthoalgebras only, there also on
pastings around a loop of three to five blocks; any other table must get
`verify_oa`'s report.
"""

import itertools
import random
from collections import Counter

import order_oracle as old
import partlogic as P
from partlogic import oa
from partlogic.dot import _greechie_dot
from partlogic.oa import AxiomReport
from test_pasting_oracle import (
    loop_diagram,
    random_diagrams,
    random_labelled_atlas,
    random_partition_logic,
)
from test_oa import named_loop
from test_random_agreement import random_table

SEED = 20261020
FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def outcome(f, *args):
    try:
        return f(*args)
    except P.LogicError as exc:
        return type(exc), str(exc)


def random_tables(rng, want):
    out = []
    for _ in range(want):
        t = random_table(rng)
        if rng.random() < 1 / 3:
            oplus = dict(t.table)
            del oplus[(rng.choice(t.elements), "0")]
            t = P.FiniteQuasiOrthoalgebra(t.elements, t.zero, t.one, oplus)
        out.append(t)
    return out


def pasted(build, inputs, max_elements=24):
    """The tables built from inputs, skipping failures and large tables.

    The old blocks search and the old join grow fast with the table, so
    the cap keeps the comparison quick.
    """
    out = []
    for x in inputs:
        try:
            t = build(x)
        except P.LogicError:
            continue
        if max_elements is None or len(t.elements) <= max_elements:
            out.append(t)
    return out


def agree(t, rng):
    """Compare every order query on t; returns its classify outcome."""
    ref = old.LabelTable(t)
    for name in (
        "verify_oa",
        "verify_oa_golfin",
        "classify",
        "order_transitivity_counterexample",
        "atoms_of",
    ):
        assert outcome(getattr(P, name), t) == outcome(getattr(old, name), ref), name
    # the old is_omp assumed an orthoalgebra; the new one gates on verify_oa
    if outcome(old.verify_oa, ref) == AxiomReport("orthoalgebra", ()):
        assert outcome(P.is_omp, t) == outcome(old.is_omp, ref)
    else:
        assert outcome(P.is_omp, t) == outcome(P.verify_oa, t)
    blocks = old.blocks(ref)
    assert P.blocks(t) == blocks
    for members, atoms, sums in oa._blocks(t):
        assert (atoms, sums) == oa._boolean(t, set(members))
    for a in t.elements:
        assert t.partners(a) == ref.partners(a)
        assert t.complements(a) == ref.complements(a)
        assert outcome(t.complement, a) == outcome(ref.complement, a)
        for b in t.elements:
            assert P.leq(t, a, b) == old.leq(ref, a, b)
            assert P.join(t, a, b) == old.join(ref, a, b)
    assert list(t.pairs()) == list(ref.pairs())
    subsets = [frozenset(b) for b in blocks]
    subsets += [
        frozenset(rng.sample(t.elements, rng.randint(0, len(t.elements))))
        for _ in range(4)
    ]
    for s in subsets:
        assert P.boolean_atoms(t, s) == old.boolean_atoms(ref, s)
    if old.verify_quasi_oa(ref).passed:
        assert P.render_dot(t, "hasse") == old._hasse_dot(ref)
        atom_blocks = [old.boolean_atoms(ref, frozenset(b))[0] for b in blocks]
        assert P.render_dot(t, "greechie") == _greechie_dot(atom_blocks)
    return outcome(P.classify, t)


def test_kernel_matches_label_scans():
    rng = random.Random(SEED)
    tables = random_tables(rng, 1000)
    diagrams = random_diagrams(SEED + 1, 150) + [loop_diagram(k) for k in range(2, 7)]
    tables += pasted(P.from_greechie, diagrams)
    tables += pasted(
        P.pasting_to_oa, [random_partition_logic(rng) for _ in range(200)]
    )
    tables += pasted(
        P.atlas_to_quasi_oa, [random_labelled_atlas(rng) for _ in range(400)]
    )
    tables += pasted(P.as_table, P.corpus(), max_elements=None)
    classes = Counter(agree(t, rng) for t in tables)
    # every structure class is reached, and the transitivity scan finds
    # counterexamples
    for cls in ("not_quasi_oa", "quasi_oa", "orthoalgebra", "omp", "boolean"):
        assert classes[cls], cls
    assert any(
        old.order_transitivity_counterexample(old.LabelTable(t)) for t in tables
    )


def fano_plus(j, rng):
    """The Fano plane's lines plus j four-atom blocks, block t at point t + 1.

    The 7 + 3j atoms take their names in a seeded random order.
    """
    names = ["p%02d" % i for i in range(7 + 3 * j)]
    rng.shuffle(names)
    blocks = [[names[p - 1] for p in line] for line in FANO_LINES]
    blocks += [[names[t]] + names[7 + 3 * t : 10 + 3 * t] for t in range(j)]
    return P.from_greechie(P.GreechieDiagram(names, blocks))


def test_blocks_match_label_search_on_loops_and_fano_pastings():
    rng = random.Random(SEED + 2)
    tables = [
        named_loop(k, order) for k in range(2, 13) for order in ("grouped", "shuffled")
    ]
    tables += [fano_plus(j, rng) for j in range(5) for _ in range(2)]
    for t in tables:
        assert P.verify_oa(t).passed
        assert P.blocks(t) == old.blocks(old.LabelTable(t))


def loop_core_pasting(rng):
    """A loop of 3 to 5 blocks plus up to 3 pendant blocks, under shuffled names.

    Half the loops have three blocks.  Each loop block holds the atoms it
    shares with its two neighbours and one or two middle atoms; a pendant
    block holds one atom met before and one or two new ones.
    """
    k = rng.choice((3, 3, 4, 5))
    fresh = itertools.count(k)
    blocks = [
        [i, (i + 1) % k] + [next(fresh) for _ in range(rng.randint(1, 2))]
        for i in range(k)
    ]
    for _ in range(rng.randint(0, 3)):
        met = rng.choice([a for blk in blocks for a in blk])
        blocks.append([met] + [next(fresh) for _ in range(rng.randint(1, 2))])
    names = ["a%02d" % i for i in range(next(fresh))]
    rng.shuffle(names)
    diagram = P.GreechieDiagram(names, [[names[a] for a in blk] for blk in blocks])
    return P.from_greechie(diagram)


def test_is_omp_matches_label_scans_on_loop_pastings():
    # a loop of three blocks keeps the pasting from being an OMP, and the
    # witness is the first sum that is not the join of its terms; a pendant
    # two-atom block can break associativity, and verify_oa's report stands
    rng = random.Random(SEED + 3)
    classes = Counter()
    for _ in range(500):
        t = loop_core_pasting(rng)
        ref = old.LabelTable(t)
        report = P.is_omp(t)
        if old.verify_oa(ref).passed:
            assert report == old.is_omp(ref)
        else:
            assert report == P.verify_oa(t)
        classes[report.structure_class] += 1
    assert classes["orthoalgebra"] >= 200
    assert classes["omp"] and classes["quasi_oa"]
