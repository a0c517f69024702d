"""The shared pasting builder agrees with the builders it replaced.

`pasting_oracle` holds verbatim copies of the old `from_greechie`,
`pasting_to_oa`, `BooleanChart.from_cells`, `atlas_to_quasi_oa` and
`pi_logic`.  On seeded random diagrams, partition logics, atlases and test
spaces the new code must build the same elements, 0, 1 and sum table, or
raise the same exception type with the same message.  Where an atom takes
a name the old `from_greechie` gave a derived element, it raised; the new
one keeps every atom's name and must paste a table isomorphic to the old
builder's on the diagram with its atoms renamed apart.  Pastings of Greechie
diagrams and partition logics must also list the table's entries in the
same order; diagrams include ones with int atoms and with atoms declared
out of str order, and partition logics range over grounds of up to 70
points, ints among them, and where two points print alike, the element
order is checked against the order in which the cell unions are first met.
"""

import itertools
import random
from collections import Counter

import pytest

import pasting_oracle as old
from atlas_oracle import labels_by_mask
from conftest import sums_preserved
import partlogic as P
from partlogic.oa import cell_key, subset_unions

SEED = 20261018


def outcome(build, arg, ordered=False):
    try:
        t = build(arg)
    except P.LogicError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return t.elements, t.zero, t.one, list(t.table.items()) if ordered else t.table


def agree(name, arg, ordered=False):
    """Compare the old and new builder on one input; returns the outcome.

    When `ordered`, the sum tables must also list their entries in one order.
    """
    want = outcome(getattr(old, name), arg, ordered)
    got = outcome(getattr(P, name), arg, ordered)
    assert got == want, (name, arg)
    return want


def random_diagram(rng):
    """A small diagram of 2- to 4-atom blocks, or None if it is malformed.

    Now and then an atom takes a name the pasting reserves for other
    elements, so that labels collide.
    """
    atoms = ["a%d" % i for i in range(rng.randint(3, 8))]
    if rng.random() < 0.05:
        atoms[0] = rng.choice(["0", "1", "a1'"])
    blocks = [
        rng.sample(atoms, rng.randint(2, min(4, len(atoms))))
        for _ in range(rng.randint(1, 5))
    ]
    used = [a for a in atoms if any(a in b for b in blocks)]
    try:
        return P.GreechieDiagram(used, blocks)
    except P.StructureError:
        return None


def loop_diagram(k):
    """k three-atom blocks in a ring, neighbours sharing one atom."""
    atoms = ["x%d" % i for i in range(2 * k)]
    blocks = [
        (atoms[2 * i], atoms[2 * i + 1], atoms[(2 * i + 2) % (2 * k)])
        for i in range(k)
    ]
    return P.GreechieDiagram(atoms, blocks)


def random_diagrams(seed, want):
    rng = random.Random(seed)
    out = []
    while len(out) < want:
        d = random_diagram(rng)
        if d is not None:
            out.append(d)
    return out


def renamed_diagrams(seed, want):
    """Random diagrams whose atoms do not rank by str as they are declared.

    The atoms become ints or names a0..a12, so 10 ranks before 9 and a10
    before a2, and they are declared in a shuffled order.
    """
    rng = random.Random(seed)
    out = []
    for d in random_diagrams(seed, want):
        picked = rng.sample(range(13), len(d.atoms))
        new = dict(zip(d.atoms, picked if rng.random() < 0.5 else ["a%d" % i for i in picked]))
        atoms = [new[a] for a in d.atoms]
        rng.shuffle(atoms)
        out.append(P.GreechieDiagram(atoms, [[new[a] for a in blk] for blk in d.blocks]))
    return out


def random_partition_logic(rng, ground=None):
    """One to four partitions of p0..p5 or of the given ground.

    A given ground is cut into at most five cells per partition, so that a
    wide ground keeps its 3^k sums few.
    """
    wide = ground is not None
    if not wide:
        ground = ["p%d" % i for i in range(rng.randint(1, 6))]
    partitions = []
    for _ in range(rng.randint(1, 4)):
        points = ground[:]
        rng.shuffle(points)
        cells = []
        while points:
            k = len(points) if wide and len(cells) == 4 else rng.randint(1, len(points))
            cells.append(points[:k])
            points = points[k:]
        partitions.append(cells)
    return P.PartitionLogic(ground, partitions)


def random_ground(rng):
    """1 to 70 points: names, ints, both, or ints next to names spelling some.

    Masks over up to 70 points span three 30-bit digits; ints rank by str,
    so 10 comes before 9; and a point 3 next to a point '3' makes two point
    sets with one sort key.
    """
    n = rng.randint(1, 70)
    ints = rng.sample(range(3 * n), n)
    shape = rng.randrange(4)
    if shape == 0:
        return ["p%d" % i for i in ints]
    if shape == 1:
        return ints
    if shape == 2:
        return [i if i % 2 else "p%d" % i for i in ints]
    return ints + [str(i) for i in rng.sample(ints, rng.randint(1, min(3, n)))]


def max_shared(diagram):
    sets = [set(b) for b in diagram.blocks]
    return max(
        (len(s & t) for s, t in itertools.combinations(sets, 2)), default=0
    )


def renamed_apart(diagram):
    """The diagram with its atoms renamed v000, v001, ... in str order."""
    name = {a: "v%03d" % i for i, a in enumerate(sorted(diagram.atoms, key=str))}
    blocks = [[name[a] for a in blk] for blk in diagram.blocks]
    return P.GreechieDiagram([name[a] for a in diagram.atoms], blocks), name


def pastes_like_renamed_apart(diagram):
    """A diagram whose labels collided in the old builder pastes as its copy
    with atoms renamed apart does, each atom keeping its name; returns
    whether it pasted."""
    apart, name = renamed_apart(diagram)
    try:
        u = old.from_greechie(apart)
    except P.PastingError as exc:
        # the one check the old builder makes after the labels
        assert str(exc).startswith("inconsistent sums ")
        with pytest.raises(P.PastingError, match="^inconsistent sums "):
            P.from_greechie(diagram)
        return False
    t = P.from_greechie(diagram)
    back = {v: str(a) for a, v in name.items()}
    assert sorted(back[a] for a in P.atoms_of(u)) == sorted(P.atoms_of(t))
    iso = P.isomorphic(u, t)
    assert iso is not None and sums_preserved(u, t, iso.mapping)
    return True


def test_from_greechie_matches_old_builder():
    diagrams = random_diagrams(SEED, 2000)
    diagrams += renamed_diagrams(SEED + 2, 1000)
    diagrams += [loop_diagram(k) for k in range(2, 9)]
    diagrams += [e.payload for e in P.corpus() if e.kind == "greechie"]
    texts = Counter()
    multi_shared_ok = 0
    for d in diagrams:
        res = outcome(old.from_greechie, d, ordered=True)
        if res[1] == "pasting produced colliding element labels":
            texts["collided, pasted" if pastes_like_renamed_apart(d) else "collided"] += 1
            continue
        assert outcome(P.from_greechie, d, ordered=True) == res, d
        ok = isinstance(res[0], tuple)
        texts["ok" if ok else res[1]] += 1
        multi_shared_ok += ok and max_shared(d) >= 2
    # every error of the old builder that a well-formed diagram can reach
    # is exercised, the witnessed one included ("0 with 1" would need one
    # block inside another), and the colliding labels, which now paste
    assert texts["pasting identifies a class with its own complement"]
    assert texts["collided, pasted"] >= 10
    assert sum(t.startswith("inconsistent sums ") for t in texts) >= 5
    assert texts["ok"] >= 500
    assert multi_shared_ok >= 50


def _by_key(elements):
    """The elements grouped by their sort key, in order; ties as one set."""
    key = lambda s: (len(s), cell_key(s))
    return [(k, set(g)) for k, g in itertools.groupby(elements, key)]


def test_pasting_to_oa_matches_old_builder():
    rng = random.Random(SEED + 1)
    logics = [random_partition_logic(rng) for _ in range(800)]
    logics += [random_partition_logic(rng, random_ground(rng)) for _ in range(800)]
    logics += [e.payload for e in P.corpus() if e.kind == "partition_logic"]
    logics += [
        P.urn_to_partition_logic(e.payload) for e in P.corpus() if e.kind == "urn"
    ]
    collided = 0
    for pl in logics:
        if len(set(map(str, pl.ground))) == len(pl.ground):
            assert isinstance(agree("pasting_to_oa", pl, ordered=True)[0], tuple)
            continue
        # two point sets with one sort key: the old builder orders them as
        # its set of elements iterates, the new one as it first meets them
        collided += 1
        got, want = P.pasting_to_oa(pl), old.pasting_to_oa(pl)
        assert (got.zero, got.one, list(got.table.items())) == (want.zero, want.one, list(want.table.items()))
        assert _by_key(got.elements) == _by_key(want.elements)
        met = dict.fromkeys(u for part in pl.partitions for u in subset_unions(part))
        assert list(got.elements) == sorted(met, key=lambda s: (len(s), cell_key(s)))
    assert collided > 100
    assert max(len(pl.ground) for pl in logics) > 60


def random_labelled_charts(rng):
    """Charts over shared atom names whose other labels come from a small pool.

    Each chart is its atoms and its labels listed by atom mask.  Two charts
    holding the same orthogonal pair often name its join differently, which
    the table builder must reject.
    """
    charts = []
    for _ in range(rng.randint(1, 4)):
        atoms = rng.sample("abcde", rng.randint(1, 3))
        pool = iter(rng.sample(["u", "v", "w", "x", "y", "z"], 6))
        labels = []
        for m in range(2 ** len(atoms)):
            if m == 0:
                labels.append("0")
            elif m == 2 ** len(atoms) - 1:
                labels.append("1")
            elif m & (m - 1) == 0:
                labels.append(atoms[m.bit_length() - 1])
            else:
                labels.append(next(pool))
        charts.append((atoms, labels))
    return charts


def random_labelled_atlas(rng):
    return P.BooleanAtlas(
        [P.BooleanChart(atoms, labels) for atoms, labels in random_labelled_charts(rng)]
    )


def test_from_cells_matches_old_builder():
    rng = random.Random(SEED + 2)
    for _ in range(300):
        cells = random_partition_logic(rng).partitions[0]
        new = P.BooleanChart.from_cells(cells)
        ref = old.from_cells(cells)
        assert (new.atoms, new.labels) == (ref.atoms, labels_by_mask(ref))


def test_atlas_to_quasi_oa_matches_old_builder():
    rng = random.Random(SEED + 3)
    atlases = []
    for _ in range(400):
        pl = random_partition_logic(rng)
        atlases.append(
            P.BooleanAtlas([P.BooleanChart.from_cells(p) for p in pl.partitions])
        )
    for d in random_diagrams(SEED + 4, 120):
        try:
            atlases.append(P.quasi_oa_to_atlas(P.from_greechie(d)))
        except P.LogicError:
            continue
    atlases += [random_labelled_atlas(rng) for _ in range(1500)]
    atlases += [e.payload for e in P.corpus() if e.kind == "atlas"]
    kinds = Counter()
    for atlas in atlases:
        res = agree("atlas_to_quasi_oa", atlas)
        kinds["ok" if isinstance(res[0], tuple) else res[1][:19]] += 1
    assert kinds["ok"] >= 500
    assert kinds["charts disagree on "] >= 50


def random_test_space(rng):
    outcomes = ["o%d" % i for i in range(rng.randint(1, 7))]
    tests = [
        rng.sample(outcomes, rng.randint(1, min(4, len(outcomes))))
        for _ in range(rng.randint(1, 5))
    ]
    return P.TestSpace(outcomes, tests)


def test_pi_logic_matches_old_builder():
    rng = random.Random(SEED + 5)
    spaces = [random_test_space(rng) for _ in range(600)]
    spaces += [P.TestSpace.from_greechie(d) for d in random_diagrams(SEED + 6, 300)]
    spaces += [P.TestSpace.from_greechie(loop_diagram(k)) for k in range(2, 7)]
    for _ in range(300):
        pl = random_partition_logic(rng)
        spaces.append(P.partition_logic_to_pts(pl).as_test_space())
    spaces += [
        e.payload.as_test_space() for e in P.corpus() if e.kind == "test_space"
    ]
    kinds = Counter()
    for ts in spaces:
        res = agree("pi_logic", ts)
        kinds["ok" if isinstance(res[0], tuple) else res[1]] += 1
    assert kinds["ok"] >= 300
    assert kinds["test space is not algebraic"] >= 100
