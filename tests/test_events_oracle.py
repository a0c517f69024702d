"""The event-mask code agrees with the frozenset event code it replaced.

`events_oracle` holds verbatim copies of the frozenset `events`,
`is_algebraic`, `pi_logic` and `omp_conditions`.  On seeded random test
spaces, the test spaces of diagrams and partition logics, and seeded
partition test spaces, the mask code must list the same events in the same
order and give the same values, witnesses and tables.  The partition writer,
which reads a large cell off the sorted points, must write what the writer
that sorts every cell wrote.
"""

import random
import time
from collections import Counter

import events_oracle as old
import formats_oracle as old_formats
import partlogic as P
from test_pasting_oracle import loop_diagram, random_partition_logic
from test_rows_oracle import algebraicity_spaces
from test_testspace import random_pts, random_pts_of_pairs, random_test_space

SEED = 35


def seeded_test_spaces():
    rng = random.Random(SEED)
    spaces = algebraicity_spaces()
    spaces += [random_test_space(rng) for _ in range(300)]
    return spaces


def partition_test_spaces():
    rng = random.Random(SEED + 1)
    spaces = [random_pts(rng) for _ in range(300)]
    spaces += [random_pts(rng, max_points=8, max_tests=6) for _ in range(100)]
    spaces += [random_pts_of_pairs(rng) for _ in range(400)]
    spaces += [P.partition_logic_to_pts(random_partition_logic(rng)) for _ in range(200)]
    spaces += [
        P.partition_logic_to_pts(P.oa_to_partition_logic(P.from_greechie(loop_diagram(k))))
        for k in range(3, 6)
    ]
    return spaces


def pi_outcome(ts, pi_logic):
    """The table as (elements, zero, one, sums in order), or the witness."""
    try:
        t = pi_logic(ts)
    except P.AlgebraicityError as e:
        return e.witness
    return t.elements, t.zero, t.one, list(t.table.items())


def test_events_algebraicity_and_pi_logic_match_frozenset_code():
    kinds = Counter()
    for ts in seeded_test_spaces():
        assert ts.events() == old._events(ts)
        got = P.is_algebraic(ts)
        assert got == old.is_algebraic(ts)
        assert pi_outcome(ts, P.pi_logic) == pi_outcome(ts, old.pi_logic)
        kinds[bool(got)] += 1
    assert kinds[True] >= 500 and kinds[False] >= 500


def test_omp_conditions_match_frozenset_code():
    fails = Counter()
    for pts in partition_test_spaces():
        got = P.omp_conditions(pts)
        assert got == old.omp_conditions(pts)
        fails["triple"] += not got.triple_condition
        fails["concrete"] += not got.concrete_condition
        ts = pts.as_test_space()
        assert ts.events() == old._events(ts)
    assert fails["triple"] >= 60 and fails["concrete"] >= 300


def names(rng, n):
    """n point names; some differ only by a control character, so that cells
    sort one way as name lists and another way as text."""
    pool = ["p%d" % i for i in range(3 * n)] + ["p%d\x01" % i for i in range(n)]
    return rng.sample(pool, n)


def cut(rng, points):
    """A partition of points with cells of all sizes, singletons included."""
    points = points[:]
    rng.shuffle(points)
    cells = []
    while points:
        k = rng.choice([1, 1, 2, rng.randint(1, len(points))])
        cells.append(points[:k])
        points = points[k:]
    return cells


def test_writer_matches_the_all_sorting_writer_on_both_sides_of_the_switch():
    rng = random.Random(SEED + 2)
    sides = Counter()
    for _ in range(200):
        base = names(rng, rng.randint(9, 60))
        parts = [cut(rng, base) for _ in range(rng.randint(1, 4))]
        pl = P.PartitionLogic(base, parts)
        want = old_formats._family_text("points", pl.ground, "partition", pl.partitions)
        assert P.serialize(pl) == want
        pts = P.partition_logic_to_pts(pl)
        want = old_formats._family_text("base", pts.base, "test", pts.tests)
        assert P.serialize(pts) == want
        for cell in pts.cells:
            sides[8 * len(cell) >= len(base)] += 1
    assert sides[True] >= 500 and sides[False] >= 2000


def test_discrete_partition_of_20000_points_serializes_fast():
    points = ["p%d" % i for i in range(20000)]
    pl = P.PartitionLogic(points, [[[p] for p in points]])
    start = time.perf_counter()
    text = P.serialize(pl)
    assert time.perf_counter() - start < 0.5
    assert text.count("|") == len(points) - 1
