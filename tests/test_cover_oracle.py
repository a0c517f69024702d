"""The lean cover loop and the column-checked pipeline agree with the code they replaced.

`cover_oracle` holds verbatim copies of the component search before product
nodes handed their children a finished layer, and of
`ts_to_partition_test_space` before it checked its tests on matrix columns;
`formats_oracle` holds the partition writer before each cell was sorted once.
The search must list the same covers in the same order, and count them, on
random row families, on the weight rows of loops, chains and random test
spaces, on the atom and sum tests of random tables and on the cell rows of
random partition test spaces.  The derived spaces must have the same parts,
errors and text, and the writer the same text on partition logics and
partition test spaces whose cells are shared and whose names sort
differently as lists and as text.
"""

import random

import cover_oracle as old
import formats_oracle as old_formats
import partlogic as P
from partlogic import cover, states
from partlogic.oa import QUASI_AXIOMS, _violations
from test_order_oracle import SEED, outcome, random_tables
from test_pasting_oracle import loop_diagram
from test_testspace import loop_test_space, random_partition, random_pts, random_test_space
from test_testspace_oracle import cell_rows


def agrees(width, rows):
    """Assert the search lists and counts the oracle's covers; return their number."""
    expected = old._exact_covers(width, rows)
    assert cover._exact_covers(width, rows) == expected
    assert cover.count_exact_covers(width, rows) == old.count_exact_covers(width, rows)
    assert cover.count_exact_covers(width, rows) == len(expected)
    return len(expected)


def row_family(rng):
    """Planted partitions of the columns plus empty, one-column, repeated and wide rows.

    Past 12 columns one partition is planted, so each cover is a set of the
    few extra rows completed by planted blocks in at most one way.  Dropping
    a planted row often leaves no cover.
    """
    width = rng.randint(1, 12) if rng.random() < 0.7 else rng.randint(60, 90)
    rows = []
    for _ in range(rng.randint(1, 3) if width <= 12 else 1):
        cols = list(range(width))
        rng.shuffle(cols)
        while cols:
            k = rng.choice([1, 2, 3, rng.randint(1, len(cols))])
            rows.append(sum(1 << c for c in cols[:k]))
            cols = cols[k:]
    if rng.random() < 0.3:
        rows.pop(rng.randrange(len(rows)))
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.25:
            rows.append(0)
        elif roll < 0.5:
            rows.append(rng.choice(rows))
        elif roll < 0.75:
            rows.append(1 << rng.randrange(width))
        else:
            rows.append(sum(1 << c for c in rng.sample(range(width), rng.randint(1, width))))
    rng.shuffle(rows)
    return width, rows


def chain_test_space(k):
    """k three-atom blocks in a row, neighbours sharing one atom."""
    x = ["a%d" % i for i in range(2 * k + 1)]
    return P.TestSpace(x, [x[2 * i:2 * i + 3] for i in range(k)])


def test_random_row_families_agree():
    rng = random.Random(SEED)
    seen = {"empty": 0, "repeated": 0, "wide": 0, "none": 0, "many": 0}
    for _ in range(300):
        width, rows = row_family(rng)
        found = agrees(width, rows)
        seen["empty"] += 0 in rows
        seen["repeated"] += len(set(rows)) < len(rows)
        seen["wide"] += width > 64
        seen["none"] += not found
        seen["many"] += found > 1
    assert all(v >= 10 for v in seen.values()), seen


def test_weight_rows_agree():
    rng = random.Random(SEED)
    spaces = [random_test_space(rng) for _ in range(200)]
    spaces += [loop_test_space(k) for k in range(3, 15)]
    spaces += [chain_test_space(k) for k in range(1, 15)]
    for ts in spaces:
        agrees(len(ts.tests), P.testspace._weight_rows(ts))


def test_atom_and_sum_tests_of_random_tables_agree():
    atomic = 0
    for t in random_tables(random.Random(SEED), 300):
        width, rows, _ = states._sum_tests(t)
        agrees(width, rows)
        if not _violations(t, QUASI_AXIOMS + ("oavii",)):
            width, rows, _ = states._atom_tests(t)
            agrees(width, rows)
            atomic += 1
    assert atomic >= 20


def test_partition_test_space_cell_rows_agree():
    rng = random.Random(SEED)
    for _ in range(200):
        pts = random_pts(rng, max_points=8, max_tests=5)
        agrees(len(pts.base), cell_rows(pts))


def test_derived_partition_test_spaces_agree():
    rng = random.Random(SEED)
    spaces = [random_test_space(rng) for _ in range(300)]
    spaces += [loop_test_space(k) for k in range(3, 9)] + [chain_test_space(k) for k in range(1, 9)]
    made = unvalued = 0
    for ts in spaces:
        new = outcome(P.ts_to_partition_test_space, ts)
        was = outcome(old.ts_to_partition_test_space, ts)
        if isinstance(new, P.PartitionTestSpace):
            made += 1
            assert (new.base, new.cells, new.tests) == (was.base, was.cells, was.tests)
            assert P.serialize(new) == old_formats._family_text("base", was.base, "test", was.tests)
            again = P.PartitionTestSpace(new.base, new.cells, new.tests)
            assert (again.base, again.cells, again.tests) == (new.base, new.cells, new.tests)
        elif was == (P.StructureError, "empty cell"):
            # an outcome no weight values 1 used to reach the constructor
            unvalued += 1
            weights = P.enumerate_two_valued_weights(ts)
            x = next(x for x in ts.outcomes if all(w(x) == 0 for w in weights))
            assert new == (P.SeparationError, "no two-valued weight values outcome %r at 1" % (x,))
        else:
            assert new == was
    assert made >= 50 and unvalued >= 5


def names(rng, count):
    """Point names; cells led by "p" and "p\\x01" sort one way as lists and,
    when the first holds more, the other way as text."""
    return rng.sample(["n0", "n1", "p", "p\x01", "p0", "q", "q\x01", "r\x01s"], count)


def shared_partitions(rng, base, count):
    """Partitions of base; most keep a cell of an earlier one."""
    parts = []
    for _ in range(count):
        if parts and rng.random() < 0.6:
            keep = rng.choice(sorted(rng.choice(parts), key=sorted))
            rest = [p for p in base if p not in keep]
            parts.append([keep, *(random_partition(rng, rest) if rest else ())])
        else:
            parts.append(list(random_partition(rng, base)))
    return parts


def test_writer_agrees_on_shared_cells_and_control_names():
    rng = random.Random(SEED)
    orders_differ = 0
    for _ in range(300):
        base = names(rng, rng.randint(1, 8))
        parts = shared_partitions(rng, base, rng.randint(1, 5))
        pl = P.PartitionLogic(base, parts)
        text = P.serialize(pl)
        assert text == old_formats._family_text("points", pl.ground, "partition", pl.partitions)
        pts = P.PartitionTestSpace(base, [c for p in parts for c in p], [frozenset(p) for p in parts])
        assert P.serialize(pts) == old_formats._family_text("base", pts.base, "test", pts.tests)
        rows = [sorted(map(sorted, p)) for p in parts]
        orders_differ += any(
            [" ".join(c) for c in row] != sorted(" ".join(c) for c in row) for row in rows
        )
    for k in (3, 4, 5):
        pl = P.oa_to_partition_logic(P.from_greechie(loop_diagram(k)))
        assert P.serialize(pl) == old_formats._family_text("points", pl.ground, "partition", pl.partitions)
    assert orders_differ >= 10
