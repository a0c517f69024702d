"""The exact-cover states are the states the propagation search found.

`states_oracle` holds a verbatim copy of the label-order propagation search
that the exact-cover routes replaced.  On seeded random tables, a third of
them missing one `a + 0` entry, on pasted random diagrams, on the pastings
of random partition logics and on loops under three namings,
`enumerate_two_valued_states` must list the same bit tuples, in order.
Orthoalgebras take the atomic test space and other tables the sum tests,
so both routes are compared.  `oa_to_partition_logic`, which walks each
unordered sum once, must give the oracle's ground and partitions, in order,
or its inseparable pair, on pasted diagrams under shuffled names, on loops
and on chains.
"""

import random

import pytest

import partlogic as P
from partlogic.cli import cli
import states_oracle as old
from test_order_oracle import random_tables
from test_pasting_oracle import random_diagrams, random_partition_logic
from test_testspace import lucas

SEED = 20261018


def agrees(table):
    """Assert the search agrees with the oracle; return the number of states."""
    expected = [s.bits for s in old.enumerate_two_valued_states(table)]
    assert [s.bits for s in P.enumerate_two_valued_states(table)] == expected
    return len(expected)


def loop(k, naming, rng=None):
    """k three-atom blocks in a ring; their atom names sort by `naming`.

    Structural names sort in ring order, grouped names put every middle
    atom before every shared atom, and shuffled names are a permutation.
    """
    shared = ["s%02d" % i for i in range(k)]
    middle = ["m%02d" % i for i in range(k)]
    if naming == "structural":
        shared = ["a%02d" % (2 * i) for i in range(k)]
        middle = ["a%02d" % (2 * i + 1) for i in range(k)]
    elif naming == "shuffled":
        names = ["x%02d" % i for i in range(2 * k)]
        rng.shuffle(names)
        shared, middle = names[:k], names[k:]
    blocks = [[shared[i], middle[i], shared[(i + 1) % k]] for i in range(k)]
    return P.from_greechie(P.GreechieDiagram(shared + middle, blocks))


def chain(k):
    """k three-atom blocks in a line, neighbours sharing one atom."""
    atoms = ["c%02d" % i for i in range(2 * k + 1)]
    blocks = [atoms[2 * i : 2 * i + 3] for i in range(k)]
    return P.from_greechie(P.GreechieDiagram(atoms, blocks))


def realization(f, table):
    """The ground and partitions f builds, or its primeness error and pair."""
    try:
        pl = f(table)
    except P.PrimenessError as exc:
        return str(exc), exc.pair
    return pl.ground, pl.partitions


def test_random_tables_agree():
    tables = random_tables(random.Random(SEED), 1500)
    found = [(P.verify_oa(t).passed, agrees(t)) for t in tables]
    # both routes list states, and the sum tests also find tables with none
    assert sum(oa and n > 0 for oa, n in found) >= 500
    assert sum(not oa and n > 0 for oa, n in found) >= 300
    assert sum(not oa and n == 0 for oa, n in found) >= 50


def test_pasted_diagrams_agree():
    counts = []
    for d in random_diagrams(SEED, 600):
        try:
            t = P.from_greechie(d)
        except P.LogicError:
            continue
        counts.append(agrees(t))
    assert len(counts) >= 300 and 0 in counts


def test_pasted_partition_logics_agree():
    rng = random.Random(SEED)
    for _ in range(300):
        try:
            t = P.pasting_to_oa(random_partition_logic(rng))
        except P.LogicError:
            continue
        assert agrees(t) > 0


def test_degenerate_tables_agree():
    # 0 in no sum, an element summed with itself, 0 = 1, a sum naming a
    # non-element: tables that are not orthoalgebras take the sum tests
    def table(elements, one, oplus):
        return P.FiniteQuasiOrthoalgebra(elements, "0", one, oplus)

    zero = {("0", "0"): "0", ("a", "0"): "a", ("0", "a"): "a"}
    unit = {**zero, ("1", "0"): "1", ("0", "1"): "1"}
    tables = {
        "no sums": (table("01", "1", {}), 1),
        "a + a = 1": (table("0a1", "1", {**unit, ("a", "a"): "1"}), 0),
        "a + a = a": (table("0a1", "1", {**unit, ("a", "a"): "a"}), 1),
        "0 = 1": (table("0a", "0", zero), 0),
        "non-element": (table("0a1", "1", {**unit, ("a", "a"): "x"}), 2),
    }
    for name, (t, count) in tables.items():
        assert agrees(t) == count, name


@pytest.mark.parametrize("naming", ["structural", "grouped", "shuffled"])
def test_loops_agree(naming):
    rng = random.Random(SEED)
    for k in range(3, 15):
        assert agrees(loop(k, naming, rng)) == lucas(k)


def test_states_of_a_grouped_loop_of_twenty_blocks(tmp_path):
    # the propagation search took about 33 s here: grouped names put every
    # shared atom after every middle atom in its branch order
    atoms = " ".join("m%02d s%02d" % (i, i) for i in range(20))
    blocks = ["block: s%02d m%02d s%02d" % (i, i, (i + 1) % 20) for i in range(20)]
    src = tmp_path / "loop20g.txt"
    src.write_text("atoms: %s\n%s\n" % (atoms, "\n".join(blocks)))
    report = cli(["states", str(src)])
    assert (report.status, report.result["count"]) == (0, lucas(20)) == (0, 15127)


def test_partition_logics_keep_the_all_entries_walk():
    rng = random.Random(SEED)
    tables = []
    for d in random_diagrams(SEED + 1, 400):
        names = ["x%02d" % i for i in range(len(d.atoms))]
        rng.shuffle(names)
        rename = dict(zip(d.atoms, names))
        shuffled = P.GreechieDiagram(names, [[rename[a] for a in b] for b in d.blocks])
        try:
            tables.append(P.from_greechie(shuffled))
        except P.LogicError:
            continue
    tables += [loop(k, naming, rng) for k in range(3, 9) for naming in ("structural", "shuffled")]
    tables += [chain(k) for k in range(1, 7)]
    prime = 0
    for t in tables:
        want = realization(old.oa_to_partition_logic, t)
        assert realization(P.oa_to_partition_logic, t) == want
        prime += isinstance(want[0], tuple)
    # both branches are met often
    assert prime >= 300 and len(tables) - prime >= 30, (prime, len(tables))
