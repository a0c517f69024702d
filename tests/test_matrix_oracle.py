"""Covers turned into values in bulk agree with the per-cover code they replaced.

`testspace_oracle` and `states_oracle` hold verbatim copies of the code that
built one dict or tuple per cover: `Weight._of_mask`, the bit-by-bit point
sets of `ts_to_partition_test_space`, the state-tuple generator and the
`zip` of `value_columns`.  On random test spaces, free outcomes and repeated
tests among them, on random tables, non-orthoalgebras included, on spaces
with no weight or one outcome, on Fano, which has no state, and on rows
wider than 64 bits, the one 0/1 byte matrix must give the same values,
point sets, columns and verdicts.
"""

import random

import partlogic as P
import states_oracle as old_states
import testspace_oracle as old_ts
from conftest import corpus_table
from partlogic.states import _primeness
from test_order_oracle import SEED, outcome, random_tables
from test_pasting_oracle import loop_diagram, random_diagrams
from test_testspace import loop_test_space, random_test_space


def wide_test_space(rng):
    """More than 64 outcomes: singleton tests, a loop, free and shared outcomes."""
    singles = ["s%d" % i for i in range(rng.randint(60, 70))]
    loop = loop_test_space(rng.randint(3, 6))
    free = ["f%d" % i for i in range(rng.randint(0, 2))]
    outcomes = singles + list(loop.outcomes) + free
    rng.shuffle(outcomes)
    tests = [{x} for x in singles] + [set(t) for t in loop.tests]
    tests.append(set(rng.choice(loop.tests)))
    return P.TestSpace(outcomes, tests)


def space_cases():
    rng = random.Random(SEED)
    spaces = [random_test_space(rng) for _ in range(400)]
    spaces += [wide_test_space(rng) for _ in range(8)]
    spaces += [loop_test_space(k) for k in range(3, 10)]
    spaces += [P.TestSpace(["x"], [{"x"}]), P.TestSpace(["x", "y"], [{"x", "y"}, {"x"}])]
    return spaces


def test_weights_agree():
    free = repeated = wide = none = 0
    for ts in space_cases():
        new, old = P.enumerate_two_valued_weights(ts), old_ts.enumerate_two_valued_weights(ts)
        assert [w.values for w in new] == [w.values for w in old]
        assert [(w.row(), repr(w)) for w in new] == [(w.row(), repr(w)) for w in old]
        free += any(all(x not in t for t in ts.tests) for x in ts.outcomes)
        repeated += len(set(ts.tests)) < len(ts.tests)
        wide += len(ts.outcomes) > 64
        none += not new
    assert min(free, repeated, none) >= 20 and wide == 8


def test_partition_test_spaces_agree():
    made = unvalued = 0
    for ts in space_cases():
        new = outcome(P.ts_to_partition_test_space, ts)
        old = outcome(old_ts.ts_to_partition_test_space, ts)
        if isinstance(new, P.PartitionTestSpace):
            made += 1
            assert (new.base, new.cells, new.tests) == (old.base, old.cells, old.tests)
        elif old == (P.StructureError, "empty cell"):
            # the old code passed an outcome that no weight values 1 on to
            # the constructor as an empty cell; it is now named as unseparated
            unvalued += 1
            weights = P.enumerate_two_valued_weights(ts)
            x = next(x for x in ts.outcomes if all(w(x) == 0 for w in weights))
            assert new == (P.SeparationError, "no two-valued weight values outcome %r at 1" % (x,))
        else:
            assert new == old
    assert made >= 50 and unvalued >= 1


def state_tables():
    tables = random_tables(random.Random(SEED), 600)
    for d in random_diagrams(SEED, 200) + [loop_diagram(k) for k in (2, 8, 16)]:
        try:
            tables.append(P.from_greechie(d))
        except P.LogicError:
            pass
    # past 64 rows on both routes: the atoms of L_16 (66 elements), and the
    # sum tests of L_8 (34 elements, two rows each) missing one a + 0 entry
    l8 = P.from_greechie(loop_diagram(8))
    oplus = dict(l8.table)
    del oplus[(l8.elements[3], l8.zero)]
    tables.append(P.FiniteQuasiOrthoalgebra(l8.elements, l8.zero, l8.one, oplus))
    return tables + [corpus_table("fano")]


def test_states_columns_and_primeness_agree():
    seen = {"states": 0, "none": 0, "prime": 0, "wide": 0}
    for t in state_tables():
        sts = P.enumerate_two_valued_states(t)
        assert [s.bits for s in sts] == [s.bits for s in old_states.enumerate_cover_states(t)]
        columns = _primeness(t)[1]
        assert [tuple(c) for c in columns] == old_states.value_columns(t, sts)
        new, old = P.is_prime(t), old_states.is_prime(t)
        assert (new.prime, new.inseparable) == (old.prime, old.inseparable)
        assert [s.bits for s in new.separating or ()] == [s.bits for s in old.separating or ()]
        seen["states"] += bool(sts)
        seen["none"] += not sts
        seen["prime"] += new.prime
        seen["wide"] += len(t.elements) > 32
    assert all(v >= 2 for v in seen.values()), seen


def test_fano_has_no_cover_and_keeps_its_first_pair():
    fano = corpus_table("fano")
    assert P.enumerate_two_valued_states(fano) == []
    assert _primeness(fano)[1] == [b""] * len(fano.elements)
    assert P.is_prime(fano).inseparable == fano.elements[:2]
