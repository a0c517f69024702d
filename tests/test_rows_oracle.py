"""The integer sum rows agree with the label scans they replaced.

`order_oracle` holds verbatim copies of the old label-based `_sum_entries`,
`mackey_decompositions`, `is_prime_ideal`, pairwise `is_prime` scan and
`isomorphic` search, and of the old events-squared `is_algebraic` scan.  On
the seeded tables of `test_order_oracle.py`, non-orthoalgebras included,
and on the test spaces of `test_pasting_oracle.py`, the new code must give
the same values, witnesses and exceptions.
"""

import random
from collections import Counter

import order_oracle as old
import partlogic as P
from partlogic import states
from test_order_oracle import SEED, outcome, pasted, random_tables
from test_pasting_oracle import (
    loop_diagram,
    random_diagrams,
    random_labelled_atlas,
    random_partition_logic,
    random_test_space,
)
from test_pasting_oracle import SEED as PASTING_SEED


def seeded_tables():
    """The tables `test_kernel_matches_label_scans` builds, in its order."""
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
    return tables


TABLES = seeded_tables()


def relabel(t, rng):
    """A copy of t with fresh names, its elements listed in a shuffled order."""
    order = list(t.elements)
    rng.shuffle(order)
    name = {e: "r%d" % i for i, e in enumerate(order)}
    oplus = {(name[a], name[b]): name[c] for (a, b), c in t.table.items()}
    return P.FiniteQuasiOrthoalgebra(
        [name[e] for e in order], name[t.zero], name[t.one], oplus
    )


def sums_preserved(t1, t2, mapping):
    """Independent check: the map is a bijection carrying the sum table over."""
    if sorted(map(str, mapping.values())) != sorted(map(str, t2.elements)):
        return False
    moved = {(mapping[a], mapping[b]): mapping[c] for (a, b), c in t1.table.items()}
    return moved == t2.table


def ideals(t, rng):
    """The prime ideals of t's states, each with one element toggled, and
    random subsets with and without 0."""
    out = []
    for s in P.enumerate_two_valued_states(t):
        ideal = P.state_to_prime_ideal(t, s)
        out.append(ideal)
        out.append(P.PrimeIdeal(ideal.members ^ {rng.choice(t.elements)}))
    for _ in range(3):
        members = set(rng.sample(t.elements, rng.randint(0, len(t.elements))))
        out.append(P.PrimeIdeal(frozenset(members | {t.zero})))
        out.append(P.PrimeIdeal(frozenset(members)))
    return out


def test_rows_match_label_scans(monkeypatch):
    rng = random.Random(SEED + 7)
    verdicts = Counter()
    for t in TABLES:
        ref = old.LabelTable(t)
        assert states._sum_entries(t) == old._sum_entries(ref)
        for a in t.elements:
            for b in rng.sample(t.elements, min(3, len(t.elements))):
                got = P.mackey_decompositions(t, a, b)
                assert got == old.mackey_decompositions(ref, a, b), (a, b)
                verdicts["mackey"] += bool(got)
        for ideal in ideals(t, rng):
            got = outcome(P.is_prime_ideal, t, ideal)
            assert got == outcome(old.is_prime_ideal, ref, ideal)
            verdicts[got if isinstance(got, bool) else "raised"] += 1
        new = P.state_space_solve(t)
        with monkeypatch.context() as m:
            m.setattr(states, "_sum_entries", lambda t: old._sum_entries(old.LabelTable(t)))
            want = P.state_space_solve(t)
        assert (new.dimension, new.feasible) == (want.dimension, want.feasible)
        assert (new.sample and new.sample.values) == (want.sample and want.sample.values)
    # every branch of the ideal check is reached
    assert verdicts[True] and verdicts[False] and verdicts["raised"]
    assert verdicts["mackey"]


def test_is_prime_matches_pairwise_scan():
    prime = Counter()
    for t in TABLES:
        got = P.is_prime(t)
        assert got == old.is_prime(t)
        prime[bool(got), bool(P.enumerate_two_valued_states(t))] += 1
    # prime and non-prime tables, and stateless ones such as Fano
    assert prime[True, True] and prime[False, True] and prime[False, False]


def test_isomorphic_matches_label_search():
    rng = random.Random(SEED + 8)
    small = [t for t in TABLES if len(t.elements) <= 30]
    by_size = {}
    for t in small:
        by_size.setdefault(len(t.elements), []).append(t)
    found = Counter()
    for t in small:
        for other in (t, rng.choice(by_size[len(t.elements)])):
            u = relabel(other, rng)
            got = P.isomorphic(t, u)
            want = old.isomorphic(old.LabelTable(t), old.LabelTable(u))
            if want is None:
                assert got is None
            else:
                assert list(got.mapping.items()) == list(want.mapping.items())
                assert sums_preserved(t, u, got.mapping)
            found[got is not None] += 1
    assert found[True] and found[False]


def algebraicity_spaces():
    """The test spaces of `test_pi_logic_matches_old_builder`, then larger
    random ones, which are rarely algebraic."""
    rng = random.Random(PASTING_SEED + 5)
    spaces = [random_test_space(rng) for _ in range(600)]
    spaces += [
        P.TestSpace.from_greechie(d) for d in random_diagrams(PASTING_SEED + 6, 300)
    ]
    spaces += [P.TestSpace.from_greechie(loop_diagram(k)) for k in range(2, 7)]
    for _ in range(300):
        pl = random_partition_logic(rng)
        spaces.append(P.partition_logic_to_pts(pl).as_test_space())
    spaces += [
        e.payload.as_test_space() for e in P.corpus() if e.kind == "test_space"
    ]
    rng = random.Random(SEED + 9)
    for _ in range(300):
        outcomes = ["o%d" % i for i in range(rng.randint(4, 9))]
        tests = [
            rng.sample(outcomes, rng.randint(2, min(5, len(outcomes))))
            for _ in range(rng.randint(2, 6))
        ]
        spaces.append(P.TestSpace(outcomes, tests))
    return spaces


def test_is_algebraic_matches_events_scan():
    kinds = Counter()
    for ts in algebraicity_spaces():
        got = P.is_algebraic(ts)
        assert got == old.is_algebraic(ts)
        if got:
            kinds["algebraic"] += 1
        else:
            f, g, _ = got.witness
            kinds["f == g" if f == g else "f != g"] += 1
    assert kinds["algebraic"] >= 300
    assert kinds["f != g"] >= 100
