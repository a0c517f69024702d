"""Test spaces: events, perspectivity, weights, and the two correspondences."""

import functools
import itertools
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest

import partlogic as P
from partlogic import testspace
from conftest import corpus_entry

fs = frozenset


def pts_firefly():
    return corpus_entry("pts-firefly").payload


def wright_test_space():
    return P.TestSpace.from_greechie(corpus_entry("wright").payload)


def firefly_test_space():
    return P.TestSpace.from_greechie(corpus_entry("firefly").payload)


def fano_test_space():
    return P.TestSpace.from_greechie(corpus_entry("fano").payload)


def triangle_test_space():
    return P.TestSpace("a b c".split(), [{"a", "b"}, {"b", "c"}, {"c", "a"}])


# verification -----------------------------------------------------------------


def test_pts_firefly_is_a_test_space():
    report = P.verify_test_space(pts_firefly().as_test_space())
    assert report.passed


def test_single_test_space_is_valid():
    ts = P.TestSpace(["a", "b"], [{"a", "b"}])
    assert P.verify_test_space(ts).passed


def test_antichain_violation():
    ts = P.TestSpace(["a", "b"], [{"a"}, {"a", "b"}])
    report = P.verify_test_space(ts)
    assert not report.passed
    assert report.violations[0].axiom == "test-space-antichain"


def test_covering_violation():
    ts = P.TestSpace(["a", "b"], [{"a"}])
    report = P.verify_test_space(ts)
    assert not report.passed
    assert report.violations[0].axiom == "test-space-covering"


def test_partition_test_space_rejects_overlapping_or_short_tests():
    p, q, pq = fs({"p"}), fs({"q"}), fs({"p", "q"})
    cases = [
        (["p", "q"], [fs({p, q, pq})], "test cells overlap"),
        # overlap is reported before the missing point r
        (["p", "q", "r"], [fs({p, pq})], "test cells overlap"),
        (["p", "q", "r"], [fs({p, q})], "test is not a partition of the base"),
    ]
    for base, tests, message in cases:
        with pytest.raises(P.StructureError, match="^%s$" % message):
            P.PartitionTestSpace(base, [p, q, pq], tests)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: P.TestSpace([], [{"a"}]), "empty outcome set"),
        (lambda: P.TestSpace(["a", "a"], [{"a"}]), "duplicate outcome"),
        (lambda: P.TestSpace(["a"], []), "no tests"),
        (lambda: P.TestSpace(["a"], [{"b"}]), "test mentions an undeclared outcome"),
        (lambda: P.PartitionTestSpace([], [], []), "empty base set"),
        (
            lambda: P.PartitionTestSpace(["p"], [], [fs({fs({"p"})})]),
            "test uses an undeclared cell",
        ),
        (
            lambda: P.PartitionTestSpace(["p"], [{"p"}, {"q"}], [fs({fs({"p"})})]),
            "cell leaves the base set",
        ),
    ],
)
def test_test_space_input_errors(build, message):
    with pytest.raises(P.StructureError) as err:
        build()
    assert str(err.value) == message


def test_all_partition_test_spaces_are_test_spaces():
    for pl_id in ("pl-wright", "pl-fig12"):
        pts = P.partition_logic_to_pts(corpus_entry(pl_id).payload)
        assert P.verify_test_space(pts.as_test_space()).passed
    assert P.verify_test_space(pts_firefly().as_test_space()).passed


# event relations ---------------------------------------------------------------


def test_triangle_relations():
    ts = triangle_test_space()
    rel = P.event_relations(ts, {"a"}, {"b"})
    assert rel.loc and rel.orthogonal
    rel = P.event_relations(ts, {"a"}, {"c"})
    assert rel.perspective
    assert fs({"b"}) in rel.axes


def test_firefly_event_perspectivity():
    ts = firefly_test_space()
    rel = P.event_relations(ts, {"l", "r"}, {"f", "b"})
    assert rel.perspective
    assert rel.axes == (fs({"n"}),)
    assert not rel.orthogonal


def test_empty_event_loc_full_test():
    ts = triangle_test_space()
    for t in ts.tests:
        rel = P.event_relations(ts, frozenset(), t)
        assert rel.loc


def test_non_event_rejected():
    ts = triangle_test_space()
    with pytest.raises(P.StructureError):
        P.event_relations(ts, {"a", "b", "c"}, {"a"})


# algebraicity -------------------------------------------------------------------


def test_triangle_not_algebraic():
    check = P.is_algebraic(triangle_test_space())
    assert not check
    f, g, h = check.witness
    assert (f, g, h) == (fs({"a"}), fs({"b"}), fs({"b"}))
    # and the witness is a genuine violation
    ts = triangle_test_space()
    assert P.event_relations(ts, f, g).perspective
    assert P.event_relations(ts, f, h).loc
    assert not P.event_relations(ts, g, h).loc


def test_complete_pts_is_algebraic():
    assert P.is_complete(pts_firefly())
    assert P.is_algebraic(pts_firefly().as_test_space())


def test_single_test_is_algebraic():
    assert P.is_algebraic(P.TestSpace(["a", "b"], [{"a", "b"}]))


# the class logic ----------------------------------------------------------------


def test_pts_firefly_class_logic_is_firefly(firefly):
    pi = P.pi_logic(pts_firefly().as_test_space())
    assert P.verify_oa(pi).structure_class == "orthoalgebra"
    assert P.isomorphic(pi, firefly) is not None


def test_ex72_class_logic_is_triangle_logic(wright):
    pts = P.partition_logic_to_pts(corpus_entry("pl-wright").payload)
    pi = P.pi_logic(pts.as_test_space())
    assert P.isomorphic(pi, wright) is not None


def test_single_test_class_logic_is_boolean():
    ts = P.TestSpace(["a", "b", "c"], [{"a", "b", "c"}])
    pi = P.pi_logic(ts)
    assert len(pi.elements) == 8
    assert P.classify(pi) == "boolean"


def test_non_algebraic_input_refused():
    with pytest.raises(P.AlgebraicityError):
        P.pi_logic(triangle_test_space())


def test_class_logic_consistent_with_pasted_logic(firefly):
    for pts in (
        pts_firefly(),
        P.partition_logic_to_pts(corpus_entry("pl-wright").payload),
        P.partition_logic_to_pts(corpus_entry("pl-fig12").payload),
    ):
        pi = P.pi_logic(pts.as_test_space())
        pasted = P.pasting_to_oa(P.pts_to_partition_logic(pts))
        assert P.isomorphic(pi, pasted) is not None


# weights -------------------------------------------------------------------------


def test_wright_weights_match_state_table():
    ts = wright_test_space()
    weights = P.enumerate_two_valued_weights(ts)
    rows = sorted(w.row("abcdef") for w in weights)
    assert rows == sorted(
        [
            (1, 0, 0, 1, 0, 0),
            (0, 0, 1, 0, 0, 1),
            (0, 1, 0, 0, 1, 0),
            (0, 1, 0, 1, 0, 1),
        ]
    )


def test_firefly_has_five_weights():
    assert len(P.enumerate_two_valued_weights(firefly_test_space())) == 5


def test_singleton_test_weight():
    ts = P.TestSpace(["x"], [{"x"}])
    weights = P.enumerate_two_valued_weights(ts)
    assert len(weights) == 1
    assert weights[0]("x") == 1


def test_weights_check_out():
    ts = wright_test_space()
    for w in P.enumerate_two_valued_weights(ts):
        assert P.is_weight(ts, w)


# theorem: separating weights <-> partition test space -----------------------------


def test_wright_to_partition_test_space(wright):
    pts = P.ts_to_partition_test_space(wright_test_space())
    assert len(pts.base) == 4
    pl = P.pts_to_partition_logic(pts)
    reference = P.pasting_to_oa(corpus_entry("pl-wright").payload)
    assert P.isomorphic(P.pasting_to_oa(pl), reference) is not None


def test_firefly_to_partition_test_space():
    pts = P.ts_to_partition_test_space(firefly_test_space())
    assert len(pts.base) == 5
    assert P.verify_test_space(pts.as_test_space()).passed
    # every test maps to a partition of the weight set
    for t in pts.tests:
        assert sorted(p for c in t for p in c) == sorted(pts.base)


def test_fano_has_no_separating_weights():
    with pytest.raises(P.SeparationError) as err:
        P.ts_to_partition_test_space(fano_test_space())
    assert "no separating two-valued weights" in str(err.value)


def test_weight_count_preserved():
    for space in (wright_test_space(), firefly_test_space()):
        pts = P.ts_to_partition_test_space(space)
        again = P.enumerate_two_valued_weights(pts.as_test_space())
        assert len(again) == len(pts.base)


# completion -----------------------------------------------------------------------


def test_pts_firefly_already_complete():
    pts = pts_firefly()
    completed = P.completion(pts)
    assert len(completed.tests) == len(pts.tests)
    assert P.is_complete(pts)


def test_completion_finds_missing_partition():
    full = corpus_entry("pl-wright").payload
    cells = [c for part in full.partitions for c in part]
    tests = [fs(part) for part in full.partitions[:2]]
    pts = P.PartitionTestSpace(full.ground, cells, tests)
    assert not P.is_complete(pts)
    completed = P.completion(pts)
    assert len(completed.tests) == 3
    added = set(completed.tests) - set(pts.tests)
    assert added == {fs({fs({"1"}), fs({"3"}), fs({"2", "4"})})}


def test_singleton_cells_complete():
    pts = P.PartitionTestSpace(
        ["1", "2"], [fs({"1"}), fs({"2"})], [fs({fs({"1"}), fs({"2"})})]
    )
    assert P.is_complete(pts)


# partition test space <-> partition logic ------------------------------------------


def test_pts_firefly_partition_logic(firefly):
    pl = P.pts_to_partition_logic(pts_firefly())
    assert set(pl.ground) == {"1", "2", "3", "4"}
    assert P.isomorphic(P.pasting_to_oa(pl), firefly) is not None


def test_ex73_partitions_paste_to_fig12(fig12):
    pts = P.partition_logic_to_pts(corpus_entry("pl-fig12").payload)
    pl = P.pts_to_partition_logic(pts)
    assert P.isomorphic(P.pasting_to_oa(pl), fig12) is not None


def test_round_trip_partition_logics():
    for pl_id in ("pl-wright", "pl-fig12"):
        pl = corpus_entry(pl_id).payload
        back = P.pts_to_partition_logic(P.partition_logic_to_pts(pl))
        assert P.isomorphic(
            P.pasting_to_oa(back), P.pasting_to_oa(pl)
        ) is not None


# perspectivity properties ------------------------------------------------------------


def test_perspective_events_share_unions():
    for pts in (
        pts_firefly(),
        P.partition_logic_to_pts(corpus_entry("pl-wright").payload),
    ):
        ts = pts.as_test_space()
        events = ts.events()
        for e, f in itertools.combinations(events, 2):
            if ts.local_complements(e) & ts.local_complements(f):
                u_e = fs().union(*e) if e else fs()
                u_f = fs().union(*f) if f else fs()
                assert u_e == u_f


def test_complete_pts_equal_unions_are_perspective():
    pts = pts_firefly()
    assert P.is_complete(pts)
    ts = pts.as_test_space()
    events = ts.events()
    for e, f in itertools.combinations(events, 2):
        u_e = fs().union(*e) if e else fs()
        u_f = fs().union(*f) if f else fs()
        if u_e == u_f:
            assert ts.local_complements(e) & ts.local_complements(f), (e, f)


# OMP conditions ----------------------------------------------------------------------


def test_ex72_triple_condition_fails():
    pts = P.partition_logic_to_pts(corpus_entry("pl-wright").payload)
    res = P.omp_conditions(pts)
    assert not res.triple_condition
    e, f, g = res.triple_witness
    assert ({fs().union(*ev) for ev in (e, f, g)}) == {
        fs({"1"}),
        fs({"2"}),
        fs({"3"}),
    }
    # witness really is pairwise orthogonal with no joint test
    ts = pts.as_test_space()
    assert P.event_relations(ts, e, f).orthogonal
    assert P.event_relations(ts, f, g).orthogonal
    assert P.event_relations(ts, e, g).orthogonal
    assert not P.event_relations(ts, e | f, g).orthogonal


def test_pts_firefly_concrete_condition_fails():
    res = P.omp_conditions(pts_firefly())
    assert not res.concrete_condition
    e1, e2 = res.concrete_witness
    assert fs().union(*e1) == fs({"2"})
    assert fs().union(*e2) == fs({"3"})


def test_single_test_pts_satisfies_both():
    pts = P.PartitionTestSpace(
        ["1", "2"], [fs({"1"}), fs({"2"})], [fs({fs({"1"}), fs({"2"})})]
    )
    res = P.omp_conditions(pts)
    assert res.triple_condition and res.concrete_condition


# slow oracles and large inputs --------------------------------------------------------


def random_test_space(rng):
    """Small test space; some outcomes may lie in no test, tests may repeat."""
    outcomes = ["o%d" % i for i in range(rng.randint(1, 8))]
    tests = [
        set(rng.sample(outcomes, rng.randint(1, min(4, len(outcomes)))))
        for _ in range(rng.randint(1, 5))
    ]
    if rng.random() < 0.3:
        tests.append(set(rng.choice(tests)))
    return P.TestSpace(outcomes, tests)


def random_partition(rng, base):
    points = list(base)
    rng.shuffle(points)
    cells = []
    while points:
        k = rng.randint(1, len(points))
        cells.append(fs(points[:k]))
        points = points[k:]
    return fs(cells)


def random_pts(rng, max_points=6, max_tests=4):
    base = ["p%d" % i for i in range(rng.randint(1, max_points))]
    rng.shuffle(base)
    tests = [random_partition(rng, base) for _ in range(rng.randint(1, max_tests))]
    cells = {c for t in tests for c in t}
    for _ in range(rng.randint(0, 4)):
        cells.add(fs(rng.sample(base, rng.randint(1, len(base)))))
    return P.PartitionTestSpace(base, sorted(cells, key=sorted), tests)


def random_pts_of_pairs(rng):
    """Each test splits two singletons off the base and keeps the rest whole.

    Tests on {a, b}, {b, c} and {a, c} give three pairwise orthogonal events
    with no common test, so the triple condition often fails.
    """
    base = ["p%d" % i for i in range(rng.randint(4, 5))]
    tests = []
    for _ in range(rng.randint(3, 4)):
        pair = rng.sample(base, 2)
        rest = fs(set(base) - set(pair))
        tests.append(fs([fs({pair[0]}), fs({pair[1]}), rest]))
    cells = {c for t in tests for c in t}
    return P.PartitionTestSpace(base, sorted(cells, key=sorted), tests)


def brute_force_weights(ts):
    rows = []
    for row in itertools.product((0, 1), repeat=len(ts.outcomes)):
        value = dict(zip(ts.outcomes, row))
        if all(sum(value[x] for x in t) == 1 for t in ts.tests):
            rows.append(row)
    return rows


def depth_first_covers(base, cells):
    """Exact covers in the order of a depth-first search on the least label."""
    cells = sorted(set(cells), key=lambda c: tuple(sorted(str(p) for p in c)))
    out = []

    def search(remaining, chosen):
        if not remaining:
            out.append(fs(chosen))
            return
        pivot = min(remaining, key=str)
        for cell in cells:
            if pivot in cell and cell <= remaining:
                search(remaining - cell, chosen + [cell])

    search(fs(base), [])
    return out


def events_cubed_omp_conditions(pts):
    """The direct scan over events x events x events and event pairs."""
    ts = pts.as_test_space()
    events = ts.events()

    def orth(e, f):
        return not (e & f) and any(e | f <= t for t in ts.tests)

    triple = None
    for e, f, g in itertools.product(events, repeat=3):
        if orth(e, f) and orth(f, g) and orth(e, g) and not orth(e | f, g):
            triple = (e, f, g)
            break
    concrete = None
    for e1, e2 in itertools.combinations(events, 2):
        u1 = fs().union(*e1) if e1 else fs()
        u2 = fs().union(*e2) if e2 else fs()
        if (not (u1 & u2)) != orth(e1, e2):
            concrete = (e1, e2)
            break
    return triple, concrete


def test_weights_match_brute_force():
    rng = random.Random(7)
    free = repeated = 0
    for _ in range(300):
        ts = random_test_space(rng)
        free += any(all(x not in t for t in ts.tests) for x in ts.outcomes)
        repeated += len(set(ts.tests)) < len(ts.tests)
        rows = [w.row() for w in P.enumerate_two_valued_weights(ts)]
        assert rows == brute_force_weights(ts)
    assert free and repeated


def test_covers_match_brute_force_in_depth_first_order():
    rng = random.Random(11)
    for _ in range(300):
        pts = random_pts(rng)
        covers = [
            fs(chosen)
            for r in range(1, len(pts.cells) + 1)
            for chosen in itertools.combinations(pts.cells, r)
            if sum(len(c) for c in chosen) == len(pts.base)
            and fs().union(*chosen) == set(pts.base)
        ]
        ordered = depth_first_covers(pts.base, pts.cells)
        assert len(ordered) == len(covers) and set(ordered) == set(covers)
        # with no tests declared, completion adds every cover in search order
        bare = P.PartitionTestSpace(pts.base, pts.cells, [])
        assert list(P.completion(bare).tests) == ordered
        check = P.is_complete(pts)
        missing = [c for c in ordered if c not in set(pts.tests)]
        assert bool(check) == (not missing)
        assert check.witness == (tuple(missing[:1]) if missing else None)


def test_omp_conditions_match_events_cubed_scan():
    rng = random.Random(3)
    fails = {"triple": 0, "concrete": 0, "neither": 0}
    spaces = [
        random_pts_of_pairs(rng) if trial % 2 else random_pts(rng, max_points=5, max_tests=3)
        for trial in range(120)
    ]
    # the partition test spaces of L_3, L_4 and a chain of three blocks
    chain = ["x%d" % i for i in range(7)]
    tss = [loop_test_space(3), loop_test_space(4)]
    tss.append(P.TestSpace(chain, [chain[0:3], chain[2:5], chain[4:7]]))
    spaces += [P.ts_to_partition_test_space(ts) for ts in tss]
    for pts in spaces:
        triple, concrete = events_cubed_omp_conditions(pts)
        res = P.omp_conditions(pts)
        assert res.triple_witness == triple
        assert res.concrete_witness == concrete
        assert res.triple_condition == (triple is None)
        assert res.concrete_condition == (concrete is None)
        fails["triple"] += triple is not None
        fails["concrete"] += concrete is not None
        fails["neither"] += triple is None and concrete is None
    assert all(fails.values()), fails


def test_is_complete_on_large_base_of_singletons():
    base = ["p%d" % i for i in range(1200)]
    cells = [fs({p}) for p in base]
    pts = P.PartitionTestSpace(base, cells, [fs(cells)])
    assert P.is_complete(pts)


def test_weights_on_many_singleton_tests():
    outcomes = ["o%d" % i for i in range(1200)]
    ts = P.TestSpace(outcomes, [{x} for x in outcomes])
    weights = P.enumerate_two_valued_weights(ts)
    assert len(weights) == 1
    assert set(weights[0].row()) == {1}


# the exact-cover engine and the weight counter ---------------------------------------


def lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def loop_test_space(k):
    """The test space of k three-atom blocks in a ring, neighbours sharing one atom."""
    outcomes = ["x%d" % i for i in range(2 * k)]
    tests = [
        {outcomes[2 * i], outcomes[2 * i + 1], outcomes[(2 * i + 2) % (2 * k)]}
        for i in range(k)
    ]
    return P.TestSpace(outcomes, tests)


def subset_search_covers(width, rows):
    """Every set of nonzero rows covering the columns exactly once, as a row mask."""
    full = (1 << width) - 1
    out = []
    for chosen in range(1 << len(rows)):
        picked = [rows[r] for r in range(len(rows)) if chosen >> r & 1]
        if (
            all(picked)
            and sum(picked) == full
            and functools.reduce(operator.or_, picked, 0) == full
        ):
            out.append(chosen)
    return out


def random_rows(rng, width, count):
    """Rows over `width` columns, zero and repeated rows among them."""
    rows = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1:
            rows.append(0)
        elif roll < 0.2 and rows:
            rows.append(rng.choice(rows))
        else:
            cols = rng.sample(range(width), rng.randint(1, min(3, width)))
            rows.append(sum(1 << c for c in cols))
    return rows


def test_exact_covers_match_subset_search():
    rng = random.Random(5)
    seen = {"zero": 0, "repeated": 0, "covers": 0, "none": 0}
    for _ in range(400):
        width = rng.randint(1, 6)
        rows = random_rows(rng, width, rng.randint(1, 11))
        expected = subset_search_covers(width, rows)
        assert sorted(testspace._exact_covers(width, rows)) == expected
        assert testspace.count_exact_covers(width, rows) == len(expected)
        seen["zero"] += 0 in rows
        seen["repeated"] += len(set(rows)) < len(rows)
        seen["covers"] += len(expected) > 1
        seen["none"] += not expected
    assert all(v >= 20 for v in seen.values()), seen


def test_exact_covers_past_64_rows_and_columns():
    # small instances on disjoint columns, their rows shuffled together: the
    # covers are every choice of one cover from each instance
    rng = random.Random(9)
    rows, pieces, width = [], [], 0
    while width <= 64 or len(rows) <= 64:
        w = rng.randint(6, 10)
        small = random_rows(rng, w, rng.randint(8, 13))
        covers = subset_search_covers(w, small)
        if not 1 <= len(covers) <= 4:
            continue
        start = len(rows)
        rows += [r << width for r in small]
        pieces.append([c << start for c in covers])
        width += w
    order = list(range(len(rows)))
    rng.shuffle(order)
    position = {r: i for i, r in enumerate(order)}

    def moved(mask):
        return sum(1 << position[r] for r in range(len(rows)) if mask >> r & 1)

    shuffled = [rows[r] for r in order]
    expected = sorted(moved(sum(choice)) for choice in itertools.product(*pieces))
    assert len(expected) > 1
    assert sorted(testspace._exact_covers(width, shuffled)) == expected
    assert testspace.count_exact_covers(width, shuffled) == len(expected)


def test_listed_weights_hold_exact_zero_one_values():
    rng = random.Random(7)
    spaces = [random_test_space(rng) for _ in range(100)]
    spaces += [wright_test_space(), firefly_test_space(), loop_test_space(9)]
    zero, one = testspace._VALUES
    for ts in spaces:
        for w in P.enumerate_two_valued_weights(ts):
            text = repr(w)  # before anything else reads the listed weight
            eager = P.Weight(ts, {x: int(w(x)) for x in ts.outcomes})
            assert text == repr(eager) and w.row() == eager.row()
            assert [w(x) for x in ts.outcomes] == [eager(x) for x in ts.outcomes]
            assert w.values == eager.values
            assert all(v is zero or v is one for v in w.values.values())
            assert P.is_weight(ts, w)
    ts = firefly_test_space()
    x, y = ts.outcomes[:2]
    w = P.Weight(ts, {z: "1/2" if z in (x, y) else 0 for z in ts.outcomes})
    assert w(x) == Fraction(1, 2) and type(w(ts.outcomes[2])) is Fraction
    assert not P.is_weight(ts, w)
    # 2 on l, -1 on r and 1 on f sum to 1 on each test, but lie outside [0, 1]
    w = P.Weight(ts, {z: {x: 2, y: -1, "f": 1}.get(z, 0) for z in ts.outcomes})
    assert not P.is_weight(ts, w)
    with pytest.raises(KeyError):
        P.Weight(ts, {x: 1})
    with pytest.raises(ValueError):
        P.Weight(ts, dict.fromkeys(ts.outcomes, "x"))


def weight_count_cases():
    rng = random.Random(7)
    for _ in range(300):
        yield random_test_space(rng)
    for e in P.corpus():
        if e.kind == "greechie":
            yield P.TestSpace.from_greechie(e.payload)
        elif e.kind == "test_space":
            yield e.payload.as_test_space()
        elif e.kind == "partition_logic":
            yield P.partition_logic_to_pts(e.payload).as_test_space()
    for k in range(3, 9):
        pts = P.ts_to_partition_test_space(loop_test_space(k))
        yield pts.as_test_space()


def test_weight_count_matches_listing():
    free = repeated = 0
    for ts in weight_count_cases():
        free += any(all(x not in t for t in ts.tests) for x in ts.outcomes)
        repeated += len(set(ts.tests)) < len(ts.tests)
        assert P.count_two_valued_weights(ts) == len(P.enumerate_two_valued_weights(ts))
    assert free and repeated


@pytest.mark.parametrize("k", [12, 16, 20])
def test_loop_weights_are_lucas_numbers(k):
    ts = loop_test_space(k)
    assert P.count_two_valued_weights(ts) == lucas(k)
    assert len(P.enumerate_two_valued_weights(ts)) == lucas(k)


def test_weight_count_on_large_inputs():
    # both take one frame per component or branch if the count recurses
    outcomes = ["o%d" % i for i in range(1200)]
    singletons = P.TestSpace(outcomes, [{x} for x in outcomes])
    assert P.count_two_valued_weights(singletons) == 1
    assert P.count_two_valued_weights(loop_test_space(1000)) == lucas(1000)


def test_outcome_that_no_weight_values_is_named():
    # covering and antichain hold, but every weight values o1 or o3 at 1,
    # so none values o6, whose cell would be empty
    ts = P.TestSpace(
        ["o%d" % i for i in range(7)],
        [["o1", "o3"], ["o0", "o1", "o4", "o6"], ["o2", "o3", "o5", "o6"]],
    )
    assert P.verify_test_space(ts).structure_class == "test_space"
    with pytest.raises(P.SeparationError) as err:
        P.ts_to_partition_test_space(ts)
    assert str(err.value) == "no two-valued weight values outcome 'o6' at 1"


def test_weight_listing_memory_is_pinned():
    # the cover search holds every subproblem's list until it returns: a
    # 19.1 MB peak for the Lucas(24) = 103,682 weights of the 24-block loop,
    # 4.12 times a plain list of as many 48-bit ints (4.63 MB) on Python 3.11
    ts = loop_test_space(24)
    tracemalloc.start()
    try:
        m = testspace._two_valued_matrix(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m) == lucas(24) * len(ts.outcomes)
    tracemalloc.start()
    try:
        masks = [(1 << 47) + k for k in range(lucas(24))]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(masks) == lucas(24)
    assert peak <= 4.5 * size
