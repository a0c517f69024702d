"""Two-valued states, prime ideals, and exact state-space solving."""

import random
import sys
from fractions import Fraction

import pytest

import partlogic as P
from conftest import (
    boolean_table,
    brute_force_states,
    corpus_table,
    exhaustive_states,
)

TAB10 = sorted(
    [
        (1, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, 1),
        (0, 1, 0, 0, 1, 0),
        (0, 1, 0, 1, 0, 1),
    ]
)

TAB13 = sorted(
    [
        (1, 0, 0, 1, 0, 0, 1, 0, 1),
        (1, 0, 0, 1, 0, 0, 0, 1, 0),
        (0, 1, 0, 1, 0, 1, 1, 0, 1),
        (0, 1, 0, 1, 0, 1, 0, 1, 0),
        (0, 0, 1, 0, 0, 1, 1, 0, 0),
        (0, 1, 0, 0, 1, 0, 0, 0, 1),
    ]
)


def atom_rows(table):
    atoms = P.atoms_of(table)
    return sorted(s.row(atoms) for s in P.enumerate_two_valued_states(table))


def test_wright_states_match_reference_rows(wright):
    assert P.atoms_of(wright) == ["a", "b", "c", "d", "e", "f"]
    assert atom_rows(wright) == TAB10


def test_fig12_states_match_reference_rows(fig12):
    assert P.atoms_of(fig12) == list("abcdefghi")
    assert atom_rows(fig12) == TAB13


def test_fano_has_no_two_valued_states(fano):
    assert P.enumerate_two_valued_states(fano) == []


def test_enumeration_matches_blockwise_oracle(tables):
    for eid, t in tables.items():
        got = sorted(s.bits for s in P.enumerate_two_valued_states(t))
        assert got == brute_force_states(t), eid


def test_enumeration_matches_full_assignment_oracle(tables):
    for eid, t in tables.items():
        if len(t.elements) > 14:
            continue
        got = sorted(s.bits for s in P.enumerate_two_valued_states(t))
        assert got == exhaustive_states(t), eid


def test_states_are_rational_states(tables):
    for t in tables.values():
        for s in P.enumerate_two_valued_states(t):
            rs = P.RationalState(t, {e: s(e) for e in t.elements})
            assert P.is_state(t, rs)


# is_state --------------------------------------------------------------------


def test_fano_uniform_third_is_state(fano):
    atoms = set(P.atoms_of(fano))
    values = {}
    for e in fano.elements:
        if e == fano.zero:
            values[e] = 0
        elif e == fano.one:
            values[e] = 1
        elif e in atoms:
            values[e] = Fraction(1, 3)
        else:
            values[e] = Fraction(2, 3)
    assert P.is_state(fano, P.RationalState(fano, values))


def test_firefly_uniform_third_is_state(firefly):
    atoms = set(P.atoms_of(firefly))
    values = {}
    for e in firefly.elements:
        if e == firefly.zero:
            values[e] = 0
        elif e == firefly.one:
            values[e] = 1
        elif e in atoms:
            values[e] = Fraction(1, 3)
        else:
            values[e] = Fraction(2, 3)
    assert P.is_state(firefly, P.RationalState(firefly, values))


def test_broken_normalization_is_not_a_state():
    t = boolean_table(2)
    values = {e: 0 for e in t.elements}
    values[t.one] = 1
    assert not P.is_state(t, P.RationalState(t, values))


def test_is_state_rejects_a_bad_unit_or_a_value_outside_the_unit_interval():
    t = P.from_greechie(P.GreechieDiagram(["a", "b"], [["a", "b"]]))
    state = {"0": 0, "a": 1, "b": 0, "1": 1}
    assert P.is_state(t, P.RationalState(t, state))
    # a bad unit, values outside [0, 1] that stay additive, additivity alone
    for change in ({"1": 0}, {"a": 2, "b": -1}, {"a": 0}):
        assert not P.is_state(t, P.RationalState(t, {**state, **change}))


# state <-> prime ideal -------------------------------------------------------


def test_wright_first_row_ideal(wright):
    states = P.enumerate_two_valued_states(wright)
    row1 = next(
        s
        for s in states
        if s.row(P.atoms_of(wright)) == (1, 0, 0, 1, 0, 0)
    )
    ideal = P.state_to_prime_ideal(wright, row1)
    assert {"b", "c", "e", "f"} <= ideal.members
    for a in ideal.members:
        for b in wright.elements:
            if P.leq(wright, b, a):
                assert b in ideal.members


def test_round_trip_state_ideal(tables):
    for t in tables.values():
        for s in P.enumerate_two_valued_states(t):
            ideal = P.state_to_prime_ideal(t, s)
            assert P.is_prime_ideal(t, ideal)
            back = P.prime_ideal_to_state(t, ideal)
            assert back == s


def test_ideal_count_equals_state_count(tables):
    for t in tables.values():
        states = P.enumerate_two_valued_states(t)
        ideals = {P.state_to_prime_ideal(t, s).members for s in states}
        assert len(ideals) == len(states)


def test_fig12_row5_ideal_excludes_c_f_g(fig12):
    states = P.enumerate_two_valued_states(fig12)
    row5 = next(
        s
        for s in states
        if s.row(P.atoms_of(fig12)) == (0, 0, 1, 0, 0, 1, 1, 0, 0)
    )
    ideal = P.state_to_prime_ideal(fig12, row5)
    for atom in ("c", "f", "g"):
        assert atom not in ideal.members
        assert P.orthocomplement(fig12, atom) in ideal.members


def test_invalid_ideal_rejected(wright):
    with pytest.raises(P.StructureError):
        P.prime_ideal_to_state(wright, P.PrimeIdeal(frozenset({"a"})))


def test_an_ideal_outside_the_elements_is_not_prime(wright):
    assert not P.is_prime_ideal(wright, P.PrimeIdeal(frozenset({"0", "z"})))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"1": 0}, "state does not map 1 to 1"),
        ({"a": 0}, "state not additive on a + b"),
        ({"a": Fraction(1, 2), "b": Fraction(1, 2)}, "state is not two-valued at a"),
        # a value off {0, 1} is named before the sum it breaks
        ({"a": 2}, "state is not two-valued at a"),
    ],
)
def test_state_to_prime_ideal_needs_a_two_valued_state(change, message):
    t = P.from_greechie(P.GreechieDiagram(["a", "b"], [["a", "b"]]))
    state = P.RationalState(t, {"0": 0, "a": 1, "b": 0, "1": 1, **change})
    with pytest.raises(P.StructureError) as err:
        P.state_to_prime_ideal(t, state)
    assert str(err.value) == message


def test_an_additive_state_off_zero_and_one_has_no_prime_ideal(wright):
    # a = c = e = 1/2 and b = d = f = 0, extended through each block's sums,
    # is a state; its zeros {0, b, d, f} are not a prime ideal
    half = Fraction(1, 2)
    atoms = {"a": half, "b": 0, "c": half, "d": 0, "e": half, "f": 0}
    values = {}
    for blk in P.blocks(wright):
        _, sums = P.boolean_atoms(wright, frozenset(blk))
        values.update((e, sum(atoms[a] for a in subset)) for subset, e in sums.items())
    state = P.RationalState(wright, values)
    assert P.is_state(wright, state)
    assert not P.is_prime_ideal(wright, P.PrimeIdeal(frozenset({"0", "b", "d", "f"})))
    with pytest.raises(P.StructureError) as err:
        P.state_to_prime_ideal(wright, state)
    assert str(err.value) == "state is not two-valued at a"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda t: P.TwoValuedState(t, [0, 1]), "state is not total on the element set"),
        (lambda t: P.TwoValuedState(t, [0, 2, 1, 1]), "state takes a value outside {0,1}"),
        (lambda t: P.RationalState(t, {}), "state missing value for 0"),
    ],
)
def test_state_input_errors(build, message):
    with pytest.raises(P.StructureError) as err:
        build(P.from_greechie(P.GreechieDiagram(["a", "b"], [["a", "b"]])))
    assert str(err.value) == message


# primeness -------------------------------------------------------------------


def test_wright_is_prime(wright):
    res = P.is_prime(wright)
    assert res
    assert len(res.separating) == 4


def test_fano_is_not_prime(fano):
    res = P.is_prime(fano)
    assert not res
    a, b = res.inseparable
    assert a != b


def test_boolean_is_prime():
    assert P.is_prime(boolean_table(2))


def test_prime_tables_separate_all_pairs(tables):
    import itertools

    for eid, t in tables.items():
        res = P.is_prime(t)
        if not res:
            continue
        for a, b in itertools.combinations(t.elements, 2):
            assert any(s(a) != s(b) for s in res.separating), eid


@pytest.mark.parametrize(
    "f",
    [
        P.enumerate_two_valued_states,
        P.is_prime,
        P.oa_to_partition_logic,
        P.state_space_solve,
    ],
)
@pytest.mark.parametrize(
    "elements, missing", [(["a", "1"], "zero"), (["0", "a"], "one")]
)
def test_missing_zero_or_one_is_a_structure_error(f, elements, missing):
    t = P.FiniteQuasiOrthoalgebra(elements, "0", "1", {})
    with pytest.raises(P.StructureError, match="^%s is not an element$" % missing):
        f(t)
    with pytest.raises(P.StructureError, match="^%s is not an element$" % missing):
        P.verify_oa(t)


# state_space_solve -----------------------------------------------------------


def test_fano_state_space_is_a_point(fano):
    sol = P.state_space_solve(fano)
    assert sol.dimension == 0
    assert sol.feasible
    for a in P.atoms_of(fano):
        assert sol.sample(a) == Fraction(1, 3)


def test_single_block_simplex_dimension():
    t = P.pasting_to_oa(
        P.PartitionLogic(["1", "2", "3"], [[{"1"}, {"2"}, {"3"}]])
    )
    sol = P.state_space_solve(t)
    assert sol.dimension == 2
    assert sol.feasible


def test_wright_state_space_dimension(wright):
    sol = P.state_space_solve(wright)
    assert sol.feasible
    assert P.is_state(wright, sol.sample)
    assert sol.dimension == _rank_oracle_dimension(wright)
    assert sol.dimension == 3


def _rank_oracle_dimension(table):
    # independent rank computation for the same equality system
    from sympy import Matrix, Rational

    idx = table.index
    n = len(table.elements)
    rows = []
    r = [Rational(0)] * (n + 1)
    r[idx(table.zero)] = Rational(1)
    rows.append(list(r))
    r = [Rational(0)] * (n + 1)
    r[idx(table.one)] = Rational(1)
    r[n] = Rational(1)
    rows.append(list(r))
    for a, b, c in table.pairs():
        r = [Rational(0)] * (n + 1)
        r[idx(a)] += 1
        r[idx(b)] += 1
        r[idx(c)] -= 1
        rows.append(list(r))
    m = Matrix(rows)
    coeff = m[:, :-1]
    return n - coeff.rank()


def loop_table(k, r=1):
    """k blocks of r + 2 atoms in a cycle, neighbours sharing one atom."""
    atoms = ["a%02d" % i for i in range(k * (r + 1))]
    step = r + 1
    blocks = [
        atoms[i * step : (i + 1) * step] + [atoms[(i + 1) * step % len(atoms)]]
        for i in range(k)
    ]
    return P.from_greechie(P.GreechieDiagram(atoms, blocks))


def deepest_stack(f, *args):
    """f(*args) and the deepest Python stack below the call, in frames.

    A generator's resumption is counted as a call, its yield as a return.
    """
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        out = f(*args)
    finally:
        sys.setprofile(None)
    return out, deepest


def test_state_search_takes_no_frame_per_branch():
    # the search used to recurse once per branch: 19 frames deep on L_16,
    # and past Python's stack limit on loops of about 1,000 blocks
    tables = [loop_table(k) for k in (8, 16, 20)]
    for t in tables:
        t.rows()
    depths = [deepest_stack(P.enumerate_two_valued_states, t) for t in tables]
    assert len(depths[1][0]) == 2207
    assert depths[0][1] == depths[2][1]


def test_state_space_dimension_matches_rank_oracle(tables):
    inputs = {eid: corpus_table(eid) for eid in ("firefly", "fano", "fig12")}
    inputs.update({"L_%d" % k: loop_table(k) for k in range(3, 9)})
    inputs["4-atom L_5"] = loop_table(5, r=2)
    for eid, t in inputs.items():
        sol = P.state_space_solve(t)
        assert sol.dimension == _rank_oracle_dimension(t), eid
        assert sol.feasible and P.is_state(t, sol.sample), eid


def test_fano_plus_block_has_a_state():
    # states exist (f = 1/3, x_i = 2/9 is one) though none is two-valued
    d = P.GreechieDiagram(
        list("abcdefg") + ["x1", "x2", "x3"],
        [list(line) for line in "abc ade cfe agf cgd egb bdf".split()]
        + [["f", "x1", "x2", "x3"]],
    )
    t = P.from_greechie(d)
    sol = P.state_space_solve(t)
    assert sol.dimension == 2
    assert sol.feasible
    assert P.is_state(t, sol.sample)


def test_bounds_infeasible_system_keeps_its_dimension():
    # 1 + 1 = x forces s(x) = 2
    t = P.FiniteQuasiOrthoalgebra(["0", "1", "x"], "0", "1", {("1", "1"): "x"})
    sol = P.state_space_solve(t)
    assert sol.dimension == 0
    assert not sol.feasible
    assert sol.sample("x") == 2


def test_inconsistent_equalities_have_dimension_minus_one():
    # 0 + 0 = 1 forces 0 = 1
    t = P.FiniteQuasiOrthoalgebra(["0", "1"], "0", "1", {("0", "0"): "1"})
    assert P.state_space_solve(t) == P.StateSpaceSolution(-1, None, False)


def test_state_space_solve_does_not_enumerate_states(monkeypatch, wright):
    def forbidden(table):
        raise AssertionError("state_space_solve enumerated two-valued states")

    monkeypatch.setattr(P.states, "enumerate_two_valued_states", forbidden)
    assert P.state_space_solve(wright).feasible
    assert P.state_space_solve(loop_table(16, r=2)).feasible


def _numeric_oracle(table):
    """Affine dimension (numpy rank) and feasibility (scipy HiGHS) of the
    state equations with 0 <= s <= 1, in floating point."""
    import numpy as np
    from scipy.optimize import linprog

    idx = table.index
    n = len(table.elements)
    rows = [np.eye(n)[idx(table.zero)], np.eye(n)[idx(table.one)]]
    rhs = [0, 1]
    for a, b, c in table.pairs():
        r = np.zeros(n)
        r[idx(a)] += 1
        r[idx(b)] += 1
        r[idx(c)] -= 1
        rows.append(r)
        rhs.append(0)
    res = linprog(
        np.zeros(n),
        A_eq=np.array(rows),
        b_eq=np.array(rhs),
        bounds=[(0, 1)] * n,
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return n - np.linalg.matrix_rank(np.array(rows)), res.status == 0


def test_feasibility_matches_linprog_on_random_diagrams(monkeypatch):
    pytest.importorskip("scipy")
    phase_one = P.states._phase_one
    pivoting = []

    def counted(rows, nvars):
        pivoting.append(any(b < 0 for _, b in rows))
        return phase_one(rows, nvars)

    monkeypatch.setattr(P.states, "_phase_one", counted)
    rng = random.Random(20261017)
    checked = 0
    while checked < 150:
        atoms = ["a%d" % i for i in range(rng.randint(4, 12))]
        blocks = [
            rng.sample(atoms, rng.randint(2, 4)) for _ in range(rng.randint(2, 10))
        ]
        try:
            used = [a for a in atoms if any(a in b for b in blocks)]
            t = P.from_greechie(P.GreechieDiagram(used, blocks))
        except P.LogicError:
            continue
        checked += 1
        sol = P.state_space_solve(t)
        if sol.dimension < 0:
            assert not sol.feasible
            continue
        assert (sol.dimension, sol.feasible) == _numeric_oracle(t), blocks
        if sol.feasible:
            assert P.is_state(t, sol.sample), blocks
    # the sample must exercise the simplex, not only the free-at-0 point
    assert sum(pivoting) >= 10


def test_phase_one_matches_linprog_on_random_systems():
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import linprog

    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        nvars = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 6)):
            a = {j: rng.randint(-3, 3) for j in range(nvars) if rng.random() < 0.7}
            rows.append((a, rng.randint(-4, 4)))
        x = P.states._phase_one(rows, nvars)
        dense = np.array([[a.get(j, 0) for j in range(nvars)] for a, _ in rows])
        res = linprog(
            np.zeros(nvars),
            A_ub=dense,
            b_ub=np.array([b for _, b in rows]),
            bounds=[(0, None)] * nvars,
            method="highs",
        )
        assert (x is not None) == (res.status == 0), rows
        if x is not None:
            assert all(v >= 0 and isinstance(v, Fraction) for v in x)
            for a, b in rows:
                assert sum(c * x[j] for j, c in a.items()) <= b
        outcomes.add(x is not None)
    assert outcomes == {True, False}
