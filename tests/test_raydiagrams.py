"""Ray diagrams: their sizes, blocks and two-valued states."""

import random
import time

import pytest

import partlogic as P
from conftest import brute_force_states
from raydiagrams import R, bases, closed_R, name, shuffled

# (d, m): atoms, blocks, elements, two-valued states
FIGURES = {
    (3, 1): (9, 4, 20, 12),
    (3, 2): (49, 26, 100, 31104),
    (3, 3): (97, 50, 196, 2038431744),
    (4, 1): (40, 32, 220, 0),
    (5, 1): (105, 136, 1672, 0),
}


@pytest.mark.parametrize("d, m", FIGURES)
def test_ray_diagram_figures(d, m):
    atoms, blocks, elements, states = FIGURES[d, m]
    diagram = R(d, m)
    table = P.from_greechie(diagram)
    assert (len(diagram.atoms), len(diagram.blocks), len(table.elements)) == (atoms, blocks, elements)
    assert P.count_two_valued_weights(P.TestSpace.from_greechie(diagram)) == states
    if states < 10**6:
        # the 2,038,431,744 states of R(3,3) are counted only
        assert len(P.enumerate_two_valued_states(table)) == states


# m: atoms, blocks and two-valued states of the closed R(3, m)
CLOSED = {1: (25, 16, 24), 2: (109, 86, 0), 3: (541, 446, 0)}


@pytest.mark.parametrize("m", CLOSED)
def test_closed_ray_diagram_figures(m):
    atoms, blocks, states = CLOSED[m]
    diagram = closed_R(m)
    assert (len(diagram.atoms), len(diagram.blocks)) == (atoms, blocks)
    assert P.count_two_valued_weights(P.TestSpace.from_greechie(diagram)) == states
    assert len(P.enumerate_two_valued_states(P.from_greechie(diagram))) == states


def test_closed_R33_is_refuted_fast():
    # it holds the closed R(3, 2), so it has no state; the search ends a
    # branch once its forced atoms leave a block that no atom can fill
    ts = P.TestSpace.from_greechie(closed_R(3))
    start = time.perf_counter()
    assert P.count_two_valued_weights(ts) == 0
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("d, m", [(3, 1), (3, 2), (4, 1)])
def test_ray_diagram_blocks_are_its_bases(d, m):
    table = P.from_greechie(R(d, m))
    found = {frozenset(P.boolean_atoms(table, frozenset(b))[0]) for b in P.blocks(table)}
    assert found == {frozenset(map(name, b)) for b in bases(d, m)}


def test_ray_diagram_states_match_brute_force():
    table = P.from_greechie(R(3, 1))
    got = sorted(s.bits for s in P.enumerate_two_valued_states(table))
    assert got == brute_force_states(table)


@pytest.mark.parametrize("d, m", [(3, 1), (3, 2)])
def test_shuffled_ray_diagram_is_isomorphic(d, m):
    diagram = R(d, m)
    for seed in range(3):
        copy = shuffled(diagram, random.Random(seed))
        assert copy.atoms != diagram.atoms
        assert P.isomorphic(P.from_greechie(diagram), P.from_greechie(copy)) is not None


def test_ray_diagram_realization_round_trip():
    table = P.from_greechie(R(3, 1))
    pl = P.oa_to_partition_logic(table)
    assert len(pl.ground) == 12
    assert P.isomorphic(P.pasting_to_oa(pl), table) is not None
